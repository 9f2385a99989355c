"""Durable streaming sessions: write-ahead log, atomic snapshots, replay.

The streaming subsystem (:mod:`repro.serve`) keeps all state in memory; a
crash replays the world from scratch.  This module is the persistence layer
behind ``SessionConfig(durable=...)`` (created or resumed by
:func:`repro.serve.open_session`), built from two artifacts living in one
directory:

* an append-only NDJSON **write-ahead log** (``wal.ndjson``) — the applier
  fsyncs each micro-batch record *before* applying it, so any event whose
  ``flush()`` was acknowledged is on disk;
* periodic **atomic snapshots** (``snapshot-<seq>.snap``) of the full
  evaluator state, written temp-file + rename with a checksum footer, so a
  partially written snapshot is never visible under its final name.

Resume loads the newest snapshot that validates, replays the WAL records
with sequence beyond it, and reopens the log — O(delta) instead of
O(history).  Snapshots carry the evaluator's dependency ledger and its
clean cached estimates (the ``deps.*``/``cache.*`` arrays of
:meth:`~repro.core.incremental.IncrementalEvaluator.export_state`) in
addition to the response data and backend caches, so a resumed session
serves warm intervals for workers the WAL delta never touched — zero
recomputation, bit-identical to the estimates served before the crash.

WAL format (version 1)
----------------------

One JSON document per line.  The first line is the versioned header::

    {"format": "repro-durable-wal", "version": 1}

Every other line is a batch record::

    {"seq": [first, last], "events": [[w, t, l], ...], "crc": <crc32>}

``seq`` is the inclusive 1-based sequence range of the batch's events in
submission order; ``crc`` is the CRC-32 of the canonical JSON encoding of
the record without the ``crc`` key (sorted keys, no whitespace).  A missing
or future-version header raises
:class:`~repro.exceptions.DurableStateError`; a record that fails to
decode, fails its CRC, or lacks its trailing newline marks the **tail** of
the log — it and everything after it are the un-acknowledged residue of a
crash mid-append and are discarded (the file is truncated back to the last
valid record when the log is reopened, so later appends never interleave
with garbage).  Records are idempotent under replay: a record whose
``last`` sequence is already covered by the restored state is skipped, so
duplicated batches (or replaying twice) cannot double-apply; a *gap* in
the sequence numbering, by contrast, means data loss in the middle of the
log and raises.  A record that decodes but holds events the session's
admission rule rejects (a log written before admission control existed)
is not a tail: resume applies its valid events, skips the others and
counts them in :attr:`DurableStore.quarantined_events`.

Directories in the removed multi-writer layout (``wal-<p>.ndjson``
segments, snapshots whose meta carries a ``"multiwriter"`` key) are
refused with :class:`~repro.exceptions.DurableStateError` rather than
resumed as a single log, which would silently drop the segments' events.

Snapshot format (version 1)
---------------------------

A single binary file: one JSON header line (format id, version, the
evaluator meta including the last applied sequence, and an array manifest
of name/dtype/shape in payload order), the raw C-contiguous bytes of each
manifest array concatenated in order, and a fixed-width footer
``sha256:<hex>\\n`` over everything before it.  Loading verifies the
checksum and returns fresh *writable* array copies, so the restored backend
caches stay delta-updatable; a snapshot that fails validation is skipped in
favour of the next older one (pure WAL replay when none survives).

The payload is the evaluator's state, not everything derived from it: the
dense backend's ``m^3`` triple-count tensor is rebuilt from the restored
attempt plane on first use (exact integer counts) instead of being written
with every snapshot.  Snapshots that do carry a ``backend.triple_tensor``
array (written before it was dropped) still load and resume unchanged.

Snapshots are written to a ``snapshot-<seq>.snap.tmp`` sibling, fsynced,
atomically renamed into place and the directory fsynced — visible or
absent, never partial.  Pruning keeps the ``keep_snapshots`` newest and
*recycles* the file it retires instead of unlinking it: the retired
snapshot is renamed to the single spare name ``snapshot.spare`` (which the
``snapshot-*.snap`` glob never matches), and the next snapshot renames the
spare to its ``.tmp`` name and overwrites it in place, truncating it to
the new length.  On a filesystem that trims freed blocks synchronously
(ext4 mounted with ``discard``) an unlink of a multi-megabyte file stalls
for tens of milliseconds, directly or at the next WAL fsync; in steady
state the recycle protocol frees no block at all.  The first snapshots of
a fresh directory, before any is retired, are new files.  A crash at any
step leaves one of these states, none of which loses a snapshot that
validated before the step:

* the spare renamed to ``.tmp`` but not yet (fully) overwritten — a
  ``.tmp`` file, invisible to loaders;
* the ``.tmp`` written but not renamed — likewise invisible;
* the new snapshot renamed into place — complete, since its data was
  fsynced before the rename;
* a retired snapshot not yet renamed to the spare — one snapshot more
  than ``keep_snapshots``, retired by the next prune.

Resume (``open(resume=True)``) clears the residue: it keeps the existing
spare, or else one leftover ``.tmp`` file as the spare, and unlinks any
other ``.tmp``.  An I/O error at any step of a WAL append or a snapshot
propagates, which stops the session.  A failed append first closes the
log and cuts it back to its last acknowledged record (best effort: the cut
is itself I/O), so a batch whose append failed is not replayed by a later
resume.

The resume determinism contract lives with the streaming contract in
:mod:`repro.core.agreement`: a resumed session is bit-identical to one
that was never interrupted, locked by the ``resumed`` fuzz column of the
cross-backend differential suite and the crash-smoke CI job.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError, DurableStateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session imports us)
    from repro.core.incremental import IncrementalEvaluator

__all__ = [
    "DurableStore",
    "WAL_FORMAT",
    "WAL_VERSION",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "load_snapshot_file",
    "write_snapshot_file",
]

WAL_FORMAT = "repro-durable-wal"
WAL_VERSION = 1
WAL_NAME = "wal.ndjson"
#: Segment logs of the removed multi-writer layout; never read or written.
LEGACY_SEGMENT_GLOB = "wal-*.ndjson"

SNAPSHOT_FORMAT = "repro-durable-snapshot"
SNAPSHOT_VERSION = 1
SNAPSHOT_SUFFIX = ".snap"
SNAPSHOT_GLOB = f"snapshot-*{SNAPSHOT_SUFFIX}"
#: Snapshots that survive pruning unless ``keep_snapshots`` says otherwise.
DEFAULT_KEEP_SNAPSHOTS = 2
#: The retired snapshot file kept for reuse; outside ``SNAPSHOT_GLOB``.
SPARE_NAME = "snapshot.spare"

#: Fixed-width snapshot footer: b"sha256:" + 64 hex digits + b"\n".
_FOOTER_LEN = 7 + 64 + 1


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _record_crc(seq: list[int], events: list[list[int]]) -> int:
    return zlib.crc32(_canonical({"seq": seq, "events": events}))


def _encode_record(seq: list[int], events: list[list[int]]) -> bytes:
    """One WAL line (newline included), encoding the record once.

    The record's keys sort as ``crc < events < seq``, so the canonical
    text the CRC covers is the line minus its leading ``"crc"`` member:
    splicing that member in front gives exactly
    ``json.dumps(record, sort_keys=True, separators=(",", ":"))``.
    """
    canonical = _canonical({"events": events, "seq": seq})
    return b'{"crc":%d,%s\n' % (zlib.crc32(canonical), canonical[1:])


def _write_all(fd: int, data) -> int:
    """Write every byte of ``data`` (a bytes-like object) to ``fd``."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]
    return len(data)


# --------------------------------------------------------------------------- #
# Snapshot files
# --------------------------------------------------------------------------- #


def write_snapshot_file(
    path: str | Path,
    meta: dict,
    arrays: dict[str, np.ndarray],
    *,
    recycle: str | Path | None = None,
) -> Path:
    """Atomically write one snapshot file (temp sibling + rename).

    The caller's ``meta`` must be JSON-serializable; arrays are stored as
    raw C-contiguous bytes in manifest order.  The file only ever appears
    under ``path`` complete and checksummed — a crash mid-write leaves at
    most a ``.tmp`` sibling, which loaders ignore.  When ``recycle`` names
    an existing file it is renamed to the ``.tmp`` sibling and overwritten
    in place (then truncated to the snapshot's length) instead of a new
    file being allocated; a missing ``recycle`` file means a new one.
    """
    path = Path(path)
    manifest = []
    chunks = []
    for name, array in arrays.items():
        contiguous = np.ascontiguousarray(array)
        manifest.append(
            {
                "name": name,
                "dtype": contiguous.dtype.str,
                "shape": list(contiguous.shape),
            }
        )
        # A flat byte view: hashed and written without a copy.
        chunks.append(contiguous.reshape(-1).view(np.uint8))
    header = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "meta": meta,
        "arrays": manifest,
    }
    chunks.insert(0, json.dumps(header, sort_keys=True).encode() + b"\n")
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    chunks.append(b"sha256:" + digest.hexdigest().encode() + b"\n")
    tmp = path.with_name(path.name + ".tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    if recycle is not None and os.path.exists(recycle):
        os.replace(recycle, tmp)
        flags = os.O_WRONLY  # overwrite the recycled blocks in place
    fd = os.open(tmp, flags, 0o644)
    try:
        size = sum(_write_all(fd, chunk) for chunk in chunks)
        os.ftruncate(fd, size)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    _fsync_directory(path.parent)
    return path


def load_snapshot_file(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Load and verify one snapshot; returns ``(meta, writable arrays)``.

    Raises :class:`~repro.exceptions.DurableStateError` on any validation
    failure (truncation, checksum mismatch, unsupported version); callers
    that scan a directory catch it and fall back to an older snapshot.
    """
    data = Path(path).read_bytes()
    if len(data) <= _FOOTER_LEN:
        raise DurableStateError(f"snapshot {path} is truncated")
    payload, footer = data[:-_FOOTER_LEN], data[-_FOOTER_LEN:]
    if not footer.startswith(b"sha256:") or not footer.endswith(b"\n"):
        raise DurableStateError(f"snapshot {path} has a malformed checksum footer")
    expected = footer[7:-1].decode("ascii", errors="replace")
    if hashlib.sha256(payload).hexdigest() != expected:
        raise DurableStateError(f"snapshot {path} failed its checksum")
    newline = payload.index(b"\n")
    try:
        header = json.loads(payload[:newline])
    except json.JSONDecodeError as error:  # pragma: no cover - checksum catches
        raise DurableStateError(f"snapshot {path} header is malformed") from error
    if header.get("format") != SNAPSHOT_FORMAT:
        raise DurableStateError(f"snapshot {path} has unknown format")
    if header.get("version") != SNAPSHOT_VERSION:
        raise DurableStateError(
            f"snapshot {path} has unsupported version {header.get('version')!r}"
        )
    arrays: dict[str, np.ndarray] = {}
    offset = newline + 1
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        end = offset + count * dtype.itemsize
        if end > len(payload):
            raise DurableStateError(f"snapshot {path} array payload is truncated")
        # .copy() matters: the restored backend caches must stay writable
        # so post-resume streaming keeps delta-updating them in place.
        arrays[entry["name"]] = (
            np.frombuffer(payload[offset:end], dtype=dtype).reshape(shape).copy()
        )
        offset = end
    return header["meta"], arrays


def _fsync_directory(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError as error:
        # Filesystems that cannot fsync a directory say so with EINVAL;
        # any other error is a failed write and must surface.
        if error.errno not in (errno.EINVAL, errno.ENOTSUP):
            raise
    finally:
        os.close(fd)


# --------------------------------------------------------------------------- #
# The durable store
# --------------------------------------------------------------------------- #


class DurableStore:
    """WAL + snapshot manager for one durable session directory.

    Parameters
    ----------
    directory:
        Where the log and snapshots live (created on open).
    snapshot_every:
        Write a snapshot after every N applied batches (and a final one on
        clean close).  ``None`` disables periodic snapshots — the directory
        then holds a pure WAL and resume replays the full history.
    fsync:
        Fsync each WAL append before the batch is applied (the durability
        guarantee behind acknowledged flushes).  Tests disable it for
        speed; the data path defaults to on.
    keep_snapshots:
        How many of the newest snapshots survive pruning.  More than one,
        so a snapshot that fails validation on resume (killed mid-rename
        races are impossible, but torn disks are not) can fall back.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        snapshot_every: int | None = None,
        fsync: bool = True,
        keep_snapshots: int = DEFAULT_KEEP_SNAPSHOTS,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise ConfigurationError(
                f"snapshot_every must be positive or None, got {snapshot_every}"
            )
        if keep_snapshots < 1:
            raise ConfigurationError(
                f"keep_snapshots must be at least 1, got {keep_snapshots}"
            )
        self.directory = Path(directory)
        self.snapshot_every = snapshot_every
        self.fsync = fsync
        self.keep_snapshots = keep_snapshots
        #: Append-only descriptor of the open log (None when closed).
        self._log: int | None = None
        self._total_batches = 0
        self._since_snapshot = 0
        #: Byte length of the open log (header + valid records).  Recorded
        #: in each snapshot's meta as ``wal_bytes`` so resume can seek past
        #: the snapshotted prefix instead of re-parsing the whole log.
        self._wal_bytes = 0
        #: Absolute valid-byte offset computed by the last log scan; reused
        #: by ``open(resume=True)`` so the reopen truncation does not pay a
        #: second full parse.
        self._scan_valid_bytes: int | None = None
        #: Snapshot files written by this store instance (cadence tests).
        self.snapshots_written = 0
        #: WAL batch records discarded as a truncated/corrupt tail at the
        #: last :meth:`read_batches` (diagnostics; 0 on a clean log).
        self.discarded_tail_records = 0
        #: Events skipped on resume because the session's admission rule
        #: rejects them (see ``repro.serve.session._resume_session``).
        self.quarantined_events = 0

    # -- state probing -------------------------------------------------- #

    @property
    def wal_path(self) -> Path:
        return self.directory / WAL_NAME

    @property
    def spare_path(self) -> Path:
        """The retired snapshot file the next snapshot overwrites."""
        return self.directory / SPARE_NAME

    @classmethod
    def has_state(cls, directory: str | Path) -> bool:
        """True when ``directory`` holds resumable state (WAL or snapshot)."""
        directory = Path(directory)
        wal = directory / WAL_NAME
        if wal.exists() and wal.stat().st_size > 0:
            return True
        return any(directory.glob(SNAPSHOT_GLOB))

    @staticmethod
    def refuse_legacy_layout(directory: str | Path) -> None:
        """Raise when ``directory`` holds multi-writer WAL segments.

        Resuming such a directory as a single log would start over beside
        the segments (or from a snapshot that omits their later records)
        and silently lose acknowledged events.  Only reads the directory.
        """
        segments = sorted(
            path.name
            for path in Path(directory).glob(LEGACY_SEGMENT_GLOB)
            if path.name[len("wal-") : -len(".ndjson")].isdigit()
        )
        if segments:
            raise DurableStateError(
                f"durable directory {directory} uses the removed multi-writer "
                f"layout (WAL segments {', '.join(segments)}); this build "
                "reads only a single wal.ndjson and leaves the directory as is"
            )

    def snapshot_paths(self) -> list[Path]:
        """Snapshot files, newest (highest applied sequence) first."""
        return sorted(self.directory.glob(SNAPSHOT_GLOB), reverse=True)

    # -- lifecycle ------------------------------------------------------- #

    def open(self, resume: bool = False) -> None:
        """Create the directory and open the WAL for appending.

        ``resume=False`` (a fresh session) refuses a directory that already
        holds state — starting a new sequence numbering over live history
        would corrupt it; resume instead.  ``resume=True`` truncates the
        log back to its last valid record (discarding any crash tail found
        by :meth:`read_batches`) before reopening for append, and clears
        the snapshot residue of a crash: one leftover ``.tmp`` file becomes
        the spare when there is none, any other is unlinked.
        """
        if self._log is not None:
            return
        self.refuse_legacy_layout(self.directory)
        if not resume and self.has_state(self.directory):
            raise DurableStateError(
                f"durable directory {self.directory} already contains state; "
                "use repro.serve.open_session (which resumes existing state) "
                "instead of starting a fresh session over it"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        if resume and self.wal_path.exists():
            if self._scan_valid_bytes is not None:
                valid_bytes = self._scan_valid_bytes
            else:
                _, _, valid_bytes = self._scan_log()
            os.truncate(self.wal_path, valid_bytes)
        if resume:
            self._adopt_snapshot_residue()
        self._log = os.open(
            self.wal_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        self._wal_bytes = os.fstat(self._log).st_size
        if self._wal_bytes == 0:
            header = json.dumps({"format": WAL_FORMAT, "version": WAL_VERSION})
            self._wal_bytes = _write_all(self._log, header.encode() + b"\n")
            if self.fsync:
                os.fsync(self._log)

    def _adopt_snapshot_residue(self) -> None:
        """Keep one crash-leftover ``.tmp`` snapshot as the spare (the
        largest, when there is no spare yet) and unlink the others."""
        leftovers = sorted(
            self.directory.glob(SNAPSHOT_GLOB + ".tmp"),
            key=lambda path: path.stat().st_size,
            reverse=True,
        )
        if leftovers and not self.spare_path.exists():
            os.replace(leftovers.pop(0), self.spare_path)
        for path in leftovers:
            path.unlink(missing_ok=True)

    def close(self) -> None:
        """Close the log handle (idempotent)."""
        if self._log is not None:
            os.close(self._log)
            self._log = None

    # -- WAL append (the applier's pre-apply hook) ----------------------- #

    def append_batch(
        self,
        first_seq: int,
        last_seq: int,
        events: list[tuple[int, int, int]],
    ) -> None:
        """Append one micro-batch record and (by default) fsync it.

        Called by the session's applier *before* ``apply_batch``: once this
        returns, a crash at any later point replays the batch from the log,
        so a flush acknowledged after the apply can never lose events.  If
        the write or the fsync fails, the store closes the log and cuts it
        back to its last complete record before the error propagates, so
        the failed batch is not replayed on resume either.
        """
        if self._log is None:
            raise ConfigurationError("the durable store is not open")
        line = _encode_record(
            [int(first_seq), int(last_seq)],
            [[int(w), int(t), int(label)] for w, t, label in events],
        )
        try:
            _write_all(self._log, line)
            if self.fsync:
                os.fsync(self._log)
        except BaseException:
            self.close()
            try:
                os.truncate(self.wal_path, self._wal_bytes)
            except OSError:
                pass  # the original error is the one to report
            raise
        self._wal_bytes += len(line)

    # -- WAL replay ------------------------------------------------------ #

    def read_batches(
        self, start_bytes: int = 0
    ) -> list[tuple[int, int, list[tuple[int, int, int]]]]:
        """Valid batch records in log order, tail residue discarded.

        ``start_bytes`` (a snapshot's recorded ``wal_bytes``) skips parsing
        the records the snapshot already covers — the O(delta) seek that
        makes resume cheaper than full replay.  The header is still
        validated, and an offset that no longer lands inside the file
        (the log was truncated below the snapshot) falls back to a full
        scan, which replay then deduplicates by sequence.
        """
        batches, discarded, valid_bytes = self._scan_log(start_bytes)
        self.discarded_tail_records = discarded
        self._scan_valid_bytes = valid_bytes
        return batches

    def _scan_log(
        self, start_bytes: int = 0
    ) -> tuple[list[tuple[int, int, list[tuple[int, int, int]]]], int, int]:
        """Parse the WAL: ``(valid batches, discarded records, valid bytes)``.

        Stops at the first record that is truncated (no trailing newline),
        undecodable, structurally wrong or CRC-mismatched; everything from
        that point on is the tail residue of a crash and is counted as
        discarded.  ``valid bytes`` is the absolute offset the log must be
        truncated to before it is appended to again.
        """
        if not self.wal_path.exists():
            return [], 0, 0
        data = self.wal_path.read_bytes()
        if not data:
            return [], 0, 0
        lines = data.split(b"\n")
        # A trailing newline leaves one empty sentinel chunk; without it the
        # last chunk is a partial record.
        complete, partial = lines[:-1], lines[-1]
        if not complete:
            return [], 1, 0
        try:
            header = json.loads(complete[0])
        except json.JSONDecodeError as error:
            raise DurableStateError(
                f"WAL {self.wal_path} has a malformed header line"
            ) from error
        if not isinstance(header, dict) or header.get("format") != WAL_FORMAT:
            raise DurableStateError(
                f"WAL {self.wal_path} does not carry the versioned "
                f"{WAL_FORMAT!r} header"
            )
        if header.get("version") != WAL_VERSION:
            raise DurableStateError(
                f"WAL {self.wal_path} has unsupported version "
                f"{header.get('version')!r} (this build reads {WAL_VERSION})"
            )
        header_bytes = len(complete[0]) + 1
        if start_bytes > header_bytes and start_bytes <= len(data):
            # Seek past the snapshot-covered prefix.  Snapshot offsets are
            # recorded at record boundaries of an append-only file, so the
            # suffix starts exactly at a record (or is empty).
            tail_lines = data[start_bytes:].split(b"\n")
            complete, partial = tail_lines[:-1], tail_lines[-1]
            scan_from = 0
            valid_bytes = start_bytes
        else:
            scan_from = 1
            valid_bytes = header_bytes
        batches: list[tuple[int, int, list[tuple[int, int, int]]]] = []
        discarded = 1 if partial else 0
        for index, raw in enumerate(complete[scan_from:], start=scan_from):
            record = self._parse_record(raw)
            if record is None:
                # This record and everything after it (including any partial
                # final line) is the crash tail.
                discarded = len(complete) - index + (1 if partial else 0)
                break
            batches.append(record)
            valid_bytes += len(raw) + 1
        return batches, discarded, valid_bytes

    @staticmethod
    def _parse_record(
        raw: bytes,
    ) -> tuple[int, int, list[tuple[int, int, int]]] | None:
        try:
            record = json.loads(raw)
        except json.JSONDecodeError:
            return None
        if not isinstance(record, dict):
            return None
        seq = record.get("seq")
        events = record.get("events")
        crc = record.get("crc")
        if (
            not isinstance(seq, list)
            or len(seq) != 2
            or not isinstance(events, list)
            or not isinstance(crc, int)
        ):
            return None
        if _record_crc(seq, events) != crc:
            return None
        try:
            parsed = [(int(w), int(t), int(label)) for w, t, label in events]
        except (TypeError, ValueError):
            return None
        return int(seq[0]), int(seq[1]), parsed

    # -- snapshots -------------------------------------------------------- #

    def load_snapshot_state(self) -> tuple[dict, dict[str, np.ndarray]] | None:
        """The newest snapshot that validates, or None (pure WAL replay).

        Snapshots that fail their checksum (killed mid-write residue, torn
        storage) are skipped in favour of older ones — never fatal.
        """
        for path in self.snapshot_paths():
            try:
                return load_snapshot_file(path)
            except (DurableStateError, OSError):
                continue
        return None

    def record_applied(
        self, evaluator: "IncrementalEvaluator", applied_seq: int
    ) -> None:
        """Post-apply bookkeeping: count the batch, snapshot when due."""
        self._total_batches += 1
        self._since_snapshot += 1
        if (
            self.snapshot_every is not None
            and self._since_snapshot >= self.snapshot_every
        ):
            self.write_snapshot(evaluator, applied_seq)

    def note_resumed(self, total_batches: int, replayed_batches: int) -> None:
        """Seed the counters after a resume (cadence continues from delta)."""
        self._total_batches = total_batches
        self._since_snapshot = replayed_batches

    def finalize(self, evaluator: "IncrementalEvaluator", applied_seq: int) -> None:
        """Clean-shutdown hook: final snapshot (when periodic ones are on).

        A session closed cleanly with ``snapshot_every`` set leaves a
        snapshot at its last applied sequence, so the next resume replays
        nothing.  With ``snapshot_every=None`` the directory stays a pure
        WAL by design.
        """
        if self.snapshot_every is not None and self._since_snapshot > 0:
            self.write_snapshot(evaluator, applied_seq)

    def write_snapshot(
        self, evaluator: "IncrementalEvaluator", applied_seq: int
    ) -> Path:
        """Write one snapshot of the evaluator at ``applied_seq`` and prune.

        The snapshot overwrites the spare file when there is one; pruning
        then renames the newest retired snapshot to the spare name and
        unlinks only the retired snapshots beyond it (none in steady
        state), so no block is freed.
        """
        meta, arrays = evaluator.export_state()
        meta["applied_seq"] = int(applied_seq)
        meta["applied_batches"] = self._total_batches
        # The log offset covering everything up to applied_seq: resume
        # seeks here instead of re-parsing the snapshotted prefix.
        meta["wal_bytes"] = (
            self._wal_bytes
            if self._log is not None
            else (self.wal_path.stat().st_size if self.wal_path.exists() else 0)
        )
        path = self.directory / f"snapshot-{int(applied_seq):012d}{SNAPSHOT_SUFFIX}"
        write_snapshot_file(path, meta, arrays, recycle=self.spare_path)
        self._since_snapshot = 0
        self.snapshots_written += 1
        for stale in self.snapshot_paths()[self.keep_snapshots :]:
            if self.spare_path.exists():
                stale.unlink(missing_ok=True)
            else:
                os.replace(stale, self.spare_path)
        return path
