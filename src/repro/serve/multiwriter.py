"""Multi-writer durable ingestion: partitioned queues, WAL segments, fences.

The single-writer :class:`~repro.serve.session.StreamSession` drains one
bounded queue with one applier task appending to one WAL — the last serial
axis on the ingest path.  This module parallelizes ingestion itself while
keeping the determinism contract intact:

* **Consistent-hash partitioning** — :func:`partition_for` maps a worker
  id to one of N partitions (CRC-32 of the id's fixed-width encoding,
  modulo N).  The assignment depends only on the id, so it is stable as
  new worker ids appear, and *every event for a given worker lands in the
  same partition* — per-worker submission order is preserved by
  construction, which is all the order the evaluator's last-write-wins
  upserts and order-free dependency ledger require (events for different
  workers commute: they update disjoint response cells).
* **Per-partition pipelines** — each partition owns a bounded
  :class:`~repro.serve.queue.ResponseQueue`, a micro-batcher, and its own
  WAL segment ``wal-<partition>.ndjson`` (same versioned CRC'd record
  format as the single-writer log, with a *per-partition* sequence plus a
  session-global ``epoch`` stamped on each record).  Appends are offloaded
  to a small thread pool so segment fsyncs overlap — the genuinely
  concurrent stage — while ``apply_batch`` calls interleave under the one
  writer lock in whatever order batches complete.
* **Fenced snapshots** — before ``write_snapshot`` a barrier closes the
  intake gate and drains every in-flight batch (appended-but-unapplied),
  then bumps the global epoch and checkpoints.  The invariant: a snapshot
  at epoch E covers *exactly* the records with epoch < E in every
  segment — a snapshot never splits a partition's batch, and the
  per-partition applied sequences in its meta are mutually consistent.
* **Segment-merge resume** — :meth:`MultiWriterStore.read_merged`
  truncates each segment's corrupt tail independently, drops records the
  snapshot already covers (slicing records that straddle the boundary),
  checks per-partition sequence contiguity, and k-way merges the deltas
  by ``(epoch, partition_seq, partition)``.  Any merge that preserves
  per-partition order rebuilds the same response matrix (cross-partition
  events commute), so the resumed session is bit-identical to a serial
  uninterrupted run — locked by the ``multiwriter-resumed`` fuzz column
  of the cross-backend differential suite.

Construction goes through the one front door::

    from repro.serve import SessionConfig, open_session

    config = SessionConfig(writers=3, durable="state/", snapshot_every=8)
    async with open_session(config) as session:
        await session.submit(worker, task, label)

``open_session`` resumes a directory holding ``wal-<p>.ndjson`` segments
under any new writer count: old segments keep their per-partition sequence
continuity, and the new count only governs where *new* events land.
"""

from __future__ import annotations

import asyncio
import heapq
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.core.incremental import IncrementalEvaluator
from repro.core.spammer_filter import DEFAULT_SPAMMER_THRESHOLD
from repro.exceptions import ConfigurationError, DurableStateError
from repro.serve.config import SessionConfig
from repro.serve.durable import (
    SNAPSHOT_SUFFIX,
    WAL_NAME,
    DurableStore,
    write_snapshot_file,
)
from repro.serve.queue import ResponseQueue
from repro.serve.session import (
    BatchRecord,
    SessionSnapshot,
    _majority_rates,
    admit_events,
)
from repro.types import WorkerErrorEstimate

__all__ = [
    "MultiWriterSession",
    "MultiWriterStore",
    "partition_for",
    "segment_name",
]

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".ndjson"


def segment_name(partition: int) -> str:
    """The WAL segment filename owned by ``partition``."""
    return f"{SEGMENT_PREFIX}{int(partition)}{SEGMENT_SUFFIX}"


def partition_for(worker: int, n_partitions: int) -> int:
    """Consistent-hash partition owning ``worker``'s events.

    CRC-32 of the worker id's fixed-width little-endian encoding, modulo
    the partition count: deterministic across processes and Python builds
    (unsalted, unlike ``hash()``), and dependent only on the id itself —
    so the assignment is stable however many *other* worker ids appear
    later.  All events for one worker therefore share a partition, which
    preserves their submission order by construction.
    """
    if n_partitions < 1:
        raise ConfigurationError(
            f"partition count must be at least 1, got {n_partitions}"
        )
    if n_partitions == 1:
        return 0
    digest = zlib.crc32(int(worker).to_bytes(8, "little", signed=True))
    return digest % n_partitions


# --------------------------------------------------------------------------- #
# The multi-writer store: N WAL segments + fenced snapshots
# --------------------------------------------------------------------------- #


class MultiWriterStore:
    """Per-partition WAL segments plus epoch-fenced snapshots.

    One :class:`~repro.serve.durable.DurableStore` per partition handles
    the segment format (CRC'd records, tail truncation, O(delta) seeks);
    this class owns what is global: the fence epoch stamped on every
    record, snapshot files whose meta carries the per-partition applied
    sequences and segment offsets, and the k-way merge that rebuilds a
    deterministic replay order on resume.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        writers: int,
        snapshot_every: int | None = None,
        fsync: bool = True,
        keep_snapshots: int = 2,
    ) -> None:
        if writers < 1:
            raise ConfigurationError(
                f"writers must be at least 1, got {writers}"
            )
        if snapshot_every is not None and snapshot_every < 1:
            raise ConfigurationError(
                f"snapshot_every must be positive or None, got {snapshot_every}"
            )
        if keep_snapshots < 1:
            raise ConfigurationError(
                f"keep_snapshots must be at least 1, got {keep_snapshots}"
            )
        self.directory = Path(directory)
        self.writers = writers
        self.snapshot_every = snapshot_every
        self.fsync = fsync
        self.keep_snapshots = keep_snapshots
        self._segments: dict[int, DurableStore] = {}
        self._epoch = 0
        self._opened = False
        self._total_batches = 0
        self._since_snapshot = 0
        #: Snapshot files written by this store instance (cadence tests).
        self.snapshots_written = 0
        #: Records discarded as corrupt tails across all segments at the
        #: last :meth:`read_merged` (diagnostics; 0 on clean segments).
        self.discarded_tail_records = 0

    # -- state probing --------------------------------------------------- #

    @staticmethod
    def segment_paths(directory: str | Path) -> dict[int, Path]:
        """Existing ``wal-<p>.ndjson`` segments keyed by partition."""
        found: dict[int, Path] = {}
        for path in Path(directory).glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}"):
            stem = path.name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
            if stem.isdigit():
                found[int(stem)] = path
        return found

    @classmethod
    def has_segments(cls, directory: str | Path) -> bool:
        """True when ``directory`` holds multi-writer WAL segments."""
        return bool(cls.segment_paths(directory))

    @classmethod
    def has_state(cls, directory: str | Path) -> bool:
        """True when ``directory`` holds resumable multi-writer state."""
        directory = Path(directory)
        if cls.has_segments(directory):
            return True
        return any(directory.glob(f"snapshot-*{SNAPSHOT_SUFFIX}"))

    @property
    def epoch(self) -> int:
        """The session-global fence epoch new records are stamped with."""
        return self._epoch

    def segment(self, partition: int) -> DurableStore:
        """The per-partition segment store (after :meth:`discover`)."""
        return self._segments[partition]

    def snapshot_paths(self) -> list[Path]:
        """Snapshot files, newest (highest applied count) first."""
        return sorted(
            self.directory.glob(f"snapshot-*{SNAPSHOT_SUFFIX}"), reverse=True
        )

    # -- lifecycle -------------------------------------------------------- #

    def discover(self) -> None:
        """Instantiate segment stores: one per writer plus any on disk.

        Segments beyond the current writer count (a resume with fewer
        writers) are still opened — their history participates in the
        merge and their sizes in snapshot meta — they just never receive
        new appends.  Idempotent.
        """
        partitions = set(range(self.writers))
        partitions.update(self.segment_paths(self.directory))
        for partition in sorted(partitions):
            if partition not in self._segments:
                self._segments[partition] = DurableStore(
                    self.directory,
                    fsync=self.fsync,
                    wal_name=segment_name(partition),
                )

    def open(self, resume: bool = False) -> None:
        """Create the directory and open every segment for appending.

        ``resume=False`` refuses a directory already holding state (either
        layout) — ``open_session`` resumes it instead.  Each segment opens
        in resume mode regardless: a segment's own crash tail was already
        located by the merge scan (or a fresh segment simply writes its
        header), and a *new* partition joining an old directory must not
        trip over the single-writer freshness check when snapshots exist.
        """
        if self._opened:
            return
        if not resume and (
            self.has_state(self.directory)
            or DurableStore.has_state(self.directory)
        ):
            raise DurableStateError(
                f"durable directory {self.directory} already contains state; "
                "use repro.serve.open_session (which resumes existing state) "
                "instead of starting a fresh session over it"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self.discover()
        for partition in sorted(self._segments):
            self._segments[partition].open(resume=True)
        self._opened = True

    def close(self) -> None:
        """Close every segment handle (idempotent)."""
        for store in self._segments.values():
            store.close()
        self._opened = False

    # -- appends (called from the session's I/O thread pool) -------------- #

    def append_batch(
        self,
        partition: int,
        first_seq: int,
        last_seq: int,
        events: list[tuple[int, int, int]],
        epoch: int,
    ) -> None:
        """Append one batch to ``partition``'s segment, stamped ``epoch``.

        Runs on the session's I/O pool so fsyncs across partitions
        overlap; safe because each partition's appends are serialized by
        its single applier task and segments never share a file.
        """
        self._segments[partition].append_batch(
            first_seq, last_seq, events, epoch=epoch
        )

    # -- snapshots --------------------------------------------------------- #

    def seed_epoch(self, epoch: int) -> None:
        """Set the fence epoch restored from a snapshot (resume path)."""
        self._epoch = int(epoch)

    def record_applied(self) -> bool:
        """Count one applied batch; True when a fenced snapshot is due."""
        self._total_batches += 1
        self._since_snapshot += 1
        return (
            self.snapshot_every is not None
            and self._since_snapshot >= self.snapshot_every
        )

    def note_resumed(self, total_batches: int, replayed_batches: int) -> None:
        """Seed the counters after a resume (cadence continues from delta)."""
        self._total_batches = total_batches
        self._since_snapshot = replayed_batches

    def write_snapshot(
        self,
        evaluator: IncrementalEvaluator,
        applied_map: dict[int, int],
        applied_events: int,
    ) -> Path:
        """Checkpoint the evaluator under the fence; bumps the epoch first.

        The caller (the session's fence) guarantees no batch is in flight:
        every record appended so far has been applied, so after the bump
        the snapshot covers exactly the records with epoch < the new
        epoch — the fencing invariant the resume merge relies on.  Meta
        carries the per-partition applied sequences and segment byte
        offsets so resume can seek each segment in O(delta).
        """
        self._epoch += 1
        meta, arrays = evaluator.export_state()
        meta["applied_seq"] = int(applied_events)
        meta["applied_batches"] = self._total_batches
        meta["multiwriter"] = {
            "epoch": self._epoch,
            "writers": self.writers,
            "partitions": {
                str(p): int(seq) for p, seq in sorted(applied_map.items())
            },
            "wal_bytes": {
                str(p): store.wal_bytes
                for p, store in sorted(self._segments.items())
            },
        }
        path = (
            self.directory
            / f"snapshot-{int(applied_events):012d}{SNAPSHOT_SUFFIX}"
        )
        write_snapshot_file(path, meta, arrays)
        self._since_snapshot = 0
        self.snapshots_written += 1
        for stale in self.snapshot_paths()[self.keep_snapshots :]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        return path

    def finalize(
        self,
        evaluator: IncrementalEvaluator,
        applied_map: dict[int, int],
        applied_events: int,
    ) -> None:
        """Clean-shutdown hook: final snapshot (when periodic ones are on).

        The session only calls this after draining every queue, so the
        no-in-flight precondition of :meth:`write_snapshot` holds without
        a fence.
        """
        if self.snapshot_every is not None and self._since_snapshot > 0:
            self.write_snapshot(evaluator, applied_map, applied_events)

    def load_snapshot_state(self) -> tuple[dict, dict[str, np.ndarray]] | None:
        """The newest snapshot that validates, or None (pure segment replay)."""
        from repro.serve.durable import load_snapshot_file

        for path in self.snapshot_paths():
            try:
                return load_snapshot_file(path)
            except (DurableStateError, OSError):
                continue
        return None

    # -- resume: the k-way segment merge ----------------------------------- #

    def read_merged(
        self,
        applied_map: dict[int, int],
        wal_bytes_map: dict[int, int],
    ) -> list[tuple[int, int, int, list[tuple[int, int, int]], int]]:
        """Merge every segment's uncovered records into one replay order.

        Per segment (independently): the corrupt tail is located and
        discarded, records the snapshot covers (``last <= applied``) are
        skipped, a record straddling the boundary is sliced to its
        uncovered suffix, and a per-partition sequence *gap* raises —
        that is data loss inside a segment, not crash residue.  The
        surviving deltas are k-way merged by ``(epoch, partition_seq,
        partition)``: per-partition order (the one the determinism
        contract requires) is preserved because each segment's records are
        non-decreasing in epoch and strictly increasing in sequence; the
        cross-partition tie-break only makes the merge reproducible.

        Returns ``(epoch, first, last, events, partition)`` tuples and
        leaves :attr:`epoch` at the maximum epoch seen, so new appends
        sort after everything replayed.
        """
        streams: list[list[tuple[int, int, int, list, int]]] = []
        self.discarded_tail_records = 0
        max_epoch = self._epoch
        for partition in sorted(self._segments):
            store = self._segments[partition]
            applied = applied_map.get(partition, 0)
            records = store.read_batches_with_epoch(
                wal_bytes_map.get(partition, 0)
            )
            self.discarded_tail_records += store.discarded_tail_records
            pending: list[tuple[int, int, int, list, int]] = []
            for epoch, first, last, events in records:
                if last <= applied:
                    continue  # covered by the snapshot (or a duplicate)
                if first > applied + 1:
                    raise DurableStateError(
                        f"sequence gap in {store.wal_path}: restored state "
                        f"ends at {applied} but the next surviving record "
                        f"starts at {first}"
                    )
                if first <= applied:
                    events = events[applied - first + 1 :]
                    first = applied + 1
                pending.append((epoch, first, last, events, partition))
                applied = last
                max_epoch = max(max_epoch, epoch)
            streams.append(pending)
        self._epoch = max_epoch
        return list(
            heapq.merge(*streams, key=lambda r: (r[0], r[1], r[4]))
        )


# --------------------------------------------------------------------------- #
# The multi-writer session
# --------------------------------------------------------------------------- #


class MultiWriterSession:
    """N-partition ingestion session behind the same surface as
    :class:`~repro.serve.session.StreamSession`.

    Each partition owns a bounded queue and an applier task; ``submit``
    routes by :func:`partition_for`, so per-worker order is preserved by
    construction while partitions make progress independently.  WAL
    appends run on a small thread pool (segment fsyncs overlap across
    partitions); ``apply_batch`` calls interleave under one writer lock —
    safe in any completion order because events for different workers
    commute and the dependency ledger's invalidation is order-free.
    Readers (``evaluate_worker`` / ``evaluate_all`` / ``spammer_scores``
    / ``snapshot``) keep the single-writer lock discipline and
    snapshot-consistency semantics.

    Built by :func:`repro.serve.open_session` from a
    :class:`~repro.serve.config.SessionConfig` with ``writers > 1`` (or
    with existing multi-writer state on disk); not constructed directly.
    """

    def __init__(
        self,
        evaluator: IncrementalEvaluator | None = None,
        *,
        config: SessionConfig,
        _store: MultiWriterStore | None = None,
    ) -> None:
        self._config = config
        self._writers = config.resolved_writers()
        if evaluator is None:
            evaluator = IncrementalEvaluator(
                n_workers=3,
                n_tasks=1,
                confidence=config.resolved_confidence,
                optimize_weights=config.resolved_optimize_weights,
                backend=config.resolved_backend,
                shards=config.shards,
            )
        self._evaluator = evaluator
        self._store = _store
        self._auto_extend = config.auto_extend
        self._lock = asyncio.Lock()
        self._applied = asyncio.Condition()
        self._queues: dict[int, ResponseQueue] = {
            partition: ResponseQueue(
                maxsize=config.maxsize, max_batch=config.max_batch
            )
            for partition in range(self._writers)
        }
        #: Per-partition sequence high-water marks (submission / apply).
        self._submitted_map: dict[int, int] = dict.fromkeys(self._queues, 0)
        self._applied_map: dict[int, int] = dict.fromkeys(self._queues, 0)
        self._submitted_total = 0
        self._applied_total = 0
        self._batches: list[BatchRecord] = []
        self._batch_count = 0
        self._appliers: list[asyncio.Task] = []
        self._error: BaseException | None = None
        self._io_pool: ThreadPoolExecutor | None = None
        # The snapshot fence: gate open = appliers may enter the
        # append+apply critical section; _in_flight counts batches inside
        # it (taken off a queue, not yet fully applied).
        self._gate = asyncio.Event()
        self._gate.set()
        self._in_flight = 0
        self._fencing = False

    # -- construction (via open_session) ---------------------------------- #

    @classmethod
    def open(cls, config: SessionConfig) -> "MultiWriterSession":
        """Fresh or resumed multi-writer session for ``config``."""
        if config.durable is None:
            return cls(config=config)
        store = MultiWriterStore(
            config.durable,
            writers=config.resolved_writers(),
            snapshot_every=config.snapshot_every,
            fsync=config.fsync,
        )
        directory = Path(config.durable)
        if MultiWriterStore.has_state(directory):
            return cls._resume(config, store)
        if DurableStore.has_state(directory):
            raise DurableStateError(
                f"durable directory {directory} holds single-writer state "
                f"({WAL_NAME}); resume it with writers=1 — multi-writer "
                "segments cannot continue a single-writer history"
            )
        return cls(config=config, _store=store)

    @classmethod
    def _resume(
        cls, config: SessionConfig, store: MultiWriterStore
    ) -> "MultiWriterSession":
        """Snapshot restore + k-way segment merge; O(delta) per segment."""
        loaded = store.load_snapshot_state()
        applied_map: dict[int, int] = {}
        wal_bytes_map: dict[int, int] = {}
        applied_events = 0
        applied_batches = 0
        if loaded is not None:
            meta, arrays = loaded
            evaluator = IncrementalEvaluator.from_state(
                meta,
                arrays,
                confidence=config.confidence,
                optimize_weights=config.optimize_weights,
                backend=config.backend,
                shards=config.shards,
            )
            fences = meta.get("multiwriter") or {}
            applied_map = {
                int(p): int(seq)
                for p, seq in (fences.get("partitions") or {}).items()
            }
            wal_bytes_map = {
                int(p): int(offset)
                for p, offset in (fences.get("wal_bytes") or {}).items()
            }
            applied_events = int(meta.get("applied_seq", 0))
            applied_batches = int(meta.get("applied_batches", 0))
            store.seed_epoch(int(fences.get("epoch", 0)))
        else:
            evaluator = IncrementalEvaluator(
                n_workers=3,
                n_tasks=1,
                confidence=config.resolved_confidence,
                optimize_weights=config.resolved_optimize_weights,
                backend=config.resolved_backend,
                shards=config.shards,
            )
        # Open first (crash tails are truncated per segment, fresh
        # partitions write their headers), then merge-replay the deltas.
        store.open(resume=True)
        replayed = 0
        for _, _, last, events, partition in store.read_merged(
            applied_map, wal_bytes_map
        ):
            evaluator.apply_batch(events, auto_extend=True)
            applied_map[partition] = last
            applied_events += len(events)
            replayed += 1
        store.note_resumed(
            total_batches=applied_batches + replayed,
            replayed_batches=replayed,
        )
        session = cls(evaluator, config=config, _store=store)
        for partition in range(session._writers):
            base = applied_map.get(partition, 0)
            session._queues[partition] = ResponseQueue(
                maxsize=config.maxsize,
                max_batch=config.max_batch,
                base_seq=base,
            )
            session._submitted_map[partition] = base
        # Carry every partition's high-water mark (including retired
        # partitions beyond the current writer count) into future
        # snapshots, so later resumes skip their covered records.
        session._applied_map = dict(applied_map)
        for partition in range(session._writers):
            session._applied_map.setdefault(partition, 0)
        session._submitted_total = applied_events
        session._applied_total = applied_events
        return session

    # -- lifecycle --------------------------------------------------------- #

    async def __aenter__(self) -> "MultiWriterSession":
        self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            # Mirror StreamSession: drain and stop without masking the
            # propagating exception; no final snapshot on a failing path.
            await self._drain_and_stop()
            self._shutdown_io_pool()
            if self._store is not None:
                self._store.close()
            return
        await self.close()

    def start(self) -> None:
        """Start one applier task per partition (idempotent)."""
        if self._appliers:
            return
        if self._store is not None:
            # No-op for a store _resume() already opened; a fresh open
            # refuses a directory with existing state.
            self._store.open(resume=False)
            self._io_pool = ThreadPoolExecutor(
                max_workers=self._writers, thread_name_prefix="repro-wal"
            )
        loop = asyncio.get_running_loop()
        for partition, queue in self._queues.items():
            self._appliers.append(
                loop.create_task(self._run(partition, queue))
            )

    async def close(self) -> None:
        """Drain every partition, then stop; final snapshot on clean close."""
        await self._drain_and_stop()
        self._shutdown_io_pool()
        if self._store is not None:
            if self._error is None:
                self._store.finalize(
                    self._evaluator, self._applied_map, self._applied_total
                )
            self._store.close()
        self._raise_if_failed()

    async def abort(self) -> None:
        """Stop immediately without draining — a process-internal "crash".

        Cancels every applier mid-flight; WAL appends already handed to
        the I/O pool still complete (the pool is drained before the
        segment handles close), exactly as a SIGKILL leaves fsynced
        appends on disk while un-appended batches vanish.
        """
        for task in self._appliers:
            task.cancel()
        for task in self._appliers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._appliers = []
        self._shutdown_io_pool()
        if self._store is not None:
            self._store.close()

    async def _drain_and_stop(self) -> None:
        for queue in self._queues.values():
            await queue.close()
        for task in self._appliers:
            await task
        self._appliers = []

    def _shutdown_io_pool(self) -> None:
        if self._io_pool is not None:
            # wait=True: never close a segment under an in-flight append.
            self._io_pool.shutdown(wait=True)
            self._io_pool = None

    # -- producer side ------------------------------------------------------ #

    @property
    def config(self) -> SessionConfig:
        """The validated configuration this session was built from."""
        return self._config

    @property
    def evaluator(self) -> IncrementalEvaluator:
        """The shared evaluator (take the session lock for direct reads)."""
        return self._evaluator

    @property
    def durable(self) -> MultiWriterStore | None:
        """The persistence layer, or None for an in-memory session."""
        return self._store

    @property
    def writers(self) -> int:
        """The resolved ingest partition count."""
        return self._writers

    @property
    def submitted_events(self) -> int:
        return self._submitted_total

    @property
    def applied_events(self) -> int:
        return self._applied_total

    @property
    def pending_events(self) -> int:
        """Events submitted but not yet applied (clamped at zero)."""
        return max(0, self._submitted_total - self._applied_total)

    @property
    def applied_batches(self) -> list[BatchRecord]:
        """Applied-batch records in completion order, tagged by partition."""
        return list(self._batches)

    @property
    def applied_map(self) -> dict[int, int]:
        """Per-partition applied sequence high-water marks (a copy)."""
        return dict(self._applied_map)

    @property
    def applied_batch_count(self) -> int:
        """How many batches this session applied (no record copying)."""
        return self._batch_count

    async def submit(self, worker: int, task: int, label: int) -> int:
        """Route one response to its partition; returns the submit count.

        Blocks while that partition's queue is full (backpressure).
        Unlike the single-writer session the return value is the *total*
        number of events submitted, not a global sequence — sequence
        numbers are per partition here.  An event the evaluator would
        reject raises :class:`~repro.exceptions.DataValidationError`
        before it is enqueued (see :func:`admit_events`).
        """
        self._check_running()
        (event,) = admit_events(
            self._evaluator, [(worker, task, label)], self._auto_extend
        )
        await self._enqueue(partition_for(event[0], self._writers), [event])
        return self._submitted_total

    async def submit_many(self, records) -> int:
        """Submit a collection (sync or async iterable); returns the count.

        A sync collection is admitted whole (:func:`admit_events`: a bad
        event rejects the run before any of it is enqueued), split by
        partition keeping stream order within each slice, and enqueued
        with one ``put_many`` per partition.  An async iterable is
        submitted event by event.
        """
        if hasattr(records, "__aiter__"):
            count = 0
            async for record in records:
                await self.submit(*record)
                count += 1
            return count
        self._check_running()
        batch = admit_events(self._evaluator, records, self._auto_extend)
        slices: dict[int, list[tuple[int, int, int]]] = {}
        routes: dict[int, int] = {}
        for event in batch:
            partition = routes.get(event[0])
            if partition is None:
                partition = routes[event[0]] = partition_for(
                    event[0], self._writers
                )
            slices.setdefault(partition, []).append(event)
        for partition in sorted(slices):
            await self._enqueue(partition, slices[partition])
        return len(batch)

    def _check_running(self) -> None:
        self._raise_if_failed()
        if not self._appliers:
            raise ConfigurationError(
                "the session is not running; use 'async with' or call "
                "start() first"
            )

    async def _enqueue(
        self, partition: int, events: list[tuple[int, int, int]]
    ) -> None:
        await self._queues[partition].put_many(events)
        # Post-put, yield-free increments: same lost-update discipline as
        # the single-writer session.
        self._submitted_map[partition] += len(events)
        self._submitted_total += len(events)

    async def flush(self) -> int:
        """Wait until everything submitted so far is applied, everywhere.

        Per-partition targets are captured up front, so progress on one
        partition cannot satisfy another's backlog.  Returns the total
        number of applied events; raises the first applier error.
        """
        targets = dict(self._submitted_map)
        async with self._applied:
            await self._applied.wait_for(
                lambda: self._error is not None
                or all(
                    self._applied_map.get(partition, 0) >= seq
                    for partition, seq in targets.items()
                )
            )
        self._raise_if_failed()
        return self._applied_total

    # -- reader side (same snapshot-consistency discipline as single-writer) #

    async def evaluate_worker(self, worker: int) -> WorkerErrorEstimate:
        """Estimate for one worker at the last applied batch boundary."""
        cached = self._evaluator.cached_estimate(worker)
        if cached is not None:
            return cached
        async with self._lock:
            return self._evaluator.estimate(worker)

    async def evaluate_all(self) -> dict[int, WorkerErrorEstimate]:
        """Estimates for every worker with data, at the last batch boundary."""
        if not self._evaluator.needs_recompute:
            return self._evaluator.estimate_all()
        async with self._lock:
            return self._evaluator.estimate_all()

    async def spammer_scores(
        self, threshold: float = DEFAULT_SPAMMER_THRESHOLD
    ) -> dict[int, float | None]:
        """Majority-disagreement spammer proxies at the last batch boundary."""
        async with self._lock:
            return _majority_rates(self._evaluator)

    async def snapshot(self) -> SessionSnapshot:
        """Deep-copied consistent state at the last applied batch boundary."""
        async with self._lock:
            return SessionSnapshot(
                matrix=self._evaluator.matrix.copy(),
                estimates=self._evaluator.estimate_all(),
                applied_events=self._applied_total,
                applied_batches=self._batch_count,
            )

    # -- appliers + the snapshot fence -------------------------------------- #

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise self._error

    async def _run(self, partition: int, queue: ResponseQueue) -> None:
        while True:
            result = await queue.get_batch_with_seq()
            if result is None:
                return
            first_seq, last_seq, batch = result
            # The fence gate: closed while a snapshot drains in-flight
            # batches to a common epoch.  Waiting *before* entering the
            # critical section means a parked batch is not in flight.
            await self._gate.wait()
            self._in_flight += 1
            error: BaseException | None = None
            try:
                if self._store is not None:
                    # WAL first (fsynced on the I/O pool, so segment
                    # fsyncs overlap across partitions), stamped with the
                    # epoch read before the append — the fence only bumps
                    # it once in-flight batches like this one drained.
                    epoch = self._store.epoch
                    await asyncio.get_running_loop().run_in_executor(
                        self._io_pool,
                        self._store.append_batch,
                        partition,
                        first_seq,
                        last_seq,
                        batch,
                        epoch,
                    )
                async with self._lock:
                    stats = self._evaluator.apply_batch(
                        batch, auto_extend=self._auto_extend
                    )
                self._applied_map[partition] = last_seq
                self._applied_total += len(batch)
                self._batch_count += 1
                self._batches.append(
                    BatchRecord(
                        index=len(self._batches),
                        first_seq=first_seq,
                        last_seq=last_seq,
                        stats=stats,
                        partition=partition,
                    )
                )
            except BaseException as caught:  # surfaced at submit()/flush()
                error = caught
            finally:
                self._in_flight -= 1
            if error is not None:
                self._error = error
                async with self._applied:
                    self._applied.notify_all()
                # Keep draining this partition's queue so parked
                # producers wake (their next submit() raises) and
                # close()'s marker always lands.
                while await queue.get_batch() is not None:
                    pass
                return
            snapshot_due = False
            if self._store is not None:
                snapshot_due = self._store.record_applied()
            if snapshot_due and not self._fencing:
                await self._fence_and_snapshot()
            async with self._applied:
                self._applied.notify_all()

    async def _fence_and_snapshot(self) -> None:
        """Drain all partitions to a common epoch, then checkpoint.

        Closes the gate (no applier may *start* an append+apply), waits
        until every in-flight batch has been appended and applied, then
        writes the snapshot — which bumps the epoch, so the snapshot
        covers exactly the records with epoch below the new value and
        never splits a partition's batch.  The gate reopens even if the
        snapshot write fails (the error fails the session via the caller).
        """
        self._fencing = True
        self._gate.clear()
        try:
            async with self._applied:
                await self._applied.wait_for(lambda: self._in_flight == 0)
            self._store.write_snapshot(
                self._evaluator, self._applied_map, self._applied_total
            )
        finally:
            self._fencing = False
            self._gate.set()
