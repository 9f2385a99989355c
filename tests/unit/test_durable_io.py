"""The durable store's write path: record encoding, snapshot recycling,
snapshot payload and I/O faults (:mod:`repro.serve.durable`).

Locks the contracts of the cheap write path: each WAL line is encoded
once yet byte-identical to dumping the whole record; pruning recycles the
retired snapshot file instead of unlinking it, and the next snapshot
overwrites it in place; resume turns crash-leftover ``.tmp`` files into
the one spare; snapshots no longer carry the dense triple tensor but
snapshots that do still resume; and an ``EIO``/``ENOSPC`` at any write,
fsync, rename or truncate of an append or a snapshot stops the session
without losing an acknowledged event or replaying an unacknowledged
append, as does a kill after any step of the recycle protocol.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os
import zlib

import numpy as np
import pytest

import repro.core.parallel as parallel_module
import repro.serve.durable as durable_module
from repro.core.agreement import compute_agreement_statistics
from repro.core.incremental import IncrementalEvaluator
from repro.core.m_worker import MWorkerEstimator
from repro.data.dense_backend import DenseAgreementBackend
from repro.exceptions import ConfigurationError
from repro.serve import SessionConfig, open_session
from repro.serve.durable import (
    SPARE_NAME,
    DurableStore,
    load_snapshot_file,
    write_snapshot_file,
)


def run(coro):
    return asyncio.run(coro)


def make_batches(n_batches, size, n_workers=6, n_tasks=12, seed=0):
    rng = np.random.default_rng(seed)
    return [
        [
            (int(w), int(t), int(label))
            for w, t, label in zip(
                rng.integers(0, n_workers, size=size),
                rng.integers(0, n_tasks, size=size),
                rng.integers(0, 2, size=size),
            )
        ]
        for _ in range(n_batches)
    ]


def reference(events):
    evaluator = IncrementalEvaluator(3, 1, backend="dense")
    evaluator.apply_batch(events, auto_extend=True)
    return evaluator


def assert_same_state(resumed, events):
    """``resumed`` holds exactly ``events`` and serves the same bits."""
    expected = reference(events)
    assert resumed.matrix == expected.matrix
    got, want = resumed.estimate_all(), expected.estimate_all()
    assert set(got) == set(want)
    for worker, estimate in want.items():
        assert got[worker].interval == estimate.interval
        assert got[worker].status is estimate.status


def stream_batches(directory, batches, **fields):
    """Acknowledge ``batches``, one flush each, through a durable session
    that is then closed cleanly."""

    async def scenario():
        async with open_session(
            SessionConfig(durable=directory, fsync=False, backend="dense", **fields)
        ) as session:
            for batch in batches:
                await session.submit_many(batch)
                await session.flush()

    run(scenario())


def directory_files(directory):
    names = sorted(os.listdir(directory))
    return (
        [n for n in names if n.endswith(".snap")],
        [n for n in names if n == SPARE_NAME],
        [n for n in names if n.endswith(".tmp")],
    )


def assert_bounded(directory, keep=2):
    snaps, spares, tmps = directory_files(directory)
    assert len(snaps) <= keep and len(spares) <= 1 and not tmps, (
        snaps,
        spares,
        tmps,
    )


# --------------------------------------------------------------------------- #
# WAL encoding
# --------------------------------------------------------------------------- #


def two_pass_line(first, last, events):
    """The WAL line as it was encoded before: CRC pass, then line pass."""
    seq = [int(first), int(last)]
    payload = [[int(w), int(t), int(label)] for w, t, label in events]
    crc = zlib.crc32(
        json.dumps(
            {"seq": seq, "events": payload}, sort_keys=True, separators=(",", ":")
        ).encode()
    )
    record = {"seq": seq, "events": payload, "crc": crc}
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


GOLDEN_BATCHES = [
    (1, 2, [(0, 0, 1), (1, 0, 0)]),
    (3, 4, [[2, 5, 1], [3, 7, 0]]),
    (5, 6, [(np.int64(4), np.int64(9), np.int64(1)), (np.int32(0), 1, np.uint8(0))]),
    (7, 8, [(0, 1, True), (1, 2, False)]),
    (9, 10, [(2**63 - 1, 2**63 - 2, 1), (0, 2**62, np.int64(0))]),
    (np.int64(11), np.int64(11), [(np.int64(2**63 - 1), 0, np.bool_(True))]),
    (12, 11, []),
]


class TestWalEncoding:
    def test_one_pass_line_is_byte_identical_to_two_pass(self, tmp_path):
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        for first, last, events in GOLDEN_BATCHES:
            store.append_batch(first, last, events)
        store.close()
        lines = store.wal_path.read_bytes().decode().splitlines(keepends=True)
        assert lines[1:] == [two_pass_line(*batch) for batch in GOLDEN_BATCHES]
        assert store._wal_bytes == store.wal_path.stat().st_size

    def test_every_golden_line_passes_its_crc(self, tmp_path):
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        for first, last, events in GOLDEN_BATCHES:
            store.append_batch(first, last, events)
        store.close()
        batches = DurableStore(tmp_path).read_batches()
        assert [(first, last) for first, last, _ in batches] == [
            (int(first), int(last)) for first, last, _ in GOLDEN_BATCHES
        ]
        for (_, _, parsed), (_, _, events) in zip(batches, GOLDEN_BATCHES):
            assert parsed == [(int(w), int(t), int(label)) for w, t, label in events]


# --------------------------------------------------------------------------- #
# Snapshot recycling
# --------------------------------------------------------------------------- #


def snapshot_stream(directory, batches, keep=2):
    """Apply ``batches`` with a snapshot after each; yields after each."""
    store = DurableStore(directory, snapshot_every=1, fsync=False, keep_snapshots=keep)
    store.open()
    evaluator = IncrementalEvaluator(3, 1, backend="dense")
    seq = 0
    for batch in batches:
        store.append_batch(seq + 1, seq + len(batch), batch)
        seq += len(batch)
        evaluator.apply_batch(batch, auto_extend=True)
        store.record_applied(evaluator, seq)
        yield store
    store.close()


class TestSnapshotRecycling:
    @pytest.mark.parametrize("keep", [1, 2, 3])
    def test_steady_state_recycles_the_spare_and_keeps_the_newest(
        self, tmp_path, keep
    ):
        spare = tmp_path / SPARE_NAME
        for written, store in enumerate(
            snapshot_stream(tmp_path, make_batches(8, 5), keep=keep), start=1
        ):
            spare_inode = spare.stat().st_ino if spare.exists() else None
            snaps, spares, tmps = directory_files(tmp_path)
            assert len(snaps) == min(written, keep)
            assert len(spares) == (1 if written > keep else 0)
            assert not tmps
            for path in store.snapshot_paths():
                load_snapshot_file(path)  # every kept snapshot still loads
            if written > keep + 1:
                # The snapshot just written reused the previous spare's
                # blocks: the file is the same inode under a new name.
                assert store.snapshot_paths()[0].stat().st_ino == previous_spare
            previous_spare = spare_inode

    def test_steady_state_unlinks_nothing(self, tmp_path, monkeypatch):
        unlinked = []
        original = os.unlink

        def recording_unlink(path, *args, **kwargs):
            unlinked.append(path)
            original(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", recording_unlink)
        for store in snapshot_stream(tmp_path, make_batches(7, 4)):
            pass
        assert store.snapshots_written == 7
        assert unlinked == []

    def test_recycled_file_is_cut_to_the_new_length(self, tmp_path):
        path = tmp_path / "snapshot-000000000002.snap"
        spare = tmp_path / SPARE_NAME
        write_snapshot_file(spare, {"applied_seq": 1}, {"x": np.arange(5000)})
        big = spare.stat().st_size
        write_snapshot_file(
            path, {"applied_seq": 2}, {"x": np.arange(7)}, recycle=spare
        )
        assert not spare.exists()
        assert path.stat().st_size < big
        meta, arrays = load_snapshot_file(path)
        assert meta == {"applied_seq": 2}
        assert np.array_equal(arrays["x"], np.arange(7))

    def test_missing_recycle_file_writes_a_new_one(self, tmp_path):
        path = tmp_path / "snapshot-000000000004.snap"
        write_snapshot_file(
            path, {"applied_seq": 4}, {"x": np.ones(3)}, recycle=tmp_path / SPARE_NAME
        )
        assert load_snapshot_file(path)[0] == {"applied_seq": 4}
        assert directory_files(tmp_path) == ([path.name], [], [])

    def test_spare_alone_is_not_state(self, tmp_path):
        (tmp_path / SPARE_NAME).write_bytes(b"retired snapshot bytes")
        assert not DurableStore.has_state(tmp_path)
        assert DurableStore(tmp_path).load_snapshot_state() is None


class TestResidueCleanup:
    def test_resume_keeps_one_spare_and_unlinks_tmp_files(self, tmp_path):
        batches = make_batches(5, 6, seed=4)
        stream_batches(tmp_path, batches, snapshot_every=1)
        assert (tmp_path / SPARE_NAME).exists()
        (tmp_path / "snapshot-000000000099.snap.tmp").write_bytes(b"a" * 4000)
        (tmp_path / "snapshot-000000000100.snap.tmp").write_bytes(b"b" * 10)
        resumed = open_session(SessionConfig(durable=tmp_path, fsync=False))
        snaps, spares, tmps = directory_files(tmp_path)
        assert spares == [SPARE_NAME] and tmps == []
        assert len(snaps) == 2
        events = [event for batch in batches for event in batch]
        assert resumed.applied_events == len(events)
        assert_same_state(resumed.evaluator, events)
        run(resumed.abort())

    def test_without_a_spare_the_largest_tmp_becomes_it(self, tmp_path):
        batches = make_batches(2, 6, seed=5)
        stream_batches(tmp_path, batches, snapshot_every=1)
        assert not (tmp_path / SPARE_NAME).exists()
        (tmp_path / "snapshot-000000000098.snap.tmp").write_bytes(b"s" * 10)
        (tmp_path / "snapshot-000000000099.snap.tmp").write_bytes(b"l" * 4000)
        resumed = open_session(SessionConfig(durable=tmp_path, fsync=False))
        assert (tmp_path / SPARE_NAME).read_bytes() == b"l" * 4000
        assert directory_files(tmp_path)[2] == []
        assert_same_state(
            resumed.evaluator, [event for batch in batches for event in batch]
        )
        run(resumed.abort())


# --------------------------------------------------------------------------- #
# Snapshot payload
# --------------------------------------------------------------------------- #


class TestSnapshotPayload:
    def test_new_snapshots_carry_no_triple_tensor(self, tmp_path):
        evaluator = reference(make_batches(1, 60, seed=6)[0])
        evaluator.estimate_all()
        assert evaluator._backend.triple_count_tensor() is not None
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        store.write_snapshot(evaluator, applied_seq=60)
        store.close()
        _, arrays = store.load_snapshot_state()
        assert "backend.triple_tensor" not in arrays
        assert "backend.common" in arrays

    def test_snapshot_with_the_tensor_still_resumes_bit_identical(self, tmp_path):
        batches = make_batches(4, 15, seed=7)
        events = [event for batch in batches for event in batch]
        stream_batches(tmp_path, batches)  # a pure WAL, no snapshot
        # Hand-write a snapshot in the layout that carried the tensor,
        # covering the whole log.
        evaluator = reference(events)
        evaluator.estimate_all()
        meta, arrays = evaluator.export_state()
        tensor = evaluator._backend.triple_count_tensor()
        arrays["backend.triple_tensor"] = tensor
        meta.update(
            applied_seq=len(events),
            applied_batches=len(batches),
            wal_bytes=(tmp_path / "wal.ndjson").stat().st_size,
        )
        write_snapshot_file(
            tmp_path / f"snapshot-{len(events):012d}.snap", meta, arrays
        )
        resumed = open_session(SessionConfig(durable=tmp_path, fsync=False))
        assert resumed.durable._since_snapshot == 0  # nothing replayed
        adopted = resumed.evaluator._backend._triple_tensor
        assert adopted is not None and np.array_equal(adopted, tensor)
        assert_same_state(resumed.evaluator, events)
        tail = make_batches(1, 20, n_workers=8, seed=8)[0]
        resumed.evaluator.apply_batch(tail, auto_extend=True)
        assert_same_state(resumed.evaluator, events + tail)
        run(resumed.abort())

    def test_attach_adopts_a_shipped_tensor_without_rebuilding(self):
        backend = reference(make_batches(1, 50, seed=9)[0])._backend
        tensor = backend.triple_count_tensor()
        arrays = dict(backend.export_shared_state())
        assert "triple_tensor" not in arrays
        attached = DenseAgreementBackend.attach_shared_state(
            dict(arrays, triple_tensor=tensor),
            n_workers=backend.n_workers,
            n_tasks=backend.n_tasks,
            arity=backend.arity,
        )
        assert attached.triple_count_tensor() is tensor
        rebuilt = DenseAgreementBackend.attach_shared_state(
            arrays,
            n_workers=backend.n_workers,
            n_tasks=backend.n_tasks,
            arity=backend.arity,
        ).triple_count_tensor()
        assert np.array_equal(rebuilt, tensor)

    def test_process_shard_export_ships_the_tensor(self, monkeypatch):
        matrix = reference(make_batches(1, 120, n_workers=10, seed=10)[0]).matrix
        stats = compute_agreement_statistics(matrix, backend="dense")
        expected = stats.backend.triple_count_tensor().copy()
        shipped = {}

        class Stop(Exception):
            pass

        class RecordingPool:
            def map(self, func, payloads):
                _, specs, _, _, _ = payloads[0]
                segment, array = parallel_module._attach_array(specs["triple_tensor"])
                shipped["tensor"] = array.copy()
                del array
                segment.close()
                raise Stop

        class RecordingExecutor:
            def process_pool(self, shards):
                return RecordingPool()

        monkeypatch.setattr(parallel_module, "get_executor", RecordingExecutor)
        estimator = MWorkerEstimator(confidence=0.9, backend="dense", shards=2)
        with pytest.raises(Stop):
            parallel_module.evaluate_all_process(estimator, matrix, stats, 2)
        assert np.array_equal(shipped["tensor"], expected)


# --------------------------------------------------------------------------- #
# I/O faults and kill points
# --------------------------------------------------------------------------- #


class Killed(BaseException):
    """Stands in for SIGKILL between two I/O steps."""


class FaultyOS:
    """``os`` as :mod:`repro.serve.durable` sees it, with its write, fsync,
    rename and truncate steps counted once armed and one of them faulted.

    ``fail_at`` is the 0-based index of the faulted step among the steps
    since arming; ``after`` performs that step before raising (a kill
    between steps) instead of raising in its place (an I/O error).
    ``short_writes`` caps every write at that many bytes, armed or not.
    Fsyncs are not performed: nothing in-process can observe them.
    """

    def __init__(self):
        self.steps = []
        self.armed = False
        self.fail_at = None
        self.error = None
        self.after = False
        self.short_writes = None

    def __getattr__(self, name):
        return getattr(os, name)

    def _step(self, name, call):
        if not self.armed:
            return call()
        index = len(self.steps)
        self.steps.append(name)
        if index == self.fail_at and not self.after:
            raise self.error
        result = call()
        if index == self.fail_at:
            raise self.error
        return result

    def write(self, fd, data):
        if self.short_writes is not None:
            data = memoryview(data)[: self.short_writes]
        return self._step("write", lambda: os.write(fd, data))

    def fsync(self, fd):
        return self._step("fsync", lambda: None)

    def replace(self, source, target):
        return self._step(
            f"replace->{os.path.basename(target)}",
            lambda: os.replace(source, target),
        )

    def ftruncate(self, fd, length):
        return self._step("ftruncate", lambda: os.ftruncate(fd, length))


FAULT_BATCHES = make_batches(5, 8, seed=12)
#: Acknowledged batches before the faulted one: the first snapshot of a
#: fresh directory is a new file; the fourth recycles the spare.
BRANCH_START = {"new": 0, "recycled": 3}


def config_for(directory):
    return SessionConfig(
        durable=directory, snapshot_every=1, fsync=True, backend="dense"
    )


def fault_run(directory, faulty, branch):
    """Acknowledge the batches before ``branch``'s snapshot, then arm
    ``faulty`` and submit one more.  Returns the acknowledged event count
    and the error the faulted flush raised (None when nothing fired)."""
    start = BRANCH_START[branch]
    acknowledged = sum(len(batch) for batch in FAULT_BATCHES[:start])

    async def scenario():
        session = open_session(config_for(directory))
        session.start()
        for batch in FAULT_BATCHES[:start]:
            await session.submit_many(batch)
            await session.flush()
        if branch == "recycled":
            assert (directory / SPARE_NAME).exists()
        faulty.armed = True
        await session.submit_many(FAULT_BATCHES[start])
        try:
            await session.flush()
        except (OSError, Killed) as error:
            assert session.applied_events <= acknowledged + len(
                FAULT_BATCHES[start]
            )
            with pytest.raises(type(error)):  # the session stays stopped
                await session.submit(0, 0, 1)
            faulty.armed = False
            await session.abort()
            return error
        faulty.armed = False
        await session.close()
        return None

    return acknowledged, run(scenario())


def resume_and_finish(directory, expected_events):
    """Resume, check the state, stream one more batch and close cleanly."""
    resumed = open_session(config_for(directory))
    assert_same_state(resumed.evaluator, expected_events)
    tail = make_batches(1, 8, seed=13)[0]

    async def finish():
        resumed.start()
        await resumed.submit_many(tail)
        await resumed.flush()
        await resumed.close()

    run(finish())
    assert_bounded(directory)
    again = open_session(config_for(directory))
    assert_same_state(again.evaluator, expected_events + tail)
    run(again.abort())


def clean_trace(directory, branch, monkeypatch):
    """The steps the faulted batch of ``branch`` takes when nothing fails."""
    faulty = FaultyOS()
    monkeypatch.setattr(durable_module, "os", faulty)
    assert fault_run(directory, faulty, branch)[1] is None
    monkeypatch.setattr(durable_module, "os", os)
    return faulty.steps


def applied_prefix(n_events):
    return [event for batch in FAULT_BATCHES for event in batch][:n_events]


class TestIoFaults:
    def test_failed_append_cuts_the_log_and_closes_the_store(
        self, tmp_path, monkeypatch
    ):
        store = DurableStore(tmp_path)
        store.open()
        store.append_batch(1, 1, [(0, 0, 1)])
        faulty = FaultyOS()
        faulty.armed = True
        faulty.fail_at = 1  # the fsync, after the line was written
        faulty.error = OSError(errno.EIO, os.strerror(errno.EIO))
        monkeypatch.setattr(durable_module, "os", faulty)
        with pytest.raises(OSError):
            store.append_batch(2, 2, [(1, 0, 0)])
        monkeypatch.setattr(durable_module, "os", os)
        with pytest.raises(ConfigurationError, match="not open"):
            store.append_batch(2, 2, [(1, 0, 0)])
        assert [batch[:2] for batch in DurableStore(tmp_path).read_batches()] == [
            (1, 1)
        ]

    def test_short_writes_are_completed(self, tmp_path, monkeypatch):
        faulty = FaultyOS()
        faulty.short_writes = 7
        monkeypatch.setattr(durable_module, "os", faulty)
        stream_batches(tmp_path, FAULT_BATCHES, snapshot_every=1)
        monkeypatch.setattr(durable_module, "os", os)
        assert (tmp_path / SPARE_NAME).exists()  # the recycled branch ran
        resumed = open_session(config_for(tmp_path))
        assert resumed.durable.discarded_tail_records == 0
        for path in resumed.durable.snapshot_paths():
            load_snapshot_file(path)
        events = applied_prefix(sum(map(len, FAULT_BATCHES)))
        assert resumed.applied_events == len(events)
        assert_same_state(resumed.evaluator, events)
        run(resumed.abort())

    def test_step_sequences_of_both_branches(self, tmp_path, monkeypatch):
        new = clean_trace(tmp_path / "new", "new", monkeypatch)
        recycled = clean_trace(tmp_path / "recycled", "recycled", monkeypatch)

        def final(batches):
            return f"snapshot-{sum(map(len, FAULT_BATCHES[:batches])):012d}.snap"

        # WAL append (one write, one fsync), then the snapshot: writes into
        # a fresh .tmp, cut, fsync, rename into place, directory fsync.
        assert new[:3] == ["write", "fsync", "write"]
        assert new[-4:] == ["ftruncate", "fsync", f"replace->{final(1)}", "fsync"]
        # Recycled: the spare is renamed to the .tmp before the writes, and
        # pruning retires the oldest snapshot to the spare name (no unlink).
        assert recycled[:4] == [
            "write",
            "fsync",
            f"replace->{final(4)}.tmp",
            "write",
        ]
        assert recycled[-5:] == [
            "ftruncate",
            "fsync",
            f"replace->{final(4)}",
            "fsync",
            f"replace->{SPARE_NAME}",
        ]

    @pytest.mark.parametrize("code", [errno.EIO, errno.ENOSPC])
    @pytest.mark.parametrize("branch", ["new", "recycled"])
    def test_error_at_every_step_stops_and_resumes_acknowledged(
        self, tmp_path, monkeypatch, branch, code
    ):
        steps = clean_trace(tmp_path / "trace", branch, monkeypatch)
        batch = FAULT_BATCHES[BRANCH_START[branch]]
        for step, name in enumerate(steps):
            faulty = FaultyOS()
            faulty.fail_at = step
            faulty.error = OSError(code, os.strerror(code))
            monkeypatch.setattr(durable_module, "os", faulty)
            directory = tmp_path / f"step{step}"
            acknowledged, error = fault_run(directory, faulty, branch)
            assert error is not None and error.errno == code, name
            monkeypatch.setattr(durable_module, "os", os)
            resumed = open_session(config_for(directory))
            if step < 2:
                # The WAL append failed: that batch is not acknowledged
                # and the cut log does not replay it.
                assert resumed.applied_events == acknowledged, name
            else:
                # The append was acknowledged to the log before the
                # snapshot failed: resume replays it.
                assert resumed.applied_events == acknowledged + len(batch), name
            run(resumed.abort())
            resume_and_finish(directory, applied_prefix(resumed.applied_events))

    @pytest.mark.parametrize("torn", [False, True])
    def test_kill_after_each_recycle_step_resumes(self, tmp_path, monkeypatch, torn):
        steps = clean_trace(tmp_path / "trace", "recycled", monkeypatch)
        batch = FAULT_BATCHES[BRANCH_START["recycled"]]
        # Past the WAL append (write, fsync): the recycle protocol's steps.
        for step, name in enumerate(steps[2:], start=2):
            faulty = FaultyOS()
            faulty.fail_at = step
            faulty.after = True
            faulty.error = Killed()
            monkeypatch.setattr(durable_module, "os", faulty)
            directory = tmp_path / f"step{step}"
            acknowledged, error = fault_run(directory, faulty, "recycled")
            assert isinstance(error, Killed), name
            monkeypatch.setattr(durable_module, "os", os)
            renamed_into_place = any(
                s.startswith("replace->") and s.endswith(".snap")
                for s in steps[: step + 1]
            )
            if torn and renamed_into_place:
                # A torn final file (its overwrite never reached the disk):
                # the checksum rejects it and resume falls back.
                newest = DurableStore(directory).snapshot_paths()[0]
                data = bytearray(newest.read_bytes())
                data[len(data) // 2] ^= 0xFF
                newest.write_bytes(bytes(data))
            resumed = open_session(config_for(directory))
            replayed = resumed.durable._since_snapshot
            assert replayed == (0 if renamed_into_place and not torn else 1), name
            assert resumed.applied_events == acknowledged + len(batch)
            run(resumed.abort())
            resume_and_finish(directory, applied_prefix(acknowledged + len(batch)))
