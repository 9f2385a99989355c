"""Unit tests for the durable streaming layer (:mod:`repro.serve.durable`).

Locks the on-disk contracts the kill/resume fuzz column relies on: the
versioned WAL header, CRC-guarded records with truncated-tail discard,
atomic visible-or-absent snapshots with checksum fallback, idempotent
replay (duplicates and double-resume cannot double-apply) vs hard failure
on true sequence gaps, the snapshot-every-N cadence, evaluator state
round-trips per backend (including post-restore delta updates), the CLI
``--durable`` resume path, and a real SIGKILL crash against a live
subprocess.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.incremental import IncrementalEvaluator
from repro.core.m_worker import MWorkerEstimator
from repro.exceptions import ConfigurationError, DurableStateError
from repro.serve import SessionConfig, StreamSession, open_session
from repro.serve.durable import (
    DurableStore,
    WAL_FORMAT,
    load_snapshot_file,
    write_snapshot_file,
)


def run(coro):
    return asyncio.run(coro)


def make_stream(n_events, n_workers, n_tasks, seed):
    rng = np.random.default_rng(seed)
    return [
        (int(w), int(t), int(label))
        for w, t, label in zip(
            rng.integers(0, n_workers, size=n_events),
            rng.integers(0, n_tasks, size=n_events),
            rng.integers(0, 2, size=n_events),
        )
    ]


def assert_bit_identical(streamed, matrix, confidence=0.95):
    reference = MWorkerEstimator(confidence=confidence, backend="dict").evaluate_all(
        matrix
    )
    expected = {e.worker: e for e in reference if e.n_tasks > 0}
    assert set(streamed) == set(expected)
    for worker, ref in expected.items():
        est = streamed[worker]
        assert est.interval.mean == ref.interval.mean
        assert est.interval.lower == ref.interval.lower
        assert est.interval.upper == ref.interval.upper
        assert est.status is ref.status


async def stream_durably(directory, events, **session_kwargs):
    """Feed ``events`` through a durable session and close it cleanly."""
    session_kwargs.setdefault("fsync", False)
    async with open_session(
        SessionConfig(durable=directory, **session_kwargs)
    ) as session:
        for event in events:
            await session.submit(*event)
        await session.flush()
        return await session.evaluate_all()


class TestWalFormat:
    def test_header_written_on_fresh_open(self, tmp_path):
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        store.append_batch(1, 2, [(0, 0, 1), (1, 0, 0)])
        store.close()
        lines = store.wal_path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"format": WAL_FORMAT, "version": 1}
        record = json.loads(lines[1])
        assert record["seq"] == [1, 2]
        assert record["events"] == [[0, 0, 1], [1, 0, 0]]
        assert isinstance(record["crc"], int)

    def test_future_version_rejected(self, tmp_path):
        wal = tmp_path / "wal.ndjson"
        wal.write_text(json.dumps({"format": WAL_FORMAT, "version": 99}) + "\n")
        with pytest.raises(DurableStateError, match="version"):
            DurableStore(tmp_path).read_batches()
        with pytest.raises(DurableStateError, match="version"):
            open_session(SessionConfig(durable=tmp_path))

    def test_missing_header_rejected(self, tmp_path):
        wal = tmp_path / "wal.ndjson"
        wal.write_text('{"seq": [1, 1], "events": [[0, 0, 1]], "crc": 0}\n')
        with pytest.raises(DurableStateError, match="header"):
            DurableStore(tmp_path).read_batches()

    def test_truncated_tail_discarded_and_reopen_truncates_file(self, tmp_path):
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        store.append_batch(1, 1, [(0, 0, 1)])
        store.append_batch(2, 2, [(1, 0, 0)])
        store.append_batch(3, 3, [(2, 0, 1)])
        store.close()
        data = store.wal_path.read_bytes()
        store.wal_path.write_bytes(data[:-9])  # kill mid-append of record 3
        reopened = DurableStore(tmp_path, fsync=False)
        batches = reopened.read_batches()
        assert [b[:2] for b in batches] == [(1, 1), (2, 2)]
        assert reopened.discarded_tail_records == 1
        # Reopening for append truncates the torn bytes off the file, so
        # new records never interleave with garbage.
        reopened.open(resume=True)
        reopened.append_batch(3, 3, [(2, 0, 1)])
        reopened.close()
        final = DurableStore(tmp_path, fsync=False)
        assert [b[:2] for b in final.read_batches()] == [(1, 1), (2, 2), (3, 3)]
        assert final.discarded_tail_records == 0

    def test_flipped_byte_discards_from_corruption_onward(self, tmp_path):
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        for seq in range(1, 5):
            store.append_batch(seq, seq, [(seq, 0, 1)])
        store.close()
        lines = store.wal_path.read_bytes().split(b"\n")
        flipped = bytearray(lines[2])  # second record
        flipped[len(flipped) // 2] ^= 0x01
        lines[2] = bytes(flipped)
        store.wal_path.write_bytes(b"\n".join(lines))
        reopened = DurableStore(tmp_path, fsync=False)
        batches = reopened.read_batches()
        # The CRC catches the flip; the record AND everything after it is
        # tail residue (appends are strictly ordered, so nothing beyond the
        # first bad record can be trusted).
        assert [b[:2] for b in batches] == [(1, 1)]
        assert reopened.discarded_tail_records == 3

    def test_duplicate_batch_and_double_replay_are_idempotent(self, tmp_path):
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        store.append_batch(1, 2, [(0, 0, 1), (1, 0, 0)])
        store.append_batch(1, 2, [(0, 0, 1), (1, 0, 0)])  # duplicated batch
        store.append_batch(3, 3, [(2, 0, 1)])
        store.close()
        resumed = open_session(SessionConfig(durable=tmp_path, fsync=False))
        assert resumed.applied_events == 3
        matrix = resumed.evaluator.matrix
        assert matrix.n_responses == 3
        assert matrix.response(0, 0) == 1
        assert matrix.response(2, 0) == 1
        run(resumed.abort())
        # Resuming a second time replays over the same WAL again — same
        # state, nothing double-applied.
        again = open_session(SessionConfig(durable=tmp_path, fsync=False))
        assert again.applied_events == 3
        assert again.evaluator.matrix == matrix
        run(again.abort())

    def test_sequence_gap_raises(self, tmp_path):
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        store.append_batch(1, 2, [(0, 0, 1), (1, 0, 0)])
        store.append_batch(5, 5, [(2, 0, 1)])  # records 3..4 are missing
        store.close()
        with pytest.raises(DurableStateError, match="gap"):
            open_session(SessionConfig(durable=tmp_path))

    def test_fresh_session_refuses_directory_with_state(self, tmp_path):
        run(stream_durably(tmp_path, [(0, 0, 1), (1, 0, 0), (2, 0, 1)]))
        fresh = StreamSession(config=SessionConfig(durable=tmp_path, fsync=False))

        async def scenario():
            with pytest.raises(DurableStateError, match="resume"):
                fresh.start()

        run(scenario())

    def test_append_requires_open_store(self, tmp_path):
        store = DurableStore(tmp_path, fsync=False)
        with pytest.raises(ConfigurationError):
            store.append_batch(1, 1, [(0, 0, 1)])

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            DurableStore(tmp_path, snapshot_every=0)
        with pytest.raises(ConfigurationError):
            DurableStore(tmp_path, keep_snapshots=0)


class TestLegacySegmentLayout:
    """Directories written by the removed multi-writer layout are refused
    before anything in them is created, truncated or renamed."""

    @staticmethod
    def legacy_directory(tmp_path, layout):
        directory = tmp_path / "legacy"
        directory.mkdir()
        events = {0: [(0, 0, 1), (0, 1, 0)], 1: [(1, 0, 1), (1, 1, 1)]}
        if layout == "segment":
            layout, events = "segments", {1: events[1]}
        if "wal" in layout:
            # The single log the old single-writer path created beside
            # the segments when it resumed such a directory.  Written
            # first: the store itself refuses a directory with segments.
            store = DurableStore(directory, fsync=False)
            store.open()
            store.append_batch(1, 1, [(2, 0, 1)])
            store.close()
        if "segments" in layout:
            for partition, batch in events.items():
                # A CRC'd, headed log per partition, renamed to its segment.
                store = DurableStore(tmp_path / f"part-{partition}", fsync=False)
                store.open()
                store.append_batch(1, len(batch), batch)
                store.close()
                store.wal_path.rename(directory / f"wal-{partition}.ndjson")
        if "snapshot" in layout:
            evaluator = IncrementalEvaluator(3, 2, backend="dense")
            evaluator.apply_batch(events[0] + events[1])
            meta, arrays = evaluator.export_state()
            meta["applied_seq"] = 4
            meta["applied_batches"] = 2
            meta["multiwriter"] = {
                "epoch": 1,
                "writers": 2,
                "partitions": {"0": 2, "1": 2},
            }
            write_snapshot_file(
                directory / "snapshot-000000000004.snap", meta, arrays
            )
        return directory

    @pytest.mark.parametrize(
        "layout",
        ["segments", "segments+snapshot", "snapshot", "segments+wal", "segment"],
    )
    def test_open_session_refuses_and_leaves_directory_unchanged(
        self, tmp_path, layout
    ):
        directory = self.legacy_directory(tmp_path, layout)
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        with pytest.raises(DurableStateError, match="multi-writer"):
            open_session(SessionConfig(durable=directory))
        if layout != "snapshot":
            fresh = StreamSession(config=SessionConfig(durable=directory))

            async def scenario():
                with pytest.raises(DurableStateError, match="multi-writer"):
                    fresh.start()

            run(scenario())
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before

    def test_cli_ingest_refuses_and_leaves_directory_unchanged(
        self, tmp_path, capsys
    ):
        directory = self.legacy_directory(tmp_path, "segments")
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        events_file = tmp_path / "events.ndjson"
        events_file.write_text("[0, 0, 1]\n")
        assert cli_main(["ingest", str(events_file), "--durable", str(directory)]) == 2
        assert "multi-writer" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before

    def test_files_that_are_not_partition_segments_are_ignored(self, tmp_path):
        """Only ``wal-<digits>.ndjson`` names are segments; other WAL-like
        files beside a single-writer log neither block nor feed a resume."""
        (tmp_path / "wal-backup.ndjson").write_text("not a segment\n")
        (tmp_path / "wal-.ndjson").write_text("")
        events = make_stream(30, 4, 9, seed=83)
        first = run(stream_durably(tmp_path, events))
        resumed = open_session(SessionConfig(durable=tmp_path, fsync=False))
        assert resumed.applied_events == len(events)

        async def read_only():
            async with resumed:
                return await resumed.evaluate_all()

        assert run(read_only()) == first
        assert (tmp_path / "wal-backup.ndjson").read_text() == "not a segment\n"


class TestSnapshotFiles:
    def test_round_trip_returns_writable_arrays(self, tmp_path):
        path = tmp_path / "snapshot-000000000005.snap"
        meta = {"applied_seq": 5, "nested": {"a": [1, 2]}}
        arrays = {
            "ints": np.arange(12, dtype=np.int64).reshape(3, 4),
            "floats": np.linspace(0.0, 1.0, 7),
            "packed": np.array([[1, 2], [3, 4]], dtype=np.uint8),
        }
        write_snapshot_file(path, meta, arrays)
        loaded_meta, loaded = load_snapshot_file(path)
        assert loaded_meta == meta
        for name, array in arrays.items():
            assert loaded[name].dtype == array.dtype
            assert np.array_equal(loaded[name], array)
            loaded[name][...] = 0  # must be writable (delta-updatable)

    def test_atomic_write_is_visible_or_absent(self, tmp_path):
        # A kill mid-write leaves only the .tmp sibling; loaders and state
        # probes must not see it.
        (tmp_path / "snapshot-000000000009.snap.tmp").write_bytes(b"partial junk")
        store = DurableStore(tmp_path)
        assert store.snapshot_paths() == []
        assert store.load_snapshot_state() is None
        assert not DurableStore.has_state(tmp_path)
        # A completed write is fully visible and valid.
        write_snapshot_file(
            tmp_path / "snapshot-000000000010.snap",
            {"applied_seq": 10},
            {"x": np.ones(3)},
        )
        assert DurableStore.has_state(tmp_path)
        meta, arrays = store.load_snapshot_state()
        assert meta["applied_seq"] == 10

    def test_checksum_rejection_falls_back_to_older_snapshot(self, tmp_path):
        old = tmp_path / "snapshot-000000000003.snap"
        new = tmp_path / "snapshot-000000000007.snap"
        write_snapshot_file(old, {"applied_seq": 3}, {"x": np.arange(4)})
        write_snapshot_file(new, {"applied_seq": 7}, {"x": np.arange(8)})
        data = bytearray(new.read_bytes())
        data[len(data) // 2] ^= 0xFF
        new.write_bytes(bytes(data))
        with pytest.raises(DurableStateError, match="checksum"):
            load_snapshot_file(new)
        meta, arrays = DurableStore(tmp_path).load_snapshot_state()
        assert meta["applied_seq"] == 3
        assert np.array_equal(arrays["x"], np.arange(4))

    def test_truncated_snapshot_rejected(self, tmp_path):
        path = tmp_path / "snapshot-000000000002.snap"
        write_snapshot_file(path, {"applied_seq": 2}, {"x": np.arange(6)})
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(DurableStateError):
            load_snapshot_file(path)

    def test_stale_snapshot_with_newer_wal_replays_the_delta(self, tmp_path):
        events = make_stream(40, 5, 12, seed=3)
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        evaluator = IncrementalEvaluator(3, 1, backend="dense")
        for seq, event in enumerate(events, start=1):
            store.append_batch(seq, seq, [event])
            evaluator.apply_batch([event], auto_extend=True)
            if seq == 25:  # snapshot mid-history, then keep appending
                store.write_snapshot(evaluator, seq)
        store.close()
        resumed = open_session(
            SessionConfig(durable=tmp_path, backend="dense", fsync=False)
        )
        assert resumed.applied_events == len(events)
        # Only the post-snapshot delta was replayed.
        assert resumed.durable._since_snapshot == len(events) - 25
        assert_bit_identical(
            resumed.evaluator.estimate_all(), resumed.evaluator.matrix
        )
        run(resumed.abort())

    def test_snapshot_every_n_cadence_and_pruning(self, tmp_path):
        store = DurableStore(tmp_path, snapshot_every=2, fsync=False)
        store.open()
        evaluator = IncrementalEvaluator(3, 1, backend="dense")
        for seq, event in enumerate(make_stream(6, 4, 6, seed=8), start=1):
            store.append_batch(seq, seq, [event])
            evaluator.apply_batch([event], auto_extend=True)
            store.record_applied(evaluator, seq)
        store.close()
        # 6 single-event batches at every-2 cadence = exactly 3 snapshots,
        # pruned down to keep_snapshots (default 2) newest on disk.
        assert store.snapshots_written == 3
        paths = store.snapshot_paths()
        assert [p.name for p in paths] == [
            "snapshot-000000000006.snap",
            "snapshot-000000000004.snap",
        ]

    def test_resume_with_no_snapshot_replays_pure_wal(self, tmp_path):
        events = make_stream(60, 6, 15, seed=11)

        async def scenario():
            session = open_session(
                SessionConfig(durable=tmp_path, fsync=False, max_batch=7)
            )
            session.start()
            for event in events:
                await session.submit(*event)
            await session.flush()
            await session.abort()

        run(scenario())
        assert DurableStore(tmp_path).snapshot_paths() == []
        resumed = open_session(SessionConfig(durable=tmp_path, fsync=False))
        assert resumed.applied_events == len(events)
        assert_bit_identical(
            resumed.evaluator.estimate_all(), resumed.evaluator.matrix
        )
        run(resumed.abort())


@pytest.mark.parametrize("backend", ["dict", "dense", "sparse", "bitset"])
class TestEvaluatorStateRoundTrip:
    def test_round_trip_and_post_restore_deltas_bit_identical(self, backend):
        events = make_stream(150, 8, 20, seed=21)
        evaluator = IncrementalEvaluator(3, 1, backend=backend)
        evaluator.apply_batch(events[:100], auto_extend=True)
        evaluator.estimate_all()  # materialize caches before export
        meta, arrays = evaluator.export_state()
        assert meta["backend_kind"] == (
            "dict" if evaluator._backend is None else evaluator._backend.name
        )
        restored = IncrementalEvaluator.from_state(meta, arrays)
        assert restored.matrix == evaluator.matrix
        assert restored.n_responses == evaluator.n_responses
        assert_bit_identical(restored.estimate_all(), restored.matrix)
        # The restored backend keeps delta-updating: further batches (with
        # revisions and unseen ids) must stay bit-identical to a fresh
        # batch build over the accumulated data.
        tail = events[100:] + [(0, 0, 1), (9, 25, 0), (0, 0, 0)]
        restored.apply_batch(tail, auto_extend=True)
        assert restored.matrix.response(0, 0) == 0
        assert restored.matrix.n_workers == 10
        assert_bit_identical(restored.estimate_all(), restored.matrix)

    def test_snapshot_file_round_trip_through_disk(self, backend, tmp_path):
        events = make_stream(80, 6, 14, seed=33)
        evaluator = IncrementalEvaluator(3, 1, backend=backend)
        evaluator.apply_batch(events, auto_extend=True)
        store = DurableStore(tmp_path, fsync=False)
        store.open()
        store.write_snapshot(evaluator, applied_seq=len(events))
        store.close()
        meta, arrays = store.load_snapshot_state()
        assert meta["applied_seq"] == len(events)
        restored = IncrementalEvaluator.from_state(meta, arrays)
        assert restored.matrix == evaluator.matrix
        assert_bit_identical(restored.estimate_all(), restored.matrix)


class TestWarmCacheResume:
    """Snapshots carry the dependency ledger and the clean cached estimates,
    so a resume serves untouched workers with zero recomputation."""

    @staticmethod
    def two_component_stream():
        # Two disjoint worker/task components: a delta in one component must
        # not invalidate (or recompute) anything in the other.
        return [
            (w, t, (w + t) % 2) for w in range(4) for t in range(10)
        ] + [
            (w, t, (w * t) % 2) for w in range(4, 8) for t in range(10, 20)
        ]

    def test_state_round_trip_restores_warm_caches(self):
        events = self.two_component_stream()
        evaluator = IncrementalEvaluator(8, 20, backend="dense")
        evaluator.apply_batch(events)
        warm = evaluator.estimate_all()
        meta, arrays = evaluator.export_state()
        assert "deps.workers" in arrays and "cache.workers" in arrays
        restored = IncrementalEvaluator.from_state(
            meta, {key: value.copy() for key, value in arrays.items()}
        )
        assert restored.recompute_count == 0
        assert restored.estimate_all() == warm
        assert restored.recompute_count == 0, (
            "a warm restore must serve every cached estimate without "
            "recomputing"
        )
        # A delta touching one component recomputes exactly its invalidated
        # workers; the other component's restored caches keep serving.
        stats = restored.apply_batch([(0, 5, 1)])
        assert stats.invalidated <= set(range(4))
        restored.estimate_all()
        assert restored.recompute_count == len(stats.invalidated)

    def test_changed_configuration_restores_cold(self):
        events = self.two_component_stream()
        evaluator = IncrementalEvaluator(8, 20, backend="dense")
        evaluator.apply_batch(events)
        evaluator.estimate_all()
        meta, arrays = evaluator.export_state()
        cold = IncrementalEvaluator.from_state(
            meta,
            {key: value.copy() for key, value in arrays.items()},
            confidence=0.9,  # differs from the persisted 0.95
        )
        assert cold.cached_estimate(0) is None
        cold.estimate_all()
        assert cold.recompute_count > 0

    def test_durable_resume_zero_recompute_for_untouched_workers(
        self, tmp_path
    ):
        events = self.two_component_stream()

        async def ingest():
            config = SessionConfig(
                durable=tmp_path, snapshot_every=50, fsync=False, backend="dense"
            )
            async with open_session(config) as session:
                for event in events:
                    await session.submit(*event)
                await session.flush()
                return await session.evaluate_all()

        warm = run(ingest())
        resumed = open_session(
            SessionConfig(durable=tmp_path, snapshot_every=50, fsync=False)
        )

        async def read_and_delta():
            async with resumed:
                served = await resumed.evaluate_all()
                assert served == warm
                assert resumed.evaluator.recompute_count == 0, (
                    "resume must serve the snapshot's cached estimates "
                    "without recomputing any worker"
                )
                # A post-resume delta in the first component leaves the
                # second component's restored caches untouched.
                await resumed.submit(1, 3, 0)
                await resumed.flush()
                await resumed.evaluate_all()
                assert resumed.evaluator.recompute_count <= 4
        run(read_and_delta())


class TestSessionDurability:
    def test_clean_close_snapshots_and_resume_replays_nothing(self, tmp_path):
        events = make_stream(90, 7, 18, seed=41)
        closed = run(
            stream_durably(tmp_path, events, snapshot_every=5, max_batch=8)
        )
        resumed = open_session(
            SessionConfig(durable=tmp_path, snapshot_every=5, fsync=False)
        )
        assert resumed.applied_events == len(events)
        # The final snapshot covers the whole history: zero WAL replay.
        assert resumed.durable._since_snapshot == 0
        assert resumed.evaluator.estimate_all() == closed
        run(resumed.abort())

    def test_resume_continues_sequence_numbering(self, tmp_path):
        first = make_stream(30, 5, 10, seed=51)
        second = make_stream(30, 5, 10, seed=52)
        run(stream_durably(tmp_path, first, max_batch=4))

        async def continue_stream():
            session = open_session(
                SessionConfig(durable=tmp_path, max_batch=4, fsync=False)
            )
            assert session.applied_events == len(first)
            async with session:
                for event in second:
                    await session.submit(*event)
                await session.flush()
                assert session.applied_events == len(first) + len(second)
                return await session.evaluate_all()

        final = run(continue_stream())
        # The reopened WAL continues the monotonic numbering with no gaps
        # or overlaps across the restart.
        batches = DurableStore(tmp_path).read_batches()
        assert batches[0][0] == 1
        for (_, last, _), (nxt, _, _) in zip(batches, batches[1:]):
            assert nxt == last + 1
        assert batches[-1][1] == len(first) + len(second)
        reference = IncrementalEvaluator(3, 1, backend="dict")
        reference.apply_batch(first + second, auto_extend=True)
        assert final == reference.estimate_all()

    def test_open_session_creates_then_resumes(self, tmp_path):
        events = make_stream(25, 4, 8, seed=61)

        async def scenario():
            first = open_session(
                SessionConfig(durable=tmp_path, snapshot_every=3, fsync=False)
            )
            assert first.applied_events == 0
            async with first:
                for event in events:
                    await first.submit(*event)
                await first.flush()
            second = open_session(
                SessionConfig(durable=tmp_path, snapshot_every=3, fsync=False)
            )
            assert second.applied_events == len(events)
            run_estimates = second.evaluator.estimate_all()
            await second.abort()
            return run_estimates

        estimates = run(scenario())
        reference = IncrementalEvaluator(3, 1, backend="dict")
        reference.apply_batch(events, auto_extend=True)
        assert estimates == reference.estimate_all()

    def test_cli_ingest_durable_resume_prints_identical_table(
        self, tmp_path, capsys
    ):
        events_file = tmp_path / "events.ndjson"
        events_file.write_text(
            "".join(
                json.dumps([w, t, label]) + "\n"
                for w, t, label in make_stream(120, 6, 15, seed=71)
            )
        )
        empty_file = tmp_path / "empty.ndjson"
        empty_file.write_text("")
        durable_dir = tmp_path / "state"
        assert (
            cli_main(
                [
                    "ingest",
                    str(events_file),
                    "--durable",
                    str(durable_dir),
                    "--snapshot-every",
                    "4",
                ]
            )
            == 0
        )
        first = capsys.readouterr().out
        # Second invocation over the same directory resumes the persisted
        # state and serves the same table from zero new events.
        assert (
            cli_main(
                [
                    "ingest",
                    str(empty_file),
                    "--durable",
                    str(durable_dir),
                    "--snapshot-every",
                    "4",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == first

    def test_cli_snapshot_every_requires_durable(self, capsys):
        assert cli_main(["ingest", "/dev/null", "--snapshot-every", "3"]) == 2
        assert "--durable" in capsys.readouterr().err


class TestCrashSubprocess:
    def test_sigkill_mid_stream_then_resume_is_bit_identical(self, tmp_path):
        """Kill a real process mid-ingest (between fsyncs, possibly
        mid-batch or mid-snapshot) and resume its directory: after feeding
        the remainder of the stream, estimates must equal the dict batch
        reference over the full event set."""
        durable_dir = tmp_path / "state"
        events = make_stream(400, 7, 30, seed=81)
        child_code = textwrap.dedent(
            """
            import asyncio, sys
            import numpy as np
            from repro.serve import SessionConfig, open_session

            def make_stream(n_events, n_workers, n_tasks, seed):
                rng = np.random.default_rng(seed)
                return [
                    (int(w), int(t), int(label))
                    for w, t, label in zip(
                        rng.integers(0, n_workers, size=n_events),
                        rng.integers(0, n_tasks, size=n_events),
                        rng.integers(0, 2, size=n_events),
                    )
                ]

            async def main():
                events = make_stream(400, 7, 30, seed=81)
                session = open_session(
                    SessionConfig(durable=sys.argv[1], snapshot_every=5, max_batch=4)
                )
                session.start()
                for index, event in enumerate(events):
                    await session.submit(*event)
                    if index and index % 20 == 0:
                        await session.flush()
                        print(index, flush=True)
                await session.flush()
                print("done", flush=True)

            asyncio.run(main())
            """
        )
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(repo_src)
        child = subprocess.Popen(
            [sys.executable, "-c", child_code, str(durable_dir)],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            # Wait until the child has durably applied some prefix, then
            # kill it without any chance to clean up.
            line = child.stdout.readline()
            assert line.strip(), "child produced no progress before exiting"
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait(timeout=30)
        assert DurableStore.has_state(durable_dir)

        async def finish():
            session = open_session(
                SessionConfig(durable=durable_dir, max_batch=4, fsync=False)
            )
            applied = session.applied_events
            assert 0 < applied <= len(events)
            async with session:
                for event in events[applied:]:
                    await session.submit(*event)
                await session.flush()
                return await session.evaluate_all(), session.evaluator.matrix.copy()

        estimates, matrix = run(finish())
        reference = IncrementalEvaluator(3, 1, backend="dict")
        reference.apply_batch(events, auto_extend=True)
        assert matrix == reference.matrix
        assert_bit_identical(estimates, matrix)
