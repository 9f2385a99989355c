"""Unit tests for the streaming ingestion subsystem (:mod:`repro.serve`).

Covers the queue semantics (bounded backpressure, FIFO coalescing, close),
the session contract (flush ordering, reader-snapshot consistency under
concurrent submits, auto-extension, error surfacing, per-batch stats), the
NDJSON server protocol, and the locked acceptance bound: micro-batched
application pays at least 3x fewer backend invalidation passes than
singleton applies on a 10k-event stream while staying bit-identical.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.incremental import IncrementalEvaluator
from repro.core.m_worker import MWorkerEstimator
from repro.exceptions import ConfigurationError, DataValidationError
from repro.serve import (
    QueueClosed,
    ResponseQueue,
    StreamSession,
    parse_event,
)
from repro.serve.server import serve_ndjson


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
    """The streamed estimates equal a from-scratch dict-backend build."""
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
        assert est.interval.deviation == ref.interval.deviation
        assert est.weights == ref.weights
        assert est.status is ref.status


class TestResponseQueue:
    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            ResponseQueue(maxsize=0)
        with pytest.raises(ConfigurationError):
            ResponseQueue(max_batch=0)

    def test_fifo_coalescing_respects_max_batch(self):
        async def scenario():
            queue = ResponseQueue(maxsize=16, max_batch=3)
            for value in range(5):
                await queue.put(value)
            first = await queue.get_batch()
            second = await queue.get_batch()
            return first, second

        first, second = run(scenario())
        assert first == [0, 1, 2]
        assert second == [3, 4]

    def test_get_batch_waits_for_first_event(self):
        async def scenario():
            queue = ResponseQueue()

            async def producer():
                await asyncio.sleep(0.01)
                await queue.put("late")

            task = asyncio.get_running_loop().create_task(producer())
            batch = await queue.get_batch()
            await task
            return batch

        assert run(scenario()) == ["late"]

    def test_backpressure_blocks_producer_until_drained(self):
        async def scenario():
            queue = ResponseQueue(maxsize=2)
            await queue.put(0)
            await queue.put(1)
            blocked = asyncio.get_running_loop().create_task(queue.put(2))
            await asyncio.sleep(0.01)
            assert not blocked.done()  # full queue parks the producer
            batch = await queue.get_batch()
            await asyncio.wait_for(blocked, timeout=1.0)  # drained -> resumes
            rest = await queue.get_batch()
            return batch, rest

        batch, rest = run(scenario())
        assert batch == [0, 1]
        assert rest == [2]

    def test_close_delivers_tail_then_none_and_rejects_puts(self):
        async def scenario():
            queue = ResponseQueue(max_batch=8)
            await queue.put("a")
            await queue.put("b")
            await queue.close()
            await queue.close()  # idempotent
            with pytest.raises(QueueClosed):
                await queue.put("c")
            with pytest.raises(QueueClosed):
                queue.put_nowait("c")
            tail = await queue.get_batch()
            done = await queue.get_batch()
            again = await queue.get_batch()
            return tail, done, again

        tail, done, again = run(scenario())
        assert tail == ["a", "b"]
        assert done is None
        assert again is None


class TestStreamSession:
    def test_submit_requires_running_session(self):
        async def scenario():
            session = StreamSession()
            with pytest.raises(ConfigurationError):
                await session.submit(0, 0, 1)

        run(scenario())

    def test_flush_gives_read_your_writes_and_ordered_application(self):
        """Revisions of the same cell must land in submission order, and
        flush must make everything submitted visible."""

        async def scenario():
            async with StreamSession(max_batch=4) as session:
                await session.submit(0, 0, 1)
                await session.submit(1, 0, 0)
                await session.submit(0, 0, 0)  # revision, must win
                await session.submit(2, 0, 1)
                await session.submit(0, 0, 1)  # second revision, must win
                applied = await session.flush()
                matrix = session.evaluator.matrix
                assert applied == 5
                assert session.pending_events == 0
                assert matrix.response(0, 0) == 1
                assert matrix.response(1, 0) == 0
                records = session.applied_batches
                # Contiguous, ordered sequence ranges with no gaps.
                assert records[0].first_seq == 1
                for before, after in zip(records, records[1:]):
                    assert after.first_seq == before.last_seq + 1
                assert records[-1].last_seq == 5

        run(scenario())

    @pytest.mark.parametrize("backend", ["dense", "bitset"])
    def test_streamed_estimates_bit_identical_with_mid_stream_reads(self, backend):
        events = make_stream(600, 10, 50, seed=31)

        async def scenario():
            async with StreamSession(backend=backend, max_batch=19) as session:
                for index, event in enumerate(events):
                    await session.submit(*event)
                    if index in (151, 449):
                        await session.evaluate_all()  # warm caches mid-stream
                await session.flush()
                estimates = await session.evaluate_all()
                return estimates, session.evaluator.matrix.copy()

        estimates, matrix = run(scenario())
        assert_bit_identical(estimates, matrix)

    def test_reader_snapshots_are_consistent_under_concurrent_submits(self):
        """Snapshots taken while a producer keeps submitting must always
        show a whole number of applied batches, and their estimates must
        equal a from-scratch batch build over the snapshot matrix."""
        events = make_stream(800, 8, 40, seed=77)

        async def scenario():
            snapshots = []
            async with StreamSession(max_batch=13, maxsize=32) as session:

                async def producer():
                    for event in events:
                        await session.submit(*event)

                task = asyncio.get_running_loop().create_task(producer())
                while not task.done():
                    snapshots.append(await session.snapshot())
                    await asyncio.sleep(0)
                await task
                await session.flush()
                snapshots.append(await session.snapshot())
                return snapshots, session.applied_batches

            return snapshots

        snapshots, batches = run(scenario())
        boundaries = {0}
        total = 0
        for record in batches:
            total += record.last_seq - record.first_seq + 1
            boundaries.add(record.last_seq)
        assert total == len(events)
        mid_stream = 0
        for snapshot in snapshots:
            # Only whole batches are ever visible.
            assert snapshot.applied_events in boundaries
            if 0 < snapshot.applied_events < len(events):
                mid_stream += 1
            if snapshot.estimates:
                assert_bit_identical(snapshot.estimates, snapshot.matrix)
        assert snapshots[-1].applied_events == len(events)
        assert mid_stream > 0  # the scenario really did read mid-stream

    def test_auto_extends_for_unseen_ids_without_rebuilds(self):
        async def scenario():
            async with StreamSession(backend="dense", max_batch=8) as session:
                await session.submit(0, 0, 1)
                await session.submit(14, 90, 0)  # far beyond (3, 1)
                await session.submit(7, 30, 1)
                await session.flush()
                evaluator = session.evaluator
                assert evaluator.matrix.n_workers == 15
                assert evaluator.matrix.n_tasks == 91
                assert evaluator.backend_rebuilds == 0
                assert evaluator.matrix.response(14, 90) == 0

        run(scenario())

    def test_ingestion_error_surfaces_on_flush_submit_and_close(self):
        async def scenario():
            session = StreamSession(auto_extend=False)
            session.start()
            with pytest.raises(DataValidationError):
                await session.submit(-3, 0, 1)  # rejected at admission

            def failing_apply(records, auto_extend=True):
                raise DataValidationError("injected apply failure")

            session.evaluator.apply_batch = failing_apply
            await session.submit(0, 0, 1)
            with pytest.raises(DataValidationError):
                await session.flush()
            with pytest.raises(DataValidationError):
                await session.submit(0, 0, 1)
            with pytest.raises(DataValidationError):
                await session.close()

        run(scenario())

    def test_spammer_scores_flag_planted_spammer(self):
        rng = np.random.default_rng(5)
        truth = rng.integers(0, 2, size=60)

        async def scenario():
            async with StreamSession() as session:
                for worker in range(5):
                    for task in range(60):
                        if worker == 4:  # coin-flip spammer
                            label = int(rng.integers(0, 2))
                        else:
                            label = int(truth[task])
                        await session.submit(worker, task, label)
                await session.flush()
                return await session.spammer_scores()

        scores = run(scenario())
        assert set(scores) == {0, 1, 2, 3, 4}
        assert scores[4] is not None and scores[4] > 0.25
        assert all(scores[worker] == 0.0 for worker in range(4))

    def test_batch_stats_report_invalidations(self):
        events = make_stream(400, 6, 30, seed=9)

        async def scenario():
            async with StreamSession(backend="dense", max_batch=50) as session:
                await session.submit_many(events[:200])
                await session.flush()
                await session.evaluate_all()  # build caches
                await session.submit_many(events[200:])
                await session.flush()
                return session.applied_batches

        records = run(scenario())
        assert sum(r.stats.n_events for r in records) == 400
        # Each statistic-changing batch pays exactly one backend pass.
        assert all(r.stats.backend_invalidations <= 1 for r in records)
        # Batches landing after the warm-up read invalidate cached workers.
        warm = [r for r in records if r.first_seq > 200 and r.stats.n_changed]
        assert warm and any(r.stats.cached_invalidated > 0 for r in warm)


class TestApplyBatchAtomicity:
    def test_invalid_event_mid_batch_applies_nothing(self):
        """Regression: a mid-batch invalid event must not leave the matrix
        and the statistics backend divergent — the whole batch is validated
        before anything mutates, so the failure is clean."""
        evaluator = IncrementalEvaluator(4, 10, backend="dense")
        evaluator.add_responses([(0, 0, 1), (1, 0, 1), (2, 0, 0), (3, 1, 1)])
        passes_before = evaluator._backend.invalidation_events
        with pytest.raises(DataValidationError):
            evaluator.apply_batch(
                [(0, 1, 1), (1, 1, 9), (2, 1, 0)]  # label 9 out of arity
            )
        assert evaluator.matrix.n_responses == 4  # nothing landed
        assert evaluator.matrix.response(0, 1) is None
        assert evaluator.n_responses == 4
        assert evaluator._backend.invalidation_events == passes_before
        # Negative ids are rejected the same way (auto-extend never grows
        # for them).
        with pytest.raises(DataValidationError):
            evaluator.apply_batch([(0, 2, 1), (-1, 2, 0)])
        with pytest.raises(DataValidationError):
            evaluator.apply_batch([(0, 2, 1, 5)])  # not a triple
        assert evaluator.matrix.n_responses == 4
        # The evaluator is still healthy: subsequent valid batches apply
        # and serve estimates equal to a from-scratch build.
        evaluator.apply_batch([(0, 1, 1), (1, 1, 0), (2, 1, 0), (3, 0, 1)])
        assert_bit_identical(evaluator.estimate_all(), evaluator.matrix)


class TestConcurrencyRegressions:
    def test_applier_failure_wakes_parked_producers(self):
        """Regression: after an ingestion error the applier keeps draining,
        so a producer parked on the full queue surfaces the error instead
        of deadlocking (and close() can always land its marker)."""

        async def scenario():
            session = StreamSession(auto_extend=False, maxsize=2, max_batch=1)
            session.start()

            def failing_apply(records, auto_extend=True):
                raise DataValidationError("injected apply failure")

            session.evaluator.apply_batch = failing_apply
            await session.submit(0, 0, 1)  # will fail in apply

            async def spam():
                for _ in range(50):
                    await session.submit(0, 0, 1)

            with pytest.raises(DataValidationError):
                await asyncio.wait_for(spam(), timeout=5)
            with pytest.raises(DataValidationError):
                await session.close()

        run(scenario())

    def test_ledger_proven_cache_hits_bypass_the_writer_lock(self):
        """Regression: evaluate_worker/evaluate_all used to serialize every
        read behind the writer lock, so a reader queued behind a long apply
        even when the dependency ledger proved its cached estimate still
        valid.  Clean cached reads must complete while the lock is held;
        reads that need a recompute must still wait for it."""

        async def scenario():
            async with StreamSession(backend="dense") as session:
                records = [
                    (w, t, (w + t) % 2) for w in range(5) for t in range(12)
                ]
                for record in records:
                    await session.submit(*record)
                await session.flush()
                warm = await session.evaluate_all()
                async with session._lock:  # simulate a long apply in flight
                    # Ledger-proven reads are served despite the held lock.
                    estimate = await asyncio.wait_for(
                        session.evaluate_worker(0), timeout=1
                    )
                    assert estimate == warm[0]
                    served = await asyncio.wait_for(
                        session.evaluate_all(), timeout=1
                    )
                    assert served == warm
                    # A dirty worker needs the lock: the read must block
                    # until the writer releases it.
                    session.evaluator._invalidate(0)
                    blocked = asyncio.ensure_future(session.evaluate_worker(0))
                    with pytest.raises(asyncio.TimeoutError):
                        await asyncio.wait_for(
                            asyncio.shield(blocked), timeout=0.1
                        )
                    assert not blocked.done()
                recomputed = await asyncio.wait_for(blocked, timeout=5)
                assert recomputed == warm[0]  # same data, same estimate

        run(scenario())

    def test_concurrent_producers_account_every_event(self):
        """Regression: submit() used to compute its sequence number before
        awaiting the queue, so two producers parked on a full queue lost
        increments — flush() then returned early and the counters lied."""
        per_producer = 120

        async def scenario():
            async with StreamSession(maxsize=4, max_batch=8) as session:

                async def producer(worker):
                    for index in range(per_producer):
                        await session.submit(worker, index % 30, index % 2)

                await asyncio.gather(producer(0), producer(1), producer(2))
                applied = await session.flush()
                assert session.submitted_events == 3 * per_producer
                assert applied == 3 * per_producer
                assert session.pending_events == 0
                assert session.evaluator.matrix.n_responses > 0
                records = session.applied_batches
                assert sum(r.stats.n_events for r in records) == 3 * per_producer

        run(scenario())

    def test_server_shutdown_completes_with_idle_client_connected(self):
        """Regression: Server.wait_closed() (Python >= 3.12) waits for every
        active handler, so a shutdown query used to hang while any other
        client sat idle in readline(); the server now force-closes idle
        connections on shutdown."""

        async def scenario():
            ready = asyncio.get_running_loop().create_future()
            async with StreamSession() as session:
                server = asyncio.get_running_loop().create_task(
                    serve_ndjson(
                        session,
                        port=0,
                        ready=lambda host, port: ready.set_result((host, port)),
                    )
                )
                host, port = await asyncio.wait_for(ready, timeout=5)
                # Idle client: connects and never sends anything.
                idle_reader, idle_writer = await asyncio.open_connection(host, port)
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b'{"query": "shutdown"}\n')
                await writer.drain()
                assert json.loads(await reader.readline()) == {"ok": True}
                await asyncio.wait_for(server, timeout=5)  # must not hang
                assert await idle_reader.read() == b""  # force-closed
                writer.close()
                idle_writer.close()

        run(scenario())


class TestInvalidationReduction:
    def test_batched_ingest_cuts_invalidation_passes_3x_on_10k_stream(self):
        """The locked acceptance bound: apply_responses on a 10k-event
        stream pays >= 3x fewer invalidation/rebuild passes than 10k
        singleton applies, with bit-identical estimates."""
        events = make_stream(10_000, 40, 400, seed=123)

        singleton = IncrementalEvaluator(3, 1, backend="dense")
        for event in events:
            singleton.add_response(*event)

        batched = IncrementalEvaluator(3, 1, backend="dense")
        for offset in range(0, len(events), 256):
            batched.apply_batch(events[offset : offset + 256])

        assert singleton.backend_rebuilds == 0
        assert batched.backend_rebuilds == 0
        singleton_passes = singleton._backend.invalidation_events
        batched_passes = batched._backend.invalidation_events
        assert batched_passes * 3 <= singleton_passes
        assert_bit_identical(batched.estimate_all(), batched.matrix)
        assert batched.matrix == singleton.matrix


class TestNdjsonServer:
    def test_event_query_protocol_round_trip(self):
        events = make_stream(300, 6, 25, seed=17)

        async def scenario():
            ready = asyncio.get_running_loop().create_future()
            async with StreamSession(confidence=0.9, max_batch=32) as session:
                server = asyncio.get_running_loop().create_task(
                    serve_ndjson(
                        session,
                        port=0,
                        ready=lambda host, port: ready.set_result((host, port)),
                    )
                )
                host, port = await asyncio.wait_for(ready, timeout=5)
                reader, writer = await asyncio.open_connection(host, port)

                async def ask(payload):
                    writer.write((json.dumps(payload) + "\n").encode())
                    await writer.drain()
                    return json.loads(await asyncio.wait_for(
                        reader.readline(), timeout=5
                    ))

                for worker, task, label in events:
                    writer.write(
                        (json.dumps([worker, task, label]) + "\n").encode()
                    )
                await writer.drain()
                flushed = await ask({"query": "flush"})
                stats = await ask({"query": "stats"})
                answer = await ask({"query": "evaluate_all"})
                one = await ask({"query": "worker", "worker": 0})
                bad = await ask({"query": "nope"})
                malformed = await ask("not-an-event")
                await ask({"query": "shutdown"})
                writer.close()
                await server
                return flushed, stats, answer, one, bad, malformed, session

        flushed, stats, answer, one, bad, malformed, session = run(scenario())
        assert flushed == {"applied": len(events)}
        assert stats["applied"] == len(events) and stats["pending"] == 0
        expected = MWorkerEstimator(confidence=0.9, backend="dict").evaluate_all(
            session.evaluator.matrix
        )
        for ref in expected:
            if ref.n_tasks == 0:
                continue
            served = answer["estimates"][str(ref.worker)]
            assert served["mean"] == ref.interval.mean
            assert served["lower"] == ref.interval.lower
            assert served["upper"] == ref.interval.upper
            assert served["n_tasks"] == ref.n_tasks
        assert one["worker"] == 0
        assert "error" in bad
        assert "error" in malformed


class TestIterNdjson:
    def test_path_handle_closed_on_malformed_line(self, tmp_path, monkeypatch):
        """Regression: a malformed line used to abandon the open handle on
        the error path; the iterator now owns path-opened handles and
        closes them on every exit, including mid-stream parse failures."""
        import repro.serve.sources as sources_module
        from repro.serve.sources import iter_ndjson

        path = tmp_path / "events.ndjson"
        path.write_text("[0,0,1]\n{not json\n[1,0,1]\n")
        opened = []

        def recording_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr(sources_module, "_open_text", recording_open)

        async def scenario():
            records = []
            with pytest.raises(DataValidationError):
                async for record in iter_ndjson(str(path)):
                    records.append(record)
            return records

        records = run(scenario())
        assert records == [(0, 0, 1)]  # everything before the bad line
        assert len(opened) == 1 and opened[0].closed

    def test_path_handle_closed_when_consumer_abandons_early(
        self, tmp_path, monkeypatch
    ):
        import repro.serve.sources as sources_module
        from repro.serve.sources import iter_ndjson

        path = tmp_path / "events.ndjson"
        path.write_text("[0,0,1]\n[1,0,1]\n[2,0,1]\n")
        opened = []

        def recording_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr(sources_module, "_open_text", recording_open)

        async def scenario():
            async for record in iter_ndjson(str(path)):
                return record  # abandon after the first record

        assert run(scenario()) == (0, 0, 1)
        assert len(opened) == 1 and opened[0].closed

    def test_caller_provided_handle_stays_caller_owned(self, tmp_path):
        from repro.serve.sources import iter_ndjson

        path = tmp_path / "events.ndjson"
        path.write_text("[0,0,1]\n")
        with open(path, "r", encoding="utf-8") as handle:

            async def scenario():
                return [record async for record in iter_ndjson(handle)]

            assert run(scenario()) == [(0, 0, 1)]
            assert not handle.closed

    def test_final_record_without_trailing_newline_is_yielded(self, tmp_path):
        from repro.serve.sources import iter_ndjson

        path = tmp_path / "events.ndjson"
        path.write_text("[0,0,1]\n[1,0,0]")  # EOF lands mid-line

        async def scenario():
            return [record async for record in iter_ndjson(str(path))]

        assert run(scenario()) == [(0, 0, 1), (1, 0, 0)]

    def test_follow_buffers_partial_line_until_writer_finishes(self, tmp_path):
        """Regression: in follow mode a read can race the writer mid-append;
        the partial JSON must be buffered, not rejected as malformed."""
        from repro.serve.sources import iter_ndjson

        path = tmp_path / "events.ndjson"
        path.write_text("[0,0,1]\n[1,0")  # writer parked mid-record

        async def scenario():
            records = []

            async def complete_line():
                await asyncio.sleep(0.05)
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(",1]\n[2,0,0]\n")

            writer = asyncio.get_running_loop().create_task(complete_line())
            async for record in iter_ndjson(
                str(path), follow=True, poll_interval=0.01, idle_timeout=1.0
            ):
                records.append(record)
            await writer
            return records

        assert run(scenario()) == [(0, 0, 1), (1, 0, 1), (2, 0, 0)]


class TestServerShutdownSemantics:
    def test_pipelined_query_in_flight_at_shutdown_is_answered(self):
        """Queries already on the wire ahead of a shutdown are answered in
        order before the connection closes — shutdown never drops replies
        for work the server already accepted."""
        events = [(w, t, (w + t) % 2) for w in range(4) for t in range(6)]

        async def scenario():
            ready = asyncio.get_running_loop().create_future()
            async with StreamSession() as session:
                server = asyncio.get_running_loop().create_task(
                    serve_ndjson(
                        session,
                        port=0,
                        ready=lambda host, port: ready.set_result((host, port)),
                    )
                )
                host, port = await asyncio.wait_for(ready, timeout=5)
                reader, writer = await asyncio.open_connection(host, port)
                for event in events:
                    writer.write((json.dumps(list(event)) + "\n").encode())
                # Pipeline: flush + evaluate_all + shutdown in one write.
                writer.write(
                    b'{"query": "flush"}\n'
                    b'{"query": "evaluate_all"}\n'
                    b'{"query": "shutdown"}\n'
                )
                await writer.drain()
                flushed = json.loads(await reader.readline())
                answer = json.loads(await reader.readline())
                done = json.loads(await reader.readline())
                await asyncio.wait_for(server, timeout=5)
                writer.close()
                return flushed, answer, done

        flushed, answer, done = run(scenario())
        assert flushed == {"applied": len(events)}
        assert set(answer["estimates"]) == {"0", "1", "2", "3"}
        assert done == {"ok": True}

    def test_double_shutdown_is_safe(self):
        """A second shutdown — same connection or another client — must
        neither hang the server nor error; the server exits exactly once."""

        async def scenario():
            ready = asyncio.get_running_loop().create_future()
            async with StreamSession() as session:
                server = asyncio.get_running_loop().create_task(
                    serve_ndjson(
                        session,
                        port=0,
                        ready=lambda host, port: ready.set_result((host, port)),
                    )
                )
                host, port = await asyncio.wait_for(ready, timeout=5)
                reader, writer = await asyncio.open_connection(host, port)
                # Two shutdowns pipelined on one connection: the first is
                # acknowledged, the second lands after stop is set and gets
                # no reply (the handler loop has exited) — only EOF.
                writer.write(b'{"query": "shutdown"}\n{"query": "shutdown"}\n')
                await writer.drain()
                first = json.loads(await reader.readline())
                rest = await asyncio.wait_for(reader.read(), timeout=5)
                await asyncio.wait_for(server, timeout=5)
                writer.close()
                return first, rest

        first, rest = run(scenario())
        assert first == {"ok": True}
        assert rest == b""

    def test_client_disconnect_mid_response_keeps_server_alive(self):
        """A client that sends a query and vanishes before reading the
        reply must not take the server down: other clients keep working
        and a later shutdown still completes."""
        events = [(w, t, 1) for w in range(3) for t in range(5)]

        async def scenario():
            ready = asyncio.get_running_loop().create_future()
            async with StreamSession() as session:
                server = asyncio.get_running_loop().create_task(
                    serve_ndjson(
                        session,
                        port=0,
                        ready=lambda host, port: ready.set_result((host, port)),
                    )
                )
                host, port = await asyncio.wait_for(ready, timeout=5)
                # Rude client: submits events, asks a question, hangs up
                # without reading the answer.
                _, rude_writer = await asyncio.open_connection(host, port)
                for event in events:
                    rude_writer.write((json.dumps(list(event)) + "\n").encode())
                rude_writer.write(b'{"query": "evaluate_all"}\n')
                await rude_writer.drain()
                rude_writer.close()
                # A polite client still gets served afterwards.
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b'{"query": "flush"}\n{"query": "shutdown"}\n')
                await writer.drain()
                flushed = json.loads(await reader.readline())
                done = json.loads(await reader.readline())
                await asyncio.wait_for(server, timeout=5)
                writer.close()
                return flushed, done

        flushed, done = run(scenario())
        assert flushed == {"applied": len(events)}
        assert done == {"ok": True}


class TestParseEvent:
    def test_shapes(self):
        assert parse_event('{"worker": 2, "task": 5, "label": 1}') == (2, 5, 1)
        assert parse_event(b'[2, 5, 1]') == (2, 5, 1)
        assert parse_event({"worker": 2, "task": 5, "label": 1, "ts": 9}) == (2, 5, 1)
        assert parse_event("   \n") is None

    def test_malformed(self):
        with pytest.raises(DataValidationError):
            parse_event("{not json")
        with pytest.raises(DataValidationError):
            parse_event('{"worker": 1, "task": 2}')
        with pytest.raises(DataValidationError):
            parse_event("[1, 2]")
        with pytest.raises(DataValidationError):
            parse_event('"just-a-string"')
