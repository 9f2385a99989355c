"""Batched ingest from socket to queue: block reads, runs and admission.

Covers the server's block reader (one decode per block, per-line fallback
that never reads a line together with its neighbour, over-long lines,
error replies in line order, nothing answered after a shutdown), the
queue's ``put_many`` (one wake-up per run, event-counted backpressure,
parked runs delivered across a close), admission-time validation on both
session shapes (a bad event never reaches the queue or the durable log)
and the copy-free ``stats`` batch counter.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.m_worker import MWorkerEstimator
from repro.exceptions import DataValidationError
from repro.serve import ResponseQueue, SessionConfig, open_session
from repro.serve.durable import DurableStore
from repro.serve.server import MAX_LINE_BYTES, decode_lines, serve_ndjson


def run(coro):
    return asyncio.run(coro)


async def _serve(session):
    """Start a server on ``session``; returns (server task, reader, writer)."""
    ready = asyncio.get_running_loop().create_future()
    server = asyncio.get_running_loop().create_task(
        serve_ndjson(
            session, port=0, ready=lambda host, port: ready.set_result((host, port))
        )
    )
    host, port = await asyncio.wait_for(ready, timeout=5)
    reader, writer = await asyncio.open_connection(host, port)
    return server, reader, writer


async def _replies(reader, count):
    return [
        json.loads(await asyncio.wait_for(reader.readline(), timeout=5))
        for _ in range(count)
    ]


def _lines(*documents) -> bytes:
    return b"".join(
        (doc if isinstance(doc, bytes) else json.dumps(doc).encode()) + b"\n"
        for doc in documents
    )


class TestDecodeLines:
    def test_block_decodes_every_shape(self):
        body = (
            b'[0, 1, 1]\n{"worker": 2, "task": 3, "label": 0, "ts": "a]["}\n'
            b'{"query": "stats"}'
        )
        assert decode_lines(body) == [
            [0, 1, 1],
            {"worker": 2, "task": 3, "label": 0, "ts": "a]["},
            {"query": "stats"},
        ]

    def test_fragments_are_never_joined_across_lines(self):
        # Joined with a comma these two lines form two valid events; read
        # one by one neither is JSON.
        values = decode_lines(b"[0,1,1],[0,2\n1]")
        assert [hasattr(value, "reason") for value in values] == [True, True]
        # Same with a string that would swallow the newline.
        values = decode_lines(b'["a\n", 1]')
        assert [hasattr(value, "reason") for value in values] == [True, True]

    def test_escaped_quotes_and_bad_lines_keep_their_places(self):
        values = decode_lines(b'{"q": "\\"]"}\n\n[1, 2, 3]\nnot json')
        assert values[0] == {"q": '"]'}
        assert hasattr(values[1], "reason")
        assert values[2] == [1, 2, 3]
        assert hasattr(values[3], "reason")
        # Balanced but invalid: the joined decode fails, the good line
        # still decodes on its own.
        values = decode_lines(b"[1, 2, 3]\n[1,,2]")
        assert values[0] == [1, 2, 3] and hasattr(values[1], "reason")


class TestServerProtocolErrors:
    def test_worker_query_without_integer_worker_gets_error_reply(self):
        async def scenario():
            async with open_session(SessionConfig()) as session:
                server, reader, writer = await _serve(session)
                writer.write(
                    _lines(
                        [0, 0, 1],
                        {"query": "worker"},
                        {"query": "worker", "worker": "x"},
                        {"query": "worker", "worker": [1]},
                        {"query": "worker", "worker": 99},  # no data yet
                        {"query": "flush"},
                    )
                )
                await writer.drain()
                replies = await _replies(reader, 5)
                writer.write(_lines({"query": "shutdown"}))
                await writer.drain()
                replies += await _replies(reader, 1)
                await asyncio.wait_for(server, timeout=5)
                writer.close()
                return replies

        replies = run(scenario())
        assert all("error" in reply for reply in replies[:4])
        assert replies[4] == {"applied": 1}  # the connection stayed open
        assert replies[5] == {"ok": True}

    @pytest.mark.parametrize("pieces", [1, 4])
    def test_over_long_line_gets_error_reply_and_is_skipped(self, pieces):
        """Whether the line completes inside the reader's buffer (one
        piece) or outgrows it first and is skipped to its newline (four
        pieces, several reads each), it gets one error reply in its place,
        and the lines after it still count."""
        size = MAX_LINE_BYTES + 10 if pieces == 1 else 3 * MAX_LINE_BYTES
        long_line = json.dumps({"pad": "x" * size}).encode()

        async def scenario():
            async with open_session(SessionConfig()) as session:
                server, reader, writer = await _serve(session)
                writer.write(_lines([0, 0, 1]))
                rest = b"\n" + _lines([1, 0, 1], {"query": "flush"})
                if pieces == 1:
                    writer.write(long_line + rest)
                else:
                    step = len(long_line) // pieces + 1
                    for start in range(0, len(long_line), step):
                        writer.write(long_line[start : start + step])
                        await writer.drain()
                        await asyncio.sleep(0.01)
                    writer.write(rest)
                await writer.drain()
                replies = await _replies(reader, 2)
                writer.write(_lines({"query": "shutdown"}))
                await writer.drain()
                await _replies(reader, 1)
                await asyncio.wait_for(server, timeout=5)
                writer.close()
                return replies

        error, flushed = run(scenario())
        assert "error" in error and str(MAX_LINE_BYTES) in error["error"]
        assert flushed == {"applied": 2}

    def test_replies_keep_line_order_and_stop_at_shutdown(self):
        async def scenario():
            async with open_session(SessionConfig()) as session:
                server, reader, writer = await _serve(session)
                writer.write(
                    _lines(
                        [0, 0, 1],
                        b"{not json",
                        {"query": "nope"},
                        [1, 0, 0],
                        [2, 0, 9],
                        {"query": "flush"},
                        {"query": "shutdown"},
                        [2, 0, 1],
                        {"query": "stats"},
                    )
                )
                await writer.drain()
                replies = await _replies(reader, 5)
                rest = await asyncio.wait_for(reader.read(), timeout=5)
                await asyncio.wait_for(server, timeout=5)
                writer.close()
                return replies, rest, session.submitted_events

        replies, rest, submitted = run(scenario())
        assert replies[0] == {"error": "malformed JSON line"}
        assert "unknown query" in replies[1]["error"]
        assert "label 9" in replies[2]["error"]
        assert replies[3] == {"applied": 2}
        assert replies[4] == {"ok": True}
        assert rest == b""  # nothing after the shutdown is answered
        assert submitted == 2  # ... or applied

    def test_final_line_without_newline_is_applied_at_end_of_stream(self):
        async def scenario():
            async with open_session(SessionConfig()) as session:
                server, reader, writer = await _serve(session)
                writer.write(b"[0, 0, 1]\n[1, 0, 1]")  # no final newline
                writer.write_eof()
                assert await asyncio.wait_for(reader.read(), timeout=5) == b""
                writer.close()
                applied = await session.flush()
                server.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await server
                return applied

        assert run(scenario()) == 2

    @pytest.mark.parametrize("writers", [1, 2])
    def test_stats_counts_batches_without_copying_records(
        self, monkeypatch, writers
    ):
        from repro.serve.multiwriter import MultiWriterSession
        from repro.serve.session import StreamSession

        def forbidden(self):
            raise AssertionError("stats must not copy the batch records")

        for cls in (StreamSession, MultiWriterSession):
            monkeypatch.setattr(cls, "applied_batches", property(forbidden))

        async def scenario():
            config = SessionConfig(max_batch=2, writers=writers)
            async with open_session(config) as session:
                server, reader, writer = await _serve(session)
                writer.write(
                    _lines(
                        [0, 0, 1], [1, 0, 1], [2, 0, 0],
                        {"query": "flush"}, {"query": "stats"},
                        {"query": "shutdown"},
                    )
                )
                await writer.drain()
                replies = await _replies(reader, 3)
                await asyncio.wait_for(server, timeout=5)
                writer.close()
                return replies, session.applied_batch_count

        (_, stats, _), count = run(scenario())
        assert stats["batches"] == count >= 2
        assert stats["applied"] == 3


class TestQueuePutMany:
    def test_run_is_one_batch_for_a_waiting_consumer(self):
        async def scenario():
            queue = ResponseQueue(maxsize=16, max_batch=8)
            consumer = asyncio.get_running_loop().create_task(queue.get_batch())
            await asyncio.sleep(0)
            await queue.put_many([1, 2, 3, 4, 5])
            return await consumer

        assert run(scenario()) == [1, 2, 3, 4, 5]

    def test_run_larger_than_room_parks_and_keeps_the_bound(self):
        async def scenario():
            queue = ResponseQueue(maxsize=3, max_batch=8)
            producer = asyncio.get_running_loop().create_task(
                queue.put_many(list(range(7)))
            )
            await asyncio.sleep(0.01)
            assert not producer.done() and queue.qsize() == 3
            batches = []
            while len(batches) < 3:
                batches.append(await queue.get_batch())
                assert queue.qsize() <= 3
                await asyncio.sleep(0)
            await asyncio.wait_for(producer, timeout=1)
            return batches, queue.accepted_seq

        batches, accepted = run(scenario())
        assert batches == [[0, 1, 2], [3, 4, 5], [6]]
        assert accepted == 7

    def test_concurrent_producers_keep_their_order_and_the_bound(self):
        """Eight producers push runs larger than the room into one queue:
        every event arrives exactly once, each producer's events in order,
        and the queue never holds more than ``maxsize``."""

        async def scenario():
            queue = ResponseQueue(maxsize=5, max_batch=3)

            async def producer(name):
                for start in range(0, 40, 8):
                    await queue.put_many(
                        [(name, index) for index in range(start, start + 8)]
                    )

            producers = [
                asyncio.get_running_loop().create_task(producer(name))
                for name in range(8)
            ]
            delivered = []
            while len(delivered) < 8 * 40:
                batch = await asyncio.wait_for(queue.get_batch(), timeout=5)
                assert queue.qsize() <= 5
                delivered += batch
            await asyncio.wait_for(asyncio.gather(*producers), timeout=5)
            return delivered

        delivered = run(scenario())
        for name in range(8):
            mine = [index for owner, index in delivered if owner == name]
            assert mine == list(range(40))

    def test_close_delivers_the_rest_of_a_parked_run(self):
        async def scenario():
            queue = ResponseQueue(maxsize=2, max_batch=8)
            producer = asyncio.get_running_loop().create_task(
                queue.put_many(["a", "b", "c", "d"])
            )
            await asyncio.sleep(0.01)
            await queue.close()
            delivered = []
            while (batch := await queue.get_batch()) is not None:
                delivered += batch
            await asyncio.wait_for(producer, timeout=1)
            return delivered

        assert run(scenario()) == ["a", "b", "c", "d"]


class TestAdmission:
    @pytest.mark.parametrize("writers", [1, 2])
    def test_bad_events_are_rejected_before_the_queue(self, writers):
        async def scenario():
            config = SessionConfig(auto_extend=False, writers=writers)
            async with open_session(config) as session:
                for event in [(-1, 0, 1), (0, -2, 1), (0, 0, 2), (3, 0, 1), (0, 1, 1)]:
                    with pytest.raises(DataValidationError):
                        await session.submit(*event)
                with pytest.raises(DataValidationError):
                    await session.submit_many([(0, 0, 1), (0, 0, 7), (1, 0, 1)])
                assert session.submitted_events == 0  # nothing of the run
                await session.submit_many([(0, 0, 1), (1, 0, 1), (2, 0, 0)])
                return await session.flush()

        assert run(scenario()) == 3

    def test_durable_server_rejects_bad_lines_and_resumes_identically(self, tmp_path):
        """A bad line between good ones gets an error reply; the good
        events apply, only they reach the log, and the directory resumes
        to the same bits."""
        directory = tmp_path / "state"
        good = [(w, t, (w * t) % 2) for w in range(4) for t in range(6)]

        async def scenario():
            config = SessionConfig(durable=directory, snapshot_every=2, max_batch=4)
            async with open_session(config) as session:
                server, reader, writer = await _serve(session)
                writer.write(
                    _lines(*good[:12], [0, 0, 7], [-1, 3, 1], *good[12:])
                    + _lines({"query": "flush"}, {"query": "evaluate_all"})
                )
                await writer.drain()
                replies = await _replies(reader, 4)
                writer.write(_lines({"query": "shutdown"}))
                await writer.drain()
                await _replies(reader, 1)
                await asyncio.wait_for(server, timeout=5)
                writer.close()
            async with open_session(SessionConfig(durable=directory)) as resumed:
                return replies, await resumed.evaluate_all(), resumed.evaluator.matrix

        (bad_label, bad_id, flushed, served), resumed, matrix = run(scenario())
        assert "label 7" in bad_label["error"] and "worker id -1" in bad_id["error"]
        assert flushed == {"applied": len(good)}
        logged = [
            event
            for _, _, events in DurableStore(directory).read_batches()
            for event in events
        ]
        assert sorted(logged) == sorted(good)
        reference = {
            e.worker: e
            for e in MWorkerEstimator(backend="dict").evaluate_all(matrix)
            if e.n_tasks > 0
        }
        assert {int(w) for w in served["estimates"]} == set(reference) == set(resumed)
        for worker, estimate in reference.items():
            assert resumed[worker].interval == estimate.interval
            assert served["estimates"][str(worker)]["mean"] == estimate.interval.mean
