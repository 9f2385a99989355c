"""Newline-JSON TCP server over a streaming session.

``repro-crowd serve`` exposes the streaming ingestion subsystem on a
socket.  The :class:`~repro.serve.session.StreamSession` underneath comes
from the :func:`repro.serve.open_session` front door — the CLI flags map
onto one :class:`~repro.serve.config.SessionConfig`.  Clients write one
JSON document per line.
Event lines (the :func:`~repro.serve.sources.parse_event` shapes) are
submitted to the session — no per-event reply, so a producer can pipeline
at queue speed and the bounded queue's backpressure propagates to the
socket via TCP flow control.  Query lines (``{"query": ...}``) get exactly
one JSON reply line each, served at the last applied batch boundary
(queries never force a flush; send ``{"query": "flush"}`` first for
read-your-writes):

``{"query": "evaluate_all"}``
    ``{"estimates": {worker: {n_tasks, lower, mean, upper, status}}}``
``{"query": "worker", "worker": 3}``
    one estimate object (or ``{"error": ...}`` when it has no data yet)
``{"query": "spammers"}``
    ``{"scores": {worker: rate-or-null}}`` majority-disagreement proxies
``{"query": "flush"}``
    ``{"applied": n}`` once everything submitted so far is applied
``{"query": "stats"}``
    queue/batch counters (events, batches, pending, matrix shape) and
    ``quarantined``, the logged events a durable resume skipped
``{"query": "shutdown"}``
    ``{"ok": true}``, then the server stops accepting and exits

Block reads
-----------

The server reads the socket in blocks of up to :data:`READ_BYTES` and
decodes every complete line of a block with one ``json.loads``; only when
that fails (or a line could be a fragment of a multi-line document — see
:func:`decode_lines`) are the block's lines decoded one by one.  Each run
of consecutive event lines reaches the session in one ``submit_many``
call; a query, an error or the end of the block closes the run, so the
session has accepted every event ahead of a query before the query is
answered.

Errors
------

Every line that cannot be used gets ``{"error": ...}`` in its place in
line order, and the connection stays open:

* a line that is not JSON, or not an event or query shape;
* an event the session rejects at admission (negative ids, a label
  outside ``[0, arity)``, ids beyond the matrix when ``auto_extend`` is
  off) — the other events of its run still apply;
* a ``worker`` query without an integer ``worker``, and any query the
  session cannot answer;
* a line longer than :data:`MAX_LINE_BYTES`, which is skipped up to its
  newline (the partial-line buffer never grows past that bound).

Lines after a ``shutdown`` query — in the same block or later — are
neither applied nor answered.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable

import numpy as np

from repro.exceptions import CrowdAssessmentError
from repro.serve.session import StreamSession
from repro.serve.sources import parse_event
from repro.types import WorkerErrorEstimate

__all__ = ["MAX_LINE_BYTES", "READ_BYTES", "decode_lines", "serve_ndjson"]

#: Bytes asked of the socket per read.
READ_BYTES = 1 << 16

#: Longest accepted line, newline excluded (asyncio's default ``readline``
#: limit).  Longer lines get an error reply and are skipped.
MAX_LINE_BYTES = 1 << 16


class _Malformed:
    """Stand-in for a line that decoded to no usable document."""

    def __init__(self, reason: str) -> None:
        self.reason = reason


_NOT_JSON = _Malformed("malformed JSON line")
_TOO_LONG = _Malformed(f"line longer than {MAX_LINE_BYTES} bytes")


def _lines_stand_alone(data: np.ndarray, starts: np.ndarray) -> bool:
    """Whether no line can be a fragment of a document spanning lines.

    True when every line has an even number of unescaped quotes (strings
    cannot cross a newline) and its brackets and braces balance outside
    strings.  Together with a joined decode that yields one value per
    line, this proves each line is exactly one JSON document.
    """
    position = np.arange(data.size)
    plain = np.maximum.accumulate(np.where(data != 0x5C, position, -1))
    quotes = np.flatnonzero(data == 0x22)
    before = quotes - 1
    backslashes = before - plain[np.maximum(before, 0)]
    real = quotes[(before < 0) | (backslashes % 2 == 0)]
    per_line = np.diff(np.searchsorted(real, np.append(starts, data.size)))
    if (per_line % 2).any():
        return False
    toggles = np.zeros(data.size, dtype=np.int8)
    toggles[real] = 1
    inside = (np.cumsum(toggles) & 1).astype(bool)
    depth = ((data == 0x5B) | (data == 0x7B)).astype(np.int64)
    depth -= (data == 0x5D) | (data == 0x7D)
    depth[inside] = 0
    return not np.add.reduceat(depth, starts).any()


def decode_lines(body: bytes) -> list:
    """Decode the newline-separated lines of ``body`` (no final newline).

    Returns one entry per line: the decoded document, or a malformed-line
    marker carrying the error reply's reason.  The whole block is decoded
    with one ``json.loads`` when every line provably stands alone; else,
    or when that decode fails, line by line.
    """
    data = np.frombuffer(body, dtype=np.uint8)
    newlines = np.flatnonzero(data == 0x0A)
    starts = np.concatenate(([0], newlines + 1))
    lengths = np.diff(np.append(starts, data.size + 1)) - 1
    if (
        0 < lengths.min()
        and lengths.max() <= MAX_LINE_BYTES
        and _lines_stand_alone(data, starts)
    ):
        try:
            values = json.loads(b"[" + body.replace(b"\n", b",") + b"]")
        except ValueError:
            values = None
        if values is not None and len(values) == starts.size:
            return values
    values = []
    for line, length in zip(body.split(b"\n"), lengths.tolist()):
        if length > MAX_LINE_BYTES:
            values.append(_TOO_LONG)
            continue
        try:
            values.append(json.loads(line))
        except ValueError:
            values.append(_NOT_JSON)
    return values


def _estimate_payload(estimate: WorkerErrorEstimate) -> dict:
    return {
        "worker": estimate.worker,
        "n_tasks": estimate.n_tasks,
        "lower": estimate.interval.lower,
        "mean": estimate.interval.mean,
        "upper": estimate.interval.upper,
        "status": estimate.status.value,
    }


async def _answer_query(
    session: StreamSession, query: dict, stop: asyncio.Event
) -> dict:
    kind = query.get("query")
    if kind == "evaluate_all":
        estimates = await session.evaluate_all()
        return {
            "estimates": {
                str(worker): _estimate_payload(estimate)
                for worker, estimate in sorted(estimates.items())
            }
        }
    if kind == "worker":
        try:
            worker = int(query["worker"])
        except (KeyError, TypeError, ValueError):
            return {"error": "a worker query needs an integer 'worker'"}
        return _estimate_payload(await session.evaluate_worker(worker))
    if kind == "spammers":
        scores = await session.spammer_scores()
        return {"scores": {str(worker): rate for worker, rate in scores.items()}}
    if kind == "flush":
        return {"applied": await session.flush()}
    if kind == "stats":
        matrix = session.evaluator.matrix
        store = session.durable
        return {
            "submitted": session.submitted_events,
            "applied": session.applied_events,
            "pending": session.pending_events,
            "batches": session.applied_batch_count,
            "n_workers": matrix.n_workers,
            "n_tasks": matrix.n_tasks,
            "n_responses": matrix.n_responses,
            "quarantined": 0 if store is None else store.quarantined_events,
        }
    if kind == "shutdown":
        stop.set()
        return {"ok": True}
    return {"error": f"unknown query {kind!r}"}


async def serve_ndjson(
    session: StreamSession,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Callable[[str, int], None] | None = None,
) -> None:
    """Run the NDJSON ingestion server until a shutdown query arrives.

    ``port=0`` binds an ephemeral port; ``ready(host, port)`` is called
    with the bound address once the server is listening (the CLI prints
    it, tests connect to it).
    """
    stop = asyncio.Event()
    connections: set[asyncio.StreamWriter] = set()

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        connections.add(writer)

        def reply(payload: dict) -> None:
            writer.write(json.dumps(payload).encode() + b"\n")

        async def submit(run: list) -> None:
            try:
                await session.submit_many(run)
            except CrowdAssessmentError:
                # The run was refused whole; replay it event by event so
                # each bad line gets its own reply and the rest applies.
                for record in run:
                    try:
                        await session.submit(*record)
                    except CrowdAssessmentError as error:
                        reply({"error": str(error)})
            run.clear()

        async def process(body: bytes) -> bool:
            """Handle the complete lines of ``body``; False after shutdown."""
            run: list = []
            for value in decode_lines(body):
                if isinstance(value, dict) and "query" in value:
                    if run:
                        await submit(run)
                    try:
                        answer = await _answer_query(session, value, stop)
                    except CrowdAssessmentError as failure:
                        answer = {"error": str(failure)}
                    reply(answer)
                    if stop.is_set():
                        return False
                    continue
                if isinstance(value, _Malformed):
                    failure_reply = {"error": value.reason}
                else:
                    try:
                        record = parse_event(value)
                    except CrowdAssessmentError as failure:
                        failure_reply = {"error": str(failure)}
                    else:
                        if record is not None:
                            run.append(record)
                        continue
                # Earlier events first, so their admission errors keep
                # their place ahead of this reply.
                if run:
                    await submit(run)
                reply(failure_reply)
            if run:
                await submit(run)
            return True

        pending = b""
        skipping = False  # inside an over-long line, dropping to its newline
        try:
            while not stop.is_set():
                data = await reader.read(READ_BYTES)
                if not data:
                    if pending and not skipping:
                        await process(pending)
                        await writer.drain()
                    break
                if skipping:
                    newline = data.find(b"\n")
                    if newline < 0:
                        continue
                    data = data[newline + 1 :]
                    skipping = False
                data = pending + data
                cut = data.rfind(b"\n") + 1
                pending = data[cut:]
                running = True
                if cut:
                    running = await process(data[: cut - 1])
                if running and len(pending) > MAX_LINE_BYTES:
                    pending = b""
                    skipping = True
                    reply({"error": _TOO_LONG.reason})
                await writer.drain()
                if not running:
                    break
        except (ConnectionError, OSError):
            pass  # client vanished, or the shutdown force-close raced a read
        finally:
            connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    server = await asyncio.start_server(handle, host=host, port=port)
    bound = server.sockets[0].getsockname()
    if ready is not None:
        ready(bound[0], bound[1])
    async with server:
        await stop.wait()
        # Unblock handlers parked in read() on OTHER connections: since
        # Python 3.12 Server.wait_closed() (run by the context manager
        # exit) waits for every active handler, so an idle client would
        # otherwise pin the server open after a shutdown query.
        for writer in list(connections):
            writer.close()
