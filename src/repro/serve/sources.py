"""Event sources for the streaming ingestion subsystem.

Adapters that turn external response feeds into the ``(worker, task,
label)`` tuples a session consumes.  Sessions come from the
:func:`repro.serve.open_session` front door (a
:class:`~repro.serve.config.SessionConfig` decides between the
single-writer :class:`~repro.serve.session.StreamSession` and the
partitioned :class:`~repro.serve.multiwriter.MultiWriterSession`); every
adapter here works with either shape, since both expose ``submit``:

* :func:`parse_event` — one newline-JSON event (``{"worker": 3, "task":
  17, "label": 1}`` or the compact ``[3, 17, 1]`` array form) into a
  record tuple;
* :func:`iter_ndjson` — async iterator over an NDJSON text stream (a file,
  a pipe, stdin), with optional ``follow`` tailing for live feeds;
* :func:`feed_session` — pump any (a)sync record source into a session.

The sources never reorder events: records are yielded in stream order and
submitted FIFO, so the session's ordered-application guarantee extends to
the wire format (under a multi-writer session, per-worker order — the only
order the determinism contract needs — survives the partition routing).
"""

from __future__ import annotations

import asyncio
import json
from collections.abc import AsyncIterable, AsyncIterator, Iterable
from pathlib import Path
from typing import IO, Any

from repro.exceptions import DataValidationError
from repro.serve.session import StreamSession

__all__ = ["feed_session", "iter_ndjson", "parse_event"]

def parse_event(line: str | bytes | dict | list) -> tuple[int, int, int] | None:
    """Parse one NDJSON event into a ``(worker, task, label)`` record.

    Accepts the object form ``{"worker": w, "task": t, "label": l}``
    (extra keys ignored — timestamps, annotator metadata, ...), the
    compact array form ``[w, t, l]``, or an already-decoded dict/list.
    Blank lines decode to ``None`` (callers skip them); anything else
    malformed raises :class:`~repro.exceptions.DataValidationError`.
    """
    if isinstance(line, (str, bytes)):
        text = line.decode() if isinstance(line, bytes) else line
        if not text.strip():
            return None
        try:
            decoded: Any = json.loads(text)
        except json.JSONDecodeError as error:
            raise DataValidationError(f"malformed NDJSON event: {text!r}") from error
    else:
        decoded = line
    if isinstance(decoded, dict):
        try:
            return (
                int(decoded["worker"]),
                int(decoded["task"]),
                int(decoded["label"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise DataValidationError(
                f"NDJSON event needs integer 'worker'/'task'/'label' keys: "
                f"{decoded!r}"
            ) from error
    if isinstance(decoded, (list, tuple)) and len(decoded) == 3:
        worker, task, label = decoded
        try:
            return (int(worker), int(task), int(label))
        except (TypeError, ValueError) as error:
            raise DataValidationError(
                f"NDJSON array event must be three integers: {decoded!r}"
            ) from error
    raise DataValidationError(f"unrecognized NDJSON event shape: {decoded!r}")


#: Opener used for path inputs — a module-level hook so tests can observe
#: (and assert the closing of) every handle the iterator owns.
_open_text = open


async def iter_ndjson(
    stream: IO[str] | str | Path,
    follow: bool = False,
    poll_interval: float = 0.2,
    idle_timeout: float | None = None,
) -> AsyncIterator[tuple[int, int, int]]:
    """Yield records from an NDJSON text stream, in stream order.

    ``stream`` is an open text handle, or a path — for a path the iterator
    opens the file itself and *always* closes it, including when a
    malformed line raises mid-iteration or the consumer abandons the
    iterator early (caller-provided handles stay caller-owned).

    Reads line by line off the event loop's default executor (so a slow
    pipe never blocks the loop).  A line without its trailing newline is
    buffered, not parsed — reading can race a writer mid-append (the
    ``tail -f`` case), and half a JSON document must not be rejected as
    malformed; the buffered text is parsed once its newline arrives, or as
    the final record at end of stream.  At end of file: stop, unless
    ``follow`` is set — then keep polling every ``poll_interval`` seconds
    for appended lines until ``idle_timeout`` seconds pass without new
    data (``None`` = follow forever).
    """
    loop = asyncio.get_running_loop()
    owns = isinstance(stream, (str, Path))
    handle: IO[str] = (
        _open_text(stream, "r", encoding="utf-8") if owns else stream
    )
    try:
        idle = 0.0
        pending = ""
        while True:
            chunk = await loop.run_in_executor(None, handle.readline)
            if chunk:
                idle = 0.0
                pending += chunk
                if not pending.endswith("\n"):
                    continue  # mid-append: wait for the rest of the line
                record = parse_event(pending)
                pending = ""
                if record is not None:
                    yield record
                continue
            if not follow:
                break
            if idle_timeout is not None and idle >= idle_timeout:
                break
            await asyncio.sleep(poll_interval)
            idle += poll_interval
        if pending.strip():
            # The stream ended mid-line: the buffered text is the final
            # record (files routinely lack the last newline) — or garbage,
            # surfaced as the usual DataValidationError.
            record = parse_event(pending)
            if record is not None:
                yield record
    finally:
        if owns:
            handle.close()


async def feed_session(
    session: StreamSession,
    source: AsyncIterable[tuple[int, int, int]] | Iterable[tuple[int, int, int]],
) -> int:
    """Pump a record source into the session; returns the submitted count.

    Backpressure propagates naturally: when the session queue is full the
    pump (and therefore the source read) pauses until the applier drains.
    """
    return await session.submit_many(source)
