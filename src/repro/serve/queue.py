"""Bounded asyncio response queue with micro-batch coalescing.

:class:`ResponseQueue` is the front door of the streaming ingestion
subsystem (:mod:`repro.serve`): producers ``await put_many(events)`` (or
``put(event)``) — the bound gives natural backpressure, a producer
outrunning the applier parks on the queue instead of growing memory — and
the single consumer drains with :meth:`get_batch`, which waits for the
*first* event and then greedily coalesces everything already enqueued (up
to ``max_batch``) into one micro-batch without waiting again.  Coalescing
is what turns a trickle of singleton responses into the batched
:meth:`~repro.core.incremental.IncrementalEvaluator.apply_batch` deltas that
pay one invalidation pass per batch instead of one per event.

The queue is a ``deque`` of events with one waiter future for the consumer
and one per parked producer: :meth:`put_many` enqueues a whole run with
one consumer wake-up, and the bound is still counted in events — a run
larger than the free room is enqueued as far as it fits and the producer
parks until the consumer frees more.

FIFO order is preserved end to end: events leave in exactly the order they
were accepted, and batches are consumed by a single applier task, so the
stream's application order is the submission order.  A session owns one
queue, sized by the ``maxsize`` / ``max_batch`` knobs of
:class:`~repro.serve.config.SessionConfig`.
"""

from __future__ import annotations

import asyncio
from collections import deque
from collections.abc import Sequence
from itertools import islice
from typing import Any

from repro.exceptions import ConfigurationError

__all__ = ["QueueClosed", "ResponseQueue"]


class QueueClosed(ConfigurationError):
    """Raised when an event is submitted to a closed :class:`ResponseQueue`."""


class ResponseQueue:
    """Bounded, order-preserving asyncio queue of response events.

    Parameters
    ----------
    maxsize:
        Bound on the number of queued events.  ``put`` blocks (asyncio
        backpressure) while the queue is full.
    max_batch:
        Largest micro-batch :meth:`get_batch` will coalesce.  Larger batches
        amortize more invalidation work; smaller ones tighten the staleness
        window between a submission and its visibility to readers.
    base_seq:
        Starting point of the 1-based event sequence numbering (events are
        numbered ``base_seq + 1, base_seq + 2, ...`` in delivery order).
        Zero for a fresh stream; a resumed durable session passes the last
        applied sequence so the reopened write-ahead log continues the
        monotonic numbering of the persisted history.
    """

    def __init__(
        self, maxsize: int = 4096, max_batch: int = 256, base_seq: int = 0
    ) -> None:
        if maxsize < 1:
            raise ConfigurationError(f"maxsize must be at least 1, got {maxsize}")
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be at least 1, got {max_batch}")
        if base_seq < 0:
            raise ConfigurationError(f"base_seq must be non-negative, got {base_seq}")
        self._items: deque[Any] = deque()
        self._maxsize = maxsize
        self._max_batch = max_batch
        self._closed = False
        self._drained = False
        self._getter: asyncio.Future | None = None
        self._putters: deque[asyncio.Future] = deque()
        #: Producers inside put_many that still hold events to enqueue
        #: (parked, or woken and not yet resumed): the consumer may only
        #: report "drained" after a close once none is left.
        self._parked = 0
        self._accepted_seq = base_seq
        self._delivered_seq = base_seq

    @property
    def maxsize(self) -> int:
        return self._maxsize

    @property
    def max_batch(self) -> int:
        return self._max_batch

    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called (no further ``put`` accepted)."""
        return self._closed

    def qsize(self) -> int:
        """Number of events currently queued."""
        return len(self._items)

    @property
    def accepted_seq(self) -> int:
        """Highest sequence number assigned to an accepted event so far.

        A running count from ``base_seq`` — sequence numbers themselves are
        assigned positionally at *delivery* (single consumer, so delivery
        order is queue order).
        """
        return self._accepted_seq

    @property
    def delivered_seq(self) -> int:
        """Sequence number of the last event handed out in a micro-batch."""
        return self._delivered_seq

    async def put(self, event: Any) -> None:
        """Enqueue one event; blocks while the queue is full (backpressure)."""
        await self.put_many([event])

    async def put_many(self, events: Sequence[Any]) -> None:
        """Enqueue a run of events in order with one consumer wake-up.

        Blocks while the queue is full.  A run larger than the free room
        is enqueued as far as it fits, then the producer parks until the
        consumer frees room for the rest, so the queue never holds more
        than ``maxsize`` events.
        """
        if self._closed:
            raise QueueClosed("the response queue is closed")
        start = 0
        while start < len(events):
            room = self._maxsize - len(self._items)
            if room <= 0:
                await self._wait_for_room()
                continue
            stop = min(len(events), start + room)
            self._items.extend(islice(events, start, stop))
            self._accepted_seq += stop - start
            start = stop
            self._wake_getter()

    def put_nowait(self, event: Any) -> None:
        """Enqueue without waiting; raises ``asyncio.QueueFull`` when full."""
        if self._closed:
            raise QueueClosed("the response queue is closed")
        if len(self._items) >= self._maxsize:
            raise asyncio.QueueFull
        self._items.append(event)
        self._accepted_seq += 1
        self._wake_getter()

    async def _wait_for_room(self) -> None:
        waiter = asyncio.get_running_loop().create_future()
        self._putters.append(waiter)
        self._parked += 1
        try:
            await waiter
        finally:
            self._parked -= 1
            # A cancelled last producer may be what a closed, empty
            # queue's consumer waits on.
            self._wake_getter()

    def _wake_getter(self) -> None:
        if self._getter is not None and not self._getter.done():
            self._getter.set_result(None)

    async def close(self) -> None:
        """Refuse further events and wake the consumer once drained.

        Idempotent.  Events already accepted — including the rest of a run
        whose producer is parked — are still delivered; the consumer sees
        ``None`` from :meth:`get_batch` after the last batch.
        """
        self._closed = True
        self._wake_getter()

    async def get_batch(self) -> list[Any] | None:
        """Wait for the next micro-batch (or None once closed and drained).

        Blocks until at least one event is available, then coalesces every
        event already enqueued — up to ``max_batch`` — without waiting
        again.  Returns ``None`` once the final event has been delivered
        (and on every call after that).
        """
        result = await self.get_batch_with_seq()
        return None if result is None else result[2]

    async def get_batch_with_seq(
        self,
    ) -> tuple[int, int, list[Any]] | None:
        """Like :meth:`get_batch`, plus the batch's inclusive sequence range.

        Returns ``(first_seq, last_seq, batch)`` where the events carry
        sequence numbers ``first_seq .. last_seq`` in delivery (= FIFO
        submission) order, continuing monotonically from ``base_seq``
        across batches with no gaps.  This range is what a durable
        session's write-ahead log records ahead of the apply, and what
        replay matches against the restored state on resume.
        """
        while not self._items:
            if self._drained:
                return None
            if self._closed and not self._parked:
                self._drained = True
                return None
            self._getter = asyncio.get_running_loop().create_future()
            try:
                await self._getter
            finally:
                self._getter = None
        popleft = self._items.popleft
        batch = [popleft() for _ in range(min(len(self._items), self._max_batch))]
        while self._putters:
            waiter = self._putters.popleft()
            if not waiter.done():
                waiter.set_result(None)
        first_seq = self._delivered_seq + 1
        self._delivered_seq += len(batch)
        return first_seq, self._delivered_seq, batch
