"""Streaming ingestion session over an :class:`IncrementalEvaluator`.

:class:`StreamSession` is the asyncio layer the ROADMAP's async-ingestion
item asked for: a single writer task drains the bounded
:class:`~repro.serve.queue.ResponseQueue` into micro-batches and applies
each under the session's writer lock via
:meth:`~repro.core.incremental.IncrementalEvaluator.apply_batch`, while
concurrent readers (``evaluate_worker`` / ``evaluate_all`` /
``spammer_scores`` / ``snapshot``) observe a *whole number of applied
batches* — never a torn batch.  Readers that must recompute take the same
writer lock; reads the dependency ledger proves still current are served
straight from the cache in one synchronous event-loop step, so they never
queue behind ingestion.

Determinism contract (locked by the differential suite's ``streamed``
column)
-----------------------------------------------------------------------

* **Ordering** — events are applied in submission order: ``submit`` is
  FIFO into the queue, batches are drained by one applier task, and
  :meth:`IncrementalEvaluator.apply_batch` replays each batch in order.
* **Batch boundaries are invisible in results** — however the stream is
  chopped into micro-batches (queue timing, ``max_batch``, explicit
  ``flush`` calls), the estimates served after the stream equal a
  from-scratch batch build over the accumulated responses, bit for bit,
  on every backend.  Batching changes *when* bookkeeping is paid, never
  what is computed.
* **Snapshot semantics** — a read between batches serves the state at the
  last applied batch boundary: estimates over exactly the responses whose
  batches have been applied, with cached intervals reused unless a
  statistic they depend on changed (the evaluator's dependency-tracked
  invalidation).  ``await flush()`` before a read gives read-your-writes.

Unseen worker/task ids grow the evaluator through the delta extension path
(no backend rebuild) once per batch, so a live stream never needs
pre-declared dimensions.

Construction — :class:`~repro.serve.config.SessionConfig` is canonical
----------------------------------------------------------------------

The canonical way to build a session is a validated, frozen
:class:`~repro.serve.config.SessionConfig` handed to
:func:`repro.serve.open_session`, which resolves create-vs-resume and the
single- vs multi-writer dispatch in one place.  The legacy keyword
arguments on ``StreamSession.__init__`` and the ``resume`` /
``open_durable`` classmethods keep working as thin shims that build the
equivalent config and emit a :class:`DeprecationWarning`.

Durability (``SessionConfig(durable=...)``)
-------------------------------------------

A session given a durable directory (or a
:class:`~repro.serve.durable.DurableStore`) appends every micro-batch to a
write-ahead log — fsynced *before* ``apply_batch`` — and, when
``snapshot_every`` is set, periodically checkpoints the full evaluator
state with atomic temp-file + rename snapshots.  After a crash,
``open_session`` on the same directory restores the newest valid snapshot,
replays only the WAL records beyond it (idempotently — duplicated or
partially-covered records cannot double-apply) and reopens the log,
restarting in O(delta).  The resumed session serves estimates bit-identical
to a session that was never interrupted; the contract and on-disk formats
are documented in :mod:`repro.serve.durable` and the capability matrix in
:mod:`repro.core.agreement`.  Multi-writer ingestion (N partitioned
queues, per-partition WAL segments, fenced snapshots) lives in
:mod:`repro.serve.multiwriter` and reuses this module's applier discipline
per partition.
"""

from __future__ import annotations

import asyncio
from collections.abc import AsyncIterable, Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.core.incremental import BatchApplyStats, IncrementalEvaluator
from repro.core.spammer_filter import DEFAULT_SPAMMER_THRESHOLD
from repro.data.response_matrix import ResponseMatrix
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    DurableStateError,
    InsufficientDataError,
)
from repro.serve.config import SessionConfig, _warn_legacy
from repro.serve.durable import DurableStore
from repro.serve.queue import ResponseQueue
from repro.types import WorkerErrorEstimate

__all__ = [
    "BatchRecord",
    "SessionSnapshot",
    "StreamSession",
    "admit_events",
    "replay_stream",
]

#: The keyword knobs the pre-``SessionConfig`` constructor accepted; they
#: map one-to-one onto ``SessionConfig`` fields.
_LEGACY_INIT_KWARGS = frozenset(
    {
        "maxsize",
        "max_batch",
        "auto_extend",
        "confidence",
        "backend",
        "shards",
        "durable",
        "snapshot_every",
        "fsync",
    }
)


def _majority_rates(
    evaluator: IncrementalEvaluator,
) -> dict[int, float | None]:
    """Per-worker majority-disagreement rates (None = not scorable yet).

    Shared by the single- and multi-writer sessions' ``spammer_scores``;
    callers hold the session writer lock.
    """
    matrix = evaluator.matrix
    backend = evaluator._backend
    if backend is not None:
        rates = backend.majority_disagreement_rates()
    else:
        rates = []
        for worker in range(matrix.n_workers):
            try:
                rates.append(matrix.disagreement_with_majority(worker))
            except InsufficientDataError:
                rates.append(None)
    return dict(enumerate(rates))


#: Largest id a session admits while ``auto_extend`` grows the matrix: the
#: applier carries ids as int64 arrays.
_MAX_ID = (1 << 63) - 1


def admit_events(
    evaluator: IncrementalEvaluator,
    records: Iterable[tuple[int, int, int]],
    auto_extend: bool,
) -> list[tuple[int, int, int]]:
    """Normalize and validate a run of events before it is enqueued.

    Admission control shared by both session shapes: an event the applier
    could not apply must never reach the queue, because the durable applier
    logs a batch before applying it and a logged bad event would fail
    every later resume.  Rejects, with a
    :class:`~repro.exceptions.DataValidationError` naming the first bad
    event and admitting nothing of the run: anything that is not an
    integer triple, negative ids, labels outside ``[0, arity)``, and —
    when ``auto_extend`` is off — ids beyond the current dimensions.
    Returns the run as ``(worker, task, label)`` tuples of Python ints.
    """
    matrix = evaluator.matrix
    arity = matrix.arity
    if auto_extend:
        n_workers = n_tasks = _MAX_ID
    else:
        n_workers, n_tasks = matrix.n_workers, matrix.n_tasks
    admitted: list[tuple[int, int, int]] = []
    append = admitted.append
    for record in records:
        try:
            worker, task, label = record
            event = (int(worker), int(task), int(label))
        except (TypeError, ValueError) as error:
            raise DataValidationError(
                f"event {record!r} rejected: not a (worker, task, label) "
                "integer triple"
            ) from error
        worker, task, label = event
        if not (0 <= worker < n_workers and 0 <= task < n_tasks and 0 <= label < arity):
            for name, value, limit in (
                ("worker id", worker, n_workers),
                ("task id", task, n_tasks),
                ("label", label, arity),
            ):
                if not 0 <= value < limit:
                    problem = "negative" if value < 0 else f"not below {limit}"
                    raise DataValidationError(
                        f"event {list(event)} rejected: {name} {value} is "
                        f"{problem}"
                    )
        append(event)
    return admitted


def replay_stream(
    events: Iterable[tuple[int, int, int]],
    *,
    confidence: float = 0.95,
    backend: str = "auto",
    max_batch: int = 256,
    maxsize: int = 4096,
    shards: int | str = 1,
) -> dict[int, WorkerErrorEstimate]:
    """Drive a finite event stream through a session, synchronously.

    Spins up a fresh :class:`StreamSession`, submits every
    ``(worker, task, label)`` event in order — later events for the same
    ``(worker, task)`` are label *revisions* — flushes, and returns the
    final ``evaluate_all`` estimates.  This is the revision-storm driver
    the scenario gauntlet uses as its ``"streamed"`` estimator path: the
    estimates come from the full asyncio queue -> micro-batch ->
    ``apply_batch`` pipeline and are bit-identical to a batch build over
    the settled matrix (the streaming determinism contract in
    :mod:`repro.core.agreement`).

    Must be called from synchronous code (it owns its own event loop).
    """

    async def run() -> dict[int, WorkerErrorEstimate]:
        async with StreamSession(
            config=SessionConfig(
                confidence=confidence,
                backend=backend,
                max_batch=max_batch,
                maxsize=maxsize,
                shards=shards,
            )
        ) as session:
            await session.submit_many(events)
            await session.flush()
            return await session.evaluate_all()

    return asyncio.run(run())


@dataclass(frozen=True)
class BatchRecord:
    """One applied micro-batch: position in the stream plus its effects.

    ``partition`` is the ingest partition the batch came from — always 0
    for the single-writer :class:`StreamSession`; multi-writer sessions
    record the consistent-hash partition, and ``first_seq``/``last_seq``
    are then *per-partition* sequence numbers.
    """

    index: int
    first_seq: int
    last_seq: int
    stats: BatchApplyStats
    partition: int = 0


@dataclass(frozen=True)
class SessionSnapshot:
    """A consistent view taken at an applied-batch boundary."""

    matrix: ResponseMatrix
    estimates: dict[int, WorkerErrorEstimate]
    applied_events: int
    applied_batches: int


class StreamSession:
    """Async front-end that feeds a response stream into the evaluator.

    The canonical construction path is a
    :class:`~repro.serve.config.SessionConfig` through
    :func:`repro.serve.open_session` (which also resolves create-vs-resume
    for durable directories and dispatches to the multi-writer session for
    ``writers > 1``)::

        from repro.serve import SessionConfig, open_session

        async with open_session(SessionConfig(max_batch=64)) as session:
            await session.submit(worker, task, label)
            await session.flush()
            estimates = await session.evaluate_all()

    Parameters
    ----------
    evaluator:
        The incremental evaluator to feed; constructed from the config's
        estimator fields with small default dimensions when omitted (the
        stream grows it on demand).  The config's ``shards`` spec only
        applies to a default-constructed evaluator — configure an explicit
        one directly.
    config:
        The :class:`~repro.serve.config.SessionConfig` for this session.
        ``writers`` must resolve to 1 (multi-writer sessions are built by
        ``open_session``).
    **legacy:
        The pre-``SessionConfig`` keyword knobs (``maxsize`` /
        ``max_batch`` / ``auto_extend`` / ``confidence`` / ``backend`` /
        ``shards`` / ``durable`` / ``snapshot_every`` / ``fsync``).
        Deprecated: they are folded into an equivalent config (field names
        match one-to-one) with a :class:`DeprecationWarning`; ``durable``
        may still be a prepared :class:`~repro.serve.durable.DurableStore`.
        Mutually exclusive with ``config``.
    """

    def __init__(
        self,
        evaluator: IncrementalEvaluator | None = None,
        *,
        config: SessionConfig | None = None,
        _store: DurableStore | None = None,
        **legacy,
    ) -> None:
        store = _store
        if config is not None:
            if legacy:
                raise ConfigurationError(
                    "pass either config=SessionConfig(...) or the legacy "
                    "keyword arguments, not both"
                )
            if not isinstance(config, SessionConfig):
                raise ConfigurationError(
                    "config must be a repro.serve.SessionConfig, got "
                    f"{type(config).__name__}"
                )
        else:
            unknown = set(legacy) - _LEGACY_INIT_KWARGS
            if unknown:
                raise TypeError(
                    "StreamSession() got unexpected keyword arguments "
                    f"{sorted(unknown)}"
                )
            if legacy:
                _warn_legacy(
                    "constructing StreamSession from keyword arguments"
                )
            durable = legacy.pop("durable", None)
            if isinstance(durable, DurableStore):
                # A prepared store keeps its own cadence/fsync settings;
                # the config records where it lives.
                store = durable
                durable = durable.directory
            config = SessionConfig(durable=durable, **legacy)
        if config.resolved_writers() != 1:
            raise ConfigurationError(
                "StreamSession is single-writer; use repro.serve."
                f"open_session() for writers={config.writers!r}"
            )
        if evaluator is None:
            evaluator = IncrementalEvaluator(
                n_workers=3,
                n_tasks=1,
                confidence=config.resolved_confidence,
                optimize_weights=config.resolved_optimize_weights,
                backend=config.resolved_backend,
                shards=config.shards,
            )
        if store is None and config.durable is not None:
            store = DurableStore(
                config.durable,
                snapshot_every=config.snapshot_every,
                fsync=config.fsync,
            )
        self._config = config
        self._evaluator = evaluator
        self._queue = ResponseQueue(
            maxsize=config.maxsize, max_batch=config.max_batch
        )
        self._auto_extend = config.auto_extend
        self._durable = store
        self._lock = asyncio.Lock()
        self._applied = asyncio.Condition()
        self._submitted_seq = 0
        self._applied_seq = 0
        self._batches: list[BatchRecord] = []
        self._batch_count = 0
        self._applier: asyncio.Task | None = None
        self._error: BaseException | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def __aenter__(self) -> "StreamSession":
        self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            # An exception is already propagating out of the block (often
            # the applier's own error, re-raised at submit()/flush()):
            # drain and stop without masking it with a second raise.  The
            # durable log is closed without a final snapshot — the WAL
            # already holds everything applied, and a snapshot taken on a
            # failing path could checkpoint state the caller considers bad.
            await self._drain_and_stop()
            if self._durable is not None:
                self._durable.close()
            return
        await self.close()

    def start(self) -> None:
        """Start the applier task (idempotent; ``async with`` does this)."""
        if self._applier is None:
            if self._durable is not None:
                # No-op for a store resume() already opened; a fresh open
                # refuses a directory with existing state.
                self._durable.open(resume=False)
            self._applier = asyncio.get_running_loop().create_task(self._run())

    async def close(self) -> None:
        """Drain and stop: apply everything submitted, then stop the applier.

        A clean close of a durable session writes a final snapshot when
        periodic snapshots are enabled (so the next resume replays nothing)
        and closes the log.  Raises the applier's error if ingestion failed
        (unless it was already surfaced by the exception leaving an
        ``async with`` block).
        """
        await self._drain_and_stop()
        if self._durable is not None:
            if self._error is None:
                self._durable.finalize(self._evaluator, self._applied_seq)
            self._durable.close()
        self._raise_if_failed()

    async def abort(self) -> None:
        """Stop immediately without draining — a process-internal "crash".

        Cancels the applier mid-flight and closes the log handle without a
        final snapshot, leaving the durable directory exactly as a SIGKILL
        would (modulo the OS page cache): acknowledged batches in the WAL,
        possibly a half-applied one.  The kill/resume fuzz suite uses this
        to exercise :meth:`resume` at arbitrary cut points in-process.
        """
        if self._applier is not None:
            self._applier.cancel()
            try:
                await self._applier
            except asyncio.CancelledError:
                pass
            self._applier = None
        if self._durable is not None:
            self._durable.close()

    async def _drain_and_stop(self) -> None:
        await self._queue.close()
        if self._applier is not None:
            await self._applier
            self._applier = None

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> SessionConfig:
        """The validated configuration this session was built from."""
        return self._config

    @property
    def evaluator(self) -> IncrementalEvaluator:
        """The wrapped evaluator (take the session lock for direct reads)."""
        return self._evaluator

    @property
    def durable(self) -> DurableStore | None:
        """The persistence layer, or None for an in-memory session."""
        return self._durable

    @property
    def submitted_events(self) -> int:
        return self._submitted_seq

    @property
    def applied_events(self) -> int:
        return self._applied_seq

    @property
    def pending_events(self) -> int:
        """Events submitted but not yet applied.

        Clamped at zero: between a parked ``put`` completing and its
        producer task resuming to count it, the applier may already have
        applied the event, making ``applied`` transiently exceed
        ``submitted``.
        """
        return max(0, self._submitted_seq - self._applied_seq)

    @property
    def applied_batches(self) -> list[BatchRecord]:
        """Per-batch application records (size, sequence range, stats)."""
        return list(self._batches)

    @property
    def applied_batch_count(self) -> int:
        """How many batches this session applied (no record copying)."""
        return self._batch_count

    async def submit(self, worker: int, task: int, label: int) -> int:
        """Enqueue one response; returns its 1-based sequence number.

        Blocks while the queue is full (backpressure).  Application is
        asynchronous — ``await flush()`` to wait for visibility.  An event
        the evaluator would reject raises
        :class:`~repro.exceptions.DataValidationError` here, before it is
        enqueued (see :func:`admit_events`).
        """
        self._check_running()
        await self._enqueue(
            admit_events(self._evaluator, [(worker, task, label)], self._auto_extend)
        )
        return self._submitted_seq

    async def submit_many(
        self, records: Iterable[tuple[int, int, int]] | AsyncIterable
    ) -> int:
        """Submit a collection (sync or async iterable); returns the count.

        A sync collection is admitted as one run — validated whole by
        :func:`admit_events`, so a bad event rejects the run before any of
        it is enqueued — and enqueued with one
        :meth:`~repro.serve.queue.ResponseQueue.put_many`.  An async
        iterable is submitted event by event as it yields.
        """
        if hasattr(records, "__aiter__"):
            count = 0
            async for record in records:  # type: ignore[union-attr]
                await self.submit(*record)
                count += 1
            return count
        self._check_running()
        batch = admit_events(self._evaluator, records, self._auto_extend)
        await self._enqueue(batch)
        return len(batch)

    def _check_running(self) -> None:
        self._raise_if_failed()
        if self._applier is None:
            raise ConfigurationError(
                "the session is not running; use 'async with StreamSession()' "
                "or call start() first"
            )

    async def _enqueue(self, events: list[tuple[int, int, int]]) -> None:
        await self._queue.put_many(events)
        # Count only after the (possibly parked) put_many returns, in one
        # yield-free step: concurrent producers that both read the counter
        # before awaiting would otherwise lose increments, letting flush()
        # return before everything submitted was applied.
        self._submitted_seq += len(events)

    async def flush(self) -> int:
        """Wait until everything submitted so far is applied.

        Returns the number of applied events.  Raises the applier's error
        if ingestion failed.
        """
        target = self._submitted_seq
        async with self._applied:
            await self._applied.wait_for(
                lambda: self._applied_seq >= target or self._error is not None
            )
        self._raise_if_failed()
        return self._applied_seq

    # ------------------------------------------------------------------ #
    # Reader side (snapshot-consistent: whole batches only)
    # ------------------------------------------------------------------ #

    async def evaluate_worker(self, worker: int) -> WorkerErrorEstimate:
        """Estimate for one worker at the last applied batch boundary.

        When the dependency ledger proves the cached estimate current, it
        is returned without touching the writer lock: the check-and-return
        is a single synchronous step on the event loop (no await between
        them), so it cannot observe a torn batch — ``apply_batch`` runs
        synchronously under the lock and invalidates affected caches in the
        same step that changes the statistics.  Only a recompute serializes
        behind the writer.
        """
        cached = self._evaluator.cached_estimate(worker)
        if cached is not None:
            return cached
        async with self._lock:
            return self._evaluator.estimate(worker)

    async def evaluate_all(self) -> dict[int, WorkerErrorEstimate]:
        """Estimates for every worker with data, at the last batch boundary.

        Same lock discipline as :meth:`evaluate_worker`: if no worker needs
        a recompute, the cached estimates are assembled without the writer
        lock (single synchronous step — snapshot-consistent); otherwise the
        bulk recompute takes the lock.
        """
        if not self._evaluator.needs_recompute:
            return self._evaluator.estimate_all()
        async with self._lock:
            return self._evaluator.estimate_all()

    async def spammer_scores(
        self, threshold: float = DEFAULT_SPAMMER_THRESHOLD
    ) -> dict[int, float | None]:
        """Majority-disagreement spammer proxies at the last batch boundary.

        ``None`` marks workers that cannot be scored yet (no responses, or
        no task shared with anyone); scores above ``threshold`` flag
        near-spammers (Section III-E2's filter criterion).
        """
        async with self._lock:
            return _majority_rates(self._evaluator)

    async def snapshot(self) -> SessionSnapshot:
        """Deep-copied consistent state at the last applied batch boundary.

        The returned matrix and estimates cannot be mutated by later
        batches, which makes this the tool for auditing snapshot
        consistency (the test suite compares it against a from-scratch
        batch build over the copied matrix).
        """
        async with self._lock:
            return SessionSnapshot(
                matrix=self._evaluator.matrix.copy(),
                estimates=self._evaluator.estimate_all(),
                applied_events=self._applied_seq,
                applied_batches=self._batch_count,
            )

    # ------------------------------------------------------------------ #
    # Applier
    # ------------------------------------------------------------------ #

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise self._error

    async def _run(self) -> None:
        while True:
            result = await self._queue.get_batch_with_seq()
            if result is None:
                return
            first_seq, last_seq, batch = result
            try:
                if self._durable is not None:
                    # WAL first, fsynced: once apply_batch runs (and a
                    # flush() is acknowledged), the batch is on disk and a
                    # crash at any later point replays it.
                    self._durable.append_batch(first_seq, last_seq, batch)
                async with self._lock:
                    stats = self._evaluator.apply_batch(
                        batch, auto_extend=self._auto_extend
                    )
                self._applied_seq = last_seq
                self._batch_count += 1
                self._batches.append(
                    BatchRecord(
                        index=len(self._batches),
                        first_seq=first_seq,
                        last_seq=last_seq,
                        stats=stats,
                    )
                )
                if self._durable is not None:
                    self._durable.record_applied(self._evaluator, last_seq)
            except BaseException as error:  # surfaced at submit()/flush()
                self._error = error
                async with self._applied:
                    self._applied.notify_all()
                # Keep draining (and discarding) so producers parked on the
                # full queue wake up — their next submit() raises the
                # stored error — and close()'s marker can always land
                # instead of deadlocking against a dead consumer.
                while await self._queue.get_batch() is not None:
                    pass
                return
            async with self._applied:
                self._applied.notify_all()

    # ------------------------------------------------------------------ #
    # Durable resume
    # ------------------------------------------------------------------ #

    @classmethod
    def resume(
        cls,
        directory: str | Path | DurableStore,
        *,
        confidence: float | None = None,
        backend: str | None = None,
        optimize_weights: bool | None = None,
        shards: int | str = 1,
        maxsize: int = 4096,
        max_batch: int = 256,
        auto_extend: bool = True,
        snapshot_every: int | None = None,
        fsync: bool = True,
    ) -> "StreamSession":
        """Rebuild a session from a durable directory in O(delta).

        Deprecated shim: build a :class:`~repro.serve.config.SessionConfig`
        and call :func:`repro.serve.open_session` instead (it resumes a
        directory that holds state).  The resume semantics are unchanged:
        newest valid snapshot, idempotent replay of the WAL delta, crash
        tail truncated, sequence numbering continued; ``confidence`` /
        ``backend`` / ``optimize_weights`` default to the persisted
        configuration and override it when passed.  Raises
        :class:`~repro.exceptions.DurableStateError` on a sequence *gap*
        between the restored state and the surviving log — data loss in
        the middle of the history, not crash residue.
        """
        _warn_legacy("StreamSession.resume()")
        store = directory if isinstance(directory, DurableStore) else None
        config = SessionConfig(
            confidence=confidence,
            backend=backend,
            optimize_weights=optimize_weights,
            shards=shards,
            maxsize=maxsize,
            max_batch=max_batch,
            auto_extend=auto_extend,
            durable=store.directory if store is not None else directory,
            snapshot_every=snapshot_every,
            fsync=fsync,
        )
        return _resume_session(config, store=store)

    @classmethod
    def open_durable(
        cls,
        directory: str | Path,
        *,
        confidence: float | None = None,
        backend: str | None = None,
        optimize_weights: bool | None = None,
        shards: int | str = 1,
        maxsize: int = 4096,
        max_batch: int = 256,
        auto_extend: bool = True,
        snapshot_every: int | None = None,
        fsync: bool = True,
    ) -> "StreamSession":
        """Resume ``directory`` when it holds state, else start fresh in it.

        Deprecated shim for :func:`repro.serve.open_session`, which is the
        create-or-resume front door now.
        """
        _warn_legacy("StreamSession.open_durable()")
        from repro.serve.config import open_session

        return open_session(
            SessionConfig(
                confidence=confidence,
                backend=backend,
                optimize_weights=optimize_weights,
                shards=shards,
                maxsize=maxsize,
                max_batch=max_batch,
                auto_extend=auto_extend,
                durable=directory,
                snapshot_every=snapshot_every,
                fsync=fsync,
            )
        )


def _resume_session(
    config: SessionConfig, store: DurableStore | None = None
) -> StreamSession:
    """Rebuild a single-writer session from ``config.durable`` in O(delta).

    The non-warning internals behind ``open_session`` (and the legacy
    ``StreamSession.resume`` shim): loads the newest snapshot that
    validates (checksum-failed or truncated ones fall back to older, then
    to pure WAL replay), replays the WAL records whose sequences exceed
    the snapshot — idempotently, so duplicated records or a second replay
    cannot double-apply — truncates any crash tail off the log and reopens
    it for append.  The returned session is not yet started; sequence
    numbering continues from the last applied event.
    """
    if store is None:
        if config.durable is None:
            raise ConfigurationError("resume requires a durable directory")
        store = DurableStore(
            config.durable,
            snapshot_every=config.snapshot_every,
            fsync=config.fsync,
        )
    loaded = store.load_snapshot_state()
    wal_start = 0
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
        applied = int(meta["applied_seq"])
        applied_batches = int(meta.get("applied_batches", 0))
        # Seek past the log prefix the snapshot covers; replay then
        # only parses the delta (the O(delta) half of resume).
        wal_start = int(meta.get("wal_bytes", 0))
    else:
        evaluator = IncrementalEvaluator(
            n_workers=3,
            n_tasks=1,
            confidence=config.resolved_confidence,
            optimize_weights=config.resolved_optimize_weights,
            backend=config.resolved_backend,
            shards=config.shards,
        )
        applied = 0
        applied_batches = 0
    replayed = 0
    for first, last, events in store.read_batches(wal_start):
        if last <= applied:
            continue  # already covered by the snapshot (or a duplicate)
        if first > applied + 1:
            raise DurableStateError(
                f"sequence gap in {store.wal_path}: restored state ends "
                f"at {applied} but the next surviving record starts at "
                f"{first}"
            )
        if first <= applied:
            events = events[applied - first + 1 :]
        evaluator.apply_batch(events, auto_extend=True)
        applied = last
        replayed += 1
    store.open(resume=True)
    store.note_resumed(
        total_batches=applied_batches + replayed, replayed_batches=replayed
    )
    session = StreamSession(evaluator, config=config, _store=store)
    session._queue = ResponseQueue(
        maxsize=config.maxsize, max_batch=config.max_batch, base_seq=applied
    )
    session._submitted_seq = applied
    session._applied_seq = applied
    return session
