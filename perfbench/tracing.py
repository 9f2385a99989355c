"""Layer tracing from outside the program.

The benchmark times each layer by rebinding that layer's public functions
with timed wrappers; nothing under ``src/`` changes.  Functions imported
by name are rebound where they are imported (``repro.core.m_worker
.form_triples``, ``repro.serve.server.parse_event``); methods and
properties are rebound on the class that defines them.

Two kinds of record, both kept in memory:

* a *span* per call of a coarse function: name, start, end, the span that
  caused it (``parent``) and the root span of its request (``root``);
  written at exit as Chrome trace-event JSON;
* an *aggregate* per fine-grained function (one call per event, per worker
  or per property read): only a running sum of seconds and a call count.

Both kinds nest: the current record lives in a ``contextvars`` variable,
so each asyncio task has its own chain and a wrapped call knows its
caller even when coroutines interleave.  A record's *self time* is its
duration minus the durations of the records nested directly inside it.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import inspect
import json
import os
import time
from pathlib import Path
from typing import Any, Callable

_current: contextvars.ContextVar["_Frame | None"] = contextvars.ContextVar(
    "perfbench_frame", default=None
)


class _Frame:
    __slots__ = ("name", "span_id", "root", "child_s", "children")

    def __init__(self, name: str, span_id: int, root: int) -> None:
        self.name = name
        self.span_id = span_id
        self.root = root
        self.child_s = 0.0
        self.children = 0


class Recorder:
    """Spans and aggregates of one process.

    ``totals[name]`` holds ``s`` (seconds), ``calls``, ``self_s``,
    ``leaf_calls`` (calls with no traced call nested inside), a
    ``parents`` histogram of caller names and any counters the wrapper's
    ``count`` hook adds.  Wrappers pass straight through while
    ``enabled`` is false.
    """

    def __init__(self) -> None:
        self.enabled = True
        self.reset()

    def reset(self) -> None:
        self.totals: dict[str, dict[str, Any]] = {}
        self.spans: list[tuple] = []
        self._next_id = 1
        self._tids: dict[int, int] = {}

    def _tid(self) -> int:
        try:
            task = asyncio.current_task()
        except RuntimeError:
            return 0
        if task is None:
            return 0
        return self._tids.setdefault(id(task), len(self._tids) + 1)

    def enter(self, name: str) -> tuple:
        parent = _current.get()
        span_id = self._next_id
        self._next_id += 1
        frame = _Frame(name, span_id, parent.root if parent else span_id)
        token = _current.set(frame)
        return frame, token, parent, time.perf_counter()

    def exit(self, entered: tuple, keep_span: bool, counts: dict | None) -> None:
        end = time.perf_counter()
        frame, token, parent, start = entered
        _current.reset(token)
        duration = end - start
        if parent is not None:
            parent.child_s += duration
            parent.children += 1
        total = self.totals.get(frame.name)
        if total is None:
            total = self.totals[frame.name] = {
                "s": 0.0, "calls": 0, "self_s": 0.0, "leaf_calls": 0, "parents": {}
            }
        total["s"] += duration
        total["calls"] += 1
        total["self_s"] += duration - frame.child_s
        if frame.children == 0:
            total["leaf_calls"] += 1
        caller = parent.name if parent is not None else ""
        total["parents"][caller] = total["parents"].get(caller, 0) + 1
        if counts:
            for key, value in counts.items():
                total[key] = total.get(key, 0) + value
        if keep_span:
            self.spans.append(
                (
                    frame.span_id,
                    parent.span_id if parent is not None else 0,
                    frame.root,
                    frame.name,
                    start,
                    end,
                    self._tid(),
                )
            )

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (``chrome://tracing``)."""
        pid = os.getpid()
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {"id": span_id, "parent": parent, "root": root},
            }
            for span_id, parent, root, name, start, end, tid in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def dump(self, summary_path: str | Path, trace_path: str | Path) -> None:
        """Write the totals and the Chrome trace, each by atomic rename."""
        for path, payload in (
            (trace_path, self.chrome_trace()),
            (summary_path, {"totals": self.totals, "spans": len(self.spans)}),
        ):
            temporary = f"{path}.tmp"
            with open(temporary, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(temporary, path)


CountHook = Callable[[tuple, dict, Any, Any], dict]


def _timed(
    recorder: Recorder,
    function: Callable,
    name: str,
    span: bool,
    count: CountHook | None,
    before: Callable[[tuple, dict], Any] | None,
) -> Callable:
    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def async_wrapper(*args, **kwargs):
            if not recorder.enabled:
                return await function(*args, **kwargs)
            state = before(args, kwargs) if before else None
            entered = recorder.enter(name)
            result = None
            try:
                result = await function(*args, **kwargs)
                return result
            finally:
                recorder.exit(
                    entered, span, count(args, kwargs, result, state) if count else None
                )

        return async_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return function(*args, **kwargs)
        state = before(args, kwargs) if before else None
        entered = recorder.enter(name)
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            recorder.exit(
                entered, span, count(args, kwargs, result, state) if count else None
            )

    return wrapper


def rebind(
    recorder: Recorder,
    owner: Any,
    attribute: str,
    name: str,
    *,
    span: bool = False,
    count: CountHook | None = None,
    before: Callable[[tuple, dict], Any] | None = None,
) -> None:
    """Replace ``owner.attribute`` (module or class) with a timed wrapper.

    ``span=True`` keeps a span per call; otherwise only the aggregate.
    ``count(args, kwargs, result, state)`` returns counters to add, where
    ``state`` is what ``before(args, kwargs)`` returned before the call.
    Properties wrap their getter and classmethods their function.
    """
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)

    def timed(function: Callable) -> Callable:
        return _timed(recorder, function, name, span, count, before)

    if isinstance(raw, property):
        replacement: Any = property(timed(raw.fget), raw.fset, raw.fdel, raw.__doc__)
    elif isinstance(raw, classmethod):
        replacement = classmethod(timed(raw.__func__))
    else:
        replacement = timed(raw)
    setattr(owner, attribute, replacement)


def _size(position: int) -> CountHook:
    return lambda args, kwargs, result, state: {"items": len(args[position])}


def install_estimator_tracing(recorder: Recorder) -> None:
    """Time the batch estimator's layers (Algorithm A2's stages)."""
    import repro.core.m_worker as m_worker
    from repro.data.dense_backend import DenseAgreementBackend
    from repro.data.sparse_backend import BitsetAgreementBackend, SparseAgreementBackend

    rebind(recorder, m_worker.MWorkerEstimator, "evaluate_all", "m_worker.evaluate_all", span=True)
    rebind(recorder, m_worker, "compute_agreement_statistics", "backend.build", span=True)
    rebind(
        recorder, m_worker, "form_triples", "pairing.form_triples",
        count=lambda args, kwargs, result, state: {"items": len(result)},
    )
    rebind(
        recorder, m_worker, "evaluate_triples_batched_arrays",
        "three_worker.triple_stage", span=True, count=_size(2),
    )
    rebind(recorder, m_worker, "batched_optimal_weights", "weights.lemma5_solve")
    for backend in (DenseAgreementBackend, BitsetAgreementBackend, SparseAgreementBackend):
        for attribute in ("common_counts", "agreement_counts"):
            if attribute in backend.__dict__:
                rebind(recorder, backend, attribute, "backend.counts")
        if "triple_count_grid_full" in backend.__dict__:
            rebind(recorder, backend, "triple_count_grid_full", "backend.triple_grid")


def install_serve_tracing(recorder: Recorder) -> None:
    """Time the serve stack: parse, queue, WAL, apply, ledger, recompute,
    snapshot and resume (plus the estimator layers underneath)."""
    import repro.serve.server as server
    import repro.serve.session as session
    from repro.core.deps import DependencyLedger
    from repro.core.incremental import IncrementalEvaluator
    from repro.serve.durable import DurableStore
    from repro.serve.queue import ResponseQueue

    install_estimator_tracing(recorder)
    rebind(
        recorder, server, "parse_event", "sources.parse",
        count=lambda args, kwargs, result, state: {"items": int(result is not None)},
    )
    rebind(recorder, session.StreamSession, "submit", "session.submit")
    rebind(
        recorder, ResponseQueue, "get_batch_with_seq", "queue.applier_wait",
        count=lambda args, kwargs, result, state: (
            {"items": len(result[2]), "batches": 1} if result else {}
        ),
    )
    rebind(
        recorder, IncrementalEvaluator, "apply_batch", "incremental.apply_batch",
        span=True,
        count=lambda args, kwargs, result, state: {"items": result.n_events},
    )
    rebind(
        recorder, DependencyLedger, "invalidated", "deps.invalidated",
        count=lambda args, kwargs, result, state: {"items": len(result)},
    )
    rebind(
        recorder, DurableStore, "append_batch", "durable.wal_append", span=True,
        before=lambda args, kwargs: args[0]._wal_bytes,
        count=lambda args, kwargs, result, state: {"bytes": args[0]._wal_bytes - state},
    )
    rebind(
        recorder, DurableStore, "write_snapshot", "durable.snapshot", span=True,
        count=lambda args, kwargs, result, state: {"bytes": os.path.getsize(result)},
    )
    rebind(recorder, DurableStore, "load_snapshot_state", "durable.load_snapshot", span=True)
    rebind(recorder, IncrementalEvaluator, "from_state", "incremental.from_state", span=True)
    rebind(recorder, session, "_resume_session", "durable.resume", span=True)
    rebind(recorder, IncrementalEvaluator, "estimate", "incremental.estimate", span=True)
    rebind(recorder, IncrementalEvaluator, "estimate_all", "incremental.estimate_all", span=True)
    rebind(recorder, IncrementalEvaluator, "_recompute_many", "incremental.recompute", count=_size(1))
    rebind(recorder, session.StreamSession, "evaluate_worker", "session.evaluate_worker", span=True)
    rebind(recorder, session.StreamSession, "evaluate_all", "session.evaluate_all", span=True)
