"""Asynchronous streaming ingestion in front of the incremental evaluator.

The paper evaluates a *given* response matrix; a production system serves a
*stream* — responses arrive concurrently while quality queries keep being
answered.  This package is that front-end, layered on the delta machinery
the rest of the library already provides (the net-delta
``apply_responses`` on every backend, dependency-tracked cache
invalidation in :class:`~repro.core.incremental.IncrementalEvaluator`):

* :class:`~repro.serve.config.SessionConfig` +
  :func:`~repro.serve.config.open_session` — the canonical construction
  path: one validated frozen config (queue bounds, estimator knobs,
  durability, ``writers``) through one front door that resolves
  create-vs-resume and single- vs multi-writer dispatch;
* :class:`~repro.serve.queue.ResponseQueue` — bounded asyncio queue with
  producer backpressure, coalescing the stream into micro-batches;
* :class:`~repro.serve.session.StreamSession` — the single-writer session
  API: ``await submit(...)``, ``await flush()``, ordered batch application
  under a writer lock, snapshot-consistent reads, per-batch invalidation
  stats (see its module docstring for the determinism contract);
* :mod:`~repro.serve.multiwriter` — N-partition ingestion
  (consistent-hash worker partitioning, per-partition WAL segments,
  epoch-fenced snapshots, k-way merge resume) for
  ``SessionConfig(writers=N)``;
* :mod:`~repro.serve.sources` — NDJSON / async-iterator adapters;
* :mod:`~repro.serve.durable` — write-ahead log + atomic snapshots behind
  ``SessionConfig(durable=...)``;
* :mod:`~repro.serve.server` — the ``repro-crowd serve`` TCP front-end.

The locked contract: estimates served from any interleaving of
micro-batches equal a from-scratch batch build over the accumulated data,
bit for bit, on every backend (``tests/property/
test_cross_backend_differential.py``, ``streamed`` column) — and a durable
session resumed after a kill serves the same bits as one that was never
interrupted (the ``resumed`` and ``multiwriter-resumed`` columns plus the
crash-smoke CI drills).
"""

from repro.serve.config import SessionConfig, open_session
from repro.serve.durable import (
    DurableStore,
    load_snapshot_file,
    write_snapshot_file,
)
from repro.serve.multiwriter import (
    MultiWriterSession,
    MultiWriterStore,
    partition_for,
)
from repro.serve.queue import QueueClosed, ResponseQueue
from repro.serve.session import (
    BatchRecord,
    SessionSnapshot,
    StreamSession,
    replay_stream,
)
from repro.serve.sources import feed_session, iter_ndjson, parse_event

__all__ = [
    "BatchRecord",
    "DurableStore",
    "MultiWriterSession",
    "MultiWriterStore",
    "QueueClosed",
    "ResponseQueue",
    "SessionConfig",
    "SessionSnapshot",
    "StreamSession",
    "feed_session",
    "iter_ndjson",
    "load_snapshot_file",
    "open_session",
    "parse_event",
    "partition_for",
    "replay_stream",
    "write_snapshot_file",
]
