"""The batch part: ``MWorkerEstimator(confidence=0.9).evaluate_all(matrix)``.

What an analyst running ``repro-crowd evaluate`` waits for, with the CLI
defaults (``backend="auto"``, ``shards=1``).  Each call builds fresh
statistics, as the CLI does.  The first call in the process is timed on
its own (the one-shot cost), then warm calls repeat for the run length.
Outputs are compared outside the timed regions: every call must be
bit-identical to the first and to a ``backend="bitset"`` evaluation.
"""

from __future__ import annotations

import resource
import time

#: At least this many warm calls, however long they take.
MIN_WARM_CALLS = 2


def fingerprint(estimates) -> tuple:
    """Every float of every estimate, exactly (``float.hex``)."""
    return tuple(
        (
            e.worker,
            e.n_tasks,
            e.status.value,
            e.interval.lower.hex(),
            e.interval.mean.hex(),
            e.interval.upper.hex(),
            tuple(float(w).hex() for w in e.weights),
        )
        for e in estimates
    )


def _timed_call(estimator, matrix) -> tuple[float, float, list]:
    cpu = time.process_time()
    wall = time.perf_counter()
    result = estimator.evaluate_all(matrix)
    return time.perf_counter() - wall, time.process_time() - cpu, result


def run_batch(matrix, seconds: float, recorder=None) -> dict:
    """Time the first and the warm calls; check every result.

    With a ``recorder`` the warm calls alternate traced and untraced, so
    the run measures the tracing overhead on the same calls it traces;
    the recorder then holds the totals of the traced warm calls only.
    """
    from repro.core.m_worker import MWorkerEstimator

    estimator = MWorkerEstimator(confidence=0.9)
    first_wall, _, first = _timed_call(estimator, matrix)
    expected = fingerprint(first)
    if recorder is not None:
        recorder.reset()
    walls: list[float] = []
    cpus: list[float] = []
    traced: list[float] = []
    mismatches = 0
    deadline = time.perf_counter() + seconds
    while len(walls) + len(traced) < MIN_WARM_CALLS or time.perf_counter() < deadline:
        tracing = recorder is not None and (len(walls) + len(traced)) % 2 == 0
        if recorder is not None:
            recorder.enabled = tracing
        wall, cpu, result = _timed_call(estimator, matrix)
        if tracing:
            traced.append(wall)
        else:
            walls.append(wall)
            cpus.append(cpu)
        mismatches += fingerprint(result) != expected
    if recorder is not None:
        recorder.enabled = False
    reference = MWorkerEstimator(confidence=0.9, backend="bitset").evaluate_all(matrix)
    mismatches += fingerprint(reference) != expected
    return {
        "first_evaluate_s": first_wall,
        "walls": walls,
        "cpus": cpus,
        "traced_walls": traced,
        "attempted": 2 + len(walls) + len(traced),
        "mismatches": mismatches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
