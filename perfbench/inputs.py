"""Seeded NumPy input generators for the benchmark workloads.

Every input is drawn from ``numpy.random.default_rng`` keyed on the run's
``--seed``, so the same seed gives the same matrices and the same event
stream.  Responses follow the paper's model: each worker has a fixed
error rate, each task a uniform binary truth, and a response is wrong
with the worker's rate.  Matrices load through
``ResponseMatrix.from_arrays`` (the program never sees the generator).
"""

from __future__ import annotations

import numpy as np

#: ``(workers, tasks, density)`` of the batch matrices.
BATCH_SHAPES = {"batch-dense": (200, 2000, 0.6)}

#: ``(workers, tasks, density)`` of the serve event stream.
STREAM_SHAPE = (60, 4000, 0.5)

#: Share of stream responses that are re-sent later with the label flipped.
REVISION_SHARE = 0.05

#: Worker error rates are uniform on this interval (no spammers, so no
#: estimate degenerates and every operation succeeds).
ERROR_RATES = (0.05, 0.35)


def _responses(
    rng: np.random.Generator, n_workers: int, n_tasks: int, density: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rates = rng.uniform(*ERROR_RATES, n_workers)
    truth = rng.integers(0, 2, n_tasks)
    workers, tasks = np.nonzero(rng.random((n_workers, n_tasks)) < density)
    wrong = rng.random(workers.size) < rates[workers]
    labels = np.where(wrong, 1 - truth[tasks], truth[tasks])
    return workers.astype(np.int64), tasks.astype(np.int64), labels.astype(np.int64)


def batch_matrix(workload: str, seed: int):
    """The workload's response matrix, as a ``ResponseMatrix``."""
    from repro.data.response_matrix import ResponseMatrix

    n_workers, n_tasks, density = BATCH_SHAPES[workload]
    rng = np.random.default_rng([seed, 1])
    workers, tasks, labels = _responses(rng, n_workers, n_tasks, density)
    return ResponseMatrix.from_arrays(
        workers, tasks, labels, n_workers=n_workers, n_tasks=n_tasks
    )


def event_stream(seed: int) -> np.ndarray:
    """The serve stream: an ``(events, 3)`` array of ``worker, task, label``.

    All responses of :data:`STREAM_SHAPE` in shuffled order, plus
    :data:`REVISION_SHARE` of them re-sent with the opposite label at a
    random later position, so the final state is last-wins.
    """
    n_workers, n_tasks, density = STREAM_SHAPE
    rng = np.random.default_rng([seed, 2])
    workers, tasks, labels = _responses(rng, n_workers, n_tasks, density)
    keys = rng.random(workers.size)
    revised = rng.choice(
        workers.size, size=round(REVISION_SHARE * workers.size), replace=False
    )
    revision_keys = keys[revised] + rng.random(revised.size) * (1.0 - keys[revised])
    order = np.argsort(np.concatenate([keys, revision_keys]), kind="stable")
    events = np.stack(
        [
            np.concatenate([workers, workers[revised]]),
            np.concatenate([tasks, tasks[revised]]),
            np.concatenate([labels, 1 - labels[revised]]),
        ],
        axis=1,
    )
    return np.ascontiguousarray(events[order])


def last_wins_matrix(events: np.ndarray):
    """The matrix a stream leaves behind (later events overwrite earlier)."""
    from repro.data.response_matrix import ResponseMatrix

    return ResponseMatrix.from_arrays(
        events[:, 0],
        events[:, 1],
        events[:, 2],
        n_workers=int(events[:, 0].max()) + 1,
        n_tasks=int(events[:, 1].max()) + 1,
    )
