"""Sparse worker-by-task response matrix.

This module defines :class:`ResponseMatrix`, the data structure every
estimator in the library consumes.  It models exactly the setting of the
paper:

* ``m`` workers and ``n`` tasks, identified by integers ``0..m-1`` and
  ``0..n-1``;
* each worker answered a *subset* of the tasks ("non-regular" data);
* answers are labels in ``{0, 1, ..., arity-1}`` (``arity=2`` is the binary
  case);
* tasks optionally carry gold (true) labels, which the confidence-interval
  algorithms never look at but the evaluation harness uses to measure
  interval accuracy.

The class keeps responses in a dict-of-dicts sparse layout (natural for
Mechanical-Turk-style data where workers touch a small fraction of tasks)
and offers the derived quantities the paper's algorithms need: pairwise
common-task counts ``c_ij``, triple common-task counts ``c_ijk``, pairwise
agreement counts, and the 3-worker response count tensor of Algorithm A3.

The derived-count queries here are the simple O(n)-per-pair reference
implementations; for batch workloads the estimators obtain the same exact
counts from the vectorized :mod:`repro.data.dense_backend` instead (see the
``backend`` knob on the estimator classes).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataValidationError, InsufficientDataError

__all__ = ["UNANSWERED", "ResponseMatrix", "PairStatistics"]

#: Sentinel used in dense numpy views for (worker, task) cells with no response.
UNANSWERED: int = -1


@dataclass(frozen=True)
class PairStatistics:
    """Agreement statistics for one pair of workers.

    Attributes
    ----------
    common_tasks:
        Number of tasks both workers answered (``c_ij`` in the paper).
    agreements:
        Number of those tasks where the two responses were identical.
    """

    common_tasks: int
    agreements: int

    @property
    def agreement_rate(self) -> float:
        """Empirical agreement rate ``q_ij``; raises if the pair shares no task."""
        if self.common_tasks == 0:
            raise InsufficientDataError("pair of workers shares no common task")
        return self.agreements / self.common_tasks


class ResponseMatrix:
    """Sparse store of worker responses to tasks.

    Parameters
    ----------
    n_workers:
        Number of workers (worker ids are ``0..n_workers-1``).
    n_tasks:
        Number of tasks (task ids are ``0..n_tasks-1``).
    arity:
        Number of possible labels.  Binary tasks use ``arity=2``.
    """

    def __init__(self, n_workers: int, n_tasks: int, arity: int = 2) -> None:
        if n_workers <= 0:
            raise DataValidationError(f"n_workers must be positive, got {n_workers}")
        if n_tasks <= 0:
            raise DataValidationError(f"n_tasks must be positive, got {n_tasks}")
        if arity < 2:
            raise DataValidationError(f"arity must be at least 2, got {arity}")
        self._n_workers = n_workers
        self._n_tasks = n_tasks
        self._arity = arity
        # responses[worker][task] = label
        self._responses: list[dict[int, int]] = [dict() for _ in range(n_workers)]
        # tasks_to_workers[task] = {worker: label}
        self._task_responses: list[dict[int, int]] = [dict() for _ in range(n_tasks)]
        self._gold: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_dense(
        cls,
        matrix: np.ndarray | Iterable[Iterable[int]],
        arity: int | None = None,
        gold: Iterable[int] | Mapping[int, int] | None = None,
    ) -> "ResponseMatrix":
        """Build from a dense ``(n_workers, n_tasks)`` array.

        Cells equal to :data:`UNANSWERED` (-1) are treated as missing.
        ``arity`` defaults to ``max(label) + 1`` over observed labels (at
        least 2).
        """
        dense = np.asarray(matrix, dtype=int)
        if dense.ndim != 2:
            raise DataValidationError(
                f"dense response matrix must be 2-D, got shape {dense.shape}"
            )
        n_workers, n_tasks = dense.shape
        observed = dense[dense != UNANSWERED]
        if arity is None:
            arity = max(2, int(observed.max()) + 1) if observed.size else 2
        rm = cls(n_workers=n_workers, n_tasks=n_tasks, arity=arity)
        for worker in range(n_workers):
            for task in range(n_tasks):
                label = int(dense[worker, task])
                if label != UNANSWERED:
                    rm.add_response(worker, task, label)
        if gold is not None:
            rm.set_gold_labels(gold)
        return rm

    @classmethod
    def from_records(
        cls,
        records: Iterable[tuple[int, int, int]],
        n_workers: int | None = None,
        n_tasks: int | None = None,
        arity: int | None = None,
        gold: Iterable[int] | Mapping[int, int] | None = None,
    ) -> "ResponseMatrix":
        """Build from ``(worker, task, label)`` triples."""
        records = list(records)
        if not records:
            raise DataValidationError("cannot build a ResponseMatrix from no records")
        max_worker = max(r[0] for r in records)
        max_task = max(r[1] for r in records)
        max_label = max(r[2] for r in records)
        n_workers = n_workers if n_workers is not None else max_worker + 1
        n_tasks = n_tasks if n_tasks is not None else max_task + 1
        arity = arity if arity is not None else max(2, max_label + 1)
        rm = cls(n_workers=n_workers, n_tasks=n_tasks, arity=arity)
        for worker, task, label in records:
            rm.add_response(worker, task, label)
        if gold is not None:
            rm.set_gold_labels(gold)
        return rm

    @classmethod
    def from_arrays(
        cls,
        workers: np.ndarray,
        tasks: np.ndarray,
        labels: np.ndarray,
        *,
        n_workers: int,
        n_tasks: int,
        arity: int = 2,
        gold_tasks: np.ndarray | None = None,
        gold_labels: np.ndarray | None = None,
    ) -> "ResponseMatrix":
        """Bulk-load from parallel record arrays (the snapshot-restore path).

        Equivalent to ``n`` :meth:`add_response` calls in array order (later
        records overwrite earlier ones for the same cell), but the two
        dict-of-dicts indexes are assembled from one stable sort per axis —
        O(n log n) NumPy work plus one dict build per non-empty row — which
        is what keeps resuming a durable streaming session from a snapshot
        (:mod:`repro.serve.durable`) cheap relative to replaying history.
        """
        workers = np.ascontiguousarray(workers, dtype=np.int64)
        tasks = np.ascontiguousarray(tasks, dtype=np.int64)
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        if not (workers.shape == tasks.shape == labels.shape) or workers.ndim != 1:
            raise DataValidationError(
                "workers/tasks/labels must be 1-D arrays of identical length"
            )
        rm = cls(n_workers=n_workers, n_tasks=n_tasks, arity=arity)
        if workers.size:
            for name, values, bound in (
                ("worker", workers, n_workers),
                ("task", tasks, n_tasks),
                ("label", labels, arity),
            ):
                low, high = int(values.min()), int(values.max())
                if low < 0 or high >= bound:
                    raise DataValidationError(
                        f"{name} ids must lie in [0, {bound}), "
                        f"got range [{low}, {high}]"
                    )
            for axis_values, index in (
                (workers, rm._responses),
                (tasks, rm._task_responses),
            ):
                other = tasks if axis_values is workers else workers
                order = np.argsort(axis_values, kind="stable")
                sorted_axis = axis_values[order]
                sorted_other = other[order].tolist()
                sorted_labels = labels[order].tolist()
                boundaries = np.flatnonzero(np.diff(sorted_axis)) + 1
                starts = np.concatenate(([0], boundaries))
                ends = np.concatenate((boundaries, [sorted_axis.size]))
                for start, end in zip(starts.tolist(), ends.tolist()):
                    index[int(sorted_axis[start])] = dict(
                        zip(sorted_other[start:end], sorted_labels[start:end])
                    )
        if gold_tasks is not None and gold_labels is not None:
            rm.set_gold_labels(
                dict(
                    zip(
                        np.asarray(gold_tasks, dtype=np.int64).tolist(),
                        np.asarray(gold_labels, dtype=np.int64).tolist(),
                    )
                )
            )
        return rm

    def copy(self) -> "ResponseMatrix":
        """Deep copy of the matrix, including gold labels."""
        clone = ResponseMatrix(self._n_workers, self._n_tasks, self._arity)
        for worker in range(self._n_workers):
            for task, label in self._responses[worker].items():
                clone.add_response(worker, task, label)
        clone._gold = dict(self._gold)
        return clone

    # ------------------------------------------------------------------ #
    # Basic properties and mutation
    # ------------------------------------------------------------------ #

    @property
    def n_workers(self) -> int:
        """Number of workers."""
        return self._n_workers

    @property
    def n_tasks(self) -> int:
        """Number of tasks."""
        return self._n_tasks

    @property
    def arity(self) -> int:
        """Number of possible labels."""
        return self._arity

    @property
    def n_responses(self) -> int:
        """Total number of (worker, task) responses recorded."""
        return sum(len(r) for r in self._responses)

    @property
    def density(self) -> float:
        """Fraction of the worker-by-task grid that is filled."""
        return self.n_responses / (self._n_workers * self._n_tasks)

    @property
    def is_regular(self) -> bool:
        """True when every worker answered every task."""
        return self.n_responses == self._n_workers * self._n_tasks

    @property
    def is_binary(self) -> bool:
        """True for binary (arity 2) data."""
        return self._arity == 2

    def extend(self, additional_workers: int = 0, additional_tasks: int = 0) -> None:
        """Grow the id space in place (streaming data brings unseen ids).

        New workers/tasks start with no responses and no gold labels, so
        every derived statistic is unchanged; existing ids keep their data.
        This is O(added ids) — the delta alternative to rebuilding the
        matrix when a response stream outgrows the constructed dimensions.
        """
        if additional_workers < 0 or additional_tasks < 0:
            raise DataValidationError("extension sizes must be non-negative")
        self._responses.extend(dict() for _ in range(additional_workers))
        self._task_responses.extend(dict() for _ in range(additional_tasks))
        self._n_workers += additional_workers
        self._n_tasks += additional_tasks

    def add_response(self, worker: int, task: int, label: int) -> None:
        """Record worker ``worker``'s response ``label`` on task ``task``.

        Re-adding a response for the same (worker, task) overwrites the
        previous label.
        """
        self._validate_worker(worker)
        self._validate_task(task)
        self._validate_label(label)
        self._responses[worker][task] = label
        self._task_responses[task][worker] = label

    def upsert_records(self, records: Iterable[Sequence[int]]) -> list[int]:
        """Write ``(worker, task, label)`` records in order; previous labels.

        The batched :meth:`add_response` for callers that have validated
        every id and label already (the incremental evaluator checks a
        whole micro-batch with array min/max first): one lean loop over the
        stores, no per-record validation.  Returns, per record, the label it
        overwrote in the sequential sense (a record sees the writes of the
        records before it), :data:`UNANSWERED` for a fresh cell.
        """
        responses = self._responses
        task_responses = self._task_responses
        previous: list[int] = []
        append = previous.append
        for worker, task, label in records:
            row = responses[worker]
            append(row.get(task, UNANSWERED))
            row[task] = label
            task_responses[task][worker] = label
        return previous

    def remove_response(self, worker: int, task: int) -> None:
        """Delete the response of ``worker`` on ``task`` if present."""
        self._validate_worker(worker)
        self._validate_task(task)
        self._responses[worker].pop(task, None)
        self._task_responses[task].pop(worker, None)

    def set_gold_label(self, task: int, label: int) -> None:
        """Attach a gold (true) label to ``task``."""
        self._validate_task(task)
        self._validate_label(label)
        self._gold[task] = label

    def set_gold_labels(self, gold: Iterable[int] | Mapping[int, int]) -> None:
        """Attach gold labels, either as a mapping or a full-length sequence."""
        if isinstance(gold, Mapping):
            for task, label in gold.items():
                self.set_gold_label(int(task), int(label))
            return
        gold_list = list(gold)
        if len(gold_list) != self._n_tasks:
            raise DataValidationError(
                f"gold label sequence has length {len(gold_list)}, "
                f"expected {self._n_tasks}"
            )
        for task, label in enumerate(gold_list):
            self.set_gold_label(task, int(label))

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def response(self, worker: int, task: int) -> int | None:
        """Label given by ``worker`` on ``task``, or None if unanswered."""
        self._validate_worker(worker)
        self._validate_task(task)
        return self._responses[worker].get(task)

    def has_response(self, worker: int, task: int) -> bool:
        """True if ``worker`` answered ``task``."""
        self._validate_worker(worker)
        self._validate_task(task)
        return task in self._responses[worker]

    def worker_responses(self, worker: int) -> dict[int, int]:
        """Mapping ``task -> label`` of everything ``worker`` answered."""
        self._validate_worker(worker)
        return dict(self._responses[worker])

    def task_responses(self, task: int) -> dict[int, int]:
        """Mapping ``worker -> label`` of everyone who answered ``task``."""
        self._validate_task(task)
        return dict(self._task_responses[task])

    def tasks_of(self, worker: int) -> set[int]:
        """Set of task ids answered by ``worker``."""
        self._validate_worker(worker)
        return set(self._responses[worker])

    def workers_of(self, task: int) -> set[int]:
        """Set of worker ids that answered ``task``."""
        self._validate_task(task)
        return set(self._task_responses[task])

    def n_tasks_of(self, worker: int) -> int:
        """Number of tasks answered by ``worker``."""
        self._validate_worker(worker)
        return len(self._responses[worker])

    def gold_label(self, task: int) -> int | None:
        """Gold label for ``task``, or None if unknown."""
        self._validate_task(task)
        return self._gold.get(task)

    @property
    def gold_labels(self) -> dict[int, int]:
        """All known gold labels as ``task -> label``."""
        return dict(self._gold)

    @property
    def has_gold(self) -> bool:
        """True if at least one task has a gold label."""
        return bool(self._gold)

    def iter_responses(self) -> Iterator[tuple[int, int, int]]:
        """Yield every recorded response as ``(worker, task, label)``."""
        for worker in range(self._n_workers):
            for task, label in self._responses[worker].items():
                yield worker, task, label

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Record arrays ``(workers, tasks, labels)``, the inverse of
        :meth:`from_arrays`.

        int64 arrays in :meth:`iter_responses` order, built with one
        ``np.fromiter`` per row instead of a Python loop per response (the
        durable snapshot export runs this on every checkpoint).
        """
        rows = self._responses
        workers = np.repeat(
            np.arange(self._n_workers, dtype=np.int64), [len(row) for row in rows]
        )
        tasks = np.concatenate(
            [np.fromiter(row, dtype=np.int64, count=len(row)) for row in rows]
        )
        labels = np.concatenate(
            [
                np.fromiter(row.values(), dtype=np.int64, count=len(row))
                for row in rows
            ]
        )
        return workers, tasks, labels

    # ------------------------------------------------------------------ #
    # Derived statistics used by the paper's algorithms
    # ------------------------------------------------------------------ #

    def common_tasks(self, *workers: int) -> set[int]:
        """Tasks answered by *all* the given workers (``c_ij``, ``c_ijk`` sets)."""
        if not workers:
            raise DataValidationError("common_tasks requires at least one worker")
        for worker in workers:
            self._validate_worker(worker)
        sets = sorted(
            (set(self._responses[w]) for w in workers), key=len
        )
        common = sets[0]
        for s in sets[1:]:
            common = common & s
            if not common:
                break
        return common

    def n_common_tasks(self, *workers: int) -> int:
        """Number of tasks answered by all the given workers."""
        return len(self.common_tasks(*workers))

    def pair_statistics(self, worker_a: int, worker_b: int) -> PairStatistics:
        """Agreement statistics (``c_ij`` and agreement count) for a pair."""
        if worker_a == worker_b:
            raise DataValidationError("pair_statistics requires two distinct workers")
        common = self.common_tasks(worker_a, worker_b)
        agreements = sum(
            1
            for task in common
            if self._responses[worker_a][task] == self._responses[worker_b][task]
        )
        return PairStatistics(common_tasks=len(common), agreements=agreements)

    def agreement_rate(self, worker_a: int, worker_b: int) -> float:
        """Empirical agreement rate ``q_ab`` over the pair's common tasks."""
        return self.pair_statistics(worker_a, worker_b).agreement_rate

    def response_count_tensor(
        self, workers: tuple[int, int, int] | list[int]
    ) -> np.ndarray:
        """The ``(k+1) x (k+1) x (k+1)`` Counts array of Algorithm A3.

        ``Counts[a, b, c]`` is the number of tasks where the first worker
        responded with label ``a-1``, the second with ``b-1`` and the third
        with ``c-1``; index 0 in any coordinate means "did not attempt".
        """
        if len(workers) != 3:
            raise DataValidationError(
                f"response_count_tensor expects exactly 3 workers, got {len(workers)}"
            )
        w1, w2, w3 = workers
        for worker in (w1, w2, w3):
            self._validate_worker(worker)
        if len({w1, w2, w3}) != 3:
            raise DataValidationError("the three workers must be distinct")
        k = self._arity
        counts = np.zeros((k + 1, k + 1, k + 1), dtype=float)
        for task in range(self._n_tasks):
            task_resp = self._task_responses[task]
            a = task_resp.get(w1)
            b = task_resp.get(w2)
            c = task_resp.get(w3)
            ia = 0 if a is None else a + 1
            ib = 0 if b is None else b + 1
            ic = 0 if c is None else c + 1
            if ia == 0 and ib == 0 and ic == 0:
                continue
            counts[ia, ib, ic] += 1.0
        return counts

    def disagreement_with_majority(self, worker: int) -> float:
        """Fraction of the worker's tasks where they disagree with the majority.

        This is the simple error-rate proxy used by the spammer filter of
        Section III-E2.  The worker's own vote is excluded from the majority
        when other votes exist; ties count as agreement (benefit of the doubt).
        """
        self._validate_worker(worker)
        tasks = self._responses[worker]
        if not tasks:
            raise InsufficientDataError(
                f"worker {worker} has no responses to compare against the majority"
            )
        disagreements = 0
        judged = 0
        for task, own_label in tasks.items():
            votes: dict[int, int] = {}
            for other, label in self._task_responses[task].items():
                if other == worker:
                    continue
                votes[label] = votes.get(label, 0) + 1
            if not votes:
                continue
            best_count = max(votes.values())
            majority_labels = {lab for lab, cnt in votes.items() if cnt == best_count}
            judged += 1
            if own_label not in majority_labels:
                disagreements += 1
        if judged == 0:
            raise InsufficientDataError(
                f"worker {worker} shares no task with any other worker"
            )
        return disagreements / judged

    def empirical_error_rate(self, worker: int) -> float:
        """Fraction of the worker's gold-labelled tasks they answered wrongly.

        Used by the evaluation harness as the "true" error rate proxy on the
        real-data experiments, exactly as the paper does (Section III-E).
        """
        self._validate_worker(worker)
        wrong = 0
        judged = 0
        for task, label in self._responses[worker].items():
            gold = self._gold.get(task)
            if gold is None:
                continue
            judged += 1
            if label != gold:
                wrong += 1
        if judged == 0:
            raise InsufficientDataError(
                f"worker {worker} answered no gold-labelled task"
            )
        return wrong / judged

    def empirical_confusion_matrix(self, worker: int) -> np.ndarray:
        """Row-normalized empirical confusion matrix against gold labels.

        Entry ``[a, b]`` is the fraction of gold-``a`` tasks the worker
        labelled ``b``.  Rows with no observations are left as uniform
        (uninformative) rows.
        """
        self._validate_worker(worker)
        k = self._arity
        counts = np.zeros((k, k), dtype=float)
        for task, label in self._responses[worker].items():
            gold = self._gold.get(task)
            if gold is None:
                continue
            counts[gold, label] += 1.0
        matrix = np.full((k, k), 1.0 / k)
        for row in range(k):
            total = counts[row].sum()
            if total > 0:
                matrix[row] = counts[row] / total
        return matrix

    # ------------------------------------------------------------------ #
    # Transformation
    # ------------------------------------------------------------------ #

    def to_dense(self) -> np.ndarray:
        """Dense ``(n_workers, n_tasks)`` int array with UNANSWERED for gaps."""
        dense = np.full((self._n_workers, self._n_tasks), UNANSWERED, dtype=int)
        for worker, task, label in self.iter_responses():
            dense[worker, task] = label
        return dense

    def subset_workers(self, workers: Iterable[int]) -> "ResponseMatrix":
        """New matrix containing only the given workers, re-indexed from 0.

        Task ids and gold labels are preserved unchanged.
        """
        worker_list = list(dict.fromkeys(workers))
        if not worker_list:
            raise DataValidationError("subset_workers requires at least one worker")
        for worker in worker_list:
            self._validate_worker(worker)
        subset = ResponseMatrix(len(worker_list), self._n_tasks, self._arity)
        for new_id, old_id in enumerate(worker_list):
            for task, label in self._responses[old_id].items():
                subset.add_response(new_id, task, label)
        subset._gold = dict(self._gold)
        return subset

    def subset_tasks(self, tasks: Iterable[int]) -> "ResponseMatrix":
        """New matrix containing only the given tasks, re-indexed from 0."""
        task_list = list(dict.fromkeys(tasks))
        if not task_list:
            raise DataValidationError("subset_tasks requires at least one task")
        for task in task_list:
            self._validate_task(task)
        remap = {old: new for new, old in enumerate(task_list)}
        subset = ResponseMatrix(self._n_workers, len(task_list), self._arity)
        for worker, task, label in self.iter_responses():
            if task in remap:
                subset.add_response(worker, remap[task], label)
        for old, new in remap.items():
            if old in self._gold:
                subset._gold[new] = self._gold[old]
        return subset

    def thin(self, keep_probability: float, rng: np.random.Generator) -> "ResponseMatrix":
        """Randomly drop responses, keeping each with ``keep_probability``.

        This reproduces the paper's conversion of the regular IC dataset into
        a non-regular one by removing 20 % of responses.
        """
        if not (0.0 < keep_probability <= 1.0):
            raise DataValidationError(
                f"keep_probability must lie in (0, 1], got {keep_probability}"
            )
        thinned = ResponseMatrix(self._n_workers, self._n_tasks, self._arity)
        for worker, task, label in self.iter_responses():
            if rng.random() < keep_probability:
                thinned.add_response(worker, task, label)
        thinned._gold = dict(self._gold)
        return thinned

    def reduce_arity(self, mapping: Mapping[int, int] | None = None,
                     new_arity: int | None = None) -> "ResponseMatrix":
        """Map labels to a coarser label set (the paper's arity reductions).

        ``mapping`` sends each old label to a new label.  For example the
        MOOC dataset maps grade ``g`` to ``ceil(g / 2)`` to turn 6-ary grades
        into 3-ary ones; the WS dataset maps rating ``g`` to ``ceil(g / 6)``.
        """
        if mapping is None:
            raise DataValidationError("reduce_arity requires an explicit mapping")
        mapped_values = {int(v) for v in mapping.values()}
        if new_arity is None:
            new_arity = max(2, max(mapped_values) + 1)
        if any(v < 0 or v >= new_arity for v in mapped_values):
            raise DataValidationError("mapped labels must lie inside the new arity")
        reduced = ResponseMatrix(self._n_workers, self._n_tasks, new_arity)
        for worker, task, label in self.iter_responses():
            if label not in mapping:
                raise DataValidationError(
                    f"label {label} has no entry in the arity-reduction mapping"
                )
            reduced.add_response(worker, task, int(mapping[label]))
        for task, label in self._gold.items():
            if label in mapping:
                reduced._gold[task] = int(mapping[label])
        return reduced

    # ------------------------------------------------------------------ #
    # Dunder / validation
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResponseMatrix):
            return NotImplemented
        return (
            self._n_workers == other._n_workers
            and self._n_tasks == other._n_tasks
            and self._arity == other._arity
            and self._responses == other._responses
            and self._gold == other._gold
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResponseMatrix(n_workers={self._n_workers}, n_tasks={self._n_tasks}, "
            f"arity={self._arity}, n_responses={self.n_responses}, "
            f"density={self.density:.3f})"
        )

    def _validate_worker(self, worker: int) -> None:
        if not (0 <= worker < self._n_workers):
            raise DataValidationError(
                f"worker id {worker} out of range [0, {self._n_workers})"
            )

    def _validate_task(self, task: int) -> None:
        if not (0 <= task < self._n_tasks):
            raise DataValidationError(
                f"task id {task} out of range [0, {self._n_tasks})"
            )

    def _validate_label(self, label: int) -> None:
        if not (0 <= label < self._arity):
            raise DataValidationError(
                f"label {label} out of range [0, {self._arity})"
            )
