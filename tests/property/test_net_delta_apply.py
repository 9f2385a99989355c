"""Differential property test for the net-delta batched apply.

``AgreementBackendBase.apply_responses`` applies a whole micro-batch as one
net delta (last-wins cells, block-product count patches) and returns the
batch's changed-pair ids; ``IncrementalEvaluator.apply_batch`` drives it.
Hypothesis generates micro-batches full of the cases a net delta can get
wrong — in-batch duplicates, flip-and-flip-back revisions, reaffirmations
and ids beyond the current dimensions — and checks, on the dense, sparse
and bitset backends with counts, votes and packed rows materialized or
not:

* the backend arrays equal a per-event ``apply_response`` replay bit for
  bit, and the returned ids equal the per-event changed-pair rule (a
  statistic-changing event ``(w, t)`` changes ``(w, u)`` for every other
  worker ``u`` holding a response on ``t`` at that point of the stream);
* ``BatchApplyStats.n_changed`` / ``invalidated`` equal that rule exactly,
  and the served estimates equal a per-event evaluator and a from-scratch
  dict build bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cross_backend_differential import assert_estimates_bit_identical

from repro.core.deps import encode_pair_ids
from repro.core.incremental import IncrementalEvaluator
from repro.core.m_worker import MWorkerEstimator
from repro.data.dense_backend import DenseAgreementBackend
from repro.data.response_matrix import UNANSWERED, ResponseMatrix
from repro.data.sparse_backend import BitsetAgreementBackend, SparseAgreementBackend

BACKENDS = {
    "dense": DenseAgreementBackend,
    "sparse": SparseAgreementBackend,
    "bitset": BitsetAgreementBackend,
}

_event = st.tuples(
    st.integers(0, 7), st.integers(0, 9), st.integers(0, 2)
)


def _revisions(event):
    worker, task, label = event
    return [event, (worker, task, label + 1), event]


#: One micro-batch: singles, duplicates (reaffirmations once applied) and
#: flip-and-flip-back revision triples, concatenated.  Labels are reduced
#: modulo the arity by the tests.
_batch = st.lists(
    st.one_of(
        _event.map(lambda event: [event]),
        _event.map(lambda event: [event, event]),
        _event.map(_revisions),
    ),
    min_size=1,
    max_size=10,
).map(lambda parts: [event for part in parts for event in part])

_scenario = st.tuples(
    st.integers(3, 5),  # initial workers
    st.integers(1, 6),  # initial tasks
    st.lists(_event, max_size=25),  # initial responses
    st.lists(_batch, min_size=1, max_size=5),
)


class _Stream:
    """Sequential reference: the per-event previous labels and pair rule."""

    def __init__(self) -> None:
        self.cells: dict[tuple[int, int], int] = {}
        self.attempters: dict[int, set[int]] = {}

    def apply(self, batch):
        """``(previous labels, changed workers, changed pairs)`` of a batch."""
        previous, workers, pairs = [], set(), set()
        for worker, task, label in batch:
            before = self.cells.get((worker, task))
            previous.append(UNANSWERED if before is None else before)
            attempters = self.attempters.setdefault(task, set())
            if before != label:
                workers.add(worker)
                pairs.update(
                    (min(worker, other), max(worker, other))
                    for other in attempters
                    if other != worker
                )
            self.cells[(worker, task)] = label
            attempters.add(worker)
        return previous, workers, pairs


def _materialize(backend, what: str) -> None:
    if what in ("counts", "all"):
        backend.common_counts
        backend.agreement_counts
    if what in ("votes", "all"):
        backend.task_votes
    if what in ("packed", "all"):
        backend._packed_rows


def _arrays(backend) -> dict[str, np.ndarray | None]:
    names = ["_common", "_agree", "_task_votes", "_packed"]
    names += (
        ["_attempts", "_labels"]
        if isinstance(backend, DenseAgreementBackend)
        else ["_packed_labels"]
    )
    return {name: getattr(backend, name) for name in names}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(BACKENDS)),
    materialize=st.sampled_from(["none", "counts", "votes", "packed", "all"]),
    arity=st.sampled_from([2, 3]),
    scenario=_scenario,
)
def test_backend_net_delta_equals_per_event_replay(kind, materialize, arity, scenario):
    n_workers, n_tasks, initial, batches = scenario
    matrix = ResponseMatrix(n_workers=n_workers, n_tasks=n_tasks, arity=arity)
    stream = _Stream()
    initial = [
        (w % n_workers, t % n_tasks, label % arity) for w, t, label in initial
    ]
    stream.apply(initial)
    for worker, task, label in initial:
        matrix.add_response(worker, task, label)
    batched = BACKENDS[kind].from_matrix(matrix)
    replayed = BACKENDS[kind].from_matrix(matrix)
    _materialize(batched, materialize)
    _materialize(replayed, materialize)
    for batch in batches:
        batch = [(w, t, label % arity) for w, t, label in batch]
        grow_workers = max(0, max(w for w, _, _ in batch) + 1 - batched.n_workers)
        grow_tasks = max(0, max(t for _, t, _ in batch) + 1 - batched.n_tasks)
        batched.extend(grow_workers, grow_tasks)
        replayed.extend(grow_workers, grow_tasks)
        previous, _, pairs = stream.apply(batch)
        workers, tasks, labels = (np.array(column) for column in zip(*batch))
        ids = batched.apply_responses(workers, tasks, labels, previous)
        for (worker, task, label), before in zip(batch, previous):
            replayed.apply_response(
                worker, task, label, None if before == UNANSWERED else before
            )
        np.testing.assert_array_equal(ids, encode_pair_ids(pairs))
        for name, array in _arrays(batched).items():
            other = _arrays(replayed)[name]
            assert (array is None) == (other is None), name
            if array is not None:
                np.testing.assert_array_equal(array, other, err_msg=name)
    final = ResponseMatrix(batched.n_workers, batched.n_tasks, arity=arity)
    for (worker, task), label in stream.cells.items():
        final.add_response(worker, task, label)
    fresh = BACKENDS[kind].from_matrix(final)
    np.testing.assert_array_equal(batched.common_counts, fresh.common_counts)
    np.testing.assert_array_equal(batched.agreement_counts, fresh.agreement_counts)
    np.testing.assert_array_equal(batched.task_votes, fresh.task_votes)
    np.testing.assert_array_equal(batched._packed_rows, fresh._packed_rows)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["dict", "dense", "sparse", "bitset"]),
    evaluate_between=st.booleans(),
    scenario=_scenario,
)
def test_apply_batch_stats_and_estimates_match_per_event_rule(
    kind, evaluate_between, scenario
):
    n_workers, n_tasks, initial, batches = scenario
    batched = IncrementalEvaluator(n_workers, n_tasks, backend=kind)
    per_event = IncrementalEvaluator(n_workers, n_tasks, backend=kind)
    stream = _Stream()
    initial = [(w, t, label % 2) for w, t, label in initial]
    stream.apply(initial)
    batched.apply_batch(initial)
    per_event.apply_batch(initial)
    for batch in batches:
        batch = [(w, t, label % 2) for w, t, label in batch]
        if evaluate_between:
            batched.estimate_all()
            per_event.estimate_all()
        previous, workers, pairs = stream.apply(batch)
        # Readers are read off the pre-batch ledger/observer (the probe
        # does not mutate them).
        expected = workers | batched._readers_of(encode_pair_ids(pairs))
        stats = batched.apply_batch(batch)
        for event in batch:
            per_event.add_response(*event)
        assert stats.n_events == len(batch)
        assert stats.n_changed == sum(
            before != label for before, (_, _, label) in zip(previous, batch)
        )
        assert stats.invalidated == frozenset(expected)
    served = batched.estimate_all()
    replayed = per_event.estimate_all()
    reference = {
        estimate.worker: estimate
        for estimate in MWorkerEstimator(backend="dict").evaluate_all(
            batched.matrix
        )
        if estimate.n_tasks > 0
    }
    assert set(served) == set(replayed) == set(reference)
    for worker, estimate in reference.items():
        assert_estimates_bit_identical(estimate, served[worker], kind)
        assert_estimates_bit_identical(estimate, replayed[worker], kind)

