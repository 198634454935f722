"""Kernighan-Lin style pairwise refinement under the full cost function.

The classic partitioning refinement the EDA literature of the paper's
era reached for first: repeatedly pick the best *swap* of two gates
between two modules (or a single move), tentatively apply a whole pass
of best swaps with locking, and keep the prefix of the pass that
minimised the cost.  Here the gain is measured by the paper's full
weighted cost via the incremental evaluation state, so KL is a fair
same-objective baseline for the evolution strategy.

KL preserves module sizes exactly (swaps only), which makes it a useful
polish pass when balance must be held.  Boundary-gate and
neighbour-module queries run on the compiled graph's CSR gate adjacency
(via :class:`~repro.partition.partition.Partition`), so candidate
sampling stays cheap even on the Table 1 circuits.

Two candidate-scoring modes (``candidate_mode``):

``"batched"`` (default)
    Sample whole swap pools up front (``candidate_rounds`` rounds of
    ``candidate_swaps`` pairs per pass) and score each pool as one
    candidate batch through the
    :meth:`~repro.partition.state.EvaluationState.trial_moves` kernel
    (a swap is the two-move candidate ``[(a, module(b)), (b,
    module(a))]``; the pool rides one ``retime_batch`` stacked sweep),
    then walk the ranked gains
    best-first, replay-validating each chosen swap through
    ``trial_cost`` before committing it — earlier commits invalidate
    the batch's baseline, so a stale gain can never be committed
    unchecked.  This changes *which* swaps get sampled relative to the
    sequential mode (a pool doesn't reflect its own commits), so the
    seed-swept ablation in ``tests/optimize/test_kl.py`` pins its
    final costs against the sequential reference.

``"sequential"``
    The original interleaved sample-score-commit loop with locking,
    one ``trial_cost`` (one incremental retime, DESIGN §8.4) per
    candidate — kept bit-for-bit as the reference semantics.

Both modes draw through :class:`_SwapSampler`, which precomputes the
filtered unlocked-gate arrays once per (commit, lock) epoch instead of
re-deriving membership lists on every rejection-sampling attempt.
"""

from __future__ import annotations

import random

import numpy as np

from repro import obs
from repro.errors import OptimizationError, PartitionError
from repro.optimize.result import GenerationRecord, OptimizationResult
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition

__all__ = ["kl_refine", "swap_candidates"]


def kl_refine(
    evaluator: PartitionEvaluator,
    start: Partition,
    max_passes: int = 4,
    candidate_swaps: int = 64,
    seed: int | None = None,
    penalty: float = 1.0e4,
    candidate_mode: str = "batched",
    candidate_rounds: int = 8,
) -> OptimizationResult:
    """KL-style refinement of ``start``.

    Per pass: sample ``candidate_swaps`` boundary-gate pairs from
    adjacent module pairs and commit the improving ones with gate
    locking — scored either through up to ``candidate_rounds`` batched
    ``trial_moves`` kernel calls walked best-first with replay
    validation (``candidate_mode="batched"``), or one at a time through
    the transactional trial protocol (``"sequential"``).  Passes repeat
    until no pass improves or ``max_passes`` is hit.
    """
    if max_passes < 1 or candidate_swaps < 1:
        raise OptimizationError("max_passes and candidate_swaps must be >= 1")
    if candidate_rounds < 1:
        raise OptimizationError("candidate_rounds must be >= 1")
    if candidate_mode not in ("batched", "sequential"):
        raise OptimizationError(
            f"candidate_mode must be 'batched' or 'sequential', "
            f"not {candidate_mode!r}"
        )
    rng = random.Random(seed)
    state = evaluator.new_state(start)
    cost = state.penalized_cost(penalty)
    evaluations = 1
    history: list[GenerationRecord] = []

    for sweep in range(1, max_passes + 1):
        if candidate_mode == "batched":
            cost, gained, improved = _batched_pass(
                state, rng, cost, candidate_swaps, penalty, candidate_rounds
            )
            evaluations += gained
        else:
            cost, gained, improved = _sequential_pass(
                state, rng, cost, candidate_swaps, penalty
            )
            evaluations += gained
        history.append(
            GenerationRecord(
                generation=sweep,
                best_cost=cost,
                best_feasible=state.constraint_report().feasible,
                mean_cost=cost,
                num_modules=state.partition.num_modules,
                evaluations=evaluations,
            )
        )
        if not improved:
            break

    return OptimizationResult(
        best=evaluator.evaluation_of(state),
        history=history,
        generations_run=len(history),
        evaluations=evaluations,
        converged=True,
        seed=seed,
        optimizer="kl-refine",
    )


def _sequential_pass(state, rng, cost, candidate_swaps, penalty):
    """The reference pass: interleaved sample-score-commit with locking."""
    locked: set[int] = set()
    sampler = _SwapSampler(state)
    improved = False
    evaluations = 0
    for _ in range(candidate_swaps):
        swap = sampler.sample(rng, locked)
        if swap is None:
            break
        gate_a, gate_b, module_a, module_b = swap
        trial_cost = state.trial_cost(
            [(gate_a, module_b), (gate_b, module_a)], penalty
        )
        evaluations += 1
        if trial_cost < cost - 1e-12:
            state.commit()
            cost = trial_cost
            locked.update((gate_a, gate_b))
            sampler.invalidate()
            improved = True
        else:
            state.rollback()
    return cost, evaluations, improved


def _batched_pass(state, rng, cost, candidate_swaps, penalty, rounds):
    """One batched KL pass: pooled rounds, ranked walks, replay-validated
    commits.

    Each round samples a fresh pool of up to ``candidate_swaps``
    unlocked pairs against the live partition, scores it in one
    ``trial_moves`` call, and walks the ranked gains best-first.  Every
    candidate that beats the current cost is replayed through
    ``trial_cost`` against the *live* state before committing: the
    first commit of a round replays to exactly its batched score (the
    kernel is bit-identical), later candidates may have gained or lost
    from earlier commits, and a replay that no longer improves is
    rolled back and counted as a mismatch.  Rounds stop early when one
    commits nothing (the pool has gone dry at this baseline); locking
    persists across the whole pass.  Batched candidates are roughly an
    order of magnitude cheaper to score than sequential trials, so a
    pass affords ``rounds`` times the exploration of a sequential pass
    at comparable wall-clock.
    """
    sampler = _SwapSampler(state)
    locked: set[int] = set()
    improved = False
    evaluations = 0
    for _round in range(rounds):
        pool: list[tuple[int, int, int, int]] = []
        for _ in range(candidate_swaps):
            swap = sampler.sample(rng, locked)
            if swap is None:
                break
            pool.append(swap)
        if not pool:
            break
        scores = state.trial_moves(
            swap_candidates(
                state.partition, [swap[0] for swap in pool], [swap[1] for swap in pool]
            ),
            penalty,
        )
        obs.METRICS.inc("optimizer.batch.size", len(pool))
        evaluations += len(pool)
        committed = False
        for i in np.argsort(scores, kind="stable"):
            if scores[i] >= cost - 1e-12:
                break  # ranked ascending: nothing further can improve
            gate_a, gate_b, module_a, module_b = pool[i]
            if gate_a in locked or gate_b in locked:
                continue
            replay = state.trial_cost(
                [(gate_a, module_b), (gate_b, module_a)], penalty
            )
            evaluations += 1
            obs.METRICS.inc("optimizer.batch.rescore")
            if replay < cost - 1e-12:
                state.commit()
                cost = replay
                locked.update((gate_a, gate_b))
                sampler.invalidate()
                improved = True
                committed = True
            else:
                state.rollback()
                obs.METRICS.inc("optimizer.batch.replay_mismatch")
        if not committed:
            break
    return cost, evaluations, improved


def swap_candidates(
    partition: Partition, gates_a, gates_b
) -> list[list[tuple[int, int]]]:
    """The two-move kernel candidates exchanging each ``a`` with its
    ``b``: ``a`` moves into ``b``'s module, then ``b`` into ``a``'s."""
    if len(gates_a) != len(gates_b):
        raise PartitionError("a swap pool needs equally many a- and b-gates")
    out = []
    for a, b in zip(gates_a, gates_b):
        module_a, module_b = partition.module_of(a), partition.module_of(b)
        if module_a == module_b:
            raise PartitionError("swap candidate within a single module")
        out.append([(int(a), module_b), (int(b), module_a)])
    return out


class _SwapSampler:
    """Rejection sampler over boundary pairs with per-epoch caches.

    Draw-for-draw identical to sampling straight off the partition
    (same ``rng`` call sequence over the same canonical lists), but the
    filtered unlocked-gate lists are computed once per (commit, lock)
    epoch instead of once per rejection-sampling attempt —
    :meth:`invalidate` must be called after every committed swap (locks
    only change alongside commits, so one seam covers both).
    """

    def __init__(self, state):
        self.state = state  # rollback may swap the partition object
        self._boundary: dict[int, list[int]] = {}
        self._adjacent: dict[tuple[int, int], list[int]] = {}

    @property
    def partition(self) -> Partition:
        return self.state.partition

    def invalidate(self) -> None:
        self._boundary.clear()
        self._adjacent.clear()

    def _unlocked_boundary(self, module: int, locked: set[int]) -> list[int]:
        cached = self._boundary.get(module)
        if cached is None:
            cached = [
                g
                for g in self.partition.boundary_gates(module)
                if g not in locked
            ]
            self._boundary[module] = cached
        return cached

    def _unlocked_adjacent(
        self, module_b: int, module_a: int, locked: set[int]
    ) -> list[int]:
        key = (module_b, module_a)
        cached = self._adjacent.get(key)
        if cached is None:
            cached = [
                g
                for g in self.partition.gates_adjacent_to(module_b, module_a)
                if g not in locked
            ]
            self._adjacent[key] = cached
        return cached

    def sample(self, rng: random.Random, locked: set[int]):
        """A random boundary pair (a in A, b in B adjacent), unlocked."""
        partition = self.partition
        if partition.num_modules < 2:
            return None
        for _ in range(16):
            module_a = rng.choice(partition.module_ids)
            if partition.module_size(module_a) < 2:
                continue  # swapping out of a 1-gate module would delete it
            boundary = self._unlocked_boundary(module_a, locked)
            if not boundary:
                continue
            gate_a = rng.choice(boundary)
            targets = partition.neighbor_modules(gate_a)
            if not targets:
                continue
            module_b = rng.choice(targets)
            candidates = self._unlocked_adjacent(module_b, module_a, locked)
            if not candidates:
                continue
            gate_b = rng.choice(candidates)
            return gate_a, gate_b, module_a, module_b
        return None
