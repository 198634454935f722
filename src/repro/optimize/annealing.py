"""Simulated-annealing baseline.

The paper (§4) lists simulated annealing among the heuristic families
applicable to PART-IDDQ before choosing the evolution strategy.  This
implementation uses the same neighbourhood (move one boundary gate into
a connected module) and the same penalised cost, so the ablation bench
compares search strategies, not problem encodings.

Proposals are consumed in speculative blocks with a *pinned RNG draw
order*: all ``proposal_block`` proposals of a block are drawn up front
against the block-start state, then the accept draws are consumed one
decision at a time during the walk (``rng.random()`` fires only for
uphill deltas, exactly as before).  Because both candidate modes share
that draw order and the batched gain kernel is bit-identical to
``trial_cost``, the two modes produce bit-for-bit the same
accept/reject decision stream:

``candidate_mode="batched"`` (default)
    Each block is scored in one
    :meth:`~repro.partition.state.EvaluationState.trial_moves` call
    (one ``retime_batch`` stacked sweep per touched module pair);
    accepted moves are applied directly and only the still-pending
    remainder of the block is invalidated and rescored — rejections
    cost nothing.

``candidate_mode="sequential"``
    The reference path: each proposal pays one ``trial_cost`` (one
    incremental retime, DESIGN §8.4) and an exact-undo
    rollback on reject.

A proposal drawn against the block-start state may be invalidated by an
earlier acceptance in the same block (its gate already sits in the
target); both modes skip such proposals under the same live-state test,
so the streams stay aligned.  ``_propose_move`` never proposes out of a
single-gate module (the same guard KL's sampler applies), so annealing
preserves the module count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro import obs
from repro.errors import OptimizationError
from repro.optimize.result import GenerationRecord, OptimizationResult
from repro.optimize.start import chain_start_partition, estimate_module_count
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition

__all__ = ["AnnealingParams", "anneal_partition"]


@dataclass(frozen=True)
class AnnealingParams:
    """Geometric-cooling schedule parameters."""

    initial_temperature: float = 50.0
    cooling: float = 0.95
    steps_per_temperature: int = 40
    min_temperature: float = 1e-3
    penalty: float = 1.0e4
    candidate_mode: str = "batched"
    proposal_block: int = 16

    def __post_init__(self) -> None:
        if not 0 < self.cooling < 1:
            raise OptimizationError("cooling factor must be in (0, 1)")
        if self.initial_temperature <= self.min_temperature:
            raise OptimizationError("initial temperature must exceed the minimum")
        if self.steps_per_temperature < 1:
            raise OptimizationError("steps_per_temperature must be >= 1")
        if self.proposal_block < 1:
            raise OptimizationError("proposal_block must be >= 1")
        if self.candidate_mode not in ("batched", "sequential"):
            raise OptimizationError(
                f"candidate_mode must be 'batched' or 'sequential', "
                f"not {self.candidate_mode!r}"
            )


class _Walk:
    """Shared accept/reject bookkeeping for one annealing run.

    Both candidate modes feed decisions through :meth:`decide` so the
    accept-draw consumption (``rng.random()`` only on uphill deltas),
    cost tracking, best-state snapshots, and the optional decision-trace
    seam stay textually identical between them.
    """

    def __init__(self, state, rng, cost, penalty, decisions):
        self.state = state
        self.rng = rng
        self.cost = cost
        self.penalty = penalty
        self.best_cost = cost
        self.best_state = state.copy()
        self.evaluations = 0
        self.accepted = 0
        self.decisions = decisions
        # EWMA of the accept rate, driving speculative block sizing.
        # Decisions are identical across candidate modes, so both modes
        # compute the same block sizes and the draw order stays pinned.
        self.accept_ewma = 1.0

    def block_size(self, cap: int, remaining: int) -> int:
        """Speculation depth = half the expected run to the next
        acceptance: an acceptance mid-block throws away every score
        after it, so depth only grows (and the stacked kernel only
        engages) when rejections dominate — a hot walk degenerates to
        sequential scoring instead of rescoring O(block²) candidates,
        while a cold walk speculates up to the full ``cap``."""
        depth = int(0.5 / max(self.accept_ewma, 0.5 / cap))
        return max(1, min(cap, depth, remaining))

    def decide(self, new_cost: float, temperature: float) -> bool:
        """The pinned-accept-draw decision: uphill deltas consume one
        uniform draw, downhill deltas none."""
        delta = new_cost - self.cost
        return delta <= 0 or self.rng.random() < math.exp(-delta / temperature)

    def accepted_move(self, gate: int, target: int, new_cost: float) -> None:
        self.cost = new_cost
        self.accepted += 1
        self.accept_ewma = 0.98 * self.accept_ewma + 0.02
        if new_cost < self.best_cost:
            self.best_cost = new_cost
            self.best_state = self.state.copy()
        if self.decisions is not None:
            self.decisions.append((gate, target, True, new_cost))

    def rejected_move(self, gate: int, target: int, new_cost: float) -> None:
        self.accept_ewma = 0.98 * self.accept_ewma
        if self.decisions is not None:
            self.decisions.append((gate, target, False, new_cost))


def anneal_partition(
    evaluator: PartitionEvaluator,
    params: AnnealingParams | None = None,
    seed: int | None = None,
    start: Partition | None = None,
    _decisions: list | None = None,
) -> OptimizationResult:
    """Simulated annealing over boundary-gate moves.

    ``_decisions`` is a test seam: pass a list and every consumed
    proposal appends ``(gate, target, accepted, scored_cost)`` — the
    decision stream the batched/sequential bit-identity test compares.
    """
    params = params or AnnealingParams()
    rng = random.Random(seed)
    if start is None:
        k = estimate_module_count(evaluator)
        start = chain_start_partition(evaluator, k, rng)

    state = evaluator.new_state(start)
    cost = state.penalized_cost(params.penalty)
    walk = _Walk(state, rng, cost, params.penalty, _decisions)
    walk.evaluations = 1
    history: list[GenerationRecord] = []
    batched = params.candidate_mode == "batched"

    temperature = params.initial_temperature
    sweep = 0
    while temperature > params.min_temperature:
        sweep += 1
        walk.accepted = 0
        remaining = params.steps_per_temperature
        while remaining > 0:
            block = walk.block_size(params.proposal_block, remaining)
            remaining -= block
            # Pinned draw order: the whole block's proposals are drawn
            # against the block-start state before any decision fires.
            proposals = [_propose_move(state, rng) for _ in range(block)]
            if batched:
                _walk_batched(walk, proposals, temperature)
            else:
                _walk_sequential(walk, proposals, temperature)
        history.append(
            GenerationRecord(
                generation=sweep,
                best_cost=walk.best_cost,
                best_feasible=walk.best_state.constraint_report().feasible,
                mean_cost=walk.cost,
                num_modules=walk.best_state.partition.num_modules,
                evaluations=walk.evaluations,
            )
        )
        temperature *= params.cooling

    return OptimizationResult(
        best=evaluator.evaluation_of(walk.best_state),
        history=history,
        generations_run=sweep,
        evaluations=walk.evaluations,
        converged=True,
        seed=seed,
        optimizer="annealing",
    )


def _walk_sequential(walk: _Walk, proposals, temperature: float) -> None:
    """Score-and-decide one proposal at a time through ``trial_cost``."""
    state = walk.state
    for proposal in proposals:
        if proposal is None:
            continue
        gate, target, _source = proposal
        if not _still_valid(state.partition, gate, target):
            continue
        new_cost = state.trial_cost([(gate, target)], walk.penalty)
        walk.evaluations += 1
        if walk.decide(new_cost, temperature):
            state.commit()
            walk.accepted_move(gate, target, new_cost)
        else:
            # Rejected: the trial journal restores the exact prior
            # state (no reverse-move drift, no module resurrection).
            state.rollback()
            walk.rejected_move(gate, target, new_cost)


def _walk_batched(walk: _Walk, proposals, temperature: float) -> None:
    """Score the still-pending block in one ``trial_moves`` call, consume
    decisions from the precomputed deltas, and invalidate-and-rescore
    only the remainder of the block after each acceptance (a rejection
    leaves every pending score exact).  A pending set below the stacking
    break-even hands the tail to :func:`_walk_sequential` — the kernel's
    fixed cost (one stacked level sweep) exceeds a handful of
    sequential trials, and ``trial_cost`` scores are bit-identical,
    so a hot walk degenerates to sequential cost instead of paying the
    trial twice per acceptance."""
    state = walk.state
    start = 0
    counter = "optimizer.batch.size"
    while start < len(proposals):
        pending = [
            (i, proposals[i][0], proposals[i][1])
            for i in range(start, len(proposals))
            if proposals[i] is not None
            and _still_valid(state.partition, proposals[i][0], proposals[i][1])
        ]
        if not pending:
            return
        if len(pending) < 8:
            _walk_sequential(walk, proposals[start:], temperature)
            return
        fresh = state.trial_moves([[(p[1], p[2])] for p in pending], walk.penalty)
        walk.evaluations += len(pending)
        obs.METRICS.inc(counter, len(pending))
        counter = "optimizer.batch.rescore"
        # Rejections don't mutate the state, so every pending score (and
        # the validity filter above) stays exact until the next
        # acceptance — which invalidates the remainder and loops back.
        accepted = False
        for (i, gate, target), new_cost in zip(pending, map(float, fresh)):
            if walk.decide(new_cost, temperature):
                state.move_gate(gate, target)
                walk.accepted_move(gate, target, new_cost)
                start = i + 1
                accepted = True
                break
            walk.rejected_move(gate, target, new_cost)
        if not accepted:
            return


def _still_valid(partition: Partition, gate: int, target: int) -> bool:
    """A block proposal may be stale: an earlier acceptance can have
    moved its gate into the target already, or shrunk its module to a
    single gate.  Both walk modes apply this same live-state test, so
    their decision streams stay aligned."""
    module = partition.module_of(gate)
    return module != target and partition.module_size(module) >= 2


def _propose_move(state, rng: random.Random):
    """A random boundary-gate move: (gate, target, source) or None."""
    partition = state.partition
    if partition.num_modules < 2:
        return None
    module = rng.choice(partition.module_ids)
    if partition.module_size(module) < 2:
        return None  # moving the last gate out would delete the module
    boundary = partition.boundary_gates(module)
    if not boundary:
        return None
    gate = rng.choice(boundary)
    targets = partition.neighbor_modules(gate)
    if not targets:
        return None
    return gate, rng.choice(targets), module
