"""The paper's evolution strategy for PART-IDDQ (paper §4).

One cycle = recombination (duplication of a single parent), mutation,
selection:

* each of the μ parents is copied λ times; each copy has between 1 and
  ``min(m, #boundary gates)`` randomly chosen boundary gates of a random
  module moved into a module they are connected with;
* additionally χ *Monte-Carlo* children per parent move a random number
  of random gates of a random module into a random (not necessarily
  connected) module — the high-variance descendants that "reduce the
  probability of being caught in a local minimum"; a fully emptied
  module is deleted;
* every descendant's step width ``m`` is redrawn from a normal
  distribution around its parent's (standard deviation ε);
* selection keeps the best μ of {parents younger than the maximum
  lifetime κ} ∪ {descendants}.

Children are *proposals*, not states: each is an ordered list of
``(gate, target)`` moves drawn against the parent's unmutated
:class:`~repro.partition.partition.Partition` (a mutated child's later
neighbour queries see its own earlier moves through a small
gate→target overlay), and all λ+χ children of one parent are scored in
one :meth:`~repro.partition.state.EvaluationState.trial_moves` call
against the parent's live state.  The kernel recomputes costs "just
for the modified modules" (§4.2) in closed form, scores bit-identical
to applying each list in a trial and rolling back, and its ``D_BIC``
is one stacked re-timing sweep (DESIGN §8.3-8.4).  Because the parent
never mutates, its version-keyed boundary and membership caches serve
every sibling, and scoring consumes no random numbers, so the draw
sequence is the one per-child trials produced.  Only the μ selection
survivors materialise a state: a dense-array copy of the parent plus
a replay of the recorded moves.  The boundary-gate and
connected-target queries are batched CSR scans over the compiled graph
(see DESIGN.md), so mutation cost stays proportional to module size,
not circuit size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import obs
from repro.config import EvolutionParams
from repro.errors import OptimizationError
from repro.optimize.result import GenerationRecord, OptimizationResult
from repro.optimize.start import estimate_module_count, start_population
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition

__all__ = ["EvolutionOptimizer", "evolve_partition"]


@dataclass
class _Individual:
    """One population member: ES bookkeeping plus either a live
    evaluation state (parents) or a recorded move list relative to the
    parent's state (unselected children never materialise one)."""

    cost: float
    step: float
    age: int = 0
    state: object | None = None
    parent_state: object | None = None
    moves: list[tuple[int, int]] = field(default_factory=list)

    def materialize(self):
        """The individual's live state, building it on first need by
        copying the parent and replaying the recorded moves (bit-identical
        statistics to the scored move list)."""
        if self.state is None:
            state = self.parent_state.copy()
            i = 0
            while i < len(self.moves):  # replay maximal same-target runs
                target = self.moves[i][1]
                j = i + 1
                while j < len(self.moves) and self.moves[j][1] == target:
                    j += 1
                state.move_gates([gate for gate, _ in self.moves[i:j]], target)
                i = j
            self.state = state
            self.parent_state = None
        return self.state


class EvolutionOptimizer:
    """Reusable ES driver bound to one evaluator.

    Use :func:`evolve_partition` for the one-call version.
    """

    def __init__(
        self,
        evaluator: PartitionEvaluator,
        params: EvolutionParams | None = None,
        seed: int | None = None,
    ):
        self.evaluator = evaluator
        self.params = params or EvolutionParams()
        self.rng = random.Random(seed)
        self.seed = seed

    # ----------------------------------------------------------------- driver
    def run(self, starts: list[Partition] | None = None) -> OptimizationResult:
        params = self.params
        rng = self.rng
        if starts is None:
            k = estimate_module_count(self.evaluator)
            starts = start_population(self.evaluator, k, params.mu, rng)
        if not starts:
            raise OptimizationError("evolution needs at least one start partition")

        evaluations = 0
        parents: list[_Individual] = []
        for partition in starts:
            state = self.evaluator.new_state(partition)
            cost = state.penalized_cost(params.penalty)
            evaluations += 1
            parents.append(
                _Individual(cost, step=float(params.max_moved_gates), state=state)
            )

        best = min(parents, key=lambda ind: ind.cost)
        best_snapshot = best.state.copy()
        best_cost = best.cost
        history: list[GenerationRecord] = []
        stale = 0
        generation = 0
        converged = False

        for generation in range(1, params.generations + 1):
            children: list[_Individual] = []
            for parent in parents:
                children.extend(self._brood(parent))
            evaluations += len(children)

            for parent in parents:
                parent.age += 1
            pool = [p for p in parents if p.age < params.max_lifetime] + children
            if not pool:
                pool = children or parents
            pool.sort(key=lambda ind: ind.cost)
            parents = pool[: params.mu]
            for survivor in parents:
                survivor.materialize()

            generation_best = parents[0]
            if generation_best.cost < best_cost - 1e-12:
                best_cost = generation_best.cost
                best_snapshot = generation_best.state.copy()
                stale = 0
            else:
                stale += 1
            mean_cost = sum(ind.cost for ind in parents) / len(parents)
            history.append(
                GenerationRecord(
                    generation=generation,
                    best_cost=best_cost,
                    best_feasible=best_snapshot.constraint_report().feasible,
                    mean_cost=mean_cost,
                    num_modules=best_snapshot.partition.num_modules,
                    evaluations=evaluations,
                )
            )
            if stale >= params.convergence_window:
                converged = True
                break

        evaluation = self.evaluator.evaluation_of(best_snapshot)
        return OptimizationResult(
            best=evaluation,
            history=history,
            generations_run=generation,
            evaluations=evaluations,
            converged=converged,
            seed=self.seed,
            optimizer="evolution",
        )

    # -------------------------------------------------------------- operators
    def _child_step(self, parent_step: float) -> float:
        """Normal perturbation of the step width (paper: "The new m is
        subject to normal distribution with variance ε around the m of
        the step before")."""
        return max(1.0, self.rng.gauss(parent_step, self.params.step_std))

    def _brood(self, parent: _Individual) -> list[_Individual]:
        """Draw the parent's λ mutated and χ Monte-Carlo children, then
        score all of them in one gain-kernel call."""
        params = self.params
        drawn = [self._mutated_child(parent) for _ in range(params.children_per_parent)]
        drawn += [
            self._monte_carlo_child(parent)
            for _ in range(params.monte_carlo_per_parent)
        ]
        costs = parent.state.trial_moves([moves for _, moves in drawn], params.penalty)
        obs.METRICS.inc("optimizer.batch.size", len(drawn))
        return [
            _Individual(cost, step=step, parent_state=parent.state, moves=moves)
            for (step, moves), cost in zip(drawn, costs.tolist())
        ]

    def _mutated_child(self, parent: _Individual) -> tuple[float, list]:
        """Step width and moves: up to ``step`` boundary gates of one
        random module, each into a module it is connected with."""
        rng = self.rng
        partition = parent.state.partition
        step = self._child_step(parent.step)
        moves: list[tuple[int, int]] = []
        if partition.num_modules >= 2:
            module = rng.choice(partition.module_ids)
            boundary = partition.boundary_gates(module)
            if boundary:
                limit = min(int(step), len(boundary))
                count = rng.randint(1, max(1, limit))
                # Sampled gates are distinct, so each is still in
                # ``module`` when its turn comes; the overlay shows its
                # neighbours where this child's earlier moves put them.
                overlay: dict[int, int] = {}
                for gate in rng.sample(boundary, count):
                    targets = partition.neighbor_modules(gate, overlay)
                    if targets:
                        target = rng.choice(targets)
                        overlay[gate] = target
                        moves.append((gate, target))
        return step, moves

    def _monte_carlo_child(self, parent: _Individual) -> tuple[float, list]:
        """Step width and moves: a random block of one random module into
        another random (not necessarily connected) module."""
        rng = self.rng
        partition = parent.state.partition
        step = self._child_step(parent.step)
        moves: list[tuple[int, int]] = []
        if partition.num_modules >= 2:
            source = rng.choice(partition.module_ids)
            targets = [m for m in partition.module_ids if m != source]
            target = rng.choice(targets)
            gates = partition.gates_array(source).tolist()  # ascending
            count = rng.randint(1, len(gates))
            moves = [(gate, target) for gate in rng.sample(gates, count)]
        return step, moves


def evolve_partition(
    evaluator: PartitionEvaluator,
    params: EvolutionParams | None = None,
    seed: int | None = None,
    starts: list[Partition] | None = None,
) -> OptimizationResult:
    """Run the paper's evolution strategy once and return the result."""
    return EvolutionOptimizer(evaluator, params=params, seed=seed).run(starts)
