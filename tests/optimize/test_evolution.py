"""Tests for the evolution strategy."""

import random

import pytest

from repro.config import EvolutionParams
from repro.netlist.benchmarks import load_iscas85
from repro.optimize.evolution import EvolutionOptimizer, _Individual, evolve_partition
from repro.optimize.start import start_population
from repro.partition.evaluator import PartitionEvaluator


class TestBasicRun:
    def test_produces_feasible_result(self, small_evaluator, quick_es_params):
        result = evolve_partition(small_evaluator, quick_es_params, seed=1)
        assert result.feasible
        assert result.best.partition.num_modules >= 1
        result.best.partition.check_invariants()

    def test_improves_over_start(self, small_evaluator, quick_es_params):
        rng = random.Random(2)
        starts = start_population(small_evaluator, 4, quick_es_params.mu, rng)
        start_costs = [
            small_evaluator.new_state(p).penalized_cost(quick_es_params.penalty)
            for p in starts
        ]
        result = evolve_partition(
            small_evaluator, quick_es_params, seed=2, starts=starts
        )
        assert result.best_cost <= min(start_costs) + 1e-9

    def test_seed_reproducibility(self, small_evaluator, quick_es_params):
        a = evolve_partition(small_evaluator, quick_es_params, seed=7)
        b = evolve_partition(small_evaluator, quick_es_params, seed=7)
        assert a.best_cost == pytest.approx(b.best_cost)
        assert a.best.partition.canonical() == b.best.partition.canonical()

    def test_history_best_monotone(self, small_evaluator, quick_es_params):
        result = evolve_partition(small_evaluator, quick_es_params, seed=3)
        costs = [record.best_cost for record in result.history]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_counts_evaluations(self, small_evaluator, quick_es_params):
        result = evolve_partition(small_evaluator, quick_es_params, seed=4)
        per_generation = quick_es_params.mu * (
            quick_es_params.children_per_parent + quick_es_params.monte_carlo_per_parent
        )
        assert result.evaluations >= result.generations_run * per_generation


class TestConvergence:
    def test_early_stop_flag(self, c17_evaluator):
        params = EvolutionParams(
            mu=3,
            children_per_parent=2,
            monte_carlo_per_parent=1,
            generations=200,
            convergence_window=5,
        )
        result = evolve_partition(c17_evaluator, params, seed=5)
        assert result.converged
        assert result.generations_run < 200

    def test_generation_budget_respected(self, small_evaluator):
        params = EvolutionParams(
            mu=2,
            children_per_parent=2,
            monte_carlo_per_parent=0,
            generations=4,
            convergence_window=50,
        )
        result = evolve_partition(small_evaluator, params, seed=6)
        assert result.generations_run == 4
        assert not result.converged


class TestOperators:
    def test_explicit_starts_used(self, c17_evaluator, c17_paper, quick_es_params):
        from repro.partition.partition import Partition

        starts = [
            Partition.from_groups(c17_paper, [{"g1", "g3", "O2"}, {"g2", "g4", "O3"}])
        ]
        result = evolve_partition(
            c17_evaluator, quick_es_params, seed=8, starts=starts
        )
        # With the generic technology, merging into one module is optimal
        # for 6 gates; the ES must discover that via MC children.
        assert result.best.num_modules == 1

    def test_empty_starts_rejected(self, c17_evaluator, quick_es_params):
        from repro.errors import OptimizationError

        optimizer = EvolutionOptimizer(c17_evaluator, quick_es_params, seed=1)
        with pytest.raises(OptimizationError):
            optimizer.run([])

    def test_monte_carlo_disabled_still_works(self, small_evaluator):
        params = EvolutionParams(
            mu=3,
            children_per_parent=2,
            monte_carlo_per_parent=0,
            generations=10,
            convergence_window=10,
        )
        result = evolve_partition(small_evaluator, params, seed=9)
        assert result.feasible


class TestResultObject:
    def test_summary_renders(self, small_evaluator, quick_es_params):
        result = evolve_partition(small_evaluator, quick_es_params, seed=10)
        text = result.summary()
        assert "evolution" in text
        assert "cost=" in text


class _SequentialScoringES(EvolutionOptimizer):
    """Test oracle: every child is drawn *and* scored inside its own
    trial on the parent's live state — moves applied one by one, the
    penalised cost read, the trial rolled back — the per-child path the
    batched brood scoring replaces."""

    def _brood(self, parent):
        params = self.params
        state = parent.state
        children = []
        for monte_carlo in [False] * params.children_per_parent + [
            True
        ] * params.monte_carlo_per_parent:
            rng = self.rng
            partition = state.partition
            step = self._child_step(parent.step)
            moves = []
            state.begin_trial()
            if partition.num_modules >= 2 and monte_carlo:
                source = rng.choice(partition.module_ids)
                target = rng.choice([m for m in partition.module_ids if m != source])
                gates = partition.gates_array(source).tolist()
                for gate in rng.sample(gates, rng.randint(1, len(gates))):
                    state.move_gate(gate, target)
                    moves.append((gate, target))
            elif partition.num_modules >= 2:
                module = rng.choice(partition.module_ids)
                boundary = partition.boundary_gates(module)
                if boundary:
                    count = rng.randint(1, max(1, min(int(step), len(boundary))))
                    for gate in rng.sample(boundary, count):
                        targets = partition.neighbor_modules(gate)
                        if targets:
                            target = rng.choice(targets)
                            state.move_gate(gate, target)
                            moves.append((gate, target))
            cost = state.penalized_cost(params.penalty)
            state.rollback()
            children.append(
                _Individual(cost, step=step, parent_state=state, moves=moves)
            )
        return children


def _run_capturing_best_state(optimizer, starts):
    """Run ``optimizer`` and return (result, best state it evaluated)."""
    evaluator = optimizer.evaluator
    captured = []

    def evaluation_of(state):
        captured.append(state)
        return type(evaluator).evaluation_of(evaluator, state)

    evaluator.evaluation_of = evaluation_of
    try:
        result = optimizer.run(starts)
    finally:
        del evaluator.evaluation_of
    return result, captured[-1]


class TestBatchedBroodDecisionStream:
    """Scoring every brood in one gain-kernel call, against proposals
    drawn without touching the parent, reproduces the per-child trial
    ES exactly: same history, evaluations, best cost and moves."""

    # Wide steps and K=5 starts (the estimate gives K=2 here, where a
    # moved gate can only land in the one module its neighbours already
    # see) make a child's later neighbour queries depend on its earlier
    # moves, which is what the proposal overlay has to get right.
    PARAMS = EvolutionParams(
        mu=4,
        children_per_parent=4,
        monte_carlo_per_parent=2,
        max_moved_gates=12,
        generations=15,
        convergence_window=15,
    )

    @pytest.fixture(scope="class", params=["c432", "c880"])
    def evaluator(self, request):
        return PartitionEvaluator(load_iscas85(request.param))

    @pytest.mark.parametrize("seed", [1, 7, 1995])
    def test_matches_sequential_scoring(self, evaluator, seed):
        starts = start_population(evaluator, 5, self.PARAMS.mu, random.Random(seed))
        batched, batched_best = _run_capturing_best_state(
            EvolutionOptimizer(evaluator, self.PARAMS, seed=seed), starts
        )
        oracle, oracle_best = _run_capturing_best_state(
            _SequentialScoringES(evaluator, self.PARAMS, seed=seed), starts
        )
        assert batched.history == oracle.history
        assert batched.evaluations == oracle.evaluations
        assert batched.best_cost == oracle.best_cost
        assert batched_best.committed_moves() == oracle_best.committed_moves()
