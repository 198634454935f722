"""Tests for the transactional move protocol (trial / commit / rollback).

The contract under test: a rolled-back trial restores the *exact* prior
state — byte-for-byte arrays, the exact prior penalised cost (``==``,
not approx), partition version and membership — for both the dense
array-backed state and the reference dict-based one.  Hypothesis drives
random interleavings of committed moves, rolled-back trials and
committed trials through ``consistency_check()``.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.optimize.kl import swap_candidates
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition

IMPLS = ["dense", "reference"]


def balanced_partition(circuit, k):
    n = len(circuit.gate_names)
    return Partition(circuit, {g: g % k for g in range(n)})


def _random_move(state, rng):
    """A random legal (gate, target) move or None."""
    partition = state.partition
    n = len(partition.circuit.gate_names)
    for _ in range(8):
        gate = rng.randrange(n)
        targets = [
            m for m in partition.module_ids if m != partition.module_of(gate)
        ]
        if targets:
            return gate, rng.choice(targets)
    return None


@pytest.fixture(params=IMPLS)
def impl(request):
    return request.param


class TestTrialProtocol:
    def test_rollback_restores_exact_cost(self, small_evaluator, impl, rng):
        state = small_evaluator.new_state(
            balanced_partition(small_evaluator.circuit, 4), impl=impl
        )
        before = state.penalized_cost(1e4)
        version = state.partition.version
        canonical = state.partition.canonical()
        state.begin_trial()
        for _ in range(5):
            move = _random_move(state, rng)
            if move:
                state.move_gate(*move)
        assert state.penalized_cost(1e4) != before  # the trial really moved
        state.rollback()
        assert state.penalized_cost(1e4) == before
        # Versions are never reused: a rolled-back partition moves to a
        # fresh version so version-keyed caches can't serve trial data.
        assert state.partition.version > version
        assert state.partition.canonical() == canonical
        state.consistency_check()

    def test_commit_keeps_moves(self, small_evaluator, impl):
        state = small_evaluator.new_state(
            balanced_partition(small_evaluator.circuit, 3), impl=impl
        )
        cost = state.trial_cost([(0, 1), (1, 2)], 1e4)
        state.commit()
        assert state.partition.module_of(0) == 1
        assert state.partition.module_of(1) == 2
        assert state.penalized_cost(1e4) == cost
        state.consistency_check()

    def test_rollback_resurrects_dead_module(self, small_evaluator, impl):
        circuit = small_evaluator.circuit
        n = len(circuit.gate_names)
        assignment = {g: (0 if g == 0 else 1 + g % 2) for g in range(n)}
        state = small_evaluator.new_state(Partition(circuit, assignment), impl=impl)
        before = state.penalized_cost(1e4)
        state.begin_trial()
        state.move_gate(0, 1)  # module 0 dies
        assert 0 not in state.partition.module_ids
        state.penalized_cost(1e4)
        state.rollback()
        assert 0 in state.partition.module_ids
        assert state.partition.gates_of(0) == frozenset({0})
        assert state.penalized_cost(1e4) == before
        state.consistency_check()

    def test_committed_moves_erase_rolled_back_trials(self, small_evaluator, impl):
        state = small_evaluator.new_state(
            balanced_partition(small_evaluator.circuit, 3), impl=impl
        )
        state.trial_cost([(0, 1)], 1e4)
        state.commit()
        state.trial_cost([(1, 2)], 1e4)
        state.rollback()
        assert state.committed_moves() == [(0, 1)]

    def test_nested_and_missing_trials_rejected(self, small_evaluator, impl):
        state = small_evaluator.new_state(
            balanced_partition(small_evaluator.circuit, 3), impl=impl
        )
        with pytest.raises(PartitionError):
            state.commit()
        with pytest.raises(PartitionError):
            state.rollback()
        state.begin_trial()
        with pytest.raises(PartitionError):
            state.begin_trial()
        with pytest.raises(PartitionError):
            state.copy()
        with pytest.raises(PartitionError):
            state.split_new_module([0, 1])
        with pytest.raises(PartitionError):
            state.merge_modules(0, 1)
        state.rollback()

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 10_000))
    def test_random_apply_trial_undo_sequences(self, small_evaluator, impl, seed):
        """Any interleaving of committed moves, rolled-back trials and
        committed trials leaves every cache equal to a rebuild, and every
        rollback restores the exact prior cost."""
        rng = random.Random(seed)
        state = small_evaluator.new_state(
            balanced_partition(small_evaluator.circuit, 4), impl=impl
        )

        def apply_legal(moves):
            partition = state.partition
            applied = 0
            for gate, target in moves:
                if (
                    target in partition.module_ids
                    and partition.module_of(gate) != target
                ):
                    state.move_gate(gate, target)
                    applied += 1
            return applied

        cost = state.penalized_cost(1e4)
        for _ in range(10):
            action = rng.random()
            moves = []
            for _ in range(rng.randint(1, 3)):
                move = _random_move(state, rng)
                if move is None:
                    break
                moves.append(move)
            if not moves:
                break
            if action < 0.35:  # plain committed moves, no trial
                apply_legal(moves)
                cost = state.penalized_cost(1e4)
            elif action < 0.7:  # trial, then exact rollback
                state.begin_trial()
                if apply_legal(moves):
                    state.penalized_cost(1e4)
                state.rollback()
                assert state.penalized_cost(1e4) == cost
            else:  # trial, then commit
                state.begin_trial()
                apply_legal(moves)
                cost = state.penalized_cost(1e4)
                state.commit()
        state.consistency_check()

    def test_split_and_merge_rebuild_only_touched(self, small_evaluator, impl):
        state = small_evaluator.new_state(
            balanced_partition(small_evaluator.circuit, 3), impl=impl
        )
        state.penalized_cost(1e4)
        new_id = state.split_new_module([0, 3, 6])
        assert state.partition.module_size(new_id) == 3
        state.consistency_check()
        state.merge_modules(0, new_id)
        state.consistency_check()
        fresh = small_evaluator.new_state(state.partition.copy(), impl=impl)
        assert state.penalized_cost(1e4) == pytest.approx(fresh.penalized_cost(1e4))


class TestGainKernel:
    """The batched dense gain kernel vs per-candidate trials."""

    def _candidates(self, partition):
        out = []
        for module in partition.module_ids:
            for gate in partition.boundary_gates(module):
                for target in partition.neighbor_modules(gate):
                    out.append((gate, target))
        return out

    def test_batched_matches_sequential_trials(self, small_evaluator):
        state = small_evaluator.new_state(
            balanced_partition(small_evaluator.circuit, 4)
        )
        state.penalized_cost(1e4)
        candidates = self._candidates(state.partition)
        assert candidates
        batched = state.trial_moves([[c] for c in candidates], 1e4)
        for i in (0, len(candidates) // 2, len(candidates) - 1):
            sequential = state.trial_cost([candidates[i]], 1e4)
            state.rollback()
            assert batched[i] == sequential

    def test_batched_matches_reference_loop(self, small_evaluator):
        partition = balanced_partition(small_evaluator.circuit, 4)
        dense = small_evaluator.new_state(partition)
        reference = small_evaluator.new_state(partition, impl="reference")
        candidates = self._candidates(dense.partition)
        batched = dense.trial_moves([[c] for c in candidates], 1e4)
        looped = reference.trial_moves([[c] for c in candidates], 1e4)
        np.testing.assert_allclose(batched, looped, rtol=1e-12, atol=1e-12)

    def test_kernel_leaves_state_untouched(self, small_evaluator):
        state = small_evaluator.new_state(
            balanced_partition(small_evaluator.circuit, 4)
        )
        before = state.penalized_cost(1e4)
        candidates = self._candidates(state.partition)
        state.trial_moves([[c] for c in candidates], 1e4)
        assert state.penalized_cost(1e4) == before
        state.consistency_check()

    def test_dying_source_candidates(self, small_evaluator):
        """Candidates that empty their source module score the K-1 cost."""
        circuit = small_evaluator.circuit
        n = len(circuit.gate_names)
        assignment = {g: (0 if g == 0 else 1 + g % 2) for g in range(n)}
        state = small_evaluator.new_state(Partition(circuit, assignment))
        state.penalized_cost(1e4)
        targets = state.partition.neighbor_modules(0) or (1,)
        batched = state.trial_moves([[(0, targets[0])]], 1e4)
        sequential = state.trial_cost([(0, targets[0])], 1e4)
        state.rollback()
        assert batched[0] == sequential


def _swaps(state, pool):
    """KL exchanges as two-move kernel candidates."""
    return swap_candidates(state.partition, [c[0] for c in pool], [c[1] for c in pool])


class TestSwapKernel:
    """KL swaps — two-move candidates — through the kernel vs
    per-candidate trials."""

    def _swap_candidates(self, partition):
        """Every (gate_a, gate_b, module_a, module_b) boundary exchange."""
        out = []
        for module_a in partition.module_ids:
            if partition.module_size(module_a) < 2:
                continue
            for gate_a in partition.boundary_gates(module_a):
                for module_b in partition.neighbor_modules(gate_a):
                    for gate_b in partition.gates_adjacent_to(module_b, module_a):
                        out.append((gate_a, gate_b, module_a, module_b))
        return out

    def _sequential(self, state, candidates):
        costs = []
        for gate_a, gate_b, module_a, module_b in candidates:
            costs.append(
                state.trial_cost([(gate_a, module_b), (gate_b, module_a)], 1e4)
            )
            state.rollback()
        return costs

    def test_grouped_pool_matches_sequential(self, small_evaluator):
        """A dense pool (many swaps of one module pair) scores exactly
        as sequential trials."""
        state = small_evaluator.new_state(
            balanced_partition(small_evaluator.circuit, 4)
        )
        state.penalized_cost(1e4)
        candidates = self._swap_candidates(state.partition)
        pair = (candidates[0][2], candidates[0][3])
        pool = [c for c in candidates if (c[2], c[3]) == pair]
        assert len(pool) >= 8, "fixture must stack one module pair"
        batched = state.trial_moves(_swaps(state, pool), 1e4)
        assert list(batched) == self._sequential(state, pool)

    def test_scattered_pool_matches_sequential(self, small_evaluator):
        """A scattered pool (~one swap per module pair) shares one
        union-column sweep and still scores exactly as sequential."""
        state = small_evaluator.new_state(
            balanced_partition(small_evaluator.circuit, 4)
        )
        state.penalized_cost(1e4)
        seen, pool = set(), []
        for c in self._swap_candidates(state.partition):
            if (c[2], c[3]) not in seen:
                seen.add((c[2], c[3]))
                pool.append(c)
        assert len(pool) >= 4, "fixture must scatter across module pairs"
        batched = state.trial_moves(_swaps(state, pool), 1e4)
        assert list(batched) == self._sequential(state, pool)

    def test_matches_reference_loop(self, small_evaluator):
        partition = balanced_partition(small_evaluator.circuit, 4)
        dense = small_evaluator.new_state(partition)
        reference = small_evaluator.new_state(partition, impl="reference")
        pool = self._swap_candidates(dense.partition)[:24]
        batched = dense.trial_moves(_swaps(dense, pool), 1e4)
        looped = reference.trial_moves(_swaps(reference, pool), 1e4)
        np.testing.assert_allclose(batched, looped, rtol=1e-12, atol=1e-12)

    def test_kernel_leaves_state_untouched(self, small_evaluator):
        state = small_evaluator.new_state(
            balanced_partition(small_evaluator.circuit, 4)
        )
        before = state.penalized_cost(1e4)
        pool = self._swap_candidates(state.partition)[:16]
        state.trial_moves(_swaps(state, pool), 1e4)
        assert state.penalized_cost(1e4) == before
        state.consistency_check()

    def test_rejects_degenerate_candidates(self, small_evaluator):
        circuit = small_evaluator.circuit
        state = small_evaluator.new_state(balanced_partition(circuit, 4))
        state.penalized_cost(1e4)
        with pytest.raises(PartitionError, match="single module"):
            swap_candidates(state.partition, [0], [4])  # both in module 0
        n = len(circuit.gate_names)
        assignment = {g: (0 if g == 0 else 1 + g % 2) for g in range(n)}
        lone = small_evaluator.new_state(Partition(circuit, assignment))
        lone.penalized_cost(1e4)
        with pytest.raises(PartitionError, match="1-gate"):
            lone.trial_moves(swap_candidates(lone.partition, [0], [1]), 1e4)
        with pytest.raises(PartitionError, match="equally many"):
            swap_candidates(state.partition, [0, 1], [4])


def _random_candidate(partition, rng, kind):
    """One random move list of ``kind``, valid against ``partition``:
    every target is alive when its move comes (emptied modules are
    tracked through an overlay, as sequential application would)."""
    where: dict[int, int] = {}
    sizes = {m: partition.module_size(m) for m in partition.module_ids}
    moves: list[tuple[int, int]] = []

    def move(gate, target):
        source = where.get(gate, partition.module_of(gate))
        where[gate] = target
        sizes[source] -= 1
        sizes[target] += 1
        if not sizes[source]:
            del sizes[source]
        moves.append((gate, target))

    modules = list(partition.module_ids)
    if kind == "empty" or len(modules) < 2:
        return moves
    if kind == "block":  # whole-module Monte-Carlo block: the source dies
        source = rng.choice(modules)
        target = rng.choice([m for m in modules if m != source])
        gates = partition.gates_array(source).tolist()
        for gate in rng.sample(gates, len(gates)):
            move(gate, target)
    elif kind == "drain":  # empty the smallest module into several targets
        source = min(modules, key=partition.module_size)
        for gate in partition.gates_array(source).tolist():
            move(gate, rng.choice([m for m in sizes if m != source]))
    else:  # "scatter": multi-source, multi-target, gates may move twice
        n = len(partition.circuit.gate_names)
        for _ in range(rng.randint(2, 12)):
            gate = rng.randrange(n)
            here = where.get(gate, partition.module_of(gate))
            targets = [m for m in sizes if m != here]
            if targets:
                move(gate, rng.choice(targets))
    return moves


def _lopsided_partition(circuit):
    """Four modules, two of them tiny (1 and 3 gates)."""
    n = len(circuit.gate_names)
    assignment = {g: 2 + g % 2 for g in range(n)}
    assignment[0] = 0
    for g in (1, 2, 3):
        assignment[g] = 1
    return Partition(circuit, assignment)


class TestMoveListKernel:
    """``trial_moves`` on whole move lists equals ``trial_cost`` plus
    ``rollback`` per candidate, bit for bit."""

    KINDS = ("empty", "block", "drain", "scatter", "scatter", "scatter")

    @pytest.fixture(params=["module-max", "time-resolved", "infeasible"])
    def evaluator(self, request, small_evaluator):
        """Both degradation settings, plus a technology whose IDDQ
        threshold every module violates, so leakage enters every cost
        through the penalty's violation term."""
        if request.param == "module-max":
            return small_evaluator
        technology = small_evaluator.technology
        if request.param == "infeasible":
            technology = dataclasses.replace(technology, iddq_threshold_ua=1e-3)
        return PartitionEvaluator(
            small_evaluator.circuit,
            technology=technology,
            time_resolved_degradation=request.param == "time-resolved",
            separation=small_evaluator.separation,
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_lists_match_sequential_trials(self, evaluator, impl, seed):
        rng = random.Random(seed)
        circuit = evaluator.circuit
        partition = (
            _lopsided_partition(circuit)
            if seed % 2
            else balanced_partition(circuit, 3 + seed)
        )
        state = evaluator.new_state(partition, impl=impl)
        state.penalized_cost(1e4)
        candidates = [
            _random_candidate(state.partition, rng, kind)
            for kind in self.KINDS * 3
        ]
        assert any(len(c) >= 2 for c in candidates)
        batched = state.trial_moves(candidates, 1e4)
        sequential = []
        for candidate in candidates:
            sequential.append(state.trial_cost(candidate, 1e4))
            state.rollback()
        assert batched.tolist() == sequential
        state.consistency_check()

    def test_dense_matches_reference(self, evaluator):
        rng = random.Random(11)
        partition = _lopsided_partition(evaluator.circuit)
        dense = evaluator.new_state(partition)
        reference = evaluator.new_state(partition, impl="reference")
        candidates = [
            _random_candidate(dense.partition, rng, kind) for kind in self.KINDS * 2
        ]
        np.testing.assert_allclose(
            dense.trial_moves(candidates, 1e4),
            reference.trial_moves(candidates, 1e4),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_materialised_lists_match_their_scores(self, small_evaluator):
        """A survivor built by copy plus ``move_gates`` replay carries
        exactly the cost its move list was scored at."""
        rng = random.Random(5)
        state = small_evaluator.new_state(_lopsided_partition(small_evaluator.circuit))
        state.penalized_cost(1e4)
        for kind in ("block", "drain", "scatter"):
            candidate = _random_candidate(state.partition, rng, kind)
            (score,) = state.trial_moves([candidate], 1e4)
            child = state.copy()
            for gate, target in candidate:
                child.move_gates([gate], target)
            assert child.penalized_cost(1e4) == score
            child.consistency_check()

    def test_rejects_invalid_lists_like_sequential(self, small_evaluator, impl):
        state = small_evaluator.new_state(
            _lopsided_partition(small_evaluator.circuit), impl=impl
        )
        state.penalized_cost(1e4)
        before = state.penalized_cost(1e4)
        invalid = [
            [(5, state.partition.module_of(5))],  # into its own module
            [(5, 99)],  # missing module
            [(0, 1), (5, 0)],  # module 0 (1 gate) emptied, then targeted
        ]
        for candidate in invalid:
            with pytest.raises(PartitionError):
                state.trial_moves([[], candidate], 1e4)
            with pytest.raises(PartitionError):
                state.trial_cost(candidate, 1e4)
        assert state.penalized_cost(1e4) == before
        state.begin_trial()
        with pytest.raises(PartitionError):
            state.trial_moves([[]], 1e4)
        state.rollback()
