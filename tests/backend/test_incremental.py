"""Incremental (event-driven) engine vs full re-simulation.

The event-driven replay's contract is *bit-identity*: patching a
baseline through :meth:`LogicSimulator.simulate_delta` must produce
exactly the packed words a full simulation of the new batch produces,
for any flip pattern — single column, many columns, no-op flips, and
chained walks where each step's result baselines the next.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faultsim.engine import CoverageEngine
from repro.faultsim.faults import sample_bridging_faults, sample_gate_oxide_shorts
from repro.faultsim.logic_sim import LogicSimulator
from repro.faultsim.patterns import random_patterns
from repro.faultsim.stuck_at import StuckAtSimulator, enumerate_stuck_at_faults
from repro.netlist.generate import GeneratorConfig, generate_iscas_like
from repro.optimize.start import chain_start_partition, estimate_module_count
from repro.partition.evaluator import PartitionEvaluator

import random


def _generated(seed: int, gates: int = 140, depth: int = 10, inputs: int = 12):
    return generate_iscas_like(
        GeneratorConfig(
            name=f"inc{seed}",
            num_gates=gates,
            num_inputs=inputs,
            num_outputs=8,
            depth=depth,
            seed=seed,
        )
    )


class TestSimulateDelta:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_randomized_flip_sequences_bit_identical(self, seed):
        """Chained walk: multi-column and no-op flips, every step
        compared against a from-scratch full simulation."""
        circuit = _generated(seed)
        sim = LogicSimulator(circuit)
        rng = np.random.default_rng(seed)
        num_inputs = len(circuit.input_names)
        patterns = rng.integers(0, 2, size=(130, num_inputs)).astype(np.uint8)
        current = sim.simulate(patterns)
        # flip widths include 0 (no-op) and multi-column sets
        for flips in (1, 0, 2, 5, 1, num_inputs):
            patterns = patterns.copy()
            cols = rng.choice(num_inputs, size=flips, replace=False)
            for col in cols:
                patterns[:, col] ^= rng.integers(0, 2, size=130).astype(np.uint8)
            current = sim.simulate_delta(current, patterns)
            expected = sim.simulate(patterns)
            assert np.array_equal(current.packed, expected.packed), f"flips={flips}"

    def test_noop_flip_returns_equal_state(self):
        circuit = _generated(9)
        inc = LogicSimulator(circuit)
        patterns = random_patterns(len(circuit.input_names), 65, seed=9)
        base = inc.simulate(patterns)
        values, changed = inc.simulate_delta(
            base, patterns.copy(), return_changed=True
        )
        assert changed.size == 0
        assert np.array_equal(values.packed, base.packed)

    def test_changed_rows_cover_every_difference(self):
        circuit = _generated(10)
        inc = LogicSimulator(circuit)
        rng = np.random.default_rng(10)
        num_inputs = len(circuit.input_names)
        patterns = rng.integers(0, 2, size=(70, num_inputs)).astype(np.uint8)
        base = inc.simulate(patterns)
        flipped = patterns.copy()
        flipped[:, 3] ^= 1
        flipped[:, 7] ^= rng.integers(0, 2, size=70).astype(np.uint8)
        values, changed = inc.simulate_delta(base, flipped, return_changed=True)
        differs = np.flatnonzero((values.packed != base.packed).any(axis=1))
        assert set(differs.tolist()) == set(changed.tolist())

    def test_baseline_is_not_mutated(self):
        circuit = _generated(11)
        inc = LogicSimulator(circuit)
        patterns = random_patterns(len(circuit.input_names), 66, seed=11)
        base = inc.simulate(patterns)
        snapshot = base.packed.copy()
        flipped = patterns.copy()
        flipped[:, 0] ^= 1
        inc.simulate_delta(base, flipped)
        assert np.array_equal(base.packed, snapshot)

    def test_batch_size_change_falls_back_to_full(self):
        circuit = _generated(12)
        sim = LogicSimulator(circuit)
        base = sim.simulate(random_patterns(len(circuit.input_names), 64, seed=12))
        other = random_patterns(len(circuit.input_names), 96, seed=13)
        assert np.array_equal(
            sim.simulate_delta(base, other).packed, sim.simulate(other).packed
        )


class TestEngineIncrementalWalk:
    """The CoverageEngine's incremental prepare path over an ATPG-style
    single-column-flip walk stays exactly equal to a fresh engine."""

    def test_detection_walk_matches_fresh_engine(self):
        circuit = _generated(20, gates=180, depth=12, inputs=14)
        evaluator = PartitionEvaluator(circuit)
        partition = chain_start_partition(
            evaluator, estimate_module_count(evaluator), random.Random(3)
        )
        defects = sample_bridging_faults(
            circuit, 6, seed=4, current_range_ua=(0.5, 6.0)
        ) + sample_gate_oxide_shorts(circuit, 4, seed=5, current_range_ua=(0.5, 6.0))
        num_inputs = len(circuit.input_names)
        walking = CoverageEngine(circuit)
        rng = random.Random(7)
        vector = np.asarray(
            [rng.randint(0, 1) for _ in range(num_inputs)], dtype=np.uint8
        )
        for step in range(12):
            vector = vector.copy()
            vector[rng.randrange(num_inputs)] ^= 1
            batch = np.tile(vector, (num_inputs + 1, 1))
            for bit in range(num_inputs):
                batch[bit + 1, bit] ^= 1
            got = walking.detection_matrix(partition, [defects[step % len(defects)]], batch)
            fresh = CoverageEngine(circuit).detection_matrix(
                partition, [defects[step % len(defects)]], batch
            )
            assert np.array_equal(got, fresh), f"step {step}"

    def test_coverage_report_after_walk_identical(self):
        circuit = _generated(21, gates=160, depth=11, inputs=12)
        evaluator = PartitionEvaluator(circuit)
        partition = chain_start_partition(
            evaluator, estimate_module_count(evaluator), random.Random(5)
        )
        defects = sample_bridging_faults(
            circuit, 8, seed=6, current_range_ua=(0.5, 6.0)
        )
        patterns = random_patterns(len(circuit.input_names), 50, seed=7)
        walking = CoverageEngine(circuit)
        walking.detection_matrix(partition, defects, patterns)
        stepped = patterns.copy()
        stepped[:, 2] ^= 1
        report = walking.evaluate_coverage(partition, defects, stepped)
        fresh = CoverageEngine(circuit).evaluate_coverage(
            partition, defects, stepped
        )
        assert report.thresholds_ua == fresh.thresholds_ua
        assert report.detected_ids == fresh.detected_ids
        assert report.num_detected == fresh.num_detected


class TestStuckAtStatePooling:
    def test_pool_reused_across_batches_and_calls(self):
        circuit = _generated(30, gates=200, depth=12)
        sim = StuckAtSimulator(circuit)
        faults = enumerate_stuck_at_faults(circuit)
        patterns = random_patterns(len(circuit.input_names), 96, seed=8)
        first = sim.detection_matrix(faults, patterns)
        pool = sim._state_pool
        assert pool is not None
        second = sim.detection_matrix(faults, patterns)
        assert sim._state_pool is pool  # same buffer, no realloc
        assert np.array_equal(first, second)
        # Coverage (different word count) reallocates, then works.
        coverage = sim.coverage(faults, patterns)
        assert coverage == pytest.approx(float(first.any(axis=1).mean()))
