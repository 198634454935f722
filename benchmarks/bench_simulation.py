"""Simulation-kernel benchmarks: the layer behind every engine.

Each benchmark runs on the largest Table 1 circuit (C7552 stand-in) and
records the two costs the kernel (:mod:`repro.backend.kernel`) exists
for:

* a **full-sim pass** — 256 random vectors through the fused schedule
  (recorded for the JSON, no floor);
* an **ATPG hill-climb step** — one `detection_matrix` call on a
  flip-neighbourhood batch that differs from the previous step's batch
  in exactly one input column (the exact workload of
  ``_search_activating_vector``).  The engine's event-driven patch must
  hold a floor over the same engine forced onto its full-resimulation
  branch (its simulation-state cache cleared before every step).

Observed ratios are higher than the floor; the asserted floor leaves CI
headroom.  Results land in ``BENCH_simulation.json`` via the
bench-smoke job.
"""

import random
import time

import numpy as np
import pytest

from repro.faultsim.atpg import generate_iddq_tests
from repro.faultsim.engine import CoverageEngine
from repro.faultsim.faults import sample_bridging_faults, sample_gate_oxide_shorts
from repro.faultsim.logic_sim import LogicSimulator
from repro.faultsim.patterns import random_patterns
from repro.netlist.benchmarks import load_iscas85
from repro.optimize.start import chain_start_partition, estimate_module_count
from repro.partition.evaluator import PartitionEvaluator

#: Cross-test scratch (pytest runs the file top to bottom).
_RECORDED: dict = {}

#: Asserted floor — see module docstring.  Relaxed from 3.0: runners
#: measured 2.7-3.x on an unmodified checkout, so 3.0 asserted on noise.
INCREMENTAL_STEP_FLOOR = 2.5


@pytest.fixture(scope="module")
def c7552():
    return load_iscas85("c7552")


@pytest.fixture(scope="module")
def sim_patterns(c7552):
    return random_patterns(len(c7552.input_names), 256, seed=21)


@pytest.fixture(scope="module")
def atpg_setup(c7552):
    evaluator = PartitionEvaluator(c7552)
    partition = chain_start_partition(
        evaluator, estimate_module_count(evaluator), random.Random(9)
    )
    defects = sample_bridging_faults(
        c7552, 40, seed=10, current_range_ua=(0.5, 5.0)
    ) + sample_gate_oxide_shorts(c7552, 20, seed=11, current_range_ua=(0.5, 5.0))
    return partition, defects


def _walk_batches(num_inputs: int, steps: int):
    """The hill-climb workload: flip-neighbourhood batches whose base
    vector walks by one bit per step."""
    rng = random.Random(0)
    vector = np.asarray(
        [rng.randint(0, 1) for _ in range(num_inputs)], dtype=np.uint8
    )
    batches = []
    for step in range(steps):
        vector = vector.copy()
        vector[step % num_inputs] ^= 1
        batch = np.tile(vector, (num_inputs + 1, 1))
        for bit in range(num_inputs):
            batch[bit + 1, bit] ^= 1
        batches.append(batch)
    return batches


def _bench_atpg_steps(benchmark, c7552, atpg_setup, label, full_resim):
    partition, defects = atpg_setup
    engine = CoverageEngine(c7552)
    defect = defects[0]
    batches = _walk_batches(len(c7552.input_names), steps=160)
    engine.detection_matrix(partition, [defect], batches[0])  # warm

    def step(batch):
        if full_resim:
            # No cached slot to patch from: every step re-simulates.
            engine._state_cache.clear()
        return engine.detection_matrix(partition, [defect], batch)[0]

    def run():
        start = time.perf_counter()
        rows = [step(batch) for batch in batches]
        per_step = (time.perf_counter() - start) / len(batches)
        _RECORDED[f"step_{label}"] = (per_step, np.stack(rows))
        return per_step

    return benchmark.pedantic(run, rounds=1, iterations=1)


# --------------------------------------------------------------- full sim
def test_full_sim_c7552(benchmark, c7552, sim_patterns):
    """Fused full pass over 256 vectors (best of 5, recorded only)."""
    sim = LogicSimulator(c7552)
    sim.simulate(sim_patterns)  # warm compile caches outside the timing

    def run():
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            values = sim.simulate(sim_patterns)
            best = min(best, time.perf_counter() - start)
        return values

    values = benchmark.pedantic(run, rounds=1, iterations=1)
    assert values.packed.shape[0] == c7552.compiled.num_nodes


# --------------------------------------------------------------- ATPG step
def test_atpg_step_full_resim_c7552(benchmark, c7552, atpg_setup):
    """Baseline: every step re-simulates the full batch."""
    per_step = _bench_atpg_steps(
        benchmark, c7552, atpg_setup, "full", full_resim=True
    )
    assert per_step > 0


def test_atpg_step_incremental_c7552(benchmark, c7552, atpg_setup):
    """Event-driven step — identical detection rows, floor over full."""
    _bench_atpg_steps(benchmark, c7552, atpg_setup, "incremental", full_resim=False)
    full_step, full_rows = _RECORDED["step_full"]
    inc_step, inc_rows = _RECORDED["step_incremental"]
    assert np.array_equal(inc_rows, full_rows)
    speedup = full_step / inc_step
    assert speedup >= INCREMENTAL_STEP_FLOOR, (
        f"incremental ATPG step speedup {speedup:.2f}x < {INCREMENTAL_STEP_FLOOR}x"
    )


# ----------------------------------------------------------- end-to-end ATPG
def test_atpg_generate_c7552(benchmark, c7552, atpg_setup):
    """Whole test-generation run (recorded for the JSON; the per-step
    floor above is the asserted contract)."""
    partition, defects = atpg_setup
    kwargs = dict(seed=12, random_vectors=64, restarts=3, flip_budget=12)

    def run():
        return generate_iddq_tests(c7552, partition, defects, **kwargs)

    tests = benchmark.pedantic(run, rounds=1, iterations=1)
    assert tests.num_vectors > 0
