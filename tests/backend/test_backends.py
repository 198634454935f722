"""Simulation-kernel equivalence suite.

Every evaluation path of :class:`repro.backend.SimBackend` must produce
packed words and detection matrices bit-identical to the per-gate
reference simulator.  The suite parametrizes over the three live paths
(see :data:`_PATHS`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import KERNEL
from repro.config import SimulationConfig, SynthesisConfig
from repro.errors import OptimizationError
from repro.faultsim.logic_sim import (
    LogicSimulator,
    NodeValues,
    ReferenceLogicSimulator,
)
from repro.faultsim.patterns import exhaustive_patterns, random_patterns
from repro.faultsim.stuck_at import (
    ReferenceStuckAtSimulator,
    StuckAtSimulator,
    enumerate_stuck_at_faults,
)
from repro.netlist.compiled import OP_AND, OP_OR
from repro.netlist.generate import GeneratorConfig, generate_iscas_like

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _generated(seed: int, gates: int = 120, depth: int = 9):
    return generate_iscas_like(
        GeneratorConfig(
            name=f"bk{seed}",
            num_gates=gates,
            num_inputs=10,
            num_outputs=6,
            depth=depth,
            seed=seed,
        )
    )


def _full_state(circuit, values: NodeValues) -> np.ndarray:
    """A kernel state matrix (node rows + identity rows) holding ``values``."""
    cg = circuit.compiled
    state = np.zeros((cg.num_sim_rows, values.packed.shape[1]), dtype=np.uint64)
    state[: cg.num_nodes] = values.packed
    state[cg.ones_row] = _ONES
    return state


def _pin(circuit, state: np.ndarray, pinned: dict[str, int] | None) -> np.ndarray:
    """Force ``pinned`` nets in ``state``; returns their rows."""
    row_of = {name: i for i, name in enumerate(circuit.all_names)}
    rows = [row_of[name] for name in (pinned or {})]
    for name, row in zip(pinned or {}, rows):
        state[row] = _ONES if pinned[name] else np.uint64(0)
    return np.asarray(rows, dtype=np.int32)


def _fused(circuit, patterns, pinned=None) -> NodeValues:
    """The fused full pass (``SimBackend.run_schedule``)."""
    return LogicSimulator(circuit).simulate(patterns, pinned=pinned)


def _incremental(circuit, patterns, pinned=None) -> NodeValues:
    """Event-driven replay (``SimBackend.run_cone``): start from a full
    evaluation of the complemented batch, replay to ``patterns``, then
    inject pinned nets as value events on the replayed state."""
    sim = LogicSimulator(circuit)
    baseline = sim.simulate(1 - np.asarray(patterns))
    values = sim.simulate_delta(baseline, patterns)
    if not pinned:
        return values
    state = _full_state(circuit, values)
    KERNEL.run_cone(circuit.compiled, state, _pin(circuit, state, pinned))
    cg = circuit.compiled
    return NodeValues(state[: cg.num_nodes], values.row_of, values.num_patterns)


def _numpy(circuit, patterns, pinned=None) -> NodeValues:
    """The identity-padded per-(level, op) ``CompiledGraph.sim_groups``
    schedule that the stuck-at cone replay evaluates, run as a full
    pass: one rectangular ``op.reduce`` per group, pinned rows
    re-asserted after each group."""
    cg = circuit.compiled
    patterns = np.asarray(patterns, dtype=np.uint8)
    num_patterns = patterns.shape[0]
    num_words = (num_patterns + 63) // 64
    bits = np.zeros((patterns.shape[1], num_words * 64), dtype=np.uint8)
    bits[:, :num_patterns] = patterns.T
    state = np.zeros((cg.num_sim_rows, num_words), dtype=np.uint64)
    state[cg.ones_row] = _ONES
    state[cg.input_node] = np.packbits(bits, axis=1, bitorder="little").view(
        np.uint64
    )
    rows = _pin(circuit, state, pinned)
    pinned_words = state[rows].copy()
    for group in cg.sim_groups:
        gathered = state[group.src]  # (g, width, words)
        if group.op == OP_AND:
            acc = np.bitwise_and.reduce(gathered, axis=1)
        elif group.op == OP_OR:
            acc = np.bitwise_or.reduce(gathered, axis=1)
        else:
            acc = np.bitwise_xor.reduce(gathered, axis=1)
        state[group.dst] = acc ^ group.invert
        state[rows] = pinned_words
    row_of = {name: i for i, name in enumerate(circuit.all_names)}
    return NodeValues(state[: cg.num_nodes], row_of, num_patterns)


#: The kernel's live evaluation paths, each checked against the reference.
_PATHS = {"fused": _fused, "incremental": _incremental, "numpy": _numpy}


class TestRegistry:
    """``SimulationConfig.backend`` survives only for the benchmark
    harness: ``"auto"`` names the one kernel, anything else is refused."""

    def test_default_resolution(self):
        assert SimulationConfig().backend == "auto"
        assert SimulationConfig(backend="auto") == SimulationConfig()

    def test_unknown_backend_rejected(self):
        for name in ("cuda", "numpy", "fused", "incremental"):
            with pytest.raises(OptimizationError, match="unknown simulation backend"):
                SimulationConfig(backend=name)

    def test_simulation_config_threads_through(self):
        config = SynthesisConfig()
        assert config.simulation == SimulationConfig(backend="auto")
        # A config rebuilt around the default keeps it.
        assert SynthesisConfig(simulation=config.simulation).simulation.backend == (
            "auto"
        )


@pytest.mark.parametrize("path", sorted(_PATHS))
class TestBackendEquivalence:
    """Every kernel path reproduces the per-gate reference bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_packed_words_match_reference(self, path, seed):
        circuit = _generated(seed)
        patterns = random_patterns(len(circuit.input_names), 130, seed=seed)
        fast = _PATHS[path](circuit, patterns)
        slow = ReferenceLogicSimulator(circuit).simulate(patterns)
        for name in circuit.all_names:
            assert np.array_equal(
                fast.packed[fast.row_of[name]], slow.packed[slow.row_of[name]]
            ), f"{path}: node {name}"

    def test_c17_exhaustive(self, path, c17_circuit):
        patterns = exhaustive_patterns(5)
        fast = _PATHS[path](c17_circuit, patterns).unpack(c17_circuit.output_names)
        slow = ReferenceLogicSimulator(c17_circuit).simulate_outputs(patterns)
        assert np.array_equal(fast, slow)

    def test_pinned_nets_survive(self, path):
        circuit = _generated(4)
        patterns = random_patterns(len(circuit.input_names), 77, seed=4)
        gate = circuit.gate_names[len(circuit.gate_names) // 2]
        values = _PATHS[path](circuit, patterns, pinned={gate: 1})
        assert np.all(values.node_bits(gate) == 1)
        # Every path agrees with the fused pass under the same pin.
        pinned = _fused(circuit, patterns, pinned={gate: 1})
        assert np.array_equal(values.packed, pinned.packed)
        # A pinned net's effect matches the reference stuck-at path.
        reference = ReferenceStuckAtSimulator(circuit)
        fast = StuckAtSimulator(circuit)
        faults = enumerate_stuck_at_faults(circuit)[:40]
        assert np.array_equal(
            fast.detection_matrix(faults, patterns),
            reference.detection_matrix(faults, patterns),
        )

    def test_word_boundary_pattern_counts(self, path, c17_circuit):
        slowsim = ReferenceLogicSimulator(c17_circuit)
        for count in (1, 63, 64, 65, 129):
            patterns = random_patterns(5, count, seed=count)
            assert np.array_equal(
                _PATHS[path](c17_circuit, patterns).unpack(c17_circuit.output_names),
                slowsim.simulate_outputs(patterns),
            )


class TestFusedSchedule:
    def test_legality_and_coverage(self):
        circuit = _generated(11, gates=200, depth=12)
        cg = circuit.compiled
        fs = cg.fused_schedule()
        # Every logic gate appears exactly once across the fused groups.
        all_dst = np.concatenate([g.dst for g in fs.groups])
        assert len(all_dst) == cg.num_gates
        assert len(np.unique(all_dst)) == cg.num_gates
        # Fusion legality: each gate's batch is strictly later than
        # every fanin producer's batch.
        batch = fs.batch_of_node
        for node in cg.node_of_slot:
            for fanin in cg.fanin_indices[
                cg.fanin_indptr[node] : cg.fanin_indptr[node + 1]
            ]:
                if batch[fanin] >= 0:
                    assert batch[fanin] < batch[node]

    def test_fuses_across_levels(self):
        circuit = _generated(12, gates=260, depth=14)
        cg = circuit.compiled
        fs = cg.fused_schedule()
        assert len(fs.groups) <= len(cg.sim_groups)
        # Fanin segments stay unpadded: flattened length == CSR edges.
        edges = sum(len(g.fanins) for g in fs.groups)
        gate_nodes = cg.gate_node
        expected = int(
            (cg.fanin_indptr[gate_nodes + 1] - cg.fanin_indptr[gate_nodes]).sum()
        )
        assert edges == expected

    def test_schedule_cached(self):
        circuit = _generated(13)
        cg = circuit.compiled
        assert cg.fused_schedule() is cg.fused_schedule()
        assert cg.slot_closure() is cg.slot_closure()
