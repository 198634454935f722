"""Bit-parallel combinational logic simulation.

Patterns are packed 64 per machine word; each node's value across all
patterns is a small ``uint64`` array.  The schedule evaluation itself is
owned by the :class:`~repro.backend.kernel.SimBackend` kernel: its fused
full pass advances a whole batch of gates per vectorised dispatch, so
there is no per-gate Python at all.  Even the 3512-gate C7552 stand-in
simulates thousands of patterns per millisecond this way — fast enough
that IDDQ coverage experiments run inside the test suite.

The kernel's event-driven replay additionally enables
:meth:`LogicSimulator.simulate_delta`: re-simulating a pattern batch
that differs from an already-simulated one in a few input columns costs
only the flipped inputs' fanout cones.

:class:`ReferenceLogicSimulator` keeps the original per-gate schedule as
the executable specification; the equivalence suite asserts the kernel
produces bit-identical packed words.
"""

from __future__ import annotations

import numpy as np

from repro.backend import KERNEL
from repro.errors import FaultSimError
from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType

__all__ = ["NodeValues", "LogicSimulator", "ReferenceLogicSimulator"]

_WORD = 64
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class NodeValues:
    """Packed simulation results: one bit per (node, pattern).

    Access patterns:
    * :meth:`value` — single node/pattern bit (tests, debugging);
    * :meth:`unpack` — dense ``uint8`` matrix (patterns x nodes);
    * :attr:`packed` + :attr:`row_of` — raw words for vectorised
      consumers (the IDDQ computation and defect activation).
    """

    def __init__(self, packed: np.ndarray, row_of: dict[str, int], num_patterns: int):
        self.packed = packed
        self.row_of = row_of
        self.num_patterns = num_patterns

    def value(self, node: str, pattern: int) -> int:
        if not 0 <= pattern < self.num_patterns:
            raise FaultSimError(
                f"pattern {pattern} out of range 0..{self.num_patterns - 1}"
            )
        row = self.row_of[node]
        word, bit = divmod(pattern, _WORD)
        return int((self.packed[row, word] >> np.uint64(bit)) & np.uint64(1))

    def node_bits(self, node: str) -> np.ndarray:
        """Unpacked 0/1 vector over patterns for one node."""
        row = self.packed[self.row_of[node]]
        bits = np.unpackbits(row.view(np.uint8), bitorder="little")
        return bits[: self.num_patterns]

    def unpack(self, nodes) -> np.ndarray:
        """Dense ``(num_patterns, len(nodes))`` matrix of 0/1 values."""
        nodes = list(nodes)
        if not nodes:
            return np.zeros((self.num_patterns, 0), np.uint8)
        rows = np.asarray([self.row_of[node] for node in nodes], dtype=np.int64)
        bits = np.unpackbits(
            np.ascontiguousarray(self.packed[rows]).view(np.uint8),
            axis=1,
            bitorder="little",
        )
        return bits[:, : self.num_patterns].T.copy()


def _pack_input_columns(patterns: np.ndarray, num_words: int) -> np.ndarray:
    """Pack a ``(patterns, inputs)`` 0/1 matrix into per-input word rows."""
    num_patterns = patterns.shape[0]
    bits = np.zeros((patterns.shape[1], num_words * _WORD), dtype=np.uint8)
    bits[:, :num_patterns] = (patterns.T & 1).astype(np.uint8)
    return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)


class LogicSimulator:
    """Compiled bit-parallel simulator for one circuit."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.compiled = circuit.compiled
        self.row_of = {name: i for i, name in enumerate(circuit.all_names)}

    def _check_patterns(self, input_patterns: np.ndarray) -> np.ndarray:
        patterns = np.asarray(input_patterns)
        if patterns.ndim != 2 or patterns.shape[1] != len(self.circuit.input_names):
            raise FaultSimError(
                f"expected (patterns, {len(self.circuit.input_names)}) input matrix, "
                f"got shape {patterns.shape}"
            )
        if patterns.shape[0] == 0:
            raise FaultSimError("need at least one pattern")
        return patterns

    def simulate(
        self, input_patterns: np.ndarray, pinned: dict[str, int] | None = None
    ) -> NodeValues:
        """Simulate a ``(num_patterns, num_inputs)`` 0/1 matrix.

        Input columns follow :attr:`Circuit.input_names` order.  ``pinned``
        optionally forces named nets to a constant 0/1 across all patterns
        (the stuck-at fault simulator's injection mechanism).
        """
        patterns = self._check_patterns(input_patterns)
        num_patterns = patterns.shape[0]
        num_words = (num_patterns + _WORD - 1) // _WORD
        cg = self.compiled

        # Node rows plus the two identity rows the padded schedule reads.
        packed = np.zeros((cg.num_sim_rows, num_words), dtype=np.uint64)
        packed[cg.ones_row] = _ONES
        packed[cg.input_node] = _pack_input_columns(patterns, num_words)

        pinned_rows = np.empty(0, dtype=np.int32)
        if pinned:
            rows = []
            for name, value in pinned.items():
                row = self.row_of.get(name)
                if row is None:
                    raise FaultSimError(f"unknown net {name!r}")
                packed[row] = _ONES if value else np.uint64(0)
                rows.append(row)
            pinned_rows = np.asarray(rows, dtype=np.int32)

        KERNEL.run_schedule(cg, packed, pinned_rows)
        return NodeValues(packed[: cg.num_nodes], self.row_of, num_patterns)

    def simulate_delta(
        self,
        baseline: NodeValues,
        input_patterns: np.ndarray,
        return_changed: bool = False,
        changed_cols: np.ndarray | None = None,
    ) -> NodeValues | tuple[NodeValues, np.ndarray]:
        """Re-simulate ``input_patterns`` starting from ``baseline``.

        ``baseline`` must be a *fault-free* result of :meth:`simulate`
        for a batch of the same size; only gates the changed input
        columns' value events actually reach are re-evaluated, and the
        result is bit-identical to ``simulate(input_patterns)``.
        ``baseline`` itself is never mutated.  With ``return_changed``
        the node rows whose packed words differ from the baseline
        (changed inputs + flipped gates) are returned too, so callers
        can patch derived per-node structures.  ``changed_cols``
        optionally names a superset of the input columns that may
        differ (saving the full input re-pack when the caller already
        diffed the batches); columns outside it must be unchanged.

        Falls back to a full :meth:`simulate` when the batch size
        changed.
        """
        patterns = self._check_patterns(input_patterns)
        num_patterns = patterns.shape[0]
        cg = self.compiled
        if num_patterns != baseline.num_patterns:
            values = self.simulate(patterns)
            if return_changed:
                return values, np.arange(cg.num_nodes, dtype=np.int32)
            return values

        num_words = baseline.packed.shape[1]
        state = np.empty((cg.num_sim_rows, num_words), dtype=np.uint64)
        state[: cg.num_nodes] = baseline.packed
        state[cg.zero_row] = np.uint64(0)
        state[cg.ones_row] = _ONES

        if changed_cols is None:
            new_words = _pack_input_columns(patterns, num_words)
            changed_cols = np.arange(len(cg.input_node), dtype=np.int64)
        else:
            changed_cols = np.asarray(changed_cols, dtype=np.int64)
            new_words = _pack_input_columns(patterns[:, changed_cols], num_words)
        really = np.flatnonzero(
            (new_words != state[cg.input_node[changed_cols]]).any(axis=1)
        )
        changed_cols = changed_cols[really]
        changed_inputs = cg.input_node[changed_cols]
        # Steal the baseline's kernel value cache (rows materialised as
        # Python ints).  Stealing — rather than copying — is safe
        # because a baseline without a cache merely re-materialises rows
        # lazily; it lets a walk of consecutive deltas convert each
        # touched row once.
        value_cache = baseline.__dict__.pop("_backend_value_cache", {})
        if changed_cols.size:
            state[changed_inputs] = new_words[really]
            for row in changed_inputs.tolist():
                value_cache.pop(row, None)
            cone = KERNEL.run_cone(cg, state, changed_inputs, value_cache=value_cache)
        else:
            cone = np.empty(0, dtype=np.int32)
        values = NodeValues(state[: cg.num_nodes], self.row_of, num_patterns)
        values._backend_value_cache = value_cache
        if return_changed:
            return values, np.concatenate(
                (changed_inputs.astype(np.int32), cone)
            )
        return values

    def simulate_outputs(self, input_patterns: np.ndarray) -> np.ndarray:
        """Convenience: ``(patterns, outputs)`` 0/1 matrix."""
        values = self.simulate(input_patterns)
        return values.unpack(self.circuit.output_names)


class ReferenceLogicSimulator:
    """Per-gate schedule simulator — the executable specification.

    This is the pre-compiled-graph implementation, kept verbatim so the
    equivalence tests can assert the batched simulator reproduces its
    packed words bit for bit.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.row_of = {name: i for i, name in enumerate(circuit.all_names)}
        # Compile the evaluation schedule once: (row, type, fanin rows).
        self._schedule: list[tuple[int, GateType, tuple[int, ...]]] = []
        for name in circuit.topological_order:
            gate = circuit.gate(name)
            if gate.gate_type.is_input:
                continue
            rows = tuple(self.row_of[f] for f in gate.fanins)
            self._schedule.append((self.row_of[name], gate.gate_type, rows))

    def simulate(self, input_patterns: np.ndarray) -> NodeValues:
        patterns = np.asarray(input_patterns)
        if patterns.ndim != 2 or patterns.shape[1] != len(self.circuit.input_names):
            raise FaultSimError(
                f"expected (patterns, {len(self.circuit.input_names)}) input matrix, "
                f"got shape {patterns.shape}"
            )
        num_patterns = patterns.shape[0]
        if num_patterns == 0:
            raise FaultSimError("need at least one pattern")
        num_words = (num_patterns + _WORD - 1) // _WORD
        packed = np.zeros((len(self.row_of), num_words), dtype=np.uint64)

        for column, name in enumerate(self.circuit.input_names):
            bits = np.zeros(num_words * _WORD, dtype=np.uint8)
            bits[:num_patterns] = patterns[:, column] & 1
            packed[self.row_of[name]] = np.packbits(bits, bitorder="little").view(np.uint64)

        ones = np.full(num_words, _ONES, dtype=np.uint64)
        for row, gate_type, fanins in self._schedule:
            acc = packed[fanins[0]].copy()
            if gate_type in (GateType.AND, GateType.NAND):
                for f in fanins[1:]:
                    acc &= packed[f]
            elif gate_type in (GateType.OR, GateType.NOR):
                for f in fanins[1:]:
                    acc |= packed[f]
            elif gate_type in (GateType.XOR, GateType.XNOR):
                for f in fanins[1:]:
                    acc ^= packed[f]
            # BUF/NOT fall through with acc = fanin value.
            if gate_type in (GateType.NAND, GateType.NOR, GateType.XNOR, GateType.NOT):
                acc ^= ones
            packed[row] = acc
        return NodeValues(packed, self.row_of, num_patterns)

    def simulate_outputs(self, input_patterns: np.ndarray) -> np.ndarray:
        values = self.simulate(input_patterns)
        return values.unpack(self.circuit.output_names)
