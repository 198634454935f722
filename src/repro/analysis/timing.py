"""Critical-path timing with pluggable per-gate delays (paper §3.2).

Both circuit delays the paper compares — ``D`` (no sensors) and
``D_BIC`` (sensors inserted, per-gate delays degraded) — are longest
paths through the gate DAG.  Because the optimiser re-times the circuit
for every candidate partition, the longest-path computation is
vectorised: gates are processed level by level, and each level's
arrival times are produced by one scatter-max over the edges entering
it.  The level structure itself comes straight from the compiled
graph's level groups — no dict traversal at construction either.

:class:`IncrementalTiming` additionally maintains an arrival vector
under delay *changes* (a full sweep plus a diff, returning an exact
undo journal) and re-times ``C`` candidate delay vectors in one stacked
level-major sweep (:meth:`IncrementalTiming.retime_batch`; DESIGN.md
§8.4).  Max/add are exact floating-point operations, so every path here
is bit-identical to :meth:`LevelizedTiming.arrival_times`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.analysis.current import GateElectricals
from repro.netlist.circuit import Circuit

__all__ = [
    "IncrementalTiming",
    "LevelizedTiming",
    "critical_path_delay",
    "levelized_timing",
    "nominal_gate_delays",
]


@dataclass(frozen=True)
class _LevelEdges:
    """Edges entering one level: positions into the level's gate array
    (``dst_pos``) and global gate indices of driving gates (``src``)."""

    gate_idx: np.ndarray
    dst_pos: np.ndarray
    src: np.ndarray


class LevelizedTiming:
    """Precomputed level structure enabling O(depth) numpy longest path.

    Edges from primary inputs carry arrival 0 and are omitted — a gate
    fed only by inputs starts at its own delay.
    """

    def __init__(self, circuit: Circuit):
        cg = circuit.compiled
        self._incremental: "IncrementalTiming | None" = None
        self._levels: list[_LevelEdges] = []
        for group in cg.level_groups:
            fanin_gate = cg.node_gate[group.fanins].astype(np.int64)
            keep = fanin_gate >= 0  # drop edges from primary inputs
            dst_pos = np.repeat(
                np.arange(len(group.nodes), dtype=np.int64), group.counts
            )
            self._levels.append(
                _LevelEdges(
                    gate_idx=cg.node_gate[group.nodes].astype(np.int64),
                    dst_pos=dst_pos[keep],
                    src=fanin_gate[keep],
                )
            )
        self.num_gates = cg.num_gates

    def arrival_times(self, delays: np.ndarray) -> np.ndarray:
        """Arrival time at each gate's output for the given per-gate delays."""
        if delays.shape != (self.num_gates,):
            raise ValueError(
                f"delays must have shape ({self.num_gates},), got {delays.shape}"
            )
        arrival = np.zeros(self.num_gates, dtype=np.float64)
        for level in self._levels:
            base = np.zeros(len(level.gate_idx), dtype=np.float64)
            if level.src.size:
                np.maximum.at(base, level.dst_pos, arrival[level.src])
            arrival[level.gate_idx] = base + delays[level.gate_idx]
        return arrival

    def critical_path_delay(self, delays: np.ndarray) -> float:
        """Longest path delay under the given per-gate delays."""
        arrival = self.arrival_times(delays)
        return float(arrival.max()) if arrival.size else 0.0

    @property
    def incremental(self) -> "IncrementalTiming":
        """The incremental engine sharing this level structure (built
        lazily, cached)."""
        if self._incremental is None:
            self._incremental = IncrementalTiming(self)
        return self._incremental


class IncrementalTiming:
    """Maintenance of an arrival-time vector under delay changes.

    :meth:`update` re-runs the gate-space sweep (:meth:`full_arrival`)
    and diffs it against the maintained vector, returning an exact undo
    journal.  :meth:`retime_batch` stacks ``C`` candidate delay vectors
    into one ``(gates, C)`` scratch matrix and sweeps it once in
    **level-major order** (gates sorted by level, unfed-before-fed
    within a level, so a level's fed gates are one contiguous slice):
    per level one padded row gather, one ``max`` reduction and one
    in-place add.  A module's BIC sensor degrades every gate in the
    module and a module spans the whole depth, so the paper's moves
    reach nearly every gate and a whole-circuit sweep is the cheapest
    exact scheme.
    """

    def __init__(self, timing: LevelizedTiming):
        n = timing.num_gates
        self.num_gates = n
        # Gate-space levels for :meth:`full_arrival`: the fed gates (those
        # with a gate-space fanin), their fanin sources and ``reduceat``
        # segment starts; unfed gates sit at their own delay.
        self._gs_levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # Level-major levels for :meth:`retime_batch`: the fed gates'
        # contiguous slice and their fanins as a padded ``(fed,
        # max_fanin)`` matrix of lm positions (pad entries point at the
        # sentinel row ``n``), so the stacked sweep reduces with a plain
        # SIMD ``max`` instead of per-segment ufunc dispatch.
        self._lm_levels: list[tuple[slice, np.ndarray]] = []
        self._order_lm = np.empty(n, dtype=np.int64)
        self._pos_lm = np.empty(n, dtype=np.int64)
        cursor = 0
        for level in timing._levels:
            size = len(level.gate_idx)
            counts = np.bincount(level.dst_pos, minlength=size)
            fed = counts > 0
            order = np.concatenate([level.gate_idx[~fed], level.gate_idx[fed]])
            self._order_lm[cursor : cursor + size] = order
            self._pos_lm[order] = np.arange(cursor, cursor + size, dtype=np.int64)
            if level.src.size:
                starts = (np.cumsum(counts) - counts)[fed]
                self._gs_levels.append((level.gate_idx[fed], level.src, starts))
                counts = counts[fed]
                pad = np.full((counts.size, int(counts.max())), n, dtype=np.int64)
                # Fanins sit at earlier levels, whose positions are set.
                pad[np.arange(pad.shape[1])[None, :] < counts[:, None]] = (
                    self._pos_lm[level.src]
                )
                self._lm_levels.append(
                    (slice(cursor + size - counts.size, cursor + size), pad)
                )
            cursor += size

    def full_arrival(self, delays: np.ndarray) -> np.ndarray:
        """Fresh arrival times (gate order) via the gate-space segment
        sweep — bit-identical to :meth:`LevelizedTiming.arrival_times`.

        Every gate starts at its own delay; each level adds the max
        fanin arrival into its fed gates.
        """
        arrival = delays.astype(np.float64, copy=True)
        for fed, src, starts in self._gs_levels:
            arrival[fed] += np.maximum.reduceat(arrival[src], starts)
        return arrival

    def update(
        self, arrival: np.ndarray, delays: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bring ``arrival`` up to date with ``delays``.

        Mutates ``arrival`` in place and returns ``(touched, old)`` —
        the gate indices whose arrival actually changed and their
        previous values, so callers can journal an exact undo.
        """
        fresh = self.full_arrival(delays)
        touched = np.nonzero(fresh != arrival)[0]
        old = arrival[touched]
        arrival[touched] = fresh[touched]
        return touched, old

    def retime_batch(
        self,
        arrival: np.ndarray,
        delays: np.ndarray,
        cols: np.ndarray,
        overrides: np.ndarray,
    ) -> np.ndarray:
        """Critical-path delay of ``C`` candidate delay vectors at once.

        Candidate ``i``'s delay vector is ``delays`` with
        ``overrides[i]`` written at the (unique) gate indices ``cols``.
        The candidates are stacked as columns of one scratch arrival
        matrix (plus a trailing ``-inf`` sentinel row absorbing pad
        entries) and swept level by level.  ``arrival``/``delays`` are
        read-only; ``arrival`` must be the arrival vector of ``delays``.
        The result is bit-identical to running :meth:`update` plus
        ``arrival.max()`` per candidate (max/add are exact).

        Rows may override any number of gates (a swap writes two
        exchanged entries, a module retune writes the whole membership).
        An entry equal to the base delay is a no-op for its row, so
        heterogeneous candidates (different module pairs) can share one
        union column set and still score bit-identically to separate
        per-group calls; the optimizers' gain kernel (``trial_moves``)
        stacks whole candidate batches into one sweep this way.  When no row changes any
        delay, every candidate scores the base critical path without a
        sweep.
        """
        count = overrides.shape[0]
        if count == 0:
            return np.empty(0, dtype=np.float64)
        if self.num_gates == 0:
            return np.zeros(count, dtype=np.float64)
        obs.METRICS.inc("timing.retime_batch.calls")
        obs.METRICS.inc("timing.retime_batch.candidates", count)
        if not (overrides != delays[cols][None, :]).any():
            return np.full(count, float(arrival.max()), dtype=np.float64)
        scratch = np.empty((self.num_gates + 1, count), dtype=np.float64)
        scratch[:-1] = np.take(delays, self._order_lm)[:, None]
        scratch[self._pos_lm[cols]] = overrides.T
        scratch[-1] = -np.inf
        for fed_sl, pad in self._lm_levels:
            scratch[fed_sl] += scratch[pad].max(axis=1)
        return scratch[:-1].max(axis=0)


def nominal_gate_delays(electricals: GateElectricals) -> np.ndarray:
    """Per-gate nominal delays ``D(g)`` straight from the library."""
    return electricals.delay_ns.copy()


def levelized_timing(circuit: Circuit) -> LevelizedTiming:
    """The circuit's :class:`LevelizedTiming`, cached on the compiled
    graph — one-shot callers and evaluators share one level structure
    (and its incremental engine) per circuit."""
    cg = circuit.compiled
    cached = cg.__dict__.get("_levelized_timing")
    if cached is None:
        cached = LevelizedTiming(circuit)
        object.__setattr__(cg, "_levelized_timing", cached)
    return cached


def critical_path_delay(circuit: Circuit, delays: np.ndarray) -> float:
    """One-shot longest path (level structure cached on the compiled
    graph, so repeated calls don't rebuild it)."""
    return levelized_timing(circuit).critical_path_delay(delays)
