"""Incrementally maintained, transactional evaluation state (paper §4.2).

The evolution strategy evaluates thousands of candidate partitions, each
differing from its parent by a handful of gate moves.  The paper makes
this affordable by recomputing "costs ... just for the modified modules".
Two implementations of that idea live here, behind one protocol:

* :class:`EvaluationState` — the production path.  Per-module statistics
  live in contiguous *slot*-indexed arrays — ``(S,)`` leakage / rail-cap
  / separation / peak-current vectors and ``(S, T)`` current / activity
  profile matrices — so every cost term and the feasibility predicate
  ``Γ`` are pure array reductions with no per-module Python loop.  The
  ``c2``/``c4`` delay term is maintained incrementally: a move dirties
  two modules, their gates' degraded delays are re-derived, and the
  arrival vector is re-swept and diffed into an exact undo journal
  (:class:`~repro.analysis.timing.IncrementalTiming`).

* :class:`ReferenceEvaluationState` — the original dict-of-
  :class:`ModuleStats` implementation, kept as the executable
  specification the dense path is tested against.

Both support the **transactional move protocol**: ``begin_trial()``
opens a journal, moves apply *in place*, and ``rollback()`` restores
every byte of state exactly (saved prior values, not reverse
arithmetic) while ``commit()`` keeps the moves.  Optimisers that walk
(annealing, KL, greedy) commit through it.

Scoring goes through one gain kernel for *move lists*:
:meth:`EvaluationState.trial_moves` takes candidates, each an ordered
list of ``(gate, target)`` moves — a single move, a KL swap (the
two-move list ``[(a, module(b)), (b, module(a))]``), a mutated ES
child, a whole Monte-Carlo block — and scores them all against the
unmutated state in closed form: ordered scatters for the leakage, rail
and profile statistics, exact integer separation deltas, ``(C, S)``
sensor and ``Γ`` matrices, and stacked re-timing sweeps for the delay
term.  Every score is bit-identical to ``trial_cost(candidate)``
followed by ``rollback()``, which is what the protocol's generic
fallback computes.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro import obs
from repro.errors import PartitionError
from repro.partition.constraints import (
    ConstraintReport,
    check_constraints,
    check_constraints_arrays,
)
from repro.netlist.compiled import csr_gather
from repro.partition.costs import CostBreakdown, log_guarded
from repro.partition.partition import Partition
from repro.sensors.bic import BICSensor, size_sensor, size_sensors
from repro.sensors.sensing import settle_time_ns, settle_times_ns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.partition.evaluator import PartitionEvaluator

__all__ = ["ModuleStats", "EvaluationState", "ReferenceEvaluationState"]


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(np.sum(lengths)))


class ModuleStats:
    """Cached per-module quantities (mutable, copied with the state)."""

    __slots__ = ("current_profile", "activity_profile", "leak_na", "sep_sum", "rail_cap_ff")

    def __init__(
        self,
        current_profile: np.ndarray,
        activity_profile: np.ndarray,
        leak_na: float,
        sep_sum: float,
        rail_cap_ff: float,
    ):
        self.current_profile = current_profile
        self.activity_profile = activity_profile
        self.leak_na = leak_na
        self.sep_sum = sep_sum
        self.rail_cap_ff = rail_cap_ff

    def copy(self) -> "ModuleStats":
        return ModuleStats(
            self.current_profile.copy(),
            self.activity_profile.copy(),
            self.leak_na,
            self.sep_sum,
            self.rail_cap_ff,
        )

    @property
    def max_current_ma(self) -> float:
        return float(self.current_profile.max())


class _StateProtocol:
    """Shared pieces of the two evaluation-state implementations."""

    ctx: "PartitionEvaluator"
    partition: Partition

    def move_gate(self, gate: int, target_module: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def penalized_cost(self, penalty: float) -> float:  # pragma: no cover
        raise NotImplementedError

    def begin_trial(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def commit(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def rollback(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def move_gates(self, gates: Iterable[int], target_module: int) -> None:
        for gate in gates:
            self.move_gate(gate, target_module)

    def trial_cost(
        self, moves: Sequence[tuple[int, int]], penalty: float
    ) -> float:
        """Open a trial, apply ``moves``, and return the penalised cost.

        The trial stays open: the caller decides between :meth:`commit`
        (keep the moves) and :meth:`rollback` (exact restore).
        """
        self.begin_trial()
        try:
            for gate, target in moves:
                self.move_gate(gate, target)
            return self.penalized_cost(penalty)
        except Exception:
            self.rollback()
            raise

    def trial_moves(
        self, candidates: Sequence[Sequence[tuple[int, int]]], penalty: float
    ) -> np.ndarray:
        """Penalised cost of each candidate move list, evaluated
        independently from the current state (generic trial/rollback
        loop; the dense state overrides this with the batched kernel)."""
        costs = np.empty(len(candidates), dtype=np.float64)
        for i, moves in enumerate(candidates):
            costs[i] = self.trial_cost(moves, penalty)
            self.rollback()
        return costs

    def committed_moves(self) -> list[tuple[int, int]]:
        """The (gate, target) sequence of every committed move so far —
        rolled-back trial moves are erased.  Equivalence tests compare
        these across implementations."""
        return list(self._move_log)


class ReferenceEvaluationState(_StateProtocol):
    """A partition plus per-module dict caches — the original §4.2
    implementation, kept as the dense core's executable specification."""

    def __init__(self, ctx: "PartitionEvaluator", partition: Partition):
        self.ctx = ctx
        self.partition = partition.copy()
        self.stats: dict[int, ModuleStats] = {}
        self.delay_degraded = ctx.electricals.delay_ns.copy()
        self._sensors: dict[int, BICSensor] = {}
        self._dirty: set[int] = set()
        self._snapshot: "ReferenceEvaluationState | None" = None
        self._move_log: list[tuple[int, int]] = []
        for module in self.partition.module_ids:
            self.stats[module] = self._build_module_stats(module)
            self._dirty.add(module)

    # ------------------------------------------------------------ construction
    def _build_module_stats(self, module: int) -> ModuleStats:
        ctx = self.ctx
        gates = self.partition.gates_array(module)
        current = ctx.times.profile(gates, ctx.electricals.peak_current_ma)
        activity = ctx.times.profile(gates, ctx.ones)
        leak = float(ctx.electricals.leakage_na[gates].sum())
        rail = float(ctx.electricals.rail_cap_ff[gates].sum())
        sep = ctx.separation.module_sum(gates)
        return ModuleStats(current, activity, leak, sep, rail)

    def copy(self) -> "ReferenceEvaluationState":
        if self._snapshot is not None:
            raise PartitionError("cannot copy a state with an open trial")
        clone = object.__new__(ReferenceEvaluationState)
        clone.ctx = self.ctx
        clone.partition = self.partition.copy()
        clone.stats = {module: stats.copy() for module, stats in self.stats.items()}
        clone.delay_degraded = self.delay_degraded.copy()
        clone._sensors = dict(self._sensors)
        clone._dirty = set(self._dirty)
        clone._snapshot = None
        clone._move_log = list(self._move_log)
        return clone

    # ------------------------------------------------------------------ trials
    def begin_trial(self) -> None:
        """Open a trial: subsequent moves apply in place until
        :meth:`commit` keeps them or :meth:`rollback` restores the exact
        prior state.  (Reference implementation: a full snapshot.)"""
        if self._snapshot is not None:
            raise PartitionError("trial already open")
        self._snapshot = self.copy()

    def commit(self) -> None:
        if self._snapshot is None:
            raise PartitionError("no open trial")
        self._snapshot = None

    def rollback(self) -> None:
        snap = self._snapshot
        if snap is None:
            raise PartitionError("no open trial")
        self._snapshot = None
        # Same monotonic-version contract as the dense journal rollback:
        # every version observed during the trial becomes stale.
        snap.partition._version = self.partition._version + 1
        self.partition = snap.partition
        self.stats = snap.stats
        self.delay_degraded = snap.delay_degraded
        self._sensors = snap._sensors
        self._dirty = snap._dirty
        self._move_log = snap._move_log

    # ------------------------------------------------------------------ moves
    def move_gate(self, gate: int, target_module: int) -> int:
        """Move a gate, updating both touched modules' caches; returns the
        source module id."""
        ctx = self.ctx
        partition = self.partition
        source = partition.module_of(gate)
        if source == target_module:
            raise PartitionError(f"gate {gate} already in module {target_module}")
        src_stats = self.stats[source]
        tgt_stats = self.stats.get(target_module)
        if tgt_stats is None:
            raise PartitionError(f"no module {target_module}")

        # Separation deltas need the memberships *around* the move: the
        # source before removal (self-distance is 0 so including the gate
        # is harmless) and the target before insertion.
        src_members = partition.gates_array(source)
        tgt_members = partition.gates_array(target_module)
        src_stats.sep_sum -= ctx.separation.sum_to_group(gate, src_members)
        tgt_stats.sep_sum += ctx.separation.sum_to_group(gate, tgt_members)

        times = ctx.times.times[gate]
        peak = ctx.electricals.peak_current_ma[gate]
        src_stats.current_profile[times] -= peak
        tgt_stats.current_profile[times] += peak
        src_stats.activity_profile[times] -= 1.0
        tgt_stats.activity_profile[times] += 1.0
        leak = ctx.electricals.leakage_na[gate]
        rail = ctx.electricals.rail_cap_ff[gate]
        src_stats.leak_na -= leak
        tgt_stats.leak_na += leak
        src_stats.rail_cap_ff -= rail
        tgt_stats.rail_cap_ff += rail

        partition.move_gate(gate, target_module)
        if source not in partition.module_ids or partition.module_size(source) == 0:
            # Module died with this move.
            self.stats.pop(source, None)
            self._sensors.pop(source, None)
            self._dirty.discard(source)
        else:
            self._dirty.add(source)
        self._dirty.add(target_module)
        self._move_log.append((gate, target_module))
        return source

    def split_new_module(self, gates) -> int:
        """Create a new module from ``gates`` (state-maintaining version of
        :meth:`Partition.split_new_module`); rebuilds only the touched
        modules' caches."""
        if self._snapshot is not None:
            raise PartitionError("split_new_module not allowed inside a trial")
        gates = list(gates)
        if not gates:
            raise PartitionError("cannot create an empty module")
        sources = {self.partition.module_of(gate) for gate in gates}
        new_id = self.partition.split_new_module(gates)
        self._rebuild_touched(sources | {new_id})
        return new_id

    def merge_modules(self, keep: int, absorb: int) -> None:
        """Merge ``absorb`` into ``keep`` (rebuilds only ``keep``)."""
        if self._snapshot is not None:
            raise PartitionError("merge_modules not allowed inside a trial")
        self.partition.merge_modules(keep, absorb)
        self._rebuild_touched({keep, absorb})

    def _rebuild_touched(self, modules: set[int]) -> None:
        """Rebuild caches of ``modules`` only; dead ones are dropped and
        only the rebuilt ones become dirty."""
        alive = set(self.partition.module_ids)
        for module in sorted(modules):
            if module in alive:
                self.stats[module] = self._build_module_stats(module)
                self._dirty.add(module)
            else:
                self.stats.pop(module, None)
                self._sensors.pop(module, None)
                self._dirty.discard(module)

    # ------------------------------------------------------------ derived data
    def _refresh(self) -> None:
        """Re-size sensors and re-degrade delays for modified modules."""
        ctx = self.ctx
        for module in sorted(self._dirty):
            stats = self.stats[module]
            gates = self.partition.gates_array(module)
            sensor = size_sensor(
                ctx.technology, module, stats.max_current_ma, stats.rail_cap_ff
            )
            self._sensors[module] = sensor
            if ctx.time_resolved_degradation:
                n = ctx.times.max_in_profile(gates, stats.activity_profile)
            else:
                n = float(stats.activity_profile.max())
            delta = ctx.degradation.delta(
                n,
                sensor.rs_ohm,
                sensor.cs_ff,
                ctx.electricals.output_cap_ff[gates],
                ctx.electricals.pulldown_res_ohm[gates],
            )
            self.delay_degraded[gates] = ctx.electricals.delay_ns[gates] * (1.0 + delta)
        self._dirty.clear()

    def sensors(self) -> dict[int, BICSensor]:
        """Sized sensors for every module (refreshes lazily)."""
        self._refresh()
        return dict(self._sensors)

    def cost_breakdown(self) -> CostBreakdown:
        """All five cost terms for the current partition."""
        self._refresh()
        ctx = self.ctx
        total_area = sum(s.area for s in self._sensors.values())
        c1 = log_guarded(total_area)
        d_bic = ctx.timing.critical_path_delay(self.delay_degraded)
        d_nom = ctx.nominal_delay_ns
        c2 = (d_bic - d_nom) / d_nom
        total_sep = sum(stats.sep_sum for stats in self.stats.values())
        c3 = log_guarded(total_sep)
        settle = max(
            settle_time_ns(sensor, ctx.technology) for sensor in self._sensors.values()
        )
        c4 = (d_bic + settle - d_nom) / d_nom
        c5 = float(self.partition.num_modules)
        return CostBreakdown(
            c1_area=c1,
            c2_delay=c2,
            c3_separation=c3,
            c4_test_time=c4,
            c5_modules=c5,
            weights=ctx.weights,
        )

    def constraint_report(self) -> ConstraintReport:
        leak = {module: stats.leak_na for module, stats in self.stats.items()}
        current = {module: stats.max_current_ma for module, stats in self.stats.items()}
        return check_constraints(self.ctx.technology, leak, current)

    def penalized_cost(self, penalty: float) -> float:
        """Cost plus penalty for constraint violation — the optimiser's
        selection criterion (feasible partitions dominate infeasible)."""
        report = self.constraint_report()
        cost = self.cost_breakdown().total
        if report.feasible:
            return cost
        return cost + penalty * (1.0 + report.violation)

    # ------------------------------------------------------------- validation
    def consistency_check(self, atol: float = 1e-6) -> None:
        """Compare every cache against a from-scratch rebuild.

        Property tests drive random move sequences through this; any
        drift in the incremental updates fails loudly here.
        """
        self.partition.check_invariants()
        for module in self.partition.module_ids:
            fresh = self._build_module_stats(module)
            cached = self.stats[module]
            if not np.allclose(cached.current_profile, fresh.current_profile, atol=atol):
                raise PartitionError(f"module {module}: current profile drifted")
            if not np.allclose(cached.activity_profile, fresh.activity_profile, atol=atol):
                raise PartitionError(f"module {module}: activity profile drifted")
            for field in ("leak_na", "sep_sum", "rail_cap_ff"):
                if abs(getattr(cached, field) - getattr(fresh, field)) > atol:
                    raise PartitionError(
                        f"module {module}: {field} drifted "
                        f"({getattr(cached, field)} vs {getattr(fresh, field)})"
                    )
        if set(self.stats) != set(self.partition.module_ids):
            raise PartitionError(
                f"stats keys {sorted(self.stats)} != modules "
                f"{sorted(self.partition.module_ids)}"
            )


class EvaluationState(_StateProtocol):
    """Dense transactional evaluation core (see module docstring).

    Module statistics are stored at *slots* — positions in contiguous
    arrays.  A module dying frees its slot (zero-filled, so full-array
    reductions stay exact); a split claims a free slot or grows the
    arrays.  All mutations route through :meth:`_aset`, which journals
    prior values while a trial is open, making :meth:`rollback` an
    exact byte-for-byte restore.
    """

    _GROW = 8

    def __init__(self, ctx: "PartitionEvaluator", partition: Partition):
        self.ctx = ctx
        self.partition = partition.copy()
        modules = list(self.partition.module_ids)
        depth_t = ctx.times.depth + 1
        s = len(modules)
        self._slot_of: dict[int, int] = {m: i for i, m in enumerate(modules)}
        self._slot_module = np.full(s, -1, dtype=np.int64)
        self._slot_module[: len(modules)] = modules
        self._free_slots: list[int] = []
        self.leak_na = np.zeros(s, dtype=np.float64)
        self.rail_cap_ff = np.zeros(s, dtype=np.float64)
        self.sep_sum = np.zeros(s, dtype=np.float64)
        self.max_current_ma = np.zeros(s, dtype=np.float64)
        self.current = np.zeros((s, depth_t), dtype=np.float64)
        self.activity = np.zeros((s, depth_t), dtype=np.float64)
        self.sensor_rs = np.zeros(s, dtype=np.float64)
        self.sensor_area = np.zeros(s, dtype=np.float64)
        self.sensor_cs = np.zeros(s, dtype=np.float64)
        self.sensor_tau = np.zeros(s, dtype=np.float64)
        self.sensor_clamped = np.zeros(s, dtype=bool)
        self.settle_ns = np.zeros(s, dtype=np.float64)
        self.delay_degraded = ctx.electricals.delay_ns.copy()
        self._arrival: np.ndarray | None = None
        self._dbic = 0.0
        self._dirty: set[int] = set(modules)
        self._journal: list | None = None
        self._trial_meta: tuple | None = None
        self._move_log: list[tuple[int, int]] = []
        # State-owned sorted membership arrays: maintained by replacement
        # (never mutated in place), journaled by reference, so they
        # survive trials and rollbacks without re-materialisation.
        self._members: dict[int, np.ndarray] = {}
        for module in modules:
            self._fill_slot(self._slot_of[module], module)

    # ------------------------------------------------------------ construction
    def _fill_slot(self, slot: int, module: int) -> None:
        """Build one module's statistics into its slot from scratch."""
        ctx = self.ctx
        gates = self.partition.gates_array(module)
        self._members[module] = gates
        self.current[slot] = ctx.times.profile(gates, ctx.electricals.peak_current_ma)
        self.activity[slot] = ctx.times.profile(gates, ctx.ones)
        self.leak_na[slot] = float(ctx.electricals.leakage_na[gates].sum())
        self.rail_cap_ff[slot] = float(ctx.electricals.rail_cap_ff[gates].sum())
        self.sep_sum[slot] = ctx.separation.module_sum(gates)
        self.max_current_ma[slot] = self.current[slot].max()

    def copy(self) -> "EvaluationState":
        if self._journal is not None:
            raise PartitionError("cannot copy a state with an open trial")
        clone = object.__new__(EvaluationState)
        clone.ctx = self.ctx
        clone.partition = self.partition.copy()
        clone._slot_of = dict(self._slot_of)
        clone._slot_module = self._slot_module.copy()
        clone._free_slots = list(self._free_slots)
        for name in (
            "leak_na",
            "rail_cap_ff",
            "sep_sum",
            "max_current_ma",
            "current",
            "activity",
            "sensor_rs",
            "sensor_area",
            "sensor_cs",
            "sensor_tau",
            "sensor_clamped",
            "settle_ns",
            "delay_degraded",
        ):
            setattr(clone, name, getattr(self, name).copy())
        clone._arrival = None if self._arrival is None else self._arrival.copy()
        clone._dbic = self._dbic
        clone._dirty = set(self._dirty)
        clone._journal = None
        clone._trial_meta = None
        clone._move_log = list(self._move_log)
        # Arrays are replaced, never mutated, so sharing them is safe.
        clone._members = dict(self._members)
        return clone

    # ----------------------------------------------------------------- journal
    def _aset(self, array: np.ndarray, index, value) -> None:
        """Assign ``array[index] = value``, journaling the prior bytes
        when a trial is open."""
        if self._journal is not None:
            self._journal.append(("arr", array, index, np.array(array[index], copy=True)))
        array[index] = value

    def _mem_set(self, module: int, members: np.ndarray | None) -> None:
        """Replace (or, with ``None``, drop) a module's membership array,
        journaling the prior reference when a trial is open."""
        if self._journal is not None:
            self._journal.append(("mem", module, self._members.get(module)))
        if members is None:
            self._members.pop(module, None)
        else:
            self._members[module] = members

    def begin_trial(self) -> None:
        """Open a trial: moves and lazy refreshes apply in place and are
        journaled; :meth:`rollback` restores the exact prior state."""
        if self._journal is not None:
            raise PartitionError("trial already open")
        self._journal = []
        self._trial_meta = (
            self.partition._next_id,
            set(self._dirty),
            len(self._move_log),
            self._dbic,
            self._arrival is not None,
        )

    def commit(self) -> None:
        if self._journal is None:
            raise PartitionError("no open trial")
        self._journal = None
        self._trial_meta = None

    def rollback(self) -> None:
        journal = self._journal
        if journal is None:
            raise PartitionError("no open trial")
        next_id, dirty, log_len, dbic, had_arrival = self._trial_meta
        self._journal = None
        self._trial_meta = None
        partition = self.partition
        for entry in reversed(journal):
            kind = entry[0]
            if kind == "arr":
                _, array, index, old = entry
                array[index] = old
            elif kind == "move":
                _, gate, source, target, source_died = entry
                if source_died:
                    partition._modules[source] = set()
                partition._modules[target].discard(gate)
                partition._modules[source].add(gate)
                partition._module_of[gate] = source
            elif kind == "bulk_move":
                _, moved, source, target, source_died = entry
                block = set(moved.tolist())
                if source_died:
                    partition._modules[source] = set()
                partition._modules[target] -= block
                partition._modules[source] |= block
                partition._module_of[moved] = source
            elif kind == "mem":
                _, module, members = entry
                if members is None:
                    self._members.pop(module, None)
                else:
                    self._members[module] = members
            else:  # "slot_del": a module death freed a slot
                _, module, slot = entry
                self._slot_of[module] = slot
                self._free_slots.remove(slot)
        # The version counter is NOT restored: versions must never be
        # reused, or version-keyed caches (the membership cache, the
        # IDDQ engine's per-partition caches) could serve content from
        # the rolled-back timeline.  One extra bump makes every version
        # observed during the trial permanently stale.
        partition._version += 1
        partition._next_id = next_id
        self._dirty = dirty
        self._dbic = dbic
        if not had_arrival:
            # The arrival vector was first materialised during the trial
            # (against trial-time delays); drop it so the next refresh
            # rebuilds from the restored delays.
            self._arrival = None
        del self._move_log[log_len:]

    # ------------------------------------------------------------------ moves
    def _slot(self, module: int) -> int:
        slot = self._slot_of.get(module)
        if slot is None:
            raise PartitionError(f"no module {module}")
        return slot

    def move_gate(self, gate: int, target_module: int) -> int:
        """Move a gate, updating both touched slots; returns the source
        module id.  Inside a trial every write is journaled."""
        ctx = self.ctx
        partition = self.partition
        source = partition.module_of(gate)
        if source == target_module:
            raise PartitionError(f"gate {gate} already in module {target_module}")
        tgt_slot = self._slot(target_module)
        src_slot = self._slot_of[source]

        src_members = self._members[source]
        tgt_members = self._members[target_module]
        separation = ctx.separation
        self._aset(
            self.sep_sum,
            src_slot,
            self.sep_sum[src_slot] - separation.sum_to_group(gate, src_members),
        )
        self._aset(
            self.sep_sum,
            tgt_slot,
            self.sep_sum[tgt_slot] + separation.sum_to_group(gate, tgt_members),
        )

        times = ctx.times.times[gate]
        peak = ctx.electricals.peak_current_ma[gate]
        self._aset(self.current, (src_slot, times), self.current[src_slot, times] - peak)
        self._aset(self.current, (tgt_slot, times), self.current[tgt_slot, times] + peak)
        self._aset(
            self.activity, (src_slot, times), self.activity[src_slot, times] - 1.0
        )
        self._aset(
            self.activity, (tgt_slot, times), self.activity[tgt_slot, times] + 1.0
        )
        leak = ctx.electricals.leakage_na[gate]
        rail = ctx.electricals.rail_cap_ff[gate]
        self._aset(self.leak_na, src_slot, self.leak_na[src_slot] - leak)
        self._aset(self.leak_na, tgt_slot, self.leak_na[tgt_slot] + leak)
        self._aset(self.rail_cap_ff, src_slot, self.rail_cap_ff[src_slot] - rail)
        self._aset(self.rail_cap_ff, tgt_slot, self.rail_cap_ff[tgt_slot] + rail)
        self._aset(self.max_current_ma, src_slot, self.current[src_slot].max())
        self._aset(self.max_current_ma, tgt_slot, self.current[tgt_slot].max())

        source_died = partition.module_size(source) == 1
        if self._journal is not None:
            self._journal.append(("move", gate, source, target_module, source_died))
        partition.move_gate(gate, target_module)
        if source_died:
            self._release_slot(source, src_slot)
            self._dirty.discard(source)
        else:
            self._mem_set(
                source, np.delete(src_members, np.searchsorted(src_members, gate))
            )
            self._dirty.add(source)
        self._mem_set(
            target_module,
            np.insert(tgt_members, np.searchsorted(tgt_members, gate), gate),
        )
        self._dirty.add(target_module)
        self._move_log.append((gate, target_module))
        return source

    def move_gates(self, gates: Iterable[int], target_module: int) -> None:
        """Move a batch of gates, vectorising maximal same-source runs.

        A Monte-Carlo mutation moves hundreds of gates from one module
        in a single operation; doing that one :meth:`move_gate` at a
        time re-gathers both memberships and re-maxes both profiles per
        gate.  The bulk path computes the *sequential* per-gate deltas
        in closed form (the separation corrections are the strict lower
        triangle of the moved set's own distance matrix), applies the
        profile updates as one scatter pass in the same per-gate order,
        and touches the partition once per gate — the resulting state is
        bit-identical to the per-gate loop.
        """
        gates = [int(g) for g in gates]
        partition = self.partition
        i = 0
        while i < len(gates):
            source = partition.module_of(gates[i])
            j = i + 1
            while j < len(gates) and partition.module_of(gates[j]) == source:
                j += 1
            run = gates[i:j]
            if len(run) == 1:
                self.move_gate(run[0], target_module)
            else:
                self._bulk_move(run, source, target_module)
            i = j

    def _bulk_move(self, run: list[int], source: int, target_module: int) -> None:
        ctx = self.ctx
        partition = self.partition
        if source == target_module:
            raise PartitionError(
                f"gate {run[0]} already in module {target_module}"
            )
        tgt_slot = self._slot(target_module)
        src_slot = self._slot_of[source]
        moved = np.asarray(run, dtype=np.int64)

        # Sequential-equivalent separation deltas: gate k's source delta
        # is its sum to the *remaining* source members, i.e. the full sum
        # minus its distances to the already-moved gates (strict lower
        # triangle); the target delta gains the same correction.
        matrix = ctx.separation.matrix
        src_members = self._members[source]
        tgt_members = self._members[target_module]
        rows = matrix[moved]  # one contiguous row gather shared by all three sums
        to_src = rows[:, src_members].sum(axis=1, dtype=np.int64)
        to_tgt = rows[:, tgt_members].sum(axis=1, dtype=np.int64)
        within = np.tril(rows[:, moved].astype(np.int64), -1).sum(axis=1)
        src_sep = self.sep_sum[src_slot]
        tgt_sep = self.sep_sum[tgt_slot]
        for src_delta, tgt_delta in zip(
            (to_src - within).tolist(), (to_tgt + within).tolist()
        ):
            src_sep -= float(src_delta)
            tgt_sep += float(tgt_delta)
        self._aset(self.sep_sum, src_slot, src_sep)
        self._aset(self.sep_sum, tgt_slot, tgt_sep)

        # Profile deltas: one flattened scatter pass in per-gate order —
        # the same addition sequence as the per-gate loop.
        times = ctx.times
        slots_flat, counts = csr_gather(times.times_indptr, times.times_flat, moved)
        peak_rep = np.repeat(ctx.electricals.peak_current_ma[moved], counts)
        self._aset(self.current, src_slot, self.current[src_slot].copy())
        self._aset(self.current, tgt_slot, self.current[tgt_slot].copy())
        self._aset(self.activity, src_slot, self.activity[src_slot].copy())
        self._aset(self.activity, tgt_slot, self.activity[tgt_slot].copy())
        np.subtract.at(self.current[src_slot], slots_flat, peak_rep)
        np.add.at(self.current[tgt_slot], slots_flat, peak_rep)
        np.subtract.at(self.activity[src_slot], slots_flat, 1.0)
        np.add.at(self.activity[tgt_slot], slots_flat, 1.0)

        src_leak = self.leak_na[src_slot]
        tgt_leak = self.leak_na[tgt_slot]
        src_rail = self.rail_cap_ff[src_slot]
        tgt_rail = self.rail_cap_ff[tgt_slot]
        for leak, rail in zip(
            ctx.electricals.leakage_na[moved].tolist(),
            ctx.electricals.rail_cap_ff[moved].tolist(),
        ):
            src_leak -= leak
            tgt_leak += leak
            src_rail -= rail
            tgt_rail += rail
        self._aset(self.leak_na, src_slot, src_leak)
        self._aset(self.leak_na, tgt_slot, tgt_leak)
        self._aset(self.rail_cap_ff, src_slot, src_rail)
        self._aset(self.rail_cap_ff, tgt_slot, tgt_rail)
        self._aset(self.max_current_ma, src_slot, self.current[src_slot].max())
        self._aset(self.max_current_ma, tgt_slot, self.current[tgt_slot].max())

        source_dies = partition.module_size(source) == len(run)
        if self._journal is not None:
            self._journal.append(
                ("bulk_move", moved, source, target_module, source_dies)
            )
        partition.move_gates(run, target_module)
        moved_sorted = np.sort(moved)
        if source_dies:
            self._release_slot(source, src_slot)
            self._dirty.discard(source)
        else:
            keep = ~np.isin(src_members, moved_sorted, assume_unique=True)
            self._mem_set(source, src_members[keep])
            self._dirty.add(source)
        self._mem_set(
            target_module,
            np.insert(
                tgt_members,
                np.searchsorted(tgt_members, moved_sorted),
                moved_sorted,
            ),
        )
        self._dirty.add(target_module)
        self._move_log.extend((gate, target_module) for gate in run)

    def _release_slot(self, module: int, slot: int) -> None:
        """Zero a dead module's slot so full-array reductions stay exact."""
        if self._journal is not None:
            self._journal.append(("slot_del", module, slot))
        self._mem_set(module, None)
        del self._slot_of[module]
        self._free_slots.append(slot)
        self._aset(self._slot_module, slot, -1)
        for array in (
            self.leak_na,
            self.rail_cap_ff,
            self.sep_sum,
            self.max_current_ma,
            self.sensor_rs,
            self.sensor_area,
            self.sensor_cs,
            self.sensor_tau,
            self.settle_ns,
        ):
            self._aset(array, slot, 0.0)
        self._aset(self.sensor_clamped, slot, False)
        self._aset(self.current, slot, 0.0)
        self._aset(self.activity, slot, 0.0)

    def _claim_slot(self, module: int) -> int:
        """Allocate a slot for a new module (outside trials only)."""
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = len(self._slot_module)
            grow = EvaluationState._GROW
            self._slot_module = np.concatenate(
                [self._slot_module, np.full(grow, -1, dtype=np.int64)]
            )
            for name in (
                "leak_na",
                "rail_cap_ff",
                "sep_sum",
                "max_current_ma",
                "sensor_rs",
                "sensor_area",
                "sensor_cs",
                "sensor_tau",
                "settle_ns",
            ):
                old = getattr(self, name)
                setattr(self, name, np.concatenate([old, np.zeros(grow)]))
            self.sensor_clamped = np.concatenate(
                [self.sensor_clamped, np.zeros(grow, dtype=bool)]
            )
            pad = np.zeros((grow, self.current.shape[1]))
            self.current = np.concatenate([self.current, pad])
            self.activity = np.concatenate([self.activity, pad.copy()])
        self._slot_of[module] = slot
        self._slot_module[slot] = module
        return slot

    def split_new_module(self, gates) -> int:
        """Create a new module from ``gates``; rebuilds only the touched
        modules (cold path, not allowed inside trials)."""
        if self._journal is not None:
            raise PartitionError("split_new_module not allowed inside a trial")
        gates = list(gates)
        if not gates:
            raise PartitionError("cannot create an empty module")
        sources = {self.partition.module_of(gate) for gate in gates}
        new_id = self.partition.split_new_module(gates)
        self._claim_slot(new_id)
        self._rebuild_touched(sources | {new_id})
        return new_id

    def merge_modules(self, keep: int, absorb: int) -> None:
        """Merge ``absorb`` into ``keep`` (rebuilds only ``keep``)."""
        if self._journal is not None:
            raise PartitionError("merge_modules not allowed inside a trial")
        self.partition.merge_modules(keep, absorb)
        self._rebuild_touched({keep, absorb})

    def _rebuild_touched(self, modules: set[int]) -> None:
        alive = set(self.partition.module_ids)
        for module in sorted(modules):
            if module in alive:
                self._fill_slot(self._slot(module), module)
                self._dirty.add(module)
            elif module in self._slot_of:
                self._release_slot(module, self._slot_of[module])
                self._dirty.discard(module)

    # ------------------------------------------------------------ derived data
    def _refresh(self) -> None:
        """Re-size sensors, re-degrade delays and re-time the critical
        path for modified modules — vectorised across the dirty set."""
        ctx = self.ctx
        if self._dirty:
            dirty = sorted(self._dirty)
            slots = np.asarray([self._slot_of[m] for m in dirty], dtype=np.int64)
            rs, area, cs, tau, clamped = size_sensors(
                ctx.technology,
                self.max_current_ma[slots],
                self.rail_cap_ff[slots],
            )
            self._aset(self.sensor_rs, slots, rs)
            self._aset(self.sensor_area, slots, area)
            self._aset(self.sensor_cs, slots, cs)
            self._aset(self.sensor_tau, slots, tau)
            self._aset(self.sensor_clamped, slots, clamped)
            self._aset(
                self.settle_ns,
                slots,
                settle_times_ns(self.max_current_ma[slots], tau, ctx.technology),
            )
            changed: list[np.ndarray] = []
            for module, slot, rs_i, cs_i in zip(dirty, slots, rs, cs):
                gates = self._members[module]
                if ctx.time_resolved_degradation:
                    n = ctx.times.max_in_profile(gates, self.activity[slot])
                else:
                    n = float(self.activity[slot].max())
                delta = ctx.degradation.delta(
                    n,
                    rs_i,
                    cs_i,
                    ctx.electricals.output_cap_ff[gates],
                    ctx.electricals.pulldown_res_ohm[gates],
                )
                fresh = ctx.electricals.delay_ns[gates] * (1.0 + delta)
                diff = fresh != self.delay_degraded[gates]
                if diff.any():
                    idx = gates[diff]
                    self._aset(self.delay_degraded, idx, fresh[diff])
                    changed.append(idx)
            self._dirty.clear()
        else:
            changed = []
        incremental = ctx.timing.incremental
        if self._arrival is None:
            self._arrival = incremental.full_arrival(self.delay_degraded)
            self._dbic = float(self._arrival.max()) if self._arrival.size else 0.0
        elif changed:
            touched, old = incremental.update(self._arrival, self.delay_degraded)
            if self._journal is not None and touched.size:
                self._journal.append(("arr", self._arrival, touched, old))
            self._dbic = float(self._arrival.max())

    def sensors(self) -> dict[int, BICSensor]:
        """Sized sensors for every module (refreshes lazily; cold path —
        builds :class:`BICSensor` objects from the slot arrays)."""
        self._refresh()
        out: dict[int, BICSensor] = {}
        for module in sorted(self._slot_of):
            slot = self._slot_of[module]
            rs = float(self.sensor_rs[slot])
            current = float(self.max_current_ma[slot])
            out[module] = BICSensor(
                module_id=module,
                rs_ohm=rs,
                area=float(self.sensor_area[slot]),
                cs_ff=float(self.sensor_cs[slot]),
                tau_ns=float(self.sensor_tau[slot]),
                max_current_ma=current,
                rail_perturbation_v=rs * current * 1e-3,
                rs_clamped=bool(self.sensor_clamped[slot]),
            )
        return out

    @property
    def stats(self) -> dict[int, ModuleStats]:
        """Per-module statistics as :class:`ModuleStats` views (cold
        path; profile rows are live views into the slot matrices)."""
        out: dict[int, ModuleStats] = {}
        for module in sorted(self._slot_of):
            slot = self._slot_of[module]
            out[module] = ModuleStats(
                self.current[slot],
                self.activity[slot],
                float(self.leak_na[slot]),
                float(self.sep_sum[slot]),
                float(self.rail_cap_ff[slot]),
            )
        return out

    def cost_breakdown(self) -> CostBreakdown:
        """All five cost terms — pure reductions over the slot arrays
        (dead slots hold exact zeros and contribute nothing)."""
        self._refresh()
        ctx = self.ctx
        c1 = log_guarded(float(self.sensor_area.sum()))
        d_bic = self._dbic
        d_nom = ctx.nominal_delay_ns
        c2 = (d_bic - d_nom) / d_nom
        c3 = log_guarded(float(self.sep_sum.sum()))
        settle = float(self.settle_ns.max())
        c4 = (d_bic + settle - d_nom) / d_nom
        c5 = float(self.partition.num_modules)
        return CostBreakdown(
            c1_area=c1,
            c2_delay=c2,
            c3_separation=c3,
            c4_test_time=c4,
            c5_modules=c5,
            weights=ctx.weights,
        )

    def constraint_report(self) -> ConstraintReport:
        """Full ``Γ`` report (cold path; the hot path uses the array
        reduction directly in :meth:`penalized_cost`)."""
        feasible, violation, disc, rail_ok = check_constraints_arrays(
            self.ctx.technology, self.leak_na, self.max_current_ma
        )
        modules = sorted(self._slot_of)
        slots = [self._slot_of[m] for m in modules]
        return ConstraintReport(
            feasible=bool(feasible),
            violation=float(violation),
            discriminability={m: float(disc[s]) for m, s in zip(modules, slots)},
            rail_ok={m: bool(rail_ok[s]) for m, s in zip(modules, slots)},
        )

    def penalized_cost(self, penalty: float) -> float:
        """Cost plus penalty for constraint violation — the optimiser's
        selection criterion, with no per-module Python work."""
        feasible, violation, _, _ = check_constraints_arrays(
            self.ctx.technology, self.leak_na, self.max_current_ma
        )
        cost = self.cost_breakdown().total
        if feasible:
            return cost
        return cost + penalty * (1.0 + float(violation))

    # ----------------------------------------------------------- gain kernel
    def trial_moves(
        self, candidates: Sequence[Sequence[tuple[int, int]]], penalty: float
    ) -> np.ndarray:
        """Batched gain kernel: the penalised cost of every candidate, an
        ordered list of ``(gate, target)`` moves evaluated independently
        from the current state.  Each score is bit-identical to
        ``trial_cost(candidate)`` followed by :meth:`rollback`, and the
        state is never mutated.

        Every move splits into a source and a target *event*, and events
        group per (candidate, module).  Each statistic has a closed form
        per group:

        * leakage, rail capacitance and the current/activity profiles
          are ordered ``np.add.at`` scatters over the events in move
          order, so every element sees the same ± sequence that
          :meth:`move_gate` and :meth:`_bulk_move` apply;
        * separation sums are integers, exact in any order: a group's
          delta is ``Σ u_j·S(g_j) + uᵀDu / 2``, with ``u_j = ±1`` the
          direction of move ``j`` for that module, ``S`` the sums
          against the current memberships and ``D`` the moved gates'
          own distances;
        * sensor sizing and ``Γ`` run over ``(C, S)`` candidate matrices
          at the state's own slot width (zero-padding would regroup
          numpy's pairwise sums);
        * ``D_BIC``: each row carries the degraded delays of its touched
          modules' union columns (final memberships, final sensors), and
          up to 192 rows share one
          :meth:`IncrementalTiming.retime_batch` sweep.

        Like the sequential trial, a move into the gate's own module, a
        missing module or one the candidate has already emptied raises
        :class:`PartitionError`.
        """
        count = len(candidates)
        if count == 0:
            return np.empty(0, dtype=np.float64)
        obs.METRICS.inc("optimize.trial_moves.calls")
        obs.METRICS.inc("optimize.trial_moves.candidates", count)
        if self._journal is not None:
            raise PartitionError("trial_moves not allowed inside an open trial")
        self._refresh()
        ctx = self.ctx
        partition = self.partition
        electricals = ctx.electricals
        num_slots = len(self._slot_module)
        module_of = partition._module_of

        lengths = np.fromiter(map(len, candidates), dtype=np.int64, count=count)
        total = int(lengths.sum())
        moves = np.fromiter(
            chain.from_iterable(chain.from_iterable(candidates)),
            dtype=np.int64,
            count=2 * total,
        ).reshape(total, 2)
        gates = moves[:, 0]
        targets = moves[:, 1]
        cand = np.repeat(np.arange(count), lengths)
        sources = module_of[gates].astype(np.int64)
        # Each (candidate, gate)'s last move decides where the gate ends.
        # A gate moved twice leaves from where its earlier move put it.
        keys = cand * len(module_of) + gates
        final_moves = np.arange(total)
        if (np.diff(np.sort(keys)) == 0).any():
            _, last = np.unique(keys[::-1], return_index=True)
            final_moves = np.sort(total - 1 - last)
            where: dict[tuple[int, int], int] = {}
            for j, key in enumerate(zip(cand.tolist(), gates.tolist())):
                sources[j] = where.get(key, sources[j])
                where[key] = int(targets[j])

        slot_map = np.full(partition._next_id, -1, dtype=np.int64)
        for module, slot in self._slot_of.items():
            slot_map[module] = slot
        known = (targets >= 0) & (targets < len(slot_map))
        tgt_slot = np.where(known, slot_map[np.where(known, targets, 0)], -1)
        if (tgt_slot < 0).any():
            raise PartitionError("candidate move into a missing module")
        if (sources == targets).any():
            raise PartitionError("candidate move into the gate's own module")
        src_slot = slot_map[sources]

        # Events in move order: move j's source event is 2j, its target
        # event 2j + 1.  Groups are (candidate, slot), candidate-major.
        step = np.ones(2 * total, dtype=np.int64)
        step[0::2] = -1
        event_gate = np.repeat(gates, 2)
        event_key = (
            np.repeat(cand, 2) * num_slots
            + np.stack([src_slot, tgt_slot], axis=1).ravel()
        )
        touched = np.zeros(count * num_slots, dtype=bool)
        touched[event_key] = True
        group_key = np.flatnonzero(touched)
        num_groups = group_key.size
        event_group = (np.cumsum(touched) - 1)[event_key]
        g_cand = group_key // num_slots
        g_slot = group_key % num_slots
        g_module = self._slot_module[g_slot]
        # Running module sizes in move order: a target reached at size 0
        # was emptied by an earlier move of the same candidate.
        size0 = np.bincount(slot_map[module_of], minlength=num_slots)[g_slot]
        order = np.argsort(event_group, kind="stable")
        running = np.cumsum(step[order])
        offset = np.concatenate(([0], running))[
            np.searchsorted(event_group[order], np.arange(num_groups))
        ]
        size_after = size0[event_group[order]] + running - offset[event_group[order]]
        if ((step[order] > 0) & (size_after == 1)).any():
            raise PartitionError(
                "candidate moves a gate into a module it has already emptied "
                "(e.g. a swap out of a 1-gate module)"
            )
        dying = size0 + np.bincount(
            event_group, weights=step, minlength=num_groups
        ).astype(np.int64) == 0

        # --- ordered scatters: leakage, rail and both profiles.
        leak = self.leak_na[g_slot]
        rail = self.rail_cap_ff[g_slot]
        np.add.at(leak, event_group, step * electricals.leakage_na[event_gate])
        np.add.at(rail, event_group, step * electricals.rail_cap_ff[event_gate])
        times = ctx.times
        time_slots, time_counts = csr_gather(
            times.times_indptr, times.times_flat, event_gate
        )
        width = self.current.shape[1]
        entry = np.repeat(event_group, time_counts) * width + time_slots
        entry_step = np.repeat(step, time_counts)
        current = self.current[g_slot]
        activity = self.activity[g_slot]
        np.add.at(
            current.ravel(),
            entry,
            entry_step
            * np.repeat(electricals.peak_current_ma[event_gate], time_counts),
        )
        np.add.at(activity.ravel(), entry, entry_step.astype(np.float64))
        max_current = np.where(dying, 0.0, current.max(axis=1))
        rs, area, cs, tau, _ = size_sensors(ctx.technology, max_current, rail)
        settle = settle_times_ns(max_current, tau, ctx.technology)

        # --- separation, first order: each event's distance sum to its
        # module's current members (integers, so float32 BLAS sums are
        # exact while they stay below 2**24).
        matrix = ctx.separation.matrix
        exact = np.float32 if 255 * matrix.shape[0] < 2**24 else np.float64
        event_module = g_module[event_group]
        first = np.empty(2 * total, dtype=np.float64)
        for module in np.unique(event_module).tolist():
            sel = np.flatnonzero(event_module == module)
            members = self._members[module]
            first[sel] = matrix[event_gate[sel]][:, members].astype(exact) @ np.ones(
                members.size, dtype=exact
            )
        sep = self.sep_sum[g_slot] + np.bincount(
            event_group, weights=step * first, minlength=num_groups
        )
        # Second order, uᵀDu / 2 per multi-move candidate: u holds each
        # move's direction (-1 leaving, +1 entering) in its two groups.
        group_start = np.searchsorted(g_cand, np.arange(count + 1))
        move_start = np.cumsum(lengths) - lengths
        src, tgt = event_group[0::2], event_group[1::2]
        for c in np.flatnonzero(lengths > 1).tolist():
            lo, hi = move_start[c], move_start[c] + lengths[c]
            glo, ghi = group_start[c], group_start[c + 1]
            u = np.zeros((hi - lo, ghi - glo))
            u[np.arange(hi - lo), src[lo:hi] - glo] = -1.0
            u[np.arange(hi - lo), tgt[lo:hi] - glo] = 1.0
            moved = gates[lo:hi]
            dist = matrix[moved][:, moved].astype(np.float64)
            sep[glo:ghi] += ((dist @ u) * u).sum(axis=0) / 2

        # --- D_BIC per chunk of up to 192 candidates: every touched
        # module's final members re-degraded under the group's sensor,
        # retimed in one stacked sweep.
        d_bic = np.full(count, self._dbic, dtype=np.float64)
        delays = self.delay_degraded
        time_resolved = ctx.time_resolved_degradation
        n_group = None if time_resolved else activity.max(axis=1)
        final_cand = cand[final_moves]
        position = np.empty(len(module_of), dtype=np.int64)
        for lo in range(0, count, 192):
            hi = min(lo + 192, count)
            glo, ghi = np.searchsorted(g_cand, [lo, hi])
            mods = np.unique(g_module[glo:ghi])
            if mods.size == 0:
                continue  # only empty candidates: the current D_BIC
            members = [self._members[m] for m in mods.tolist()]
            member_cat = np.concatenate(members)
            cols = np.sort(member_cat)
            position[cols] = np.arange(cols.size)
            mod_sizes = np.array([m.size for m in members])
            which = np.searchsorted(mods, g_module[glo:ghi])
            sizes = mod_sizes[which]
            # One entry per (row, member of a touched module): the group
            # its gate ends up in — its module's, or its last move's.
            entry_row = np.repeat(g_cand[glo:ghi] - lo, sizes)
            gate = member_cat[
                _ragged_arange((np.cumsum(mod_sizes) - mod_sizes)[which], sizes)
            ]
            at = position[gate]
            home = np.empty((hi - lo, cols.size), dtype=np.int64)
            home[entry_row, at] = np.repeat(np.arange(glo, ghi), sizes)
            flo, fhi = np.searchsorted(final_cand, [lo, hi])
            last = final_moves[flo:fhi]
            home[cand[last] - lo, position[gates[last]]] = event_group[2 * last + 1]
            group = home[entry_row, at]
            if time_resolved:
                slots, counts = csr_gather(times.times_indptr, times.times_flat, gate)
                n = np.maximum.reduceat(
                    activity[np.repeat(group, counts), slots],
                    np.cumsum(counts) - counts,
                )
            else:
                n = n_group[group]
            delta = ctx.degradation.delta(
                n,
                rs[group],
                cs[group],
                electricals.output_cap_ff[gate],
                electricals.pulldown_res_ohm[gate],
            )
            over = np.empty((hi - lo, cols.size), dtype=np.float64)
            over[:] = delays[cols]
            over[entry_row, at] = electricals.delay_ns[gate] * (1.0 + delta)
            d_bic[lo:hi] = ctx.timing.incremental.retime_batch(
                self._arrival, delays, cols, over
            )

        # --- Γ and the cost terms over (C, S) candidate matrices: base
        # values with each group's column replaced (dying modules hold 0).
        def candidate_matrix(base, values):
            out = np.broadcast_to(base, (count, num_slots)).copy()
            out[g_cand, g_slot] = np.where(dying, 0.0, values)
            return out

        total_area = candidate_matrix(self.sensor_area, area).sum(axis=1)
        total_sep = candidate_matrix(self.sep_sum, sep).sum(axis=1)
        settle_max = candidate_matrix(self.settle_ns, settle).max(axis=1)
        feasible, violation, _, _ = check_constraints_arrays(
            ctx.technology,
            candidate_matrix(self.leak_na, leak),
            candidate_matrix(self.max_current_ma, max_current),
        )
        d_nom = ctx.nominal_delay_ns
        weights = ctx.weights
        c1 = np.log1p(np.maximum(total_area, 0.0))
        c2 = (d_bic - d_nom) / d_nom
        c3 = np.log1p(np.maximum(total_sep, 0.0))
        c4 = (d_bic + settle_max - d_nom) / d_nom
        c5 = (
            partition.num_modules - np.bincount(g_cand[dying], minlength=count)
        ).astype(np.float64)
        costs = (
            weights.area * c1
            + weights.delay * c2
            + weights.separation * c3
            + weights.test_time * c4
            + weights.modules * c5
        )
        return costs + np.where(feasible, 0.0, penalty * (1.0 + violation))

    # ------------------------------------------------------------- validation
    def consistency_check(self, atol: float = 1e-6) -> None:
        """Compare every slot against a from-scratch rebuild, and the
        maintained arrival vector against a full longest-path pass."""
        self.partition.check_invariants()
        ctx = self.ctx
        if set(self._slot_of) != set(self.partition.module_ids):
            raise PartitionError(
                f"slots {sorted(self._slot_of)} != modules "
                f"{sorted(self.partition.module_ids)}"
            )
        if set(self._members) != set(self._slot_of):
            raise PartitionError(
                f"membership keys {sorted(self._members)} != modules "
                f"{sorted(self._slot_of)}"
            )
        for module in self.partition.module_ids:
            slot = self._slot_of[module]
            if self._slot_module[slot] != module:
                raise PartitionError(f"slot table disagrees for module {module}")
            gates = self.partition.gates_array(module)
            if not np.array_equal(self._members[module], gates):
                raise PartitionError(f"module {module}: membership array drifted")
            current = ctx.times.profile(gates, ctx.electricals.peak_current_ma)
            activity = ctx.times.profile(gates, ctx.ones)
            if not np.allclose(self.current[slot], current, atol=atol):
                raise PartitionError(f"module {module}: current profile drifted")
            if not np.allclose(self.activity[slot], activity, atol=atol):
                raise PartitionError(f"module {module}: activity profile drifted")
            expected = {
                "leak_na": float(ctx.electricals.leakage_na[gates].sum()),
                "rail_cap_ff": float(ctx.electricals.rail_cap_ff[gates].sum()),
                "sep_sum": ctx.separation.module_sum(gates),
                "max_current_ma": float(current.max()),
            }
            for field, fresh in expected.items():
                cached = float(getattr(self, field)[slot])
                if abs(cached - fresh) > atol:
                    raise PartitionError(
                        f"module {module}: {field} drifted ({cached} vs {fresh})"
                    )
        dead = np.setdiff1d(
            np.arange(len(self._slot_module)), list(self._slot_of.values())
        )
        if dead.size:
            if (self._slot_module[dead] != -1).any():
                raise PartitionError("freed slot still maps to a module")
            for array in (self.leak_na, self.sep_sum, self.sensor_area, self.settle_ns):
                if array[dead].any():
                    raise PartitionError("freed slot holds non-zero statistics")
        if self._arrival is not None:
            full = ctx.timing.arrival_times(self.delay_degraded)
            if not np.array_equal(self._arrival, full):
                raise PartitionError("maintained arrival times drifted")
            if self._dbic != (float(full.max()) if full.size else 0.0):
                raise PartitionError("maintained critical path drifted")
