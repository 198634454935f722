"""The packed-word simulation kernel: :class:`SimBackend`.

One class owns the bitset kernels every fault-simulation and analysis
layer runs on:

* :meth:`SimBackend.run_schedule` — a full pass over
  :meth:`CompiledGraph.fused_schedule`, the simulation schedule
  re-batched so same-op gates from different levels share one dispatch
  wherever the fusion legality rule allows (a batch may only read rows
  written by strictly earlier batches).  Each batch evaluates as one
  unpadded gather over its flattened fanin segments plus one
  ``op.reduceat``; inversion words are applied only for batches that
  contain at least one inverting gate.  Pinned nets (stuck-at
  injection) are re-asserted after every batch: within a batch every
  member reads state as of the batch start, so a pinned row overwritten
  by the batch is restored before anything can observe the overwrite.
* :meth:`SimBackend.run_cone` — event-driven replay behind
  :meth:`~repro.faultsim.logic_sim.LogicSimulator.simulate_delta`:
  given a state holding a complete earlier evaluation whose input rows
  were just overwritten, re-evaluate only the gates a value event
  actually reaches.
* :meth:`SimBackend.gather_or_segments` — the segmented bitset OR of
  the separation-matrix BFS.

Contract: every kernel produces **bit-identical** packed words to
:class:`~repro.faultsim.logic_sim.ReferenceLogicSimulator`; the
equivalence suite enforces this.

Event-driven replay.  The static fanout-cone bitsets
(:meth:`CompiledGraph.slot_closure`) bound which gates a flipped net
*can* reach; on densely connected circuits that bound is loose — a
single C7552 input cone covers ~85% of the gates — while the set of
gates whose packed words actually change is tiny, because flips die at
the first controlling side-input.  So instead of replaying a whole
static cone, the kernel propagates value events: a changed net enqueues
its fanout gates, a re-evaluated gate whose words are unchanged
enqueues nothing, and gates no event reaches are never touched.

Events are slot ids in a heap (ascending slot = evaluation order); a
gate's fanout always lands on a strictly later slot, so when a slot is
popped every producer is final and each gate is evaluated at most once.
Because a typical wave is a few hundred *tiny* evaluations strung along
a deep dependency chain, vectorisation has nothing to amortise — numpy
call overhead dominates at this size — so the wave is evaluated on
native Python integers instead: each touched row's packed words load
once as one arbitrary-precision int, gates evaluate with 2-5 bigint
bitops, and only rows that actually changed are written back to the
numpy state.  A precompiled per-circuit plan (fanin rows, base op,
inversion mask, fanout slots, all as plain lists) keeps the inner loop
free of numpy indexing.

**Incremental invalidation rule:** a gate's output must be recomputed
iff one of its fanin rows changed; gates outside the event set keep
values bit-identical to a full evaluation by induction over slot order.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

from repro import obs
from repro.netlist.compiled import (
    _BASE_OP,
    GATE_TYPE_CODES,
    OP_AND,
    OP_OR,
    CompiledGraph,
)

__all__ = ["KERNEL", "SimBackend"]


class SimBackend:
    """Kernel provider for compiled-graph simulation.

    State matrices are ``(num_sim_rows, words)`` ``uint64`` arrays laid
    out exactly as :class:`~repro.netlist.compiled.CompiledGraph`
    prescribes: node rows in ``all_names`` order followed by the
    all-zeros and all-ones identity rows.  Input rows (and the identity
    rows) are filled by the caller; ``run_schedule`` computes every gate
    row.  The only state is the per-circuit event-plan cache, so one
    shared instance (:data:`KERNEL`) serves every consumer.
    """

    #: MRU slots for per-circuit event plans (entries hold the compiled
    #: graph, so ids stay valid).
    _PLAN_SLOTS = 8

    def __init__(self) -> None:
        self._plans: dict[int, tuple[CompiledGraph, tuple]] = {}

    def run_schedule(
        self, cg: CompiledGraph, state: np.ndarray, pinned_rows: np.ndarray
    ) -> None:
        """Evaluate every gate row of ``state`` in fused-schedule order.

        ``pinned_rows`` lists node rows the caller pre-forced to a
        constant (stuck-at injection); their values survive the pass.
        """
        obs.METRICS.inc("backend.full_pass")
        with obs.TRACER.span("backend.full_pass", words=int(state.shape[1])):
            pinned_values = state[pinned_rows] if pinned_rows.size else None
            for group in cg.fused_schedule().groups:
                gathered = state[group.fanins]  # (edges, words)
                if group.op == OP_AND:
                    acc = np.bitwise_and.reduceat(gathered, group.offsets, axis=0)
                elif group.op == OP_OR:
                    acc = np.bitwise_or.reduceat(gathered, group.offsets, axis=0)
                else:
                    acc = np.bitwise_xor.reduceat(gathered, group.offsets, axis=0)
                if group.has_invert:
                    acc ^= group.invert
                state[group.dst] = acc
                if pinned_values is not None:
                    state[pinned_rows] = pinned_values

    def run_cone(
        self,
        cg: CompiledGraph,
        state: np.ndarray,
        changed_nodes: np.ndarray,
        value_cache: dict[int, int] | None = None,
    ) -> np.ndarray:
        """Re-evaluate only the gates value events from ``changed_nodes``
        reach.

        ``state`` holds a previously computed full evaluation whose
        ``changed_nodes`` rows the caller has overwritten; on return all
        gate rows are bit-identical to a full re-evaluation.  Returns
        the int32 gate rows whose packed words changed, so callers can
        patch derived per-node structures.  ``value_cache`` optionally
        carries rows already materialised as Python ints from an earlier
        call over the same state; every entry must equal the
        corresponding ``state`` row, and the dict is updated in place to
        match the new state.
        """
        # Counters only: a cone replay is far too hot (and too short)
        # for a span per call; ``trace-report`` derives mean wave size
        # from changed_rows / calls.
        obs.METRICS.inc("backend.run_cone")
        fanins_of_slot, op_of_slot, inverts, node_of_slot, fanout_slots = (
            self._plan(cg)
        )
        num_words = state.shape[1]
        nbytes = num_words * 8
        ones = (1 << (8 * nbytes)) - 1

        # Row value cache: packed words as one big int per touched row,
        # sliced zero-copy out of a flat byte view of the state (a
        # memoryview slice beats a numpy getitem per row).  Rows with
        # pending new values live in the dict, so the stale underlying
        # bytes are never read for them; untouched rows are immutable
        # for the duration of the call (write-back happens at the end).
        # A caller-carried ``value_cache`` pre-populates the dict, so a
        # walk of consecutive deltas converts each touched row once.
        raw = memoryview(np.ascontiguousarray(state)).cast("B")
        values: dict[int, int] = value_cache if value_cache is not None else {}

        def load(row: int) -> int:
            value = values.get(row)
            if value is None:
                start = row * nbytes
                value = int.from_bytes(raw[start : start + nbytes], "little")
                values[row] = value
            return value

        heap: list[int] = []
        queued = bytearray(len(node_of_slot))
        for node in np.asarray(changed_nodes, dtype=np.int64).tolist():
            for slot in fanout_slots[node]:
                if not queued[slot]:
                    queued[slot] = 1
                    heappush(heap, slot)

        changed_rows: list[int] = []
        while heap:
            slot = heappop(heap)
            fanins = fanins_of_slot[slot]
            op = op_of_slot[slot]
            acc = load(fanins[0])
            if op == OP_AND:
                for row in fanins[1:]:
                    acc &= load(row)
            elif op == OP_OR:
                for row in fanins[1:]:
                    acc |= load(row)
            else:
                for row in fanins[1:]:
                    acc ^= load(row)
            if inverts[slot]:
                acc ^= ones
            dst = node_of_slot[slot]
            if acc == load(dst):
                continue
            values[dst] = acc
            changed_rows.append(dst)
            for sink in fanout_slots[dst]:
                if not queued[sink]:
                    queued[sink] = 1
                    heappush(heap, sink)

        if not changed_rows:
            return np.empty(0, dtype=np.int32)
        obs.METRICS.inc("backend.run_cone.changed_rows", len(changed_rows))
        rows = np.asarray(changed_rows, dtype=np.int32)
        state[rows] = np.frombuffer(
            b"".join(values[row].to_bytes(nbytes, "little") for row in changed_rows),
            dtype=np.uint64,
        ).reshape(len(changed_rows), num_words)
        return rows

    def gather_or_segments(
        self, source: np.ndarray, indices: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """Segmented bitset OR: gather ``source`` rows by ``indices`` and
        OR-reduce each ``offsets`` segment (the separation-matrix BFS
        step)."""
        return np.bitwise_or.reduceat(source[indices], offsets, axis=0)

    # ---------------------------------------------------------------- internal
    def _plan(self, cg: CompiledGraph) -> tuple:
        """Native-python event plan for one compiled graph (cached).

        Plain lists/tuples so the event loop never touches numpy
        indexing: per slot the fanin rows, base op and inversion flag
        plus the destination row; per node the fanout *slots*.
        """
        cached = self._plans.get(id(cg))
        if cached is not None and cached[0] is cg:
            return cached[1]
        node_of_slot = cg.node_of_slot.tolist()
        slot_of_node = cg.slot_of_node.tolist()
        fanin_indptr = cg.fanin_indptr.tolist()
        fanin_indices = cg.fanin_indices.tolist()
        fanout_indptr = cg.fanout_indptr.tolist()
        fanout_indices = cg.fanout_indices.tolist()
        type_code = cg.type_code.tolist()
        fanins_of_slot = []
        op_of_slot = []
        inverts = []
        for node in node_of_slot:
            gt = GATE_TYPE_CODES[type_code[node]]
            fanins_of_slot.append(
                tuple(fanin_indices[fanin_indptr[node] : fanin_indptr[node + 1]])
            )
            op_of_slot.append(_BASE_OP[gt])
            inverts.append(gt.is_inverting)
        fanout_slots = [
            tuple(
                slot
                for slot in (
                    slot_of_node[sink]
                    for sink in fanout_indices[
                        fanout_indptr[node] : fanout_indptr[node + 1]
                    ]
                )
                if slot >= 0
            )
            for node in range(cg.num_nodes)
        ]
        plan = (
            fanins_of_slot,
            op_of_slot,
            inverts,
            node_of_slot,
            fanout_slots,
        )
        if len(self._plans) >= self._PLAN_SLOTS:
            self._plans.pop(next(iter(self._plans)))
        self._plans[id(cg)] = (cg, plan)
        return plan


#: The shared kernel instance every simulator, engine and BFS runs on.
KERNEL = SimBackend()
