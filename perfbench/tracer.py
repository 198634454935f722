"""In-memory spans around the program's public entry points.

The benchmark never edits the program.  In a traced pass it replaces a
public function or method with a wrapper that opens a span and calls
the original; the wrapper is installed where the program looks the
name up (a module attribute or a class attribute), so the program's own
calls go through it.

A span is ``[name, start, end, parent, iteration]``.  Spans are kept in
memory while the pass runs and written out when it ends.  Only spans
opened inside a root span (the pass's timed region) and on the main
thread are recorded, so the benchmark's own untimed checks and the
program's helper threads do not show up in the layer times.

A layer's self time is its span's duration minus the durations of its
direct child spans (spans nest on one thread, so the children are
disjoint).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict

ROOT = "bench.root"


def now() -> float:
    """Monotonic seconds, comparable across processes on one machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Span recorder for one pass (one process).

    Spans live in flat parallel lists of strings, floats and ints, which
    the garbage collector does not track, so a pass with ~10^5 spans
    does not slow the program's own collections.
    """

    def __init__(self, iteration: int):
        self.iteration = iteration
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._main = threading.main_thread().ident

    def open(self, name: str) -> int:
        index = len(self.names)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.names.append(name)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(now())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = now()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, args)`` may bump counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack or threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer.counts[name + ".calls"] += 1
            if after is not None:
                after(result, args)
            return result

        return traced

    def spans(self) -> list[list]:
        """``[name, start, end, parent, iteration]`` per span."""
        return [
            [name, start, end, parent, self.iteration]
            for name, start, end, parent in zip(
                self.names, self.starts, self.ends, self.parents
            )
        ]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        children = defaultdict(float)
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end) in enumerate(
            zip(self.names, self.starts, self.ends)
        ):
            totals[name] += (end - start) - children[index]
        return dict(totals)


def _patch_functions(tracer: Tracer, modules, attr: str, name: str) -> None:
    """Wrap the function ``attr`` in every module that binds it."""
    original = getattr(modules[0], attr)
    traced = tracer.wrap(name, original)
    for module in modules:
        if getattr(module, attr, None) is original:
            setattr(module, attr, traced)


def _patch_method(tracer: Tracer, cls, attr: str, name: str, after=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, after)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, after))


def install(tracer: Tracer) -> None:
    """Open spans around each layer's public entry points."""
    import repro.analysis.separation as separation
    import repro.analysis.transition_times as transition_times
    import repro.flow.design as design
    import repro.flow.synthesis as synthesis
    import repro.netlist.benchmarks as benchmarks
    import repro.netlist.circuit as circuit
    import repro.optimize.evolution as evolution
    import repro.optimize.standard as standard
    import repro.optimize.start as start
    import repro.partition.evaluator as evaluator
    import repro.partition.partition as partition
    import repro.partition.state as state
    import repro.runtime.campaign as campaign
    import repro.runtime.store as store
    import repro.sensors.insertion as insertion

    counts = tracer.counts

    # netlist
    _patch_functions(tracer, [benchmarks], "load_iscas85", "netlist.load")
    _patch_functions(tracer, [circuit], "compile_circuit", "netlist.compile")
    # analysis (the BFS and transition times at class level, so the
    # campaign's cached separation build is timed too)
    _patch_method(tracer, separation.SeparationMatrix, "__init__", "analysis.separation")
    _patch_method(
        tracer, transition_times.TransitionTimes, "compute", "analysis.transition_times"
    )
    _patch_functions(tracer, [evaluator], "levelized_timing", "analysis.timing_build")
    # partition
    cls = evaluator.PartitionEvaluator
    _patch_method(tracer, cls, "__init__", "partition.evaluator")
    _patch_method(tracer, cls, "evaluate", "partition.evaluate")
    _patch_method(tracer, cls, "evaluation_of", "partition.evaluate")
    cls = state.EvaluationState
    _patch_method(tracer, cls, "penalized_cost", "partition.penalized_cost")

    def trial_rows(_result, args):
        counts["partition.trial_moves.rows"] += len(args[1])

    _patch_method(tracer, cls, "trial_moves", "partition.trial_moves", trial_rows)
    _patch_method(tracer, cls, "move_gate", "partition.move")
    _patch_method(tracer, cls, "move_gates", "partition.move")
    _patch_method(tracer, cls, "rollback", "partition.rollback")
    _patch_method(tracer, cls, "copy", "partition.copy")
    _patch_method(
        tracer, partition.Partition, "boundary_gates", "partition.boundary_gates"
    )
    # optimize
    users = [start, evolution, synthesis]
    for attr in ("estimate_module_count", "start_population", "chain_start_partition"):
        _patch_functions(tracer, users, attr, "optimize.start_population")

    def es_counts(result, _args):
        counts["optimize.evaluations"] += result.evaluations
        counts["optimize.generations"] += result.generations_run

    _patch_method(tracer, evolution.EvolutionOptimizer, "run", "optimize.es", es_counts)
    _patch_functions(tracer, [standard], "standard_partition", "optimize.standard")
    _patch_functions(tracer, [campaign], "cached_portfolio", "optimize.portfolio")
    # sensors / flow
    _patch_functions(tracer, [synthesis, insertion], "insert_sensors", "sensors.insert")
    _patch_method(tracer, design.IDDQDesign, "report", "flow.report")
    _patch_method(tracer, design.IDDQDesign, "to_bench", "flow.report")
    # faultsim (the campaign's stage drivers call these)
    _patch_functions(tracer, [campaign], "cached_detection_matrix", "faultsim.detection")
    _patch_functions(tracer, [campaign], "cached_iddq_test_set", "faultsim.atpg")
    # runtime store

    def store_hit(result, _args):
        if result is not None:
            counts["runtime.store.hits"] += 1

    _patch_method(tracer, store.ArtifactStore, "get", "runtime.store.get", store_hit)
    _patch_method(tracer, store.ArtifactStore, "put", "runtime.store.put")
