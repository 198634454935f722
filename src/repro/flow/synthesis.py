"""The end-to-end IDDQ-testability synthesis flow.

Mirrors the paper's flow: build the estimators from the target cell
library, pre-estimate the module count, run the evolution strategy from
chain-clustered start partitions, size the sensors of the winning
partition and incorporate them into the netlist.
"""

from __future__ import annotations

import random

from repro.config import SynthesisConfig
from repro.errors import ConstraintError
from repro.flow.design import IDDQDesign
from repro.library.default_lib import generic_library, generic_technology
from repro.library.library import CellLibrary
from repro.library.technology import Technology
from repro.netlist.circuit import Circuit
from repro.optimize.evolution import EvolutionOptimizer
from repro.optimize.start import estimate_module_count, start_population
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition
from repro.sensors.insertion import insert_sensors

__all__ = ["synthesize_iddq_testable"]


def synthesize_iddq_testable(
    circuit: Circuit,
    library: CellLibrary | None = None,
    technology: Technology | None = None,
    config: SynthesisConfig | None = None,
    seed: int | None = None,
    starts: list[Partition] | None = None,
    evaluator: PartitionEvaluator | None = None,
    store=None,
) -> IDDQDesign:
    """Produce an IDDQ-testable design for ``circuit``.

    Args:
        circuit: the combinational CUT.
        library: cell library (generic default).
        technology: technology/test constants (generic default).
        config: weights + ES parameters + default seed.
        seed: overrides ``config.seed``.
        starts: explicit start partitions (defaults to chain clustering).
        evaluator: pre-built evaluation context to reuse (the context is
            circuit-specific and somewhat expensive; experiments that run
            several optimisers on one circuit share it).
        store: an :class:`~repro.runtime.store.ArtifactStore`; when
            given (and no ``evaluator`` was passed) the evaluator's
            separation matrix is served from / saved to the
            content-addressed cache instead of rebuilding the BFS.

    Raises:
        ConstraintError: when no feasible partition was found — e.g. a
        single gate already violating discriminability, or an evolution
        budget far too small for the circuit.
    """
    config = config or SynthesisConfig()
    config.runtime.apply_observability()
    library = library or generic_library()
    technology = technology or generic_technology()
    if evaluator is None:
        separation = None
        if store is not None:
            from repro.runtime.artifacts import cached_separation_matrix

            separation, _ = cached_separation_matrix(
                store, circuit, technology.separation_cap
            )
        evaluator = PartitionEvaluator(
            circuit,
            library,
            technology,
            config.weights,
            time_resolved_degradation=config.time_resolved_degradation,
            separation=separation,
        )
    run_seed = config.seed if seed is None else seed
    if starts is None:
        rng = random.Random(run_seed)
        k = estimate_module_count(evaluator)
        starts = start_population(evaluator, k, config.evolution.mu, rng)
    optimizer = EvolutionOptimizer(evaluator, params=config.evolution, seed=run_seed)
    result = optimizer.run(starts)
    if not result.feasible:
        raise ConstraintError(
            f"no feasible partition found for {circuit.name!r} "
            f"(best violation {result.best.violation:.3g}); increase the evolution "
            f"budget or revisit the technology constraints"
        )
    sensorized = insert_sensors(circuit, result.best.partition)
    return IDDQDesign(
        circuit=circuit,
        library=library,
        technology=technology,
        config=config,
        result=result,
        evaluation=result.best,
        sensorized=sensorized,
    )
