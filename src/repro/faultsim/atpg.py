"""IDDQ test generation: random phase + targeted activation search.

The paper assumes "a precomputed test vector set" (§3.4).  This module
produces one: defects from :mod:`repro.faultsim.faults` are targeted
with

1. a **random phase** — a batch of uniform vectors, evaluated with the
   bit-parallel detection matrix (random vectors activate most bridges:
   any vector putting opposite values on the two nets works);
2. a **targeted phase** — for each still-undetected defect, a
   hill-climbing search over single-input flips toward a vector that
   activates the defect *and* drives the observing module's measured
   current over its effective threshold;
3. a **compaction phase** — greedy set cover keeps a minimal subset
   preserving coverage.

The search runs on a persistent
:class:`~repro.faultsim.engine.CoverageEngine`: one engine per
generation call, so each hill-climb step costs one simulation of the
flip-neighbourhood batch against the cached leak tables and module
grouping instead of a full simulator rebuild.  The kernel's event-driven
replay (see :mod:`repro.backend.kernel`) shrinks the step further:
consecutive :func:`_search_activating_vector` batches differ in exactly
one input column, so the engine re-simulates only that input's fanout
cone instead of the whole circuit.
:func:`reference_generate_iddq_tests` drives the identical search
through the one-shot reference ``detection_matrix`` — the equivalence
suite asserts both return the same test set, bit for bit.

IDDQ test generation is fundamentally easier than logic ATPG: a defect
needs only to be *activated* (no propagation to an output), which is why
small vector sets reach high coverage — the property the paper's test
application-time argument (§3.4: per-vector cost dominates) builds on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import FaultSimError
from repro.faultsim.coverage import detection_matrix
from repro.faultsim.engine import CoverageEngine
from repro.faultsim.faults import Defect
from repro.faultsim.patterns import compact_patterns, random_patterns
from repro.library.library import CellLibrary
from repro.library.technology import Technology
from repro.netlist.circuit import Circuit
from repro.partition.partition import Partition

__all__ = ["IDDQTestSet", "generate_iddq_tests", "reference_generate_iddq_tests"]

#: ``detect(defects, patterns) -> (defects, patterns)`` boolean matrix.
Detector = Callable[[Sequence[Defect], np.ndarray], np.ndarray]


@dataclass(frozen=True)
class IDDQTestSet:
    """A generated IDDQ test set and its bookkeeping.

    Attributes:
        patterns: ``(vectors, inputs)`` 0/1 matrix, compacted.
        detected_ids / undetected_ids: defect coverage split.
        random_detected: how many defects the random phase caught.
        targeted_detected: how many more the targeted phase added.
    """

    patterns: np.ndarray
    detected_ids: tuple[str, ...]
    undetected_ids: tuple[str, ...]
    random_detected: int
    targeted_detected: int

    @property
    def num_vectors(self) -> int:
        return int(self.patterns.shape[0])

    @property
    def coverage(self) -> float:
        total = len(self.detected_ids) + len(self.undetected_ids)
        return len(self.detected_ids) / total if total else 1.0

    def summary(self) -> str:
        return (
            f"{self.num_vectors} vectors cover {len(self.detected_ids)} of "
            f"{len(self.detected_ids) + len(self.undetected_ids)} defects "
            f"({100 * self.coverage:.1f}%; random phase {self.random_detected}, "
            f"targeted phase +{self.targeted_detected})"
        )


def generate_iddq_tests(
    circuit: Circuit,
    partition: Partition,
    defects: Sequence[Defect],
    library: CellLibrary | None = None,
    technology: Technology | None = None,
    seed: int = 0,
    random_vectors: int = 128,
    restarts: int = 4,
    flip_budget: int = 24,
    compact: bool = True,
    engine: CoverageEngine | None = None,
    defect_parallel: bool = False,
    jobs: int | None = None,
) -> IDDQTestSet:
    """Generate and compact an IDDQ test set for ``defects``.

    Args:
        random_vectors: size of the random phase batch.
        restarts: random restarts per undetected defect in the targeted
            phase.
        flip_budget: maximum greedy single-bit flips per restart.
        compact: greedily minimise the final vector set.
        engine: reuse an existing :class:`CoverageEngine` (one is built
            when omitted; mutually exclusive with ``library`` /
            ``technology``, which a passed engine already carries).
        defect_parallel: opt into the defect-parallel targeted phase —
            one independent seeded RNG stream per defect (stream id
            ``f"{seed}:{defect_index}"``), sharded across the runtime's
            process pool.  Deterministic for a fixed seed at any worker
            count, but a *different* walk than the serial reference's
            single shared stream, so results differ from (and coverage
            is pinned to be no worse than) the default mode.
        jobs: worker count for the defect-parallel phase (``None``
            defers to ``REPRO_JOBS``; only meaningful with
            ``defect_parallel=True``).
    """
    if engine is not None and (library is not None or technology is not None):
        raise FaultSimError(
            "pass either an engine or a library/technology, not "
            "both — the engine already carries its own characterisation"
        )
    search_all = None
    if defect_parallel:
        worker_library = engine.sim.library if engine is not None else library
        worker_technology = engine.technology if engine is not None else technology

        def search_all(undetected_indices):
            from repro.runtime.parallel import defect_parallel_targeted

            return defect_parallel_targeted(
                circuit,
                partition,
                defects,
                undetected_indices,
                seed=seed,
                restarts=restarts,
                flip_budget=flip_budget,
                library=worker_library,
                technology=worker_technology,
                jobs=jobs,
            )

    engine = engine or CoverageEngine(circuit, library, technology)
    return _generate(
        lambda ds, ps: engine.detection_matrix(partition, ds, ps),
        circuit,
        defects,
        seed,
        random_vectors,
        restarts,
        flip_budget,
        compact,
        search_all=search_all,
    )


def reference_generate_iddq_tests(
    circuit: Circuit,
    partition: Partition,
    defects: Sequence[Defect],
    library: CellLibrary | None = None,
    technology: Technology | None = None,
    seed: int = 0,
    random_vectors: int = 128,
    restarts: int = 4,
    flip_budget: int = 24,
    compact: bool = True,
) -> IDDQTestSet:
    """The identical search through the one-shot reference detector.

    Every detection call rebuilds the IDDQ simulator from scratch — the
    pre-engine behaviour, kept as the executable specification and the
    benchmark baseline.
    """
    return _generate(
        lambda ds, ps: detection_matrix(
            circuit, partition, ds, ps, library, technology
        ),
        circuit,
        defects,
        seed,
        random_vectors,
        restarts,
        flip_budget,
        compact,
    )


def _generate(
    detect: Detector,
    circuit: Circuit,
    defects: Sequence[Defect],
    seed: int,
    random_vectors: int,
    restarts: int,
    flip_budget: int,
    compact: bool,
    search_all: Callable[[list[int]], dict[int, np.ndarray]] | None = None,
) -> IDDQTestSet:
    if not defects:
        raise FaultSimError("no defects to target")
    num_inputs = len(circuit.input_names)
    rng = random.Random(seed)

    pool = random_patterns(num_inputs, random_vectors, seed=seed)
    matrix = detect(defects, pool)
    detected = matrix.any(axis=1)
    random_count = int(detected.sum())

    # Targeted phase: hill-climb per missed defect.  The serial
    # reference walks the defects in order through one shared RNG; a
    # ``search_all`` override (the defect-parallel mode) supplies the
    # found vectors for every undetected defect at once instead.
    extra_vectors: list[np.ndarray] = []
    targeted_hits: set[int] = set()
    if search_all is not None:
        found = search_all([d for d in range(len(defects)) if not detected[d]])
        for d in sorted(found):
            extra_vectors.append(found[d])
            targeted_hits.add(d)
    else:
        for d, defect in enumerate(defects):
            if detected[d]:
                continue
            vector = _search_activating_vector(
                detect, defect, rng, num_inputs, restarts, flip_budget
            )
            if vector is not None:
                extra_vectors.append(vector)
                targeted_hits.add(d)

    if extra_vectors:
        pool = np.vstack([pool, np.stack(extra_vectors)])
        matrix = detect(defects, pool)
        detected = matrix.any(axis=1)

    if compact:
        keep = compact_patterns(matrix)
        if keep.size:
            pool = pool[keep]
            matrix = matrix[:, keep]
        else:
            pool = pool[:1]
            matrix = matrix[:, :1]

    detected = matrix.any(axis=1)
    detected_ids = tuple(d.defect_id for d, hit in zip(defects, detected) if hit)
    undetected_ids = tuple(d.defect_id for d, hit in zip(defects, detected) if not hit)
    return IDDQTestSet(
        patterns=pool,
        detected_ids=detected_ids,
        undetected_ids=undetected_ids,
        random_detected=random_count,
        targeted_detected=len(targeted_hits),
    )


def _search_activating_vector(
    detect: Detector,
    defect: Defect,
    rng: random.Random,
    num_inputs: int,
    restarts: int,
    flip_budget: int,
) -> np.ndarray | None:
    """Hill-climb toward a vector that *detects* ``defect``.

    Each step evaluates the whole single-flip neighbourhood in one
    bit-parallel batch; any detecting neighbour wins immediately,
    otherwise a random flip keeps the walk moving (the landscape is flat
    away from activation, so greedy descent alone would stall).
    """
    for _ in range(restarts):
        vector = np.asarray(
            [rng.randint(0, 1) for _ in range(num_inputs)], dtype=np.uint8
        )
        for _ in range(flip_budget):
            batch = np.tile(vector, (num_inputs + 1, 1))
            for bit in range(num_inputs):
                batch[bit + 1, bit] ^= 1
            hits = detect([defect], batch)[0]
            if hits[0]:
                return vector
            winners = np.flatnonzero(hits[1:])
            if winners.size:
                flipped = int(winners[0])
                vector = batch[flipped + 1]
                return vector
            vector = vector.copy()
            vector[rng.randrange(num_inputs)] ^= 1
    return None
