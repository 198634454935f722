"""Start partitions for the evolution strategy (paper §4.2).

Two pieces:

* **module-count pre-estimation** — the paper estimates "the appropriate
  module size ... by evaluating c1 and c2 by average numbers for the
  required parameters and by abstraction from structural information".
  Under the sizing rule ``Rs = r/î`` the area term decomposes as
  ``K·A0 + A1·î_chip/r`` and the average delay degradation is nearly
  K-independent, so both push K down to the smallest count the
  discriminability constraint allows; a configurable safety margin gives
  the evolution room to rebalance (it can delete modules but never
  create them).

* **chain clustering** — "starting from a gate close to a primary input
  gate, chains are formed towards a primary output"; a chain stops at a
  primary output, when no free gate remains, or when the module is
  full.  Different random chains yield the μ distinct start partitions.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.errors import OptimizationError
from repro.partition.evaluator import PartitionEvaluator
from repro.partition.partition import Partition

__all__ = ["estimate_module_count", "chain_start_partition", "start_population"]


def estimate_module_count(evaluator: PartitionEvaluator, margin: float = 1.25) -> int:
    """Estimated number of modules K for the start partitions.

    ``K_min`` comes from the discriminability constraint (total leakage
    over per-module budget); the margin covers leakage imbalance across
    chain-built modules.  Never below 2 — a single module cannot be
    mutated (and for any realistically sized CUT a single sensor fails
    discriminability anyway, which is the paper's §1 motivation).
    """
    if margin < 1.0:
        raise OptimizationError(f"margin must be >= 1, got {margin}")
    k_min = evaluator.min_feasible_modules()
    k = max(2, math.ceil(k_min * margin))
    return min(k, len(evaluator.circuit.gate_names))


def chain_start_partition(
    evaluator: PartitionEvaluator,
    num_modules: int,
    rng: random.Random,
) -> Partition:
    """One chain-clustered start partition with exactly ``num_modules``
    balanced modules.

    Chains follow free fanout gates toward the outputs; when a chain dies
    (primary output reached or no free successor) and the module still
    has room, a new chain is seeded — preferably adjacent to the module,
    else at a free gate of minimal level (close to a primary input).
    """
    circuit = evaluator.circuit
    n = len(circuit.gate_names)
    if not 1 <= num_modules <= n:
        raise OptimizationError(
            f"cannot build {num_modules} modules from {n} gates"
        )
    levels = circuit.levels
    names = circuit.gate_names
    # Seed fallback order: free gates by (level, gate id) — the order
    # sorting the free set by level gives (small-int sets iterate
    # ascending and the sort is stable).
    by_level = np.lexsort((np.arange(n), [levels[name] for name in names]))
    cg = circuit.compiled
    adj_indptr, adj_indices = cg.gate_adj_indptr, cg.gate_adj_indices
    # Fanout successors in dense index space (chains move toward outputs).
    index = circuit.gate_index
    successors: list[list[int]] = [[] for _ in range(n)]
    for name in names:
        g = index[name]
        for sink in circuit.fanouts[name]:
            sink_idx = index.get(sink)
            if sink_idx is not None:
                successors[g].append(sink_idx)

    free: set[int] = set(range(n))
    free_mask = np.ones(n, dtype=bool)
    sizes = _balanced_sizes(n, num_modules)
    assignment: dict[int, int] = {}

    for module, target_size in enumerate(sizes):
        module_gates: list[int] = []
        # Neighbour entries of the module's gates, in join order with
        # duplicates: an append-only list, compacted through the free
        # mask at each seed pick (free gates never come back).
        adjacent = np.empty(0, dtype=np.int64)
        joined: list[np.ndarray] = []
        while len(module_gates) < target_size and free:
            adjacent = np.concatenate([adjacent, *joined])
            adjacent = adjacent[free_mask[adjacent]]
            joined = []
            if adjacent.size:
                # Prefer free gates adjacent to the module under
                # construction (keeps modules connected).
                seed = int(rng.choice(adjacent))
            else:
                # Else a random free gate among the lowest levels.
                lowest = by_level[free_mask[by_level]]
                seed = int(rng.choice(lowest[: max(1, len(free) // 20)]))
            chain = seed
            while chain is not None and len(module_gates) < target_size:
                module_gates.append(chain)
                free.discard(chain)
                free_mask[chain] = False
                joined.append(adj_indices[adj_indptr[chain] : adj_indptr[chain + 1]])
                assignment[chain] = module
                free_successors = [s for s in successors[chain] if s in free]
                chain = rng.choice(free_successors) if free_successors else None
        if not module_gates:
            # More modules than reachable gates at this point: give this
            # module one arbitrary free gate (sizes guarantee >= 1 each,
            # so this only triggers on adversarial inputs).
            leftover = free.pop()
            free_mask[leftover] = False
            assignment[leftover] = module
    # Any stragglers (only possible through rounding) join the last module.
    for gate in list(free):
        assignment[gate] = num_modules - 1
        free.discard(gate)
    return Partition(circuit, assignment)


def _balanced_sizes(n: int, k: int) -> list[int]:
    base = n // k
    extra = n % k
    return [base + 1 if i < extra else base for i in range(k)]


def start_population(
    evaluator: PartitionEvaluator,
    num_modules: int,
    count: int,
    rng: random.Random,
) -> list[Partition]:
    """μ start partitions from different random chains."""
    return [chain_start_partition(evaluator, num_modules, rng) for _ in range(count)]
