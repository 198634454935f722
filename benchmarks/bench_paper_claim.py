"""The paper's headline claim, gated across seeds.

"Evolution needs less sensor area than standard partitioning on every
circuit": for each seed, a quick-budget Table 1 over all six circuits
must show ``area_standard > area_evolution`` on every row.  One
benchmark per seed, so the JSON records each seed's wall time; a
losing row fails the seed and names the circuit.
"""

import pytest

from repro.experiments.table1 import run_table1

SEEDS = (1, 2, 3, 7, 1995)


@pytest.mark.parametrize("seed", SEEDS)
def test_evolution_beats_standard_every_circuit(once, seed):
    result = once(lambda: run_table1(seed=seed, quick=True))
    print()
    print(result.render())
    losses = [
        f"{row.circuit} (std={row.area_standard:.6g} <= evo={row.area_evolution:.6g})"
        for row in result.rows
        if not row.area_standard > row.area_evolution
    ]
    assert len(result.rows) == 6
    assert not losses, f"seed {seed}: evolution did not win on " + ", ".join(losses)
