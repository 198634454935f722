"""End-to-end goldens: the flow outputs a "same behaviour" change must
leave bit-identical, for seed 1995.

* quick-budget Table 1 rows (K, evolved and standard sensor area, the
  evolved partition's cost) as exact float reprs, for C432, C1908 and
  C7552 (the other Table 1 circuits would double the cost of this file);
* SHA-256 digests of the ``repro synth c432`` report and of its
  sensorised ``.bench`` text;
* the c432 campaign manifest entries (``circuit``, ``stage``,
  ``status``, ``meta``), timing fields and cache hits ignored.

A change that moves any of these on purpose updates the goldens with a
stated reason.  Print the current values with::

    PYTHONPATH=src python tests/test_goldens.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pprint
import tempfile
from pathlib import Path

import pytest

SEED = 1995
TABLE1_GOLDEN_CIRCUITS = ("c432", "c1908", "c7552")

TABLE1_ROWS = {
    "c432": {
        "K": 2,
        "area_evolution": "309250.0000000001",
        "area_standard": "328900.0",
        "cost": "9137.461505939174",
    },
    "c1908": {
        "K": 3,
        "area_evolution": "1291500.0000000014",
        "area_standard": "1460800.000000001",
        "cost": "11467.355160331537",
    },
    "c7552": {
        "K": 9,
        "area_evolution": "5199950.000000003",
        "area_standard": "5923650.000000003",
        "cost": "11622.487664364131",
    },
}

SYNTH_C432 = {
    "report_sha256": "7db25dbf361a4d467494af06df9633e5f10a8fae8c68fef31e071101c0d8c73a",
    "bench_sha256": "a2ff0a7f0a3d7632c28ccb60eba6663b8f09683c44a62570934b122ac3fdfa87",
}

CAMPAIGN_C432 = [
    {
        "circuit": "c432",
        "stage": "separation",
        "status": "ok",
        "meta": {"cap": 10, "gates": 160},
    },
    {
        "circuit": "c432",
        "stage": "stuck-at",
        "status": "ok",
        "meta": {"faults": 392, "patterns": 64, "coverage": 0.5459183673469388},
    },
    {
        "circuit": "c432",
        "stage": "atpg",
        "status": "ok",
        "meta": {
            "defects": 45,
            "vectors": 3,
            "coverage": 0.8888888888888888,
            "defect_parallel": True,
        },
    },
    {
        "circuit": "c432",
        "stage": "optimize",
        "status": "ok",
        "meta": {
            "cost": 9421.526535879208,
            "feasible": True,
            "optimizer": "evolution+kl[seeds=2]",
            "seed": 1996,
            "evaluations": 1844,
            "num_modules": 2,
            "modules": 2,
        },
    },
]


def table1_rows() -> dict[str, dict]:
    """Quick-budget Table 1 rows, plus each evolved partition's cost
    (recorded from the evolution call ``run_table1`` makes)."""
    from repro.experiments import table1

    costs: dict[str, float] = {}
    evolve = table1.evolve_partition

    def recording(evaluator, params, seed):
        result = evolve(evaluator, params, seed=seed)
        costs[evaluator.circuit.name] = result.best.cost
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(table1, "evolve_partition", recording)
        result = table1.run_table1(TABLE1_GOLDEN_CIRCUITS, seed=SEED, quick=True)
    return {
        row.circuit: {
            "K": row.num_modules,
            "area_evolution": repr(row.area_evolution),
            "area_standard": repr(row.area_standard),
            "cost": repr(costs[row.circuit]),
        }
        for row in result.rows
    }


def synth_c432() -> dict[str, str]:
    """Digests of what ``python -m repro synth c432 --out-dir D`` prints
    and writes as the sensorised netlist."""
    from repro.__main__ import main

    with tempfile.TemporaryDirectory() as out_dir:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["synth", "c432", "--seed", str(SEED), "--out-dir", out_dir])
        assert code == 0
        report = stdout.getvalue().split("\nwrote ", 1)[0]
        bench = (Path(out_dir) / "c432_iddq.bench").read_text()
    return {
        "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
        "bench_sha256": hashlib.sha256(bench.encode()).hexdigest(),
    }


def campaign_c432() -> list[dict]:
    """The c432 campaign manifest entries without timing or cache fields."""
    from repro.runtime.campaign import CampaignConfig, run_campaign

    with tempfile.TemporaryDirectory() as cache:
        manifest = run_campaign(
            CampaignConfig(circuits=("c432",), jobs=1, cache_dir=cache, seed=SEED)
        )
    return [
        {key: entry[key] for key in ("circuit", "stage", "status", "meta")}
        for entry in manifest["entries"]
    ]


@pytest.fixture(scope="module")
def rows():
    return table1_rows()


@pytest.mark.parametrize("circuit", TABLE1_GOLDEN_CIRCUITS)
def test_table1_row(rows, circuit):
    assert rows[circuit] == TABLE1_ROWS[circuit]


def test_synth_c432_digest():
    assert synth_c432() == SYNTH_C432


def test_campaign_c432_manifest():
    assert campaign_c432() == CAMPAIGN_C432


if __name__ == "__main__":
    pprint.pprint(
        {
            "TABLE1_ROWS": table1_rows(),
            "SYNTH_C432": synth_c432(),
            "CAMPAIGN_C432": campaign_c432(),
        },
        sort_dicts=False,
    )
