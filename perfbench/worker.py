"""One pass of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/worker.py '<job json>' <result file>

``run.py`` starts one worker per pass, so every pass pays what a CLI
user pays: interpreter start, imports, netlist generation, compile and
evaluator build (``load_iscas85`` and the compiled graph are cached per
process).  A pass is one of

* ``setup``: imports and input preparation only (a ``setup_s`` sample);
* ``cold``: the workload's timed work on an empty artifact store;
* ``warm``: the same program call made by a new process on the store
  the cold pass filled (synth and campaign; the Table 1 row takes no
  store, so it has no warm pass).

The worker writes one JSON object to the result file: when it was ready
(imports done, inputs prepared), the wall time of the timed region, the
outputs ``run.py`` compares across passes, the correctness checks and,
when traced, the layer self times.  It exits 1 when the pass raised.
"""

from __future__ import annotations

import importlib
import json
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import ROOT, Tracer, install, now  # noqa: E402


class Probe:
    """Records each evolution-strategy run and each campaign portfolio.

    Installed in every pass, traced or not: ``evals_per_s`` needs the
    seconds inside the ES call, and the campaign's quality metrics need
    the partition its optimise stage returns.
    """

    def __init__(self, kind: str):
        from repro.optimize.evolution import EvolutionOptimizer

        self.es: list[tuple[float, object, object]] = []
        self.portfolios: list[tuple[object, object, dict]] = []
        run = EvolutionOptimizer.run
        probe = self

        def timed_run(optimizer, *args, **kwargs):
            start = now()
            result = run(optimizer, *args, **kwargs)
            probe.es.append((now() - start, result, optimizer))
            return result

        EvolutionOptimizer.run = timed_run
        if kind != "campaign":
            return
        import repro.runtime.campaign as campaign

        cached_portfolio = campaign.cached_portfolio

        def recorded_portfolio(store, evaluator, *args, **kwargs):
            partition, meta, hit = cached_portfolio(store, evaluator, *args, **kwargs)
            probe.portfolios.append((evaluator, partition, meta))
            return partition, meta, hit

        campaign.cached_portfolio = recorded_portfolio


class Pass:
    """Shared state of one pass: the job, its store and the tracer."""

    def __init__(self, job: dict):
        from repro.config import SynthesisConfig
        from repro.experiments.table1 import table1_params

        self.job = job
        self.seed = job["seed"]
        self.store_dir = Path(job["store"])
        self.config = SynthesisConfig(evolution=table1_params(job["quick"]))
        self.tracer = Tracer(job["iteration"]) if job["trace"] else None
        self.probe = Probe(job["kind"])
        self.checks: dict[str, bool] = {}
        self.outputs: dict = {}
        self.ops = 1
        self.failed = 0

    def start(self) -> float:
        if self.tracer is not None:
            self.root = self.tracer.open(ROOT)
        return now()

    def stop(self, started: float) -> float:
        wall = now() - started
        if self.tracer is not None:
            self.tracer.close(self.root)
        return wall

    # ----------------------------------------------------------- helpers
    def store(self):
        from repro.runtime.store import ArtifactStore

        return ArtifactStore(self.store_dir / "cache")

    def record_design(self, evaluation, evaluator) -> None:
        """Quality outputs of an optimised partition: its cost, its
        sensor area and the standard partition's area at the same K."""
        from repro.experiments.table1 import PAPER_TABLE1
        from repro.optimize import standard

        circuit = evaluator.circuit
        baseline = evaluator.evaluate(
            standard.standard_partition(evaluator, evaluation.num_modules)
        )
        area = evaluation.sensor_area_total
        self.outputs.update(
            design_cost=evaluation.cost,
            sensor_area=area,
            modules=evaluation.num_modules,
            standard_area=baseline.sensor_area_total,
            area_gap_pct=100.0 * (baseline.sensor_area_total / area - 1.0),
            gates=len(circuit.gate_names),
            paper=PAPER_TABLE1.get(circuit.name),
        )
        self.checks["feasible"] = bool(evaluation.feasible)
        if not evaluation.feasible:
            self.failed = 1

    def check_sensorized(self, circuit, bench_text: str) -> None:
        """The sensorised netlist parses back and has no structural issue
        the original circuit does not have (the c1908 stand-in itself
        carries one suspicious constant gate)."""
        from repro.netlist.bench import parse_bench
        from repro.netlist.validate import check_circuit

        before = check_circuit(circuit)
        after = check_circuit(parse_bench(bench_text))
        self.checks["sensorized_clean"] = all(
            set(getattr(after, kind)) <= set(getattr(before, kind))
            for kind in ("dangling_gates", "unused_inputs", "constant_candidates")
        )

    def check_es(self) -> None:
        """One ES run, with the evaluation count its budget implies."""
        self.checks["one_es_run"] = len(self.probe.es) == 1
        seconds, result, optimizer = self.probe.es[-1]
        params = optimizer.params
        per_generation = params.mu * (
            params.children_per_parent + params.monte_carlo_per_parent
        )
        self.checks["evaluation_count"] = (
            result.evaluations == params.mu + result.generations_run * per_generation
        )
        self.outputs.update(
            evaluations=result.evaluations, generations=result.generations_run
        )
        self.es_seconds = seconds


# ------------------------------------------------------------------ synth
def synth_pass(run: Pass) -> float:
    """``repro synth <circuit>``: load, synthesise, render report and netlist.

    The cold pass is the CLI's path, which uses no store; after it, the
    pass fills the store with the separation matrix, as the API does
    when it is given one.  The warm pass makes the same call with
    ``store=`` on that store, the API's route that serves the separation
    matrix from the cache instead of rebuilding the BFS.
    """
    from repro.flow import synthesis
    from repro.netlist import benchmarks

    warm = run.job["pass"] == "warm"
    started = run.start()
    circuit = benchmarks.load_iscas85(run.job["circuit"])
    store = run.store() if warm else None
    design = synthesis.synthesize_iddq_testable(
        circuit, config=run.config, seed=run.seed, store=store
    )
    report = design.report()
    bench_text = design.to_bench()
    wall = run.stop(started)

    run.check_es()
    run.record_design(design.evaluation, run.probe.es[-1][2].evaluator)
    run.checks["report"] = bool(report)
    run.check_sensorized(circuit, bench_text)
    if warm:
        hits = store.stats.by_kind.get("separation", {}).get("hits", 0)
        run.checks["separation_hit"] = hits == 1
    else:
        from repro.runtime.artifacts import cached_separation_matrix

        cached_separation_matrix(
            run.store(),
            circuit,
            design.technology.separation_cap,
            backend=run.config.simulation.backend,
        )
    return wall


# ----------------------------------------------------------------- table1
def table1_cold(run: Pass) -> float:
    """One Table 1 row: evolution, then standard partitioning at its K."""
    from repro.netlist import benchmarks
    from repro.optimize import evolution, standard
    from repro.partition import evaluator as evaluator_mod
    from repro.sensors import insertion

    started = run.start()
    circuit = benchmarks.load_iscas85(run.job["circuit"])
    evaluator = evaluator_mod.PartitionEvaluator(circuit, weights=run.config.weights)
    result = evolution.evolve_partition(evaluator, run.config.evolution, seed=run.seed)
    best = result.best
    baseline = evaluator.evaluate(
        standard.standard_partition(evaluator, best.num_modules)
    )
    wall = run.stop(started)

    run.check_es()
    run.record_design(best, evaluator)
    run.checks["standard_area_matches"] = (
        run.outputs["standard_area"] == baseline.sensor_area_total
    )
    run.check_sensorized(
        circuit, insertion.insert_sensors(circuit, best.partition).to_bench()
    )
    return wall


# --------------------------------------------------------------- campaign
def campaign_pass(run: Pass) -> float:
    """``run_campaign`` over one circuit, all stages, on the pass's store
    (empty for the cold pass, filled by it for the warm pass)."""
    from repro.runtime import campaign
    from repro.sensors.insertion import insert_sensors

    config = campaign.CampaignConfig(
        circuits=(run.job["circuit"],),
        stages=campaign.STAGES,
        jobs=run.job["jobs"],
        cache_dir=str(run.store_dir / "cache"),
        seed=run.seed,
        quick=True,
    )
    started = run.start()
    manifest = campaign.run_campaign(config)
    wall = run.stop(started)

    totals = manifest["totals"]
    run.ops = totals["entries"]
    run.failed = totals["failed"]
    run.checks["no_failed_entries"] = totals["failed"] == 0
    run.checks["executor_quiet"] = not any(totals["executor"].values())
    if run.job["pass"] == "warm":
        run.checks["all_hits"] = (
            totals["misses"] == 0 and totals["hits"] == totals["entries"]
        )
    run.outputs["entries"] = [
        [entry["stage"], entry["meta"]] for entry in manifest["entries"]
    ]
    run.outputs["executor"] = totals["executor"]
    seconds = {entry["stage"]: entry["seconds"] for entry in manifest["entries"]}

    run.checks["one_portfolio"] = len(run.probe.portfolios) == 1
    evaluator, partition, meta = run.probe.portfolios[-1]
    evaluation = evaluator.evaluate(partition)
    run.record_design(evaluation, evaluator)
    run.checks["portfolio_cost"] = evaluation.cost == meta["cost"]
    run.outputs["evaluations"] = meta["evaluations"]
    if run.job["pass"] == "cold":
        # A warm pass's optimise stage is a cache hit, not a search.
        run.es_seconds = seconds["optimize"]
    circuit = evaluator.circuit
    run.check_sensorized(circuit, insert_sensors(circuit, partition).to_bench())
    return wall


#: What each workload's timed regions use, imported during set-up (the
#: program's own lazy imports stay in the timed region, as a user pays
#: them there).
MODULES = {
    "synth": [
        "repro.flow.synthesis",
        "repro.netlist.benchmarks",
        "repro.runtime.store",
    ],
    "table1": [
        "repro.netlist.benchmarks",
        "repro.optimize.evolution",
        "repro.optimize.standard",
        "repro.partition.evaluator",
    ],
    "campaign": ["repro.runtime.campaign"],
}

PASSES = {
    ("synth", "cold"): synth_pass,
    ("synth", "warm"): synth_pass,
    ("table1", "cold"): table1_cold,
    ("campaign", "cold"): campaign_pass,
    ("campaign", "warm"): campaign_pass,
}


def main(argv: list[str]) -> int:
    job = json.loads(argv[0])
    out = Path(argv[1])
    result: dict = {}
    try:
        for module in MODULES[job["kind"]]:
            importlib.import_module(module)
        run = Pass(job)
        from repro.netlist import benchmarks

        load = benchmarks.load_iscas85
        if run.tracer is not None:
            install(run.tracer)
        result["ready"] = now()
        if job["pass"] != "setup":
            result["wall_s"] = PASSES[job["kind"], job["pass"]](run)
            result["es_s"] = getattr(run, "es_seconds", None)
            result["outputs"] = run.outputs
            result["checks"] = run.checks
            result["ops"] = run.ops
            result["failed"] = run.failed
            result["circuit_builds"] = load.cache_info().misses
            if run.tracer is not None:
                result["self_s"] = run.tracer.self_times()
                result["counts"] = dict(run.tracer.counts)
                spans = out.with_suffix(".spans.json")
                spans.write_text(json.dumps(run.tracer.spans()))
    except Exception:
        result["error"] = traceback.format_exc()
    out.write_text(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
