"""End-to-end benchmark of the PART-IDDQ reproduction.

    python3 perfbench/run.py --workload synth-c7552 --seed 1995 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root (or anywhere: paths resolve from this
file).  The load is a closed loop with one client: ``run.py`` runs one
iteration at a time, and every pass of an iteration is a fresh
interpreter (``worker.py``), because that is what a CLI user pays.  A
run cycles through its ES seeds (``seed`` to ``seed + 3``; Table 1 runs
its protocol seed) and keeps cycling until ``--seconds`` have passed.
See ``perfbench/README.md`` for the workloads and every metric.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs untraced
and traced iterations of ``seed`` alternately and prints the per-layer
metrics.  Every metric name and unit comes from ``BENCHMARK.json``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke``
runs every workload and the traced run at c432 size and checks that
each metric of ``BENCHMARK.json`` is emitted with its unit.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = ROOT / ".perfbench_work"

#: Whole-run deadline: a run must end within 180 s.
DEADLINE_S = 170.0
#: Set-up-only processes per run, on top of one sample per pass.
SETUP_PROBES = 6
#: ES seeds a run covers, ``seed`` to ``seed + SEEDS_PER_RUN - 1``: the
#: quality metrics are their mean, so one seed's luck moves them less.
SEEDS_PER_RUN = 4
#: The campaign's pool size (the benchmark machine has 2 CPUs).
CAMPAIGN_JOBS = 2

#: ``warm_passes``: warm passes per untraced iteration (a traced
#: iteration has at most one).
WORKLOADS = {
    "synth-c7552": {
        "kind": "synth", "circuit": "c7552", "quick": True, "warm_passes": 1,
    },
    # The full-budget ES's wall time depends on its trajectory (seed 12
    # takes ~1.8x as long as seed 13), so Table 1 runs its protocol seed,
    # as run_table1 does, whatever --seed says.  run_table1 takes no
    # store, so a rerun repeats the cold pass: there is no warm pass.
    "table1-full-c1908": {
        "kind": "table1", "circuit": "c1908", "quick": False, "fixed_seed": 1995,
        "warm_passes": 0,
    },
    # A warm pass is short, so one per iteration would leave warm_s to a
    # few noisy samples.
    "campaign-c7552": {"kind": "campaign", "circuit": "c7552", "quick": True,
                       "warm_passes": 3},
}
#: Self-test size: every workload on c432 at the quick budget.
SMOKE = {"circuit": "c432", "quick": True}

#: Outputs every pass of one seed must reproduce bit for bit.
QUALITY = ("design_cost", "sensor_area", "modules", "standard_area", "area_gap_pct")

#: Spans a traced pass must record, by (workload kind, pass).  A wrapper
#: that no longer attaches (the program rebinds a name the tracer does
#: not reach) fails the run instead of reading 0.
_BUILD = ("netlist.load", "netlist.compile", "analysis.transition_times",
          "analysis.timing_build", "partition.evaluator")
_ES = ("partition.penalized_cost", "partition.trial_moves", "partition.move",
       "optimize.start_population", "optimize.es")
EXPECTED_SPANS = {
    ("synth", "cold"): _BUILD + _ES + ("analysis.separation", "sensors.insert",
                                       "flow.report"),
    ("synth", "warm"): _BUILD + _ES + ("runtime.store.get", "sensors.insert",
                                       "flow.report"),
    ("table1", "cold"): _BUILD + _ES + ("analysis.separation", "partition.evaluate",
                                        "optimize.standard"),
    ("campaign", "cold"): _BUILD + ("analysis.separation", "faultsim.detection",
                                    "faultsim.atpg", "optimize.portfolio",
                                    "runtime.store.get", "runtime.store.put"),
    ("campaign", "warm"): _BUILD + ("faultsim.detection", "faultsim.atpg",
                                    "optimize.portfolio", "runtime.store.get"),
}
#: Layers whose warm-pass values are reported apart, as ``warm.<name>``:
#: the ones that move warm_s rather than the cold pass's wall_s.
WARM_LAYERS = ("netlist.load_s", "partition.evaluator_s", "faultsim.atpg_s",
               "runtime.store.get_s", "runtime.store.hit_frac")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def median(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------------ passes
class Runner:
    """Starts worker processes and collects what they report."""

    def __init__(self, workload: dict, run_dir: Path, deadline: float):
        self.workload = workload
        self.run_dir = run_dir
        self.deadline = deadline
        self.setup: list[float] = []
        self.passes: list[dict] = []
        self.errors: list[str] = []
        tmp = run_dir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        # A leaked REPRO_CACHE_DIR would turn the cold pass warm and a
        # leaked REPRO_FAULT_PLAN would inject failures: every REPRO_*
        # variable goes, and the workload sets what it needs itself.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(tmp)
        self.count = 0

    def spawn(self, job: dict) -> dict:
        """One pass in a fresh interpreter; its report plus peak RSS."""
        self.count += 1
        out = self.run_dir / f"pass{self.count}.json"
        job = dict(self.workload, **job)
        started = now()
        with open(self.run_dir / f"pass{self.count}.log", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, str(WORKER), json.dumps(job), str(out)],
                env=self.env,
                cwd=ROOT,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        # wait4 reports the peak RSS over the worker and the pool
        # processes it waited for.
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if now() > self.deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise BenchError(f"pass {job['pass']} ran past the run deadline")
            time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            report = json.loads(out.read_text())
        except (OSError, json.JSONDecodeError):
            report = {"error": f"worker exited {proc.returncode} without a report"}
        report.update(job=job, rss_mb=usage.ru_maxrss / 1024.0)
        if "ready" in report:
            self.setup.append(report["ready"] - started)
        if "error" in report:
            self.errors.append(f"{job['pass']} seed {job['seed']}: {report['error']}")
        if job["pass"] != "setup":
            self.passes.append(report)
        return report

    def iteration(self, seed: int, index: int, trace: bool, warm_passes: int):
        """A cold pass on an empty store, then warm passes on it."""
        store = self.run_dir / f"it{index}"
        store.mkdir()
        job = {"seed": seed, "store": str(store), "iteration": index,
               "trace": trace, "jobs": CAMPAIGN_JOBS}
        try:
            passes = [self.spawn(dict(job, **{"pass": "cold"}))]
            for _ in range(warm_passes):
                passes.append(self.spawn(dict(job, **{"pass": "warm"})))
        finally:
            shutil.rmtree(store, ignore_errors=True)
        return passes

    def setup_probes(self, seed: int) -> None:
        for _ in range(SETUP_PROBES):
            self.spawn({"pass": "setup", "seed": seed, "store": str(self.run_dir),
                        "iteration": -1, "trace": False, "jobs": CAMPAIGN_JOBS})


def run_seeds(workload: dict, seed: int) -> list[int]:
    """The ES seeds a run covers."""
    fixed = workload.get("fixed_seed")
    return [fixed] if fixed is not None else list(range(seed, seed + SEEDS_PER_RUN))


def run_untraced(runner: Runner, seed: int, seconds: float) -> list[list[dict]]:
    runner.setup_probes(seed)
    started = now()
    iterations = []
    while True:
        for es_seed in run_seeds(runner.workload, seed):
            iterations.append(runner.iteration(
                es_seed, len(iterations), False, runner.workload["warm_passes"]
            ))
        if now() - started >= seconds:
            return iterations


def run_traced(runner: Runner, seed: int, seconds: float):
    seed = run_seeds(runner.workload, seed)[0]
    started = now()
    warm_passes = min(1, runner.workload["warm_passes"])
    plain, traced = [], []
    while True:
        plain.append(runner.iteration(seed, 2 * len(plain), False, warm_passes))
        traced.append(runner.iteration(seed, 2 * len(traced) + 1, True, warm_passes))
        if now() - started >= seconds:
            return plain, traced


# -------------------------------------------------------------- correctness
def check_passes(runner: Runner) -> list[str]:
    """Failed checks, as messages (empty when everything holds)."""
    problems = list(runner.errors)
    by_seed: dict[int, list[dict]] = {}
    for report in runner.passes:
        if "error" in report:
            continue
        job = report["job"]
        for name, ok in report["checks"].items():
            if not ok:
                problems.append(f"{job['pass']} seed {job['seed']}: check {name} failed")
        if job["trace"]:
            if report["circuit_builds"] != 1:
                problems.append(
                    f"traced {job['pass']} seed {job['seed']}: circuit generated "
                    f"{report['circuit_builds']} times, expected once"
                )
            for span in EXPECTED_SPANS[runner.workload["kind"], job["pass"]]:
                if not report["counts"].get(span + ".calls"):
                    problems.append(
                        f"traced {job['pass']} seed {job['seed']}: no {span} span "
                        f"recorded"
                    )
        by_seed.setdefault(job["seed"], []).append(report)
    keys = QUALITY + (("entries",) if runner.workload["kind"] == "campaign" else ())
    for seed, reports in by_seed.items():
        # Every pass of a seed, cold or warm, traced or not, repeats the
        # first pass (a cold one) bit for bit.
        reference = reports[0]["outputs"]
        for report in reports[1:]:
            job = report["job"]
            for key in keys:
                got = report["outputs"].get(key)
                if got != reference.get(key):
                    problems.append(
                        f"seed {seed}: {key} of {'traced ' if job['trace'] else ''}"
                        f"{job['pass']} pass {got!r} differs from {reference.get(key)!r}"
                    )
    if not by_seed:
        problems.append("no pass completed")
    return problems


# ------------------------------------------------------------------ metrics
def cold_warm(iterations):
    ok = [it for it in iterations if not any("error" in p for p in it)]
    return [it[0] for it in ok], [p for it in ok for p in it[1:]]


def end_to_end(runner: Runner, iterations) -> dict[str, float]:
    colds, warms = cold_warm(iterations)
    rss = [max(p["rss_mb"] for p in it) for it in iterations
           if not any("error" in p for p in it)]
    if not colds:
        raise BenchError("no iteration completed:\n" + "\n".join(runner.errors))
    per_seed = {}
    for report in colds:
        per_seed.setdefault(report["job"]["seed"], report["outputs"])
    quality = list(per_seed.values())
    return {
        "wall_s": median([r["wall_s"] for r in colds]),
        "setup_s": median(runner.setup),
        # A workload without a warm route (Table 1) reruns cold.
        "warm_s": median([r["wall_s"] for r in (warms or colds)]),
        # Every pass that ran the search: synth's warm pass repeats it.
        "evals_per_s": median([r["outputs"]["evaluations"] / r["es_s"]
                               for r in colds + warms if r["es_s"]]),
        "peak_rss_mb": median(rss),
        "design_cost": statistics.fmean(q["design_cost"] for q in quality),
        "sensor_area": statistics.fmean(q["sensor_area"] for q in quality),
        "area_gap_pct": statistics.fmean(q["area_gap_pct"] for q in quality),
    }


def _pass_values(report: dict) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    self_s = report["self_s"]
    counts = report["counts"]
    values = {name + "_s": value for name, value in self_s.items()}
    values.update(counts)
    for name, value in report["outputs"].get("executor", {}).items():
        values[f"runtime.executor.{name}"] = value
    values["optimize.es_self_s"] = self_s.get("optimize.es", 0.0)
    values["bench.unattributed_s"] = self_s.get("bench.root", 0.0)
    values["netlist.gates"] = report["outputs"]["gates"]
    evaluations = counts.get("optimize.evaluations", 0)
    values["partition.batched_frac"] = (
        counts.get("partition.trial_moves.rows", 0) / evaluations if evaluations else 0.0
    )
    gets = counts.get("runtime.store.get.calls", 0)
    values["runtime.store.hit_frac"] = (
        counts.get("runtime.store.hits", 0) / gets if gets else 0.0
    )
    return values


def _layer_values(iteration: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced iteration: the cold pass's under
    the layer names, the warm pass's WARM_LAYERS as ``warm.<name>``.  A
    layer the workload does not reach reads 0 (EXPECTED_SPANS checks the
    ones it does reach)."""
    values = _pass_values(iteration[0])
    if len(iteration) > 1:
        warm = _pass_values(iteration[1])
        values.update({f"warm.{name}": warm.get(name, 0) for name in WARM_LAYERS})
    return values


def per_layer(names, plain, traced) -> dict[str, float]:
    plain_cold, _ = cold_warm(plain)
    traced_ok = [it for it in traced if not any("error" in p for p in it)]
    if not plain_cold or not traced_ok:
        raise BenchError("no traced iteration completed")
    samples = [_layer_values(it) for it in traced_ok]
    values = {name: median([s.get(name, 0) for s in samples]) for name in names}
    traced_wall = median([it[0]["wall_s"] for it in traced_ok])
    plain_wall = median([r["wall_s"] for r in plain_cold])
    values["obs.trace_overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
    return values


# ------------------------------------------------------------------ records
def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD's commit, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fidelity(runner: Runner) -> list[dict]:
    """Ours-vs-paper K and standard-over-evolution gap, per seed
    (informational: the paper's Table 1 row for the circuit)."""
    rows = []
    seen = set()
    for report in runner.passes:
        if "error" in report or report["job"]["pass"] != "cold":
            continue
        seed = report["job"]["seed"]
        if seed in seen:
            continue
        seen.add(seed)
        out = report["outputs"]
        paper = out.get("paper")
        rows.append({
            "circuit": runner.workload["circuit"],
            "budget": "quick" if runner.workload["quick"] else "full",
            "seed": seed,
            "K_ours": out["modules"],
            "gap_pct_ours": out["area_gap_pct"],
            "K_paper": paper[0] if paper else None,
            "gap_pct_paper": paper[3] if paper else None,
        })
    return rows


# --------------------------------------------------------------------- main
def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def check_checkout() -> None:
    """Refuse to run without the program's sources beside the benchmark."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {ROOT / 'src'}; run from a checkout")


def measure(name: str, workload: dict, seed: int, seconds: float, trace: bool,
            spec: dict) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, record)."""
    started = now()
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{name}-{seed}-{'traced' if trace else 'plain'}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(workload, run_dir, started + DEADLINE_S)
    try:
        if trace:
            plain, traced = run_traced(runner, seed, seconds)
            names = [m["name"] for m in spec["per_layer"]]
            values = per_layer(names, plain, traced)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            spans = []
            for path in sorted(run_dir.glob("pass*.spans.json")):
                spans.append({"pass": path.name.split(".")[0],
                              "spans": json.loads(path.read_text())})
            (WORK / f"spans-{name}-{seed}.json").write_text(json.dumps(spans))
        else:
            iterations = run_untraced(runner, seed, seconds)
            values = end_to_end(runner, iterations)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        problems = check_passes(runner)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    missing = [n for n in units if n not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    attempted = sum(r.get("ops", 1) for r in runner.passes)
    failed = sum(r.get("failed", 0) if "error" not in r else r.get("ops", 1)
                 for r in runner.passes)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seeds": run_seeds(workload, seed)[:1] if trace else run_seeds(workload, seed),
        "trace": trace,
        "passes": len(runner.passes),
        "setup_samples": len(runner.setup),
        "problems": problems,
        "checks": _checks_run(runner),
        "environment": environment(),
        "fidelity": fidelity(runner),
        "run_s": now() - started,
    }
    return result, record


def _checks_run(runner: Runner) -> dict[str, int]:
    """How many passes ran each check."""
    counts: dict[str, int] = {}
    for report in runner.passes:
        for name in report.get("checks", {}):
            counts[name] = counts.get(name, 0) + 1
    return counts


def render(result: dict, record: dict) -> str:
    lines = [f"workload {record['workload']}  seeds {record['seeds']}  "
             f"passes {record['passes']}  set-up samples {record['setup_samples']}  "
             f"run {record['run_s']:.1f} s"]
    env = record["environment"]
    lines.append(
        f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
        f"cpu {env['cpu']}  commit {env['commit']}"
    )
    for row in record["fidelity"]:
        lines.append(
            f"fidelity {row['circuit']} ({row['budget']} budget, seed {row['seed']}): "
            f"K {row['K_ours']} (paper {row['K_paper'] or 'n/a'}), "
            f"standard-over-evolution area gap {row['gap_pct_ours']:.2f}% "
            f"(paper {row['gap_pct_paper'] or 'n/a'}%)"
        )
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    lines.append("checks run: " + ", ".join(
        f"{name} x{count}" for name, count in record["checks"].items()
    ) + ", outputs agree per seed"
        + (", expected spans recorded" if record["trace"] else ""))
    lines.append(
        f"checks: {'all passed' if result['correct'] else 'FAILED'}  "
        f"attempted {result['attempted']}  failed {result['failed']}"
    )
    lines.extend(f"  problem: {p}" for p in record["problems"])
    return "\n".join(lines)


def smoke(spec: dict) -> int:
    """Every workload plus the traced run at c432 size; every
    metric of BENCHMARK.json must come out with its unit."""
    failures = []
    for name, workload in WORKLOADS.items():
        small = dict(workload, **SMOKE)
        for trace in (False, True):
            result, record = measure(name, small, 1995, 0.0, trace, spec)
            print(render(result, record))
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    failures.append(f"{name} trace={int(trace)}: {metric['name']} missing")
                elif not isinstance(got["value"], (int, float)):
                    failures.append(f"{name} trace={int(trace)}: {metric['name']} not a number")
            if not result["correct"]:
                failures.append(f"{name} trace={int(trace)}: checks failed")
    for failure in failures:
        print(f"SMOKE FAILURE: {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1995,
                        help="first ES seed (a run covers seed to seed + 3); 7 is held out")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test: all workloads at c432 size")
    args = parser.parse_args(argv)
    try:
        check_checkout()
        spec = load_spec()
        if args.smoke:
            return smoke(spec)
        if args.workload is None:
            parser.error("--workload is required")
        result, record = measure(
            args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), spec,
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (WORK / f"record-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"result": result, "record": record}, indent=2)
    )
    print(render(result, record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
