"""Command-line interface for the IDDQ-testability flow.

Usage::

    # Synthesise an IDDQ-testable design for a .bench netlist (or a
    # bundled benchmark name) and write report + sensorised netlist.
    python -m repro synth c1908 --out-dir results/ --seed 7
    python -m repro synth path/to/design.bench --full

    # Inspect a netlist.
    python -m repro stats c7552

    # Regenerate the paper's experiments (same as python -m repro.experiments).
    python -m repro experiments run table1
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.config import EvolutionParams, SynthesisConfig
from repro.errors import ReproError


def _load_circuit(spec: str):
    from repro.netlist.bench import parse_bench_file
    from repro.netlist.benchmarks import ISCAS85_PROFILES, load_iscas85

    if spec.lower() in ISCAS85_PROFILES or spec.lower() == "c17":
        return load_iscas85(spec)
    path = Path(spec)
    if not path.exists():
        known = ", ".join(sorted(set(ISCAS85_PROFILES) | {"c17"}))
        raise SystemExit(
            f"error: {spec!r} is neither a file nor a known benchmark ({known})"
        )
    try:
        return parse_bench_file(path)
    except (ReproError, OSError) as exc:
        raise SystemExit(f"error: cannot load {spec!r}: {exc}") from None


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.flow.io import save_design_summary_json
    from repro.flow.synthesis import synthesize_iddq_testable

    circuit = _load_circuit(args.circuit)
    if args.full:
        evolution = EvolutionParams(generations=300, convergence_window=60)
    else:
        evolution = EvolutionParams(
            mu=4,
            children_per_parent=3,
            monte_carlo_per_parent=1,
            generations=40,
            convergence_window=20,
        )
    config = SynthesisConfig(evolution=evolution)
    design = synthesize_iddq_testable(circuit, config=config, seed=args.seed)
    print(design.report())
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        bench_path = out / f"{circuit.name}_iddq.bench"
        summary_path = out / f"{circuit.name}_iddq.json"
        bench_path.write_text(design.to_bench())
        save_design_summary_json(design, summary_path)
        print(f"\nwrote {bench_path} and {summary_path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.flow.compare import compare_methods

    circuit = _load_circuit(args.circuit)
    evolution = EvolutionParams(
        mu=4,
        children_per_parent=3,
        monte_carlo_per_parent=1,
        generations=300 if args.full else 40,
        convergence_window=60 if args.full else 20,
    )
    comparison = compare_methods(
        circuit, config=SynthesisConfig(evolution=evolution), seed=args.seed
    )
    print(comparison.render())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.flow.report import format_table
    from repro.netlist.validate import check_circuit

    circuit = _load_circuit(args.circuit)
    stats = circuit.stats()
    row = stats.as_row()
    print(format_table(list(row.keys()), [list(row.values())]))
    print()
    counts = ", ".join(f"{t}: {c}" for t, c in sorted(stats.type_counts.items()))
    print(f"gate mix: {counts}")
    print(f"structural check: {check_circuit(circuit).summary()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Delegate the experiments subcommand wholesale.
    if argv and argv[0] == "experiments":
        from repro.experiments.__main__ import main as experiments_main

        return experiments_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="IDDQ-testable circuit synthesis (Wunderlich et al., ED&TC 1995)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesise an IDDQ-testable design")
    synth.add_argument("circuit", help=".bench file or bundled benchmark name")
    synth.add_argument("--seed", type=int, default=1995)
    synth.add_argument("--full", action="store_true", help="full evolution budget")
    synth.add_argument("--out-dir", help="write sensorised netlist + JSON summary here")
    synth.set_defaults(func=_cmd_synth)

    stats = sub.add_parser("stats", help="print netlist statistics")
    stats.add_argument("circuit", help=".bench file or bundled benchmark name")
    stats.set_defaults(func=_cmd_stats)

    compare = sub.add_parser(
        "compare", help="evolution vs standard partitioning on one circuit"
    )
    compare.add_argument("circuit", help=".bench file or bundled benchmark name")
    compare.add_argument("--seed", type=int, default=1995)
    compare.add_argument("--full", action="store_true", help="full evolution budget")
    compare.set_defaults(func=_cmd_compare)

    sub.add_parser(
        "experiments", help="regenerate the paper's experiments (see subcommand help)"
    )

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
