"""Tests for design/partition serialisation and the CLI."""

import json

import pytest

from repro.errors import PartitionError
from repro.flow.io import (
    design_summary_dict,
    load_partition_json,
    partition_from_dict,
    partition_to_dict,
    save_design_summary_json,
    save_partition_json,
)
from repro.partition.partition import Partition


class TestPartitionIO:
    def test_round_trip(self, c17_paper, tmp_path):
        partition = Partition.from_groups(
            c17_paper, [{"g1", "g3", "O2"}, {"g2", "g4", "O3"}]
        )
        path = tmp_path / "p.json"
        save_partition_json(partition, path)
        again = load_partition_json(c17_paper, path)
        assert again.canonical() == partition.canonical()

    def test_wrong_circuit_rejected(self, c17_paper, c17_circuit):
        partition = Partition.single_module(c17_circuit)
        data = partition_to_dict(partition)
        with pytest.raises(PartitionError, match="saved for circuit"):
            partition_from_dict(c17_paper, data)

    def test_malformed_rejected(self, c17_paper):
        with pytest.raises(PartitionError, match="malformed"):
            partition_from_dict(c17_paper, {"nope": 1})

    def test_incomplete_cover_rejected(self, c17_paper):
        data = {"circuit": "c17-paper", "modules": {"0": ["g1", "g2"]}}
        with pytest.raises(PartitionError):
            partition_from_dict(c17_paper, data)


class TestDesignSummary:
    @pytest.fixture(scope="class")
    def design(self):
        from repro.config import EvolutionParams, SynthesisConfig
        from repro.flow.synthesis import synthesize_iddq_testable
        from repro.netlist.benchmarks import load_iscas85

        config = SynthesisConfig(
            evolution=EvolutionParams(
                mu=3,
                children_per_parent=2,
                monte_carlo_per_parent=1,
                generations=8,
                convergence_window=8,
            )
        )
        return synthesize_iddq_testable(load_iscas85("c880"), config=config, seed=2)

    def test_summary_fields(self, design):
        data = design_summary_dict(design)
        assert data["circuit"] == "c880"
        assert data["feasible"] is True
        assert data["num_modules"] == len(data["modules"])
        assert data["optimizer"]["name"] == "evolution"

    def test_summary_json_serialisable(self, design, tmp_path):
        path = tmp_path / "design.json"
        save_design_summary_json(design, path)
        loaded = json.loads(path.read_text())
        assert loaded["sensor_area_total"] == pytest.approx(
            design.sensor_area_total
        )

    def test_partition_embedded_and_loadable(self, design):
        data = design_summary_dict(design)
        again = partition_from_dict(design.circuit, data["partition"])
        assert again.canonical() == design.partition.canonical()


class TestCLI:
    def test_stats_command(self, capsys):
        from repro.__main__ import main

        assert main(["stats", "c17"]) == 0
        out = capsys.readouterr().out
        assert "c17" in out
        assert "clean" in out

    def test_stats_bench_file(self, capsys, tmp_path, c17_circuit):
        from repro.__main__ import main
        from repro.netlist.bench import write_bench_file

        path = tmp_path / "mine.bench"
        write_bench_file(c17_circuit, path)
        assert main(["stats", str(path)]) == 0
        assert "mine" in capsys.readouterr().out

    def test_unknown_circuit_exits(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="neither a file"):
            main(["stats", "c000"])

    @pytest.mark.parametrize("kind", ["input-only", "empty", "directory"])
    def test_malformed_netlist_exits_with_error(self, kind, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "bad.bench"
        if kind == "input-only":
            path.write_text("INPUT(a)\nINPUT(b)\nOUTPUT(a)\n")
        elif kind == "empty":
            path.write_text("")
        else:
            path.mkdir()
        for command in ("stats", "synth", "compare"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, str(path)])
            assert str(excinfo.value.code).startswith("error:"), excinfo.value.code
            assert "Traceback" not in capsys.readouterr().err

    def test_experiments_list_delegated(self, capsys):
        from repro.__main__ import main

        assert main(["experiments", "list"]) == 0
        assert "table1" in capsys.readouterr().out
