"""Artifact recipes, the campaign runner and the CLI."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.faultsim.atpg import generate_iddq_tests
from repro.faultsim.faults import sample_bridging_faults
from repro.faultsim.patterns import random_patterns
from repro.faultsim.stuck_at import StuckAtSimulator, enumerate_stuck_at_faults
from repro.analysis.separation import SeparationMatrix
from repro.optimize.start import chain_start_partition, estimate_module_count
from repro.runtime.artifacts import (
    cached_detection_matrix,
    cached_iddq_test_set,
    cached_separation_matrix,
)
from repro.runtime.campaign import MANIFEST_SCHEMA, CampaignConfig, run_campaign
from repro.runtime.store import ArtifactStore


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


class TestArtifactRecipes:
    def test_separation_round_trip_exact(self, store, small_circuit):
        fresh = SeparationMatrix(small_circuit, 8)
        built, hit1 = cached_separation_matrix(store, small_circuit, 8)
        reloaded, hit2 = cached_separation_matrix(store, small_circuit, 8)
        assert (hit1, hit2) == (False, True)
        assert np.array_equal(fresh.matrix, built.matrix)
        assert np.array_equal(fresh.matrix, reloaded.matrix)
        assert reloaded.matrix.dtype == np.uint8
        assert reloaded.cap == 8

    def test_separation_cap_invalidates(self, store, small_circuit):
        cached_separation_matrix(store, small_circuit, 8)
        _, hit = cached_separation_matrix(store, small_circuit, 9)
        assert not hit

    def test_separation_backend_accepts_only_auto(self, store, small_circuit):
        from repro.errors import OptimizationError

        fresh = SeparationMatrix(small_circuit, 8).matrix
        for backend in (None, "auto"):
            got, _ = cached_separation_matrix(store, small_circuit, 8, backend=backend)
            assert np.array_equal(got.matrix, fresh)
        with pytest.raises(OptimizationError, match="unknown simulation backend"):
            cached_separation_matrix(store, small_circuit, 8, backend="numpy")

    def test_detection_matrix_round_trip_exact(self, store, small_circuit):
        faults = enumerate_stuck_at_faults(small_circuit)[:64]
        patterns = random_patterns(len(small_circuit.input_names), 50, seed=4)
        fresh = StuckAtSimulator(small_circuit).detection_matrix(faults, patterns)
        built, hit1 = cached_detection_matrix(store, small_circuit, faults, patterns)
        reloaded, hit2 = cached_detection_matrix(
            store, small_circuit, faults, patterns
        )
        assert (hit1, hit2) == (False, True)
        assert np.array_equal(fresh, built)
        assert np.array_equal(fresh, reloaded)

    def test_detection_matrix_invalidates_on_patterns(self, store, small_circuit):
        faults = enumerate_stuck_at_faults(small_circuit)[:16]
        patterns = random_patterns(len(small_circuit.input_names), 20, seed=4)
        cached_detection_matrix(store, small_circuit, faults, patterns)
        changed = patterns.copy()
        changed[0, 0] ^= 1
        _, hit = cached_detection_matrix(store, small_circuit, faults, changed)
        assert not hit

    def test_detection_matrix_invalidates_on_circuit(
        self, store, small_circuit, c17_circuit
    ):
        patterns = random_patterns(len(small_circuit.input_names), 20, seed=4)
        faults = enumerate_stuck_at_faults(small_circuit)[:16]
        cached_detection_matrix(store, small_circuit, faults, patterns)
        c17_faults = enumerate_stuck_at_faults(c17_circuit)[:16]
        c17_patterns = random_patterns(len(c17_circuit.input_names), 20, seed=4)
        _, hit = cached_detection_matrix(store, c17_circuit, c17_faults, c17_patterns)
        assert not hit

    def test_test_set_round_trip_exact(self, store, small_circuit, small_evaluator):
        partition = chain_start_partition(
            small_evaluator, estimate_module_count(small_evaluator), random.Random(2)
        )
        defects = sample_bridging_faults(
            small_circuit, 15, seed=3, current_range_ua=(0.5, 5.0)
        )
        kwargs = dict(seed=5, random_vectors=8, restarts=1, flip_budget=4)
        fresh = generate_iddq_tests(small_circuit, partition, defects, **kwargs)
        built, hit1 = cached_iddq_test_set(
            store, small_circuit, partition, defects, **kwargs
        )
        reloaded, hit2 = cached_iddq_test_set(
            store, small_circuit, partition, defects, **kwargs
        )
        assert (hit1, hit2) == (False, True)
        for tests in (built, reloaded):
            assert np.array_equal(fresh.patterns, tests.patterns)
            assert fresh.detected_ids == tests.detected_ids
            assert fresh.undetected_ids == tests.undetected_ids
            assert fresh.random_detected == tests.random_detected
            assert fresh.targeted_detected == tests.targeted_detected

    def test_test_set_mode_and_config_invalidate(
        self, store, small_circuit, small_evaluator
    ):
        partition = chain_start_partition(
            small_evaluator, estimate_module_count(small_evaluator), random.Random(2)
        )
        defects = sample_bridging_faults(
            small_circuit, 10, seed=3, current_range_ua=(0.5, 5.0)
        )
        kwargs = dict(seed=5, random_vectors=8, restarts=1, flip_budget=4)
        cached_iddq_test_set(store, small_circuit, partition, defects, **kwargs)
        _, hit_seed = cached_iddq_test_set(
            store, small_circuit, partition, defects, **dict(kwargs, seed=6)
        )
        _, hit_mode = cached_iddq_test_set(
            store, small_circuit, partition, defects,
            defect_parallel=True, **kwargs,
        )
        assert not hit_seed
        assert not hit_mode


class TestCampaign:
    def test_second_run_serves_from_cache(self, tmp_path):
        config = CampaignConfig(
            circuits=("c432",), jobs=1, cache_dir=str(tmp_path / "cache")
        )
        cold = run_campaign(config)
        warm = run_campaign(config)
        assert cold["totals"]["hits"] == 0
        assert cold["totals"]["misses"] == len(cold["entries"]) == 4
        assert warm["totals"]["hits"] == len(warm["entries"]) == 4
        assert warm["totals"]["misses"] == 0
        by_stage = {e["stage"]: e for e in warm["entries"]}
        assert set(by_stage) == {"separation", "stuck-at", "atpg", "optimize"}
        assert all(e["hit"] for e in warm["entries"])

    def test_warm_run_hits_across_different_jobs(self, tmp_path):
        # Campaign artifacts must be invariant to --jobs: a cache built
        # serially serves a 2-worker run (and vice versa) because the
        # atpg stage always uses the defect-parallel mode and the
        # portfolio a fixed seed population.
        cache = str(tmp_path / "cache")
        cold = run_campaign(
            CampaignConfig(circuits=("c432",), jobs=1, cache_dir=cache)
        )
        warm = run_campaign(
            CampaignConfig(circuits=("c432",), jobs=2, cache_dir=cache)
        )
        assert cold["totals"]["misses"] == 4
        assert warm["totals"]["hits"] == 4
        assert warm["totals"]["misses"] == 0

    def test_unknown_stage_rejected(self):
        with pytest.raises(ExperimentError, match="unknown campaign stage"):
            CampaignConfig(stages=("separation", "nope"))

    def test_no_circuits_rejected(self):
        with pytest.raises(ExperimentError, match="at least one circuit"):
            CampaignConfig(circuits=())


class TestCampaignCLI:
    def test_cli_writes_manifest(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out = tmp_path / "manifest.json"
        code = main(
            [
                "campaign",
                "--circuits", "c432",
                "--stages", "separation,stuck-at",
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads(out.read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert [e["stage"] for e in manifest["entries"]] == [
            "separation",
            "stuck-at",
        ]
        assert all(e["status"] == "ok" for e in manifest["entries"])
        # A successful save removes the incremental journal.
        assert not out.with_name(out.name + ".partial.jsonl").exists()
        printed = capsys.readouterr().out
        assert "stages from cache" in printed


class TestCampaignStatus:
    """The live progress ledger (DESIGN.md §12): <out>.status.json."""

    def test_status_converges_to_manifest(self, tmp_path):
        out = tmp_path / "manifest.json"
        manifest = run_campaign(
            CampaignConfig(
                circuits=("c432",),
                stages=("separation", "stuck-at"),
                cache_dir=str(tmp_path / "cache"),
                out=str(out),
            )
        )
        status = json.loads((tmp_path / "manifest.json.status.json").read_text())
        assert status["state"] == "done"
        assert status["counts"]["ok"] == 2
        assert status["counts"]["pending"] == 0
        assert status["counts"]["total"] == len(manifest["entries"])
        # The final document embeds the manifest totals verbatim.
        assert status["totals"] == manifest["totals"]
        assert status["manifest"] == str(out)

    def test_manifest_executor_totals(self, tmp_path):
        manifest = run_campaign(
            CampaignConfig(
                circuits=("c432",),
                stages=("separation",),
                cache_dir=str(tmp_path / "cache"),
            )
        )
        assert manifest["schema"] == MANIFEST_SCHEMA == 4
        executor = manifest["totals"]["executor"]
        assert set(executor) == {
            "retries", "timeouts", "pool_restarts", "serial_fallbacks",
            "tasks_recovered", "stalls",
        }
        assert all(v == 0 for v in executor.values())

    def test_status_counts_resumed_entries(self, tmp_path):
        cache = str(tmp_path / "cache")
        out = tmp_path / "manifest.json"
        config = dict(
            circuits=("c432",), stages=("separation", "stuck-at"),
            cache_dir=cache, out=str(out),
        )
        run_campaign(CampaignConfig(**config))
        run_campaign(CampaignConfig(resume=str(out), **config))
        status = json.loads((tmp_path / "manifest.json.status.json").read_text())
        assert status["state"] == "done"
        assert status["counts"]["resumed"] == 2
        assert status["counts"]["pending"] == 0

    def test_heartbeat_dir_defaults_next_to_manifest(self, tmp_path, monkeypatch):
        from repro.obs import live

        monkeypatch.setenv(live.HEARTBEAT_ENV, "0.05")
        monkeypatch.delenv(live.HEARTBEAT_DIR_ENV, raising=False)
        live.stop_heartbeat()
        out = tmp_path / "manifest.json"
        try:
            run_campaign(
                CampaignConfig(
                    circuits=("c432",),
                    stages=("separation", "stuck-at"),
                    jobs=2,
                    cache_dir=str(tmp_path / "cache"),
                    out=str(out),
                )
            )
        finally:
            live.stop_heartbeat()
        hb_dir = tmp_path / "manifest.json.hb"
        assert hb_dir.is_dir()
        assert list(hb_dir.glob("hb-*.jsonl"))

    def test_status_cli(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out = tmp_path / "manifest.json"
        run_campaign(
            CampaignConfig(
                circuits=("c432",),
                stages=("separation",),
                cache_dir=str(tmp_path / "cache"),
                out=str(out),
            )
        )
        # All three addressing modes: manifest path, status file, dir.
        assert main(["status", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "campaign done" in rendered
        assert "1/1 stages" in rendered
        assert main(["status", str(out) + ".status.json"]) == 0
        assert "campaign done" in capsys.readouterr().out

    def test_status_cli_missing_and_invalid(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["status", str(tmp_path / "nope.json")]) == 1
        err = capsys.readouterr().err
        assert "cannot read" in err and "Traceback" not in err
        bad = tmp_path / "bad.status.json"
        bad.write_text("{torn")
        assert main(["status", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err
