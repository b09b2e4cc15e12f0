"""Tests of the benchmark itself: arithmetic, declarations, tracer hygiene."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import common, layers, run, workload

SPEC = common.load_spec()
NAME = r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}"
UNIT = r"[A-Za-z0-9_/%.-]{1,16}"


# -- host normalization ------------------------------------------------------------


@pytest.mark.parametrize("slowdown", [0.5, 1.0, 1.37, 2.0, 3.5])
def test_uniformly_slower_host_leaves_normalized_values_unchanged(slowdown):
    cpu, calibs = 0.8, [0.011, 0.009, 0.0105, 0.0098, 0.0121]
    reference = cpu * common.host_factor(calibs)
    scaled = cpu * slowdown * common.host_factor([c * slowdown for c in calibs])
    assert scaled == pytest.approx(reference, rel=1e-12)


def test_normalized_values_read_as_nominal_seconds():
    loop = 0.0123
    # Work worth three loops on any host is three nominal loops.
    assert 3 * loop * common.host_factor([loop] * 4) == pytest.approx(
        3 * common.NOMINAL_CALIB_S
    )


def test_factor_averages_every_interleaved_timing():
    assert common.host_factor([0.01, 0.03]) == pytest.approx(
        common.NOMINAL_CALIB_S / 0.02
    )


def test_calibrate_returns_loop_timings():
    timings = common.calibrate()
    assert len(timings) == common.CALIB_SAMPLES
    assert all(timing > 0 for timing in timings)


def test_statistics_helpers():
    assert common.median([3, 1, 2]) == 2
    assert common.median([4, 1, 3, 2]) == 2.5
    values = list(range(1, 11))
    assert common.percentile(values, 0.5) == 5
    assert common.percentile(values, 0.9) == 9


# -- BENCHMARK.json -------------------------------------------------------------------


def test_benchmark_json_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(common.WORKLOADS)
    for row in SPEC["workloads"]:
        assert set(row) == {"name", "why"}
        assert "\n" not in row["why"] and len(row["why"]) <= 200
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_metric_names_units_and_counts_are_within_limits():
    import re

    end_to_end, per_layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [row["name"] for row in end_to_end + per_layer]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert re.fullmatch(NAME, name), name
    for row in end_to_end:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in per_layer:
        assert set(row) == {"name", "unit", "better"}
    for row in end_to_end + per_layer:
        assert re.fullmatch(UNIT, row["unit"]), row
        assert row["better"] in ("higher", "lower")
    setup = next(row for row in end_to_end if row["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(row["bound"] for row in end_to_end)


def test_description_covers_every_workload_and_metric():
    described = json.loads((common.BENCH_DIR / "describe.json").read_text())
    assert set(described["workloads"]) == set(common.WORKLOADS)
    declared = {row["name"] for row in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(described["metrics"]) == declared


def test_profile_packages_match_declared_metrics():
    declared = {row["name"] for row in SPEC["per_layer"]}
    for package in (*layers.PROFILE_PACKAGES, "other"):
        assert f"{package}.self_share" in declared
        assert f"{package}.calls_per_kinstr" in declared


# -- profile roll-up -----------------------------------------------------------------


def test_profile_rollup_charges_foreign_time_to_callers():
    engine = ("/x/src/repro/engine/kernel.py", 10, "run")
    frontend = ("/x/src/repro/frontend/engine.py", 20, "step")
    helper = ("/usr/lib/python3/json/decoder.py", 5, "decode")
    builtin = ("~", 0, "<built-in method builtins.min>")
    stats = {
        engine: (1, 1, 2.0, 10.0, {}),
        frontend: (4, 4, 1.0, 5.0, {engine: (4, 4, 1.0, 5.0)}),
        helper: (
            3, 3, 0.6, 0.9, {engine: (1, 1, 0.2, 0.3), frontend: (2, 2, 0.4, 0.6)}
        ),
        builtin: (6, 6, 0.3, 0.3, {helper: (6, 6, 0.3, 0.3)}),
    }
    rollup = layers.profile_rollup(stats)
    assert rollup["engine"]["self_s"] == pytest.approx(2.0 + 0.2 + 0.3 * 0.3 / 0.9)
    assert rollup["frontend"]["self_s"] == pytest.approx(1.0 + 0.4 + 0.3 * 0.6 / 0.9)
    # Calls split by call counts, so they never depend on timing.
    assert rollup["engine"]["calls"] == 1 + 1 + 2
    assert rollup["frontend"]["calls"] == 4 + 2 + 4
    total = sum(entry["self_s"] for entry in rollup.values())
    assert total == pytest.approx(2.0 + 1.0 + 0.6 + 0.3)


def test_package_of():
    assert layers.package_of("/a/src/repro/cache/set_assoc.py") == "cache"
    assert layers.package_of("/a/src/repro/power/energy.py") == "other"
    assert layers.package_of("/a/src/repro/errors.py") == "other"
    assert layers.package_of("/usr/lib/python3.11/enum.py") is None


# -- passes, tracer and traced run ----------------------------------------------------

#: A workload small enough for a test: real sampling on one benchmark.
TINY = {
    "experiments": ["fig10"],
    "benchmarks": ["CG"],
    "scale": 0.1,
    "sampling": "d2000:s6000:w6000:r0",
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(common.WORKLOADS, "tiny", TINY)
    monkeypatch.delenv("REPRO_OBS", raising=False)

    def run_pass(role, mode="plain", **paths):
        job = {"workload": "tiny", "seed": 0, "role": role, "mode": mode}
        job.update({key: str(value) for key, value in paths.items()})
        job.setdefault("store", str(tmp_path / f"store-{role}-{mode}"))
        return workload.run_pass(job, 0.0, common.calibrate())

    return run_pass


def _originals():
    import importlib

    found = {}
    for _layer, module, path, _count in layers.TARGETS:
        owner_path, _, attr = path.rpartition(".")
        owner = importlib.import_module(module)
        for part in owner_path.split(".") if owner_path else ():
            owner = getattr(owner, part)
        found[(module, path)] = vars(owner)[attr]
    return found


def test_traced_pass_restores_wrapped_attributes_and_matches_digest(tiny, tmp_path):
    before = _originals()
    plain = tiny("timed")
    spanned = tiny("timed", "spans", spans_out=tmp_path / "spans.json")
    profiled = tiny("timed", "profile")
    reference = tiny("reference")
    assert spanned["restored"]
    assert _originals() == before
    assert plain["ok"] == plain["attempted"] == 4
    assert spanned["digest"] == plain["digest"] == profiled["digest"]
    for name in ("SystemSimulator.run", "BatchedWarmer.warm_interval",
                 "CheckpointStore.put", "ResultStore.put", "run_experiment"):
        assert spanned["spans"][name]["calls"] > 0, name
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert all(span["self"] >= -1e-9 for span in spans)
    metrics = run.layer_metrics(plain, spanned, profiled, reference)
    assert set(metrics) == {row["name"] for row in SPEC["per_layer"]}
    assert 0 < metrics["sampling.detail_frac"] < 1


def test_warm_pass_hits_every_checkpoint_and_matches_cold(tiny, tmp_path):
    store, corpus = tmp_path / "cold", tmp_path / "corpus"
    results = tmp_path / "cold.json"
    cold = tiny("populate", store=store, capture_dir=corpus, results_out=results)
    warm_store = tmp_path / "warm"
    warm_store.mkdir()
    (store / "checkpoints").rename(warm_store / "checkpoints")
    paths = {"store": warm_store, "event_dir": corpus, "compare_with": results}
    warm = tiny("timed", **paths)
    assert cold["ok"] == cold["attempted"] == warm["ok"] == warm["attempted"] == 4
    assert warm["model"]["misses"] == 0 and warm["model"]["hits"] > 0
    # A cold result that disagrees with the warm one fails that point.
    payload = json.loads(results.read_text())
    payload[sorted(payload)[0]]["cycles"] += 1
    results.write_text(json.dumps(payload))
    assert tiny("timed", **paths)["ok"] == 3


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(common.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-detail",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (Path(tmp_path) / ".perfbench").exists()
