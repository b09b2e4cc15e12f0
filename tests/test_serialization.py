"""Tests for JSON result persistence."""

import json

import pytest

from repro.acmp import baseline_config, simulate
from repro.machine.serialization import (
    load_result,
    load_results,
    result_from_dict,
    result_to_dict,
    save_result,
    save_results,
)
from repro.errors import SimulationError
from repro.trace.synthesis import synthesize_benchmark


@pytest.fixture(scope="module")
def result():
    traces = synthesize_benchmark("IS", thread_count=9, scale=0.05)
    return simulate(baseline_config(), traces)


class TestRoundTrip:
    def test_dict_roundtrip_preserves_everything(self, result):
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.benchmark == result.benchmark
        assert rebuilt.config_label == result.config_label
        assert rebuilt.cycles == result.cycles
        assert len(rebuilt.cores) == len(result.cores)
        for original, copy in zip(result.cores, rebuilt.cores):
            assert copy == original
        for original, copy in zip(result.cache_groups, rebuilt.cache_groups):
            assert copy == original

    def test_derived_metrics_survive(self, result):
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.worker_icache_mpki() == result.worker_icache_mpki()
        assert rebuilt.cpi_stack() == result.cpi_stack()
        assert rebuilt.worker_access_ratio() == result.worker_access_ratio()

    def test_file_roundtrip(self, result, tmp_path):
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.cycles == result.cycles
        # The file must be real, readable JSON.
        payload = json.loads(path.read_text())
        assert payload["benchmark"] == "IS"

    def test_campaign_roundtrip(self, result, tmp_path):
        path = tmp_path / "campaign.json"
        save_results([result, result], path)
        loaded = load_results(path)
        assert len(loaded) == 2
        assert loaded[0].cycles == result.cycles


class TestErrorHandling:
    def test_bad_version_rejected(self, result):
        data = result_to_dict(result)
        data["version"] = 99
        with pytest.raises(SimulationError, match="version"):
            result_from_dict(data)

    def test_missing_field_rejected(self, result):
        data = result_to_dict(result)
        del data["cores"]
        with pytest.raises(SimulationError, match="malformed"):
            result_from_dict(data)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(SimulationError, match="not valid JSON"):
            load_result(path)

    def test_non_campaign_file_rejected(self, tmp_path, result):
        path = tmp_path / "single.json"
        save_result(result, path)
        with pytest.raises(SimulationError, match="campaign"):
            load_results(path)
