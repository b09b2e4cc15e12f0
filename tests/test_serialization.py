"""Tests for the JSON form of simulation results."""

import pytest

from repro.acmp import baseline_config, simulate
from repro.machine.serialization import result_from_dict, result_to_dict
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


class TestErrorHandling:
    def test_bad_version_rejected(self, result):
        data = result_to_dict(result)
        data["version"] = 99
        with pytest.raises(SimulationError, match="version"):
            result_from_dict(data)

    @pytest.mark.parametrize(
        "field", ["cores", "machine", "dram_accesses", "lock_hand_offs"]
    )
    def test_missing_field_rejected(self, result, field):
        data = result_to_dict(result)
        del data[field]
        with pytest.raises(SimulationError, match="malformed"):
            result_from_dict(data)
