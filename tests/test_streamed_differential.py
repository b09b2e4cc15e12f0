"""Differential battery: streamed ``.trcz`` runs == in-memory runs, bitwise.

The headline guarantee of the trace-ingestion subsystem: a round trip
through the chunked on-disk format is invisible to the simulator. For a
representative grid — both machine models × scheduled/reference engine
× full/sampled simulation — the ``SimulationResult`` from the streamed
source must equal the in-memory one field for field, and the two
sources must agree on checkpoint identity (fingerprint), so warm-state
sharing works across them.
"""

import pytest

from repro.acmp import AcmpConfig, result_to_dict
from repro.machine import simulate
from repro.sampling import resolve_plan, simulate_sampled
from repro.scmp import ScmpConfig
from repro.trace import StreamedTraceSet, open_trace_set, write_trace_set
from repro.trace.fingerprint import trace_fingerprint
from repro.trace.synthesis import synthesize_benchmark

#: One benchmark per machine keeps the grid affordable while still
#: covering serial strata (master-only code) and heavy sync.
_BENCH = {"acmp": "UA", "scmp": "CG"}

_CONFIGS = {
    "acmp": AcmpConfig(worker_count=4, cores_per_cache=2),
    "scmp": ScmpConfig(core_count_total=4, cores_per_cache=2),
}


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """(in-memory, streamed) trace-set pairs per machine, built once."""
    root = tmp_path_factory.mktemp("streams")
    pairs = {}
    for machine, config in _CONFIGS.items():
        traces = synthesize_benchmark(
            _BENCH[machine],
            thread_count=config.core_count,
            scale=0.04,
            seed=7,
        )
        write_trace_set(traces, root / machine, chunk_records=512)
        streamed = open_trace_set(root / machine)
        assert isinstance(streamed, StreamedTraceSet)
        pairs[machine] = (traces, streamed)
    return pairs


@pytest.mark.parametrize("machine", sorted(_CONFIGS))
@pytest.mark.parametrize("cycle_skip", [True, False], ids=["skip", "reference"])
def test_full_runs_bit_identical(sources, machine, cycle_skip):
    traces, streamed = sources[machine]
    config = _CONFIGS[machine]
    memory = simulate(config, traces, cycle_skip=cycle_skip)
    disk = simulate(config, streamed, cycle_skip=cycle_skip)
    assert result_to_dict(memory) == result_to_dict(disk)
    assert memory.total_committed == traces.instruction_count


@pytest.mark.parametrize("machine", sorted(_CONFIGS))
@pytest.mark.parametrize("cycle_skip", [True, False], ids=["skip", "reference"])
def test_sampled_runs_bit_identical(sources, machine, cycle_skip):
    traces, streamed = sources[machine]
    config = _CONFIGS[machine]
    plan = resolve_plan("fast")
    memory = simulate_sampled(config, traces, plan, cycle_skip=cycle_skip)
    disk = simulate_sampled(config, streamed, plan, cycle_skip=cycle_skip)
    assert result_to_dict(memory) == result_to_dict(disk)


@pytest.mark.parametrize("machine", sorted(_CONFIGS))
def test_sources_share_checkpoint_identity(sources, machine):
    """Streamed and in-memory sets agree on the checkpoint fingerprint.

    The streamed side gets its digest from the manifest, the in-memory
    side recomputes it from records; if they ever diverged, a campaign
    mixing sources would silently warm from cold.
    """
    traces, streamed = sources[machine]
    assert trace_fingerprint(streamed) == trace_fingerprint(traces)


@pytest.mark.parametrize("machine", sorted(_CONFIGS))
def test_interval_slicing_skips_prefix(sources, machine):
    """A sampled run's interval reads never decode chunk 0 eagerly.

    ``simulate_sampled`` touches the whole trace during warming (that
    is inherent to functional warming), but the reader cache keeps the
    resident decoded records bounded by the LRU, not the trace length.
    """
    _, streamed = sources[machine]
    plan = resolve_plan("fast")
    simulate_sampled(_CONFIGS[machine], streamed, plan)
    for thread in streamed.threads:
        stats = thread.reader.stats
        bound = 2 * thread.reader.chunk_records
        assert stats.max_resident_records <= bound, (
            f"thread {thread.thread_id} held {stats.max_resident_records} "
            f"decoded records (> {bound}): residency is not O(chunk)"
        )
