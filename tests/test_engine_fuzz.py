"""Randomized cross-engine equivalence fuzzing (seeded, deterministic).

The hand-picked grid in ``tests/test_scheduler_equivalence.py`` pins
one configuration per known scheduler path. This harness instead draws
whole design points at random — topology (core count, cores per cache),
interconnect shape (bus count, *bus width*, crossbar vs multi-bus,
arbitration policy), front-end geometry (FTQ/IQ capacity, line buffers,
iTLB sharing) and the workload mix (benchmark, synthesis seed, scale) —
from a fixed PRNG seed list, and asserts the scheduled engine stays
bit-identical to the cycle-by-cycle reference engine on every draw, for
both registered machine models. Every seed is an independent
reproducible case: a failure report names the seed, and re-running just
that parametrization replays the identical machine and workload.

The random axes deliberately stress the commit-replay fast path: small
and large instruction queues change how often a quiescent front-end
leaves a draining back-end behind, narrow buses stretch fill latencies
(longer replay windows), and sub-unit serial IPC scaling on the scmp
exercises replay windows that mix pacing and commit cycles.
"""

import random

import pytest

from repro.acmp import AcmpConfig, result_to_dict
from repro.errors import DeadlockError
from repro.machine import simulate
from repro.scmp import ScmpConfig
from repro.trace.records import (
    BasicBlockRecord,
    BranchKind,
    BranchOutcome,
    IpcRecord,
    SyncKind,
    SyncRecord,
)
from repro.trace.stream import ThreadTrace, TraceSet
from repro.trace.synthesis import synthesize_benchmark

#: Fixed fuzz seeds; each draws one (config, workload) pair per machine.
#: Extend this list to widen coverage — every entry must stay green.
FUZZ_SEEDS = tuple(range(1, 13))

#: Seeds for the redirect-heavy draw (independent trajectory: adding or
#: reordering rng calls there cannot re-roll the base FUZZ_SEEDS cases).
REDIRECT_FUZZ_SEEDS = tuple(range(1, 7))

#: Benchmarks the workload draw mixes over: the two equivalence-grid
#: staples plus mixes with heavier sync (CoEVP), larger footprints
#: (CoMD) and a different phase structure (BT).
_BENCH_POOL = ("CG", "UA", "BT", "CoMD", "CoEVP")


def _draw_common(rng: random.Random) -> dict:
    """Machine-neutral substrate axes shared by both models."""
    itlb = rng.random() < 0.4
    return {
        "bus_count": rng.choice((1, 2)),
        "bus_width_bytes": rng.choice((8, 16, 32)),
        "bus_latency": rng.choice((1, 2, 3)),
        "line_buffers": rng.choice((2, 4, 8)),
        "ftq_capacity": rng.choice((4, 8)),
        "iq_capacity": rng.choice((16, 32, 64, 128)),
        "interconnect": rng.choice(("bus", "crossbar")),
        "itlb_enabled": itlb,
        "mshr_capacity": rng.choice((4, 16)),
    }


def _draw_acmp(rng: random.Random) -> AcmpConfig:
    workers = rng.choice((2, 4, 8))
    divisors = [d for d in (1, 2, 4, 8) if d <= workers and workers % d == 0]
    cpc = rng.choice(divisors)
    common = _draw_common(rng)
    shared = cpc > 1
    return AcmpConfig(
        worker_count=workers,
        cores_per_cache=cpc,
        worker_icache_bytes=rng.choice((16, 32)) * 1024,
        arbitration=rng.choice(("round-robin", "icount"))
        if shared
        else "round-robin",
        shared_itlb=common["itlb_enabled"] and shared and rng.random() < 0.5,
        **common,
    )


def _draw_scmp(rng: random.Random) -> ScmpConfig:
    cores = rng.choice((2, 4, 8))
    divisors = [d for d in (1, 2, 4, 8) if d <= cores and cores % d == 0]
    cpc = rng.choice(divisors)
    common = _draw_common(rng)
    shared = cpc > 1
    return ScmpConfig(
        core_count_total=cores,
        cores_per_cache=cpc,
        icache_bytes=rng.choice((16, 32)) * 1024,
        serial_ipc_scale=rng.choice((0.4, 0.5, 0.7, 1.0)),
        arbitration=rng.choice(("round-robin", "icount"))
        if shared
        else "round-robin",
        shared_itlb=common["itlb_enabled"] and shared and rng.random() < 0.5,
        **common,
    )


def _draw_workload(rng: random.Random, core_count: int):
    """One benchmark realisation: name × synthesis seed × scale."""
    bench = rng.choice(_BENCH_POOL)
    return synthesize_benchmark(
        bench,
        thread_count=core_count,
        scale=rng.choice((0.02, 0.03)),
        seed=rng.randrange(1 << 16),
    )


_DRAWERS = {"acmp": _draw_acmp, "scmp": _draw_scmp}

#: Stable per-machine salt (``hash(str)`` is randomized per process and
#: would re-roll every pinned draw on each run).
_SALT = {"acmp": 0xAC, "scmp": 0x5C}

# -- redirect-heavy draws ---------------------------------------------------
#
# The base draw rarely lingers in mispredict-redirect windows: penalties
# are the defaults and the benchmark pool leans predictable. This second
# draw family stresses the redirect-replay fast path specifically — the
# highest calibrated branch-MPKI workloads, stretched penalties, deep
# FTQs (more drain to batch) and double-bus interconnects (fill latency
# landing *inside* the redirect window).

#: The five workloads with the highest calibrated parallel branch MPKI.
_REDIRECT_BENCH_POOL = ("DC", "CoEVP", "imagick", "fma3d", "botsspar")

_REDIRECT_SALT = {"acmp": 0x4AAC, "scmp": 0x4A5C}


def _draw_redirect_common(rng: random.Random) -> dict:
    """Substrate axes biased toward long, frequent redirect windows."""
    itlb = rng.random() < 0.4
    return {
        "bus_count": 2,  # double-bus: fills straddle redirect windows
        "bus_width_bytes": rng.choice((8, 16)),
        "bus_latency": rng.choice((2, 3)),
        "line_buffers": rng.choice((2, 4)),
        "ftq_capacity": rng.choice((8, 16)),  # deep FTQs: more to drain
        "iq_capacity": rng.choice((16, 32)),
        "interconnect": "bus",
        "itlb_enabled": itlb,
        "mshr_capacity": rng.choice((4, 16)),
    }


def _draw_redirect_acmp(rng: random.Random) -> AcmpConfig:
    workers = rng.choice((2, 4))
    cpc = rng.choice([d for d in (1, 2, 4) if d <= workers])
    common = _draw_redirect_common(rng)
    shared = cpc > 1
    return AcmpConfig(
        worker_count=workers,
        cores_per_cache=cpc,
        worker_icache_bytes=rng.choice((16, 32)) * 1024,
        mispredict_penalty_master=rng.choice((12, 20)),
        mispredict_penalty_worker=rng.choice((8, 16)),
        arbitration=rng.choice(("round-robin", "icount"))
        if shared
        else "round-robin",
        shared_itlb=common["itlb_enabled"] and shared and rng.random() < 0.5,
        **common,
    )


def _draw_redirect_scmp(rng: random.Random) -> ScmpConfig:
    cores = rng.choice((2, 4))
    cpc = rng.choice([d for d in (1, 2, 4) if d <= cores])
    common = _draw_redirect_common(rng)
    shared = cpc > 1
    return ScmpConfig(
        core_count_total=cores,
        cores_per_cache=cpc,
        icache_bytes=rng.choice((16, 32)) * 1024,
        serial_ipc_scale=rng.choice((0.5, 1.0)),
        mispredict_penalty=rng.choice((8, 16, 24)),
        arbitration=rng.choice(("round-robin", "icount"))
        if shared
        else "round-robin",
        shared_itlb=common["itlb_enabled"] and shared and rng.random() < 0.5,
        **common,
    )


_REDIRECT_DRAWERS = {"acmp": _draw_redirect_acmp, "scmp": _draw_redirect_scmp}


def _draw_redirect_workload(rng: random.Random, core_count: int):
    bench = rng.choice(_REDIRECT_BENCH_POOL)
    return synthesize_benchmark(
        bench,
        thread_count=core_count,
        scale=rng.choice((0.02, 0.03)),
        seed=rng.randrange(1 << 16),
    )


@pytest.mark.parametrize("machine", sorted(_DRAWERS))
@pytest.mark.parametrize("fuzz_seed", FUZZ_SEEDS)
def test_fuzzed_engines_bit_identical(machine, fuzz_seed):
    rng = random.Random((fuzz_seed << 8) ^ _SALT[machine])
    config = _DRAWERS[machine](rng)
    traces = _draw_workload(rng, config.core_count)
    scheduled = simulate(config, traces, cycle_skip=True)
    stepped = simulate(config, traces, cycle_skip=False)
    assert result_to_dict(scheduled) == result_to_dict(stepped), (
        f"seed {fuzz_seed}: scheduled != reference for {machine} "
        f"{config.label()} on {traces.benchmark}"
    )
    # The payload equality above is the contract; spot-check the axes
    # that make it meaningful (same work happened, nothing was elided
    # into oblivion).
    assert scheduled.total_committed == traces.instruction_count
    assert scheduled.cycles == stepped.cycles


@pytest.mark.parametrize("machine", sorted(_REDIRECT_DRAWERS))
@pytest.mark.parametrize("fuzz_seed", REDIRECT_FUZZ_SEEDS)
def test_redirect_heavy_engines_bit_identical(machine, fuzz_seed):
    rng = random.Random((fuzz_seed << 8) ^ _REDIRECT_SALT[machine])
    config = _REDIRECT_DRAWERS[machine](rng)
    traces = _draw_redirect_workload(rng, config.core_count)
    scheduled = simulate(config, traces, cycle_skip=True)
    stepped = simulate(config, traces, cycle_skip=False)
    assert result_to_dict(scheduled) == result_to_dict(stepped), (
        f"seed {fuzz_seed}: scheduled != reference for {machine} "
        f"{config.label()} on {traces.benchmark}"
    )
    assert scheduled.total_committed == traces.instruction_count
    assert scheduled.cycles == stepped.cycles


# -- streamed-source draws --------------------------------------------------
#
# Same spirit, different source: each draw round-trips its workload
# through the chunked on-disk format and asserts the scheduled engine
# is bit-identical across sources. This is the fuzzing leg of the
# trace-ingestion differential battery — random topologies and
# workloads instead of the fixed grid in test_streamed_differential.

#: Independent salt so the streamed draws never share a trajectory with
#: the pinned base/redirect families.
_STREAM_SALT = {"acmp": 0x57AC, "scmp": 0x575C}

STREAM_FUZZ_SEEDS = tuple(range(1, 5))


@pytest.mark.parametrize("machine", sorted(_DRAWERS))
@pytest.mark.parametrize("fuzz_seed", STREAM_FUZZ_SEEDS)
def test_fuzzed_streamed_source_bit_identical(machine, fuzz_seed, tmp_path):
    from repro.trace import open_trace_set, write_trace_set

    rng = random.Random((fuzz_seed << 8) ^ _STREAM_SALT[machine])
    config = _DRAWERS[machine](rng)
    traces = _draw_workload(rng, config.core_count)
    write_trace_set(traces, tmp_path / "set", chunk_records=256)
    streamed = open_trace_set(tmp_path / "set")
    memory = simulate(config, traces, cycle_skip=True)
    disk = simulate(config, streamed, cycle_skip=True)
    assert result_to_dict(memory) == result_to_dict(disk), (
        f"seed {fuzz_seed}: streamed != in-memory for {machine} "
        f"{config.label()} on {traces.benchmark}"
    )
    assert memory.total_committed == traces.instruction_count


def _mispredict_storm(base: int, blocks: int) -> list:
    """Blocks ending in never-before-seen not-taken conditionals.

    gshare counters initialise weakly taken, so each fresh index
    predicts taken; a not-taken outcome at a fresh branch address is a
    near-certain mispredict, and not-taken outcomes keep the global
    history at zero so distinct addresses keep hitting fresh counters.
    The result: a dense stream of redirect drain/penalty windows.
    """
    return [
        BasicBlockRecord(
            base + index * 64,
            8,
            BranchOutcome(BranchKind.CONDITIONAL, False, 0),
        )
        for index in range(blocks)
    ]


def _redirect_deadlock_traces() -> TraceSet:
    """Phantom-phase hang reached through a mispredict storm: the
    healthy threads burn through dense redirect windows right up to the
    final sync, then block; worker 2 waits on a phase the master never
    starts. The watchdog must fire at the stepped engine's exact cycle
    even though the scheduled engine batched the preceding redirects."""
    master = [
        IpcRecord(1.0),
        *_mispredict_storm(0x10000, 40),
        SyncRecord(SyncKind.PARALLEL_START, 0),
        IpcRecord(2.0),
        *_mispredict_storm(0x20000, 40),
        SyncRecord(SyncKind.PARALLEL_END, 0),
    ]
    worker = [
        SyncRecord(SyncKind.PARALLEL_START, 0),
        IpcRecord(1.0),
        *_mispredict_storm(0x30000, 40),
        SyncRecord(SyncKind.PARALLEL_END, 0),
    ]
    bad_worker = [
        SyncRecord(SyncKind.PARALLEL_START, 7),
        IpcRecord(1.0),
        BasicBlockRecord(0x40000, 8),
        SyncRecord(SyncKind.PARALLEL_END, 7),
    ]
    return TraceSet(
        "redirect-phantom-phase",
        [
            ThreadTrace(0, master),
            ThreadTrace(1, worker),
            ThreadTrace(2, bad_worker),
        ],
    )


@pytest.mark.parametrize(
    ("label", "config"),
    [
        (
            "acmp-long-penalty",
            AcmpConfig(
                worker_count=2,
                mispredict_penalty_master=20,
                mispredict_penalty_worker=16,
                ftq_capacity=16,
            ),
        ),
        (
            "scmp-shared-long-penalty",
            ScmpConfig(
                core_count_total=3,
                cores_per_cache=3,
                bus_count=2,
                mispredict_penalty=24,
                ftq_capacity=16,
            ),
        ),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_deadlock_identity_through_redirect_windows(label, config):
    traces = _redirect_deadlock_traces()
    with pytest.raises(DeadlockError) as scheduled:
        simulate(config, traces, cycle_skip=True)
    with pytest.raises(DeadlockError) as stepped:
        simulate(config, traces, cycle_skip=False)
    assert str(scheduled.value) == str(stepped.value)
    assert "phase 7" in str(scheduled.value)


def test_seed_list_is_stable():
    """The draw for a given seed never drifts: seed 1's acmp config is
    pinned field by field, so an inserted or reordered rng call (which
    would silently re-roll every fuzz case) fails loudly here."""
    rng = random.Random((1 << 8) ^ _SALT["acmp"])
    config = _draw_acmp(rng)
    assert config == AcmpConfig(
        worker_count=4,
        cores_per_cache=1,
        worker_icache_bytes=32 * 1024,
        arbitration="round-robin",
        interconnect="crossbar",
        bus_count=1,
        bus_width_bytes=32,
        bus_latency=2,
        line_buffers=4,
        ftq_capacity=4,
        iq_capacity=64,
        itlb_enabled=False,
        shared_itlb=False,
        mshr_capacity=4,
    )
    # The workload draw is part of the pinned trajectory too.
    traces = _draw_workload(rng, config.core_count)
    assert (traces.benchmark, traces.thread_count) == ("CoEVP", 5)
