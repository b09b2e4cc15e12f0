"""Scalability of I-cache sharing beyond eight cores (Section VI-E).

"Sharing an I-cache among more than eight cores introduces additional
stall cycles which can not be mitigated with a double bus interconnect and
four line buffers" — the finding that caps the paper's design at
eight-core clusters. This bench sweeps the worker count with one fully
shared I-cache and reports the slowdown versus the private baseline at
the same core count.
"""

import json
import os
import time
from datetime import date
from pathlib import Path

import pytest
from conftest import BENCH_SCALE, BENCH_SUBSET

from repro.acmp import AcmpConfig, baseline_config, simulate
from repro.trace.synthesis import synthesize_benchmark

WORKER_COUNTS = (4, 8, 12, 16)


def min_cpu_interleaved(legs, rounds=5):
    """Per-leg minimum CPU seconds over interleaved, rotated rounds.

    ``legs`` maps a name to ``(prepare, run)``: ``prepare()`` builds the
    leg's untimed state and ``run(state)`` is timed on
    ``time.process_time()``. Every round runs each leg once, rotated so
    no leg owns a fixed slot, and each leg keeps its fastest run — the
    bulk of repeated identical runs drifts by several percent even in
    CPU time, but the floor is reproducible. Returns the per-leg minima
    and each leg's last result.
    """
    import gc

    names = list(legs)
    best: dict[str, float] = {}
    results: dict[str, object] = {}
    for round_index in range(rounds):
        for slot in range(len(names)):
            name = names[(round_index + slot) % len(names)]
            prepare, run = legs[name]
            state = prepare()
            gc.collect()
            started = time.process_time()
            results[name] = run(state)
            elapsed = time.process_time() - started
            best[name] = min(best.get(name, elapsed), elapsed)
    return best, results


@pytest.fixture(scope="module")
def traces_by_count():
    return {
        workers: synthesize_benchmark(
            "UA", thread_count=workers + 1, scale=BENCH_SCALE
        )
        for workers in WORKER_COUNTS
    }


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_bench_scalability(benchmark, traces_by_count, workers):
    traces = traces_by_count[workers]
    base = simulate(baseline_config(worker_count=workers), traces)

    def run():
        config = AcmpConfig(
            worker_count=workers,
            cores_per_cache=workers,
            worker_icache_bytes=32 * 1024,
            bus_count=2,
            line_buffers=4,
        )
        return simulate(config, traces)

    shared = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = shared.cycles / base.cycles
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["time_vs_baseline"] = round(ratio, 4)
    assert shared.total_committed == traces.instruction_count


def test_sharing_degrades_beyond_eight(traces_by_count):
    """The paper's scalability limit: the double-bus design that is free
    at 8 cores costs measurable time at 16."""
    ratios = {}
    for workers in (8, 16):
        traces = traces_by_count[workers]
        base = simulate(baseline_config(worker_count=workers), traces)
        shared = simulate(
            AcmpConfig(
                worker_count=workers,
                cores_per_cache=workers,
                worker_icache_bytes=32 * 1024,
                bus_count=2,
                line_buffers=4,
            ),
            traces,
        )
        ratios[workers] = shared.cycles / base.cycles
    assert ratios[16] >= ratios[8] - 0.01


def test_emit_campaign_timing(tmp_path):
    """Measure figure-regeneration wall time through the campaign layer
    and persist the numbers to BENCH_campaign.json at the repo root, so
    every PR leaves a perf trajectory behind.

    Three configurations of the same regeneration (fig01 + fig07 over
    the bench subset):

    * ``reference``: cycle-by-cycle engine, one process, no cache — the
      seed engine's behaviour;
    * ``campaign``: cycle-skipping kernel + ``jobs=4`` parallel runner
      with a cold result store;
    * ``cached``: a second invocation against the now-warm store.
    """
    from repro.acmp import AcmpSimulator
    from repro.acmp.system import AcmpSystem
    from repro.experiments.common import ExperimentContext
    from repro.experiments.registry import run_experiment

    def regenerate(ctx):
        started = time.perf_counter()
        run_experiment("fig01", ctx)
        run_experiment("fig07", ctx)
        return time.perf_counter() - started

    def best_of(context_for, reps=2):
        """Best-of-N wall time on this 1-CPU container; regeneration is
        deterministic, only the clock is noisy (same policy as the
        sampled probes below)."""
        best = None
        for rep in range(reps):
            elapsed = regenerate(context_for(rep))
            best = elapsed if best is None else min(best, elapsed)
        return best

    reference_s = best_of(
        lambda rep: ExperimentContext(
            scale=BENCH_SCALE, benchmarks=list(BENCH_SUBSET), cycle_skip=False
        )
    )
    skip_serial_s = best_of(
        lambda rep: ExperimentContext(
            scale=BENCH_SCALE, benchmarks=list(BENCH_SUBSET)
        )
    )
    # Two store trees: each cold repetition must start from an empty
    # store, and the cached repetitions read the fully-written last one.
    cache_dirs = [tmp_path / f"campaign-cache{rep}" for rep in range(2)]
    campaign_s = best_of(
        lambda rep: ExperimentContext(
            scale=BENCH_SCALE,
            benchmarks=list(BENCH_SUBSET),
            jobs=4,
            cache_dir=cache_dirs[rep],
        )
    )
    cached_s = best_of(
        lambda rep: ExperimentContext(
            scale=BENCH_SCALE,
            benchmarks=list(BENCH_SUBSET),
            jobs=4,
            cache_dir=cache_dirs[-1],
        )
    )

    # Scheduler engagement on representative runs: skip efficiency
    # (clock jumps), the event-driven scheduler's step elision, and —
    # on shared-front-end configs — the interconnect's batched
    # busy-cycle accounting.
    from repro.acmp import worker_shared_config

    kernel_skip = []
    probe_configs = [
        ("UA", baseline_config()),
        ("CoMD", baseline_config()),
        ("UA", worker_shared_config()),
    ]
    for bench, config in probe_configs:
        traces = synthesize_benchmark(bench, thread_count=9, scale=BENCH_SCALE)
        system = AcmpSystem(config, traces)
        system.warm_instruction_l2s()
        simulator = AcmpSimulator(system)
        simulator.run()
        stats = simulator.kernel.stats
        total_steps = stats.component_steps + stats.component_steps_avoided
        kernel_skip.append(
            {
                "benchmark": bench,
                "config": config.label(),
                "cycles_skipped": stats.cycles_skipped,
                "total_cycles": stats.total_cycles,
                "skipped_fraction": round(stats.skipped_fraction, 4),
                "skips": stats.skips,
                "component_steps": stats.component_steps,
                "component_steps_avoided": stats.component_steps_avoided,
                "steps_avoided_fraction": round(
                    stats.component_steps_avoided / max(1, total_steps), 4
                ),
                "wakes": stats.wakes,
                "interconnect_busy_batched": stats.interconnect_busy_batched,
                "commit_cycles_batched": stats.commit_cycles_batched,
                "redirect_cycles_batched": stats.redirect_cycles_batched,
            }
        )
    kernel_stats = kernel_skip[0]

    # Sampled-simulation probe: wall-time reduction and accuracy of
    # fast-mode interval sampling (repro.sampling) against full
    # detailed runs, on the UA sharing comparison at full trace scale.
    # Full scale, not BENCH_SCALE: sampling is a long-run lever — at
    # bench scale the traces fit inside one sampling period and the
    # sampled path degenerates to an exact run.
    # The sampled runs go through the warm-checkpoint store twice: a
    # cold pass that warms from the trace and writes every detail
    # interval's entry state, then a hit pass served entirely from the
    # store — the campaign-amortisation case the store exists for.
    from repro.acmp import worker_shared_config as _shared
    from repro.sampling import (
        Checkpointing,
        CheckpointStore,
        resolve_plan,
        simulate_sampled,
    )

    plan = resolve_plan("fast")
    probe_traces = synthesize_benchmark("UA", thread_count=9, scale=1.0)
    base_cfg = baseline_config()
    shared_cfg = _shared()
    # Two checkpoint trees: each cold repetition must start from an
    # empty store, and the hit repetitions read the fully-written one.
    policies = [
        Checkpointing(
            store=CheckpointStore(tmp_path / f"checkpoints{rep}"),
            seed=0,
            scale=1.0,
        )
        for rep in range(2)
    ]

    def timed(run):
        """Best-of-2 wall time on this 1-CPU container; the simulated
        result is deterministic, only the clock is noisy."""
        import gc

        best = None
        for rep in range(2):
            gc.collect()
            started = time.perf_counter()
            result = run(rep)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        return result, best

    timings = {}
    cycles = {}
    counters = {}
    for label, config, mode in (
        ("full_base", base_cfg, "full"),
        ("full_shared", shared_cfg, "full"),
        ("cold_base", base_cfg, "cold"),
        ("cold_shared", shared_cfg, "cold"),
        ("hit_base", base_cfg, "hit"),
        ("hit_shared", shared_cfg, "hit"),
    ):
        if mode == "full":
            run = lambda rep, config=config: simulate(config, probe_traces)
        elif mode == "cold":
            run = lambda rep, config=config: simulate_sampled(
                config, probe_traces, plan, checkpoints=policies[rep]
            )
        else:  # hit: every tree is fully written by now; read the last
            run = lambda rep, config=config: simulate_sampled(
                config, probe_traces, plan, checkpoints=policies[-1]
            )
        result, timings[label] = timed(run)
        cycles[label] = result.cycles
        if mode != "full":
            counters[label] = result.sampling["checkpoints"]
    full_s = timings["full_base"] + timings["full_shared"]
    sampled_s = timings["cold_base"] + timings["cold_shared"]
    hit_s = timings["hit_base"] + timings["hit_shared"]
    ratio_full = cycles["full_shared"] / cycles["full_base"]
    ratio_sampled = cycles["cold_shared"] / cycles["cold_base"]
    sampling_probe = {
        "benchmark": "UA",
        "scale": 1.0,
        "plan": plan.spec(),
        "coverage": round(plan.coverage, 4),
        "full_s": round(full_s, 3),
        "sampled_s": round(sampled_s, 3),
        "sampled_hit_s": round(hit_s, 3),
        "wall_speedup": round(full_s / sampled_s, 3),
        "wall_speedup_hit": round(full_s / hit_s, 3),
        "time_ratio_full": round(ratio_full, 5),
        "time_ratio_sampled": round(ratio_sampled, 5),
        "speedup_rel_error": round(
            abs(ratio_sampled - ratio_full) / ratio_full, 5
        ),
        "cycles_rel_error_base": round(
            abs(cycles["cold_base"] - cycles["full_base"])
            / cycles["full_base"],
            5,
        ),
        "cycles_rel_error_shared": round(
            abs(cycles["cold_shared"] - cycles["full_shared"])
            / cycles["full_shared"],
            5,
        ),
        "checkpoints_cold": counters["cold_base"],
        "checkpoints_hit": counters["hit_base"],
    }

    # Warming-throughput probe: basic blocks per second through the
    # batched functional warmer (lru_walk on every core of this LRU
    # config) versus the scalar reference walk, over the same probe
    # trace's non-skip intervals. Each leg warms a freshly built
    # system; the build is not timed.
    from repro.machine.model import get_model
    from repro.sampling.slicer import IntervalKind, slice_traces
    from repro.sampling.warmer import (
        BatchedWarmer,
        core_warm_structures,
        scalar_walk,
    )

    model = get_model("acmp")
    warm_intervals = [
        interval
        for interval in slice_traces(probe_traces, plan)
        if interval.kind is not IntervalKind.SKIP
    ]

    def warm_batched(warmer):
        return sum(warmer.warm_interval(interval) for interval in warm_intervals)

    def warm_scalar(structures):
        return sum(
            scalar_walk(
                structures[core_id],
                probe_traces.threads[core_id].records,
                start,
                end,
            )
            for interval in warm_intervals
            for core_id, (start, end) in enumerate(interval.spans)
        )

    warm_s, warm_blocks = min_cpu_interleaved(
        {
            "batched": (
                lambda: BatchedWarmer(
                    model.build_system(base_cfg, probe_traces), probe_traces
                ),
                warm_batched,
            ),
            "scalar": (
                lambda: core_warm_structures(
                    model.build_system(base_cfg, probe_traces)
                ),
                warm_scalar,
            ),
        }
    )
    batched_blocks = warm_blocks["batched"]
    batched_s = warm_s["batched"]
    scalar_s = warm_s["scalar"]
    warming_probe = {
        "benchmark": "UA",
        "scale": 1.0,
        "blocks": batched_blocks,
        "batched_s": round(batched_s, 3),
        "scalar_s": round(scalar_s, 3),
        "batched_blocks_per_s": round(batched_blocks / batched_s),
        "scalar_blocks_per_s": round(batched_blocks / scalar_s),
        "batched_speedup": round(scalar_s / batched_s, 3),
    }

    # Streamed-ingest probe: the chunked on-disk trace path versus the
    # in-memory synthesis path on the same UA full-detail run, timed
    # side by side. The streamed leg re-opens the corpus each
    # repetition, so it pays the whole bill — index read, chunk decode,
    # record construction — while the in-memory leg starts with records
    # already built.
    from repro.trace import open_trace_set, write_trace_set

    corpus_dir = tmp_path / "trace-corpus"
    started = time.perf_counter()
    write_trace_set(probe_traces, corpus_dir, chunked=True)
    encode_s = time.perf_counter() - started

    ingest_s, ingest_results = min_cpu_interleaved(
        {
            "memory": (
                lambda: None,
                lambda _: simulate(base_cfg, probe_traces),
            ),
            "streamed": (
                lambda: None,
                lambda _: simulate(base_cfg, open_trace_set(corpus_dir)),
            ),
        }
    )
    streamed_result = ingest_results["streamed"]
    memory_s = ingest_s["memory"]
    streamed_s = ingest_s["streamed"]
    ingest_overhead = streamed_s / memory_s - 1.0
    corpus_bytes = sum(
        child.stat().st_size for child in corpus_dir.iterdir()
    )
    ingest_probe = {
        "benchmark": "UA",
        "scale": 1.0,
        "corpus_bytes": corpus_bytes,
        "encode_s": round(encode_s, 3),
        "memory_run_s": round(memory_s, 3),
        "streamed_run_s": round(streamed_s, 3),
        "streamed_overhead": round(ingest_overhead, 4),
    }

    # Observability-overhead probe: the recorder must be free when
    # disabled — instrumented tiers grab the registry/tracer at
    # construction, so hot paths reduce to one None check — and cheap
    # with metrics on. Timed on a UA run; the ambient leg measures the
    # state every other probe in this file ran under.
    from repro import obs
    import importlib

    # repro.obs re-exports a recorder() *function* that shadows the
    # submodule attribute, so `import ... as` would bind the function.
    obs_recorder = importlib.import_module("repro.obs.recorder")
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import phase_breakdown

    # Twice BENCH_SCALE, legs interleaved round-robin AND rotated: the
    # disabled-overhead gate is 2% of this run, so the run must be long
    # enough that container scheduling jitter (a few ms) stays inside
    # the margin, every leg must see the same load profile — a
    # background burst during one leg's block would otherwise
    # masquerade as recorder overhead — and no leg may own a fixed slot
    # in the round (the first run after a round boundary is
    # systematically colder). Best-of-6 rotated rounds.
    obs_traces = synthesize_benchmark(
        "UA", thread_count=9, scale=BENCH_SCALE * 2
    )

    def obs_once():
        import gc

        gc.collect()
        # CPU time, not wall time: the recorder's cost is instructions
        # retired, and process_time is blind to the scheduler steal
        # that dominates wall jitter on a shared 1-CPU host.
        started = time.process_time()
        simulate(base_cfg, obs_traces)
        return time.process_time() - started

    obs_times: dict[str, list[float]] = {}
    obs_state: dict[str, int] = {"timeline_events": 0}

    def obs_leg(leg):
        obs_times.setdefault(leg, []).append(obs_once())

    ambient_recorder = obs_recorder.recorder()

    def run_leg(leg):
        if leg == "ambient":
            obs_recorder._active = ambient_recorder
            obs_leg(leg)
        elif leg == "disabled":
            obs.disable()
            obs_leg(leg)
        elif leg == "metrics":
            with obs.recording(metrics=True):
                obs_leg(leg)
        else:
            with obs.recording(metrics=True, timeline=True) as obs_rec:
                obs_leg(leg)
                obs_state["timeline_events"] = len(obs_rec.tracer)

    obs_legs = ("ambient", "disabled", "metrics", "timeline")
    try:
        for round_index in range(7):
            for slot in range(len(obs_legs)):
                run_leg(obs_legs[(round_index + slot) % len(obs_legs)])
        # Per-phase wall attribution of one sampled run with metrics on
        # (no checkpoint store: a clean warming/measurement/extrapolation
        # mix with nothing served from disk).
        with obs.recording(metrics=True):
            sampled_obs = simulate_sampled(
                base_cfg, probe_traces, plan, checkpoints=None
            )
    finally:
        obs_recorder._active = ambient_recorder
    timeline_events = obs_state["timeline_events"]

    def obs_overhead(leg):
        # Ratio of per-leg minima: the bulk of repeated identical runs
        # drifts by ±5% even in CPU time (allocator state, frequency
        # steps), but the floor is reproducible to well under 1% — the
        # min is the only estimator that makes a 2% gate assertable on
        # this host, and 7 interleaved rotated rounds give each leg a
        # fair shot at hitting it.
        return min(obs_times[leg]) / min(obs_times["disabled"]) - 1.0

    phases = phase_breakdown(
        MetricsRegistry.from_payload(sampled_obs.metrics)
    )
    phase_total = sum(phases.values()) or 1.0
    obs_probe = {
        "benchmark": "UA",
        "scale": BENCH_SCALE * 2,
        "run_disabled_s": round(min(obs_times["disabled"]), 3),
        "overhead_disabled": round(obs_overhead("ambient"), 4),
        "overhead_metrics": round(obs_overhead("metrics"), 4),
        "overhead_timeline": round(obs_overhead("timeline"), 4),
        "timeline_events": timeline_events,
        "phase_fractions": {
            name: round(seconds / phase_total, 4)
            for name, seconds in phases.items()
        },
    }

    # The runner's own clamp bookkeeping (an empty batch takes the
    # serial path but still computes the width the pool would get).
    from repro.campaign import run_specs

    jobs_report = run_specs([], jobs=4)

    payload = {
        "generated": date.today().isoformat(),
        "host_cpus": os.cpu_count(),
        "campaign_jobs": jobs_report.jobs,
        "effective_jobs": jobs_report.effective_jobs,
        "scale": BENCH_SCALE,
        "benchmarks": list(BENCH_SUBSET),
        "experiments": ["fig01", "fig07"],
        "reference_serial_s": round(reference_s, 3),
        "skip_serial_s": round(skip_serial_s, 3),
        "campaign_skip_jobs4_s": round(campaign_s, 3),
        "campaign_cached_s": round(cached_s, 3),
        "speedup_skip_serial": round(reference_s / skip_serial_s, 3),
        "speedup_cold": round(reference_s / campaign_s, 3),
        "speedup_cached": round(reference_s / max(cached_s, 1e-9), 3),
        "kernel_skip": kernel_stats,
        "kernel_skip_per_benchmark": kernel_skip,
        "sampling": sampling_probe,
        "warming": warming_probe,
        "trace_ingest": ingest_probe,
        "obs": obs_probe,
    }
    out_path = Path(__file__).resolve().parent.parent / "BENCH_campaign.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    # The campaign layer's regeneration-speedup criterion: a repeated
    # regeneration must beat the seed-style serial rerun by >= 1.5x
    # (on multi-core hosts the cold jobs=4 path should too, but a
    # 1-CPU container cannot parallelise, so the gate is the store).
    assert payload["speedup_cached"] >= 1.5
    # The event-driven scheduler's criterion: skip efficiency at or
    # above the old global gate's recorded UA figure (0.1707), and a
    # substantial fraction of component steps elided outright.
    assert kernel_stats["skipped_fraction"] >= 0.17
    assert any(
        entry["steps_avoided_fraction"] >= 0.3 for entry in kernel_skip
    )
    # The interconnect busy-horizon lever: shared-front-end runs must
    # batch at least some busy-only steps away.
    assert any(
        entry["interconnect_busy_batched"] > 0 for entry in kernel_skip
    )
    # The commit-replay lever: every probe leaves commit-bound drain
    # phases behind quiescent front-ends, and those back-end cycles
    # must be settled in batches, not stepped.
    assert all(
        entry["commit_cycles_batched"] > 0 for entry in kernel_skip
    )
    # The redirect-replay lever: the UA probe's mispredict redirects
    # must be batch-settled, not stepped through drain + penalty.
    assert kernel_stats["redirect_cycles_batched"] > 0
    # The interval-sampling lever: fast mode must cut wall time by at
    # least 3x on the UA probe while keeping the reported shared-vs-
    # baseline speedup within 2% of the full runs' value.
    assert sampling_probe["wall_speedup"] >= 3.0
    assert sampling_probe["speedup_rel_error"] <= 0.02
    # The warm-checkpoint lever: the second (all-hit) sampled pass
    # must beat the full runs by a wider margin still, never touch the
    # trace for warming, and reproduce the cold pass's cycles exactly.
    assert sampling_probe["wall_speedup_hit"] >= 6.0
    assert counters["hit_base"]["misses"] == 0
    assert counters["hit_base"]["hits"] > 0
    assert counters["cold_base"]["writes"] == counters["cold_base"]["misses"]
    assert cycles["hit_base"] == cycles["cold_base"]
    assert cycles["hit_shared"] == cycles["cold_shared"]
    # The streamed-ingest criterion: reading the chunked corpus must
    # stay within 10% of the in-memory run's CPU time and reproduce
    # it bit for bit — streaming is a memory lever, not a time trade.
    assert streamed_result.cycles == cycles["full_base"]
    assert ingest_results["memory"].cycles == cycles["full_base"]
    assert ingest_probe["streamed_overhead"] < 0.10
    # The observability contract: recording machinery must be free when
    # disabled (< 2% — the two legs run identical code with no recorder
    # installed, so this is the noise floor the construction-time-grab
    # design has to stay under) and cheap with metrics on (< 10%).
    assert obs_probe["overhead_disabled"] < 0.02
    assert obs_probe["overhead_metrics"] < 0.10
    assert obs_probe["timeline_events"] > 0
    assert {"warming", "measurement", "extrapolation"} <= set(phases)
    # The batched-warming lever: the LRU walk must outpace the scalar
    # reference walk it is bit-identical to.
    assert warming_probe["batched_speedup"] >= 1.5
    assert warming_probe["batched_blocks_per_s"] >= 100_000
