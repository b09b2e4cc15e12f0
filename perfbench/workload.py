"""One pass of a workload in a fresh interpreter (started by ``run.py``).

Usage: ``python -m perfbench.workload '<json job>'``. The job names the
workload, the trace-synthesis seed, the role and the scratch paths; the
pass writes its report as JSON to ``job["out"]``.

Roles:

* ``timed`` — set-up, then every design point through
  ``ExperimentContext.run`` and the figures through ``run_experiment``,
  each timed on CPU with the calibration loop run between them (see
  :func:`perfbench.common.host_factor`); then the output checks. ``mode`` selects
  plain timing, the span tracer (``spans``) or cProfile (``profile``).
* ``populate`` — sampled-warm's set-up: the cold sweep, capturing the
  trace corpus and filling the checkpoint tree.
* ``reference`` — the same points in full detail, for the sampled
  estimator's error.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from perfbench.common import WORKLOADS, calibrate, cpu_now, host_factor


def design_points(ctx, experiments):
    """The unique (id, benchmark, config) points of the figures, in order."""
    from repro.experiments.registry import EXPERIMENTS
    from repro.machine.model import model_for_config

    points: dict[str, tuple] = {}
    for experiment in experiments:
        figure = sys.modules[EXPERIMENTS[experiment].__module__]
        for name, config in getattr(figure, "design_points", lambda _ctx: [])(ctx):
            key = f"{model_for_config(config).name}/{name}/{config.label()}"
            points.setdefault(key, (name, config))
    return [(key, name, config) for key, (name, config) in points.items()]


def results_digest(results: dict) -> str:
    from repro.machine.serialization import result_to_dict

    canonical = json.dumps(
        [[key, result_to_dict(results[key])] for key in sorted(results)],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _strip_checkpoint_counters(payload: dict) -> dict:
    sampling = dict(payload.get("sampling") or {})
    sampling.pop("checkpoints", None)
    return {**payload, "sampling": sampling}


def model_counts(results) -> dict:
    """Summed modelled-machine counters over every point (exact)."""
    counts = {
        "cycles": 0, "committed": 0, "icache_misses": 0, "mispredicts": 0,
        "line_requests": 0, "buffer_hits": 0, "bus_wait": 0,
        "measured": 0, "represented": 0, "hits": 0, "misses": 0,
    }
    for result in results:
        counts["cycles"] += result.cycles
        counts["committed"] += result.total_committed
        counts["icache_misses"] += sum(g.misses for g in result.cache_groups)
        counts["mispredicts"] += sum(c.branch_mispredictions for c in result.cores)
        counts["line_requests"] += sum(c.line_requests for c in result.cores)
        counts["buffer_hits"] += sum(c.buffer_hits for c in result.cores)
        counts["bus_wait"] += result.total_bus_wait_cycles()
        info = result.sampling or {}
        counts["measured"] += info.get("measured_instructions", result.total_committed)
        # A sampled result stands for the whole trace it extrapolates.
        counts["represented"] += info.get("total_instructions", result.total_committed)
        checkpoints = info.get("checkpoints") or {}
        counts["hits"] += checkpoints.get("hits", 0)
        counts["misses"] += checkpoints.get("misses", 0)
    return counts


def kernel_counts(results) -> dict:
    """``kernel.*`` counters summed over every result (REPRO_OBS=metrics)."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry.rollup(result.metrics for result in results)
    totals: dict[str, float] = {}
    for metric in registry.select("kernel."):
        totals[metric.name] = totals.get(metric.name, 0) + metric.value
    return totals


def make_context(job: dict):
    from repro.experiments.common import ExperimentContext

    spec = WORKLOADS[job["workload"]]
    kwargs = {}
    if job["role"] != "reference" and spec["sampling"]:
        kwargs = {
            "sampling": spec["sampling"],
            "cache_dir": job["store"],
            "event_dir": job.get("event_dir"),
            "capture_traces": job.get("capture_dir"),
        }
    return ExperimentContext(
        scale=spec["scale"],
        benchmarks=list(spec["benchmarks"]),
        seed=job["seed"],
        jobs=1,
        **kwargs,
    )


def run_pass(job: dict, cpu_at_start: float, calib_at_start: list[float]) -> dict:
    """Run one pass; ``cpu_at_start`` is the CPU the process spent before it."""
    spec = WORKLOADS[job["workload"]]
    role = job["role"]
    mode = job.get("mode", "plain")
    setup_started = cpu_now()

    tracer = profiler = None
    if mode == "spans":
        from perfbench.layers import SpanTracer

        tracer = SpanTracer()
        missing = tracer.install()
        if missing:
            print(f"perfbench: not traced (absent): {missing}", file=sys.stderr)
    from repro.experiments.export import SHAPE_CHECKS
    from repro.experiments.registry import run_experiment

    ctx = make_context(job)
    points = design_points(ctx, spec["experiments"])
    if not spec["sampling"] or role == "reference":
        # Full runs read traces from the context's memo: synthesise them
        # all now so no synthesis lands in the timed phase.
        for _key, name, config in points:
            ctx.traces_for(name, thread_count=config.core_count)
        for name in spec["benchmarks"]:
            ctx.traces_for(name)
    setup_cpu = cpu_at_start + cpu_now() - setup_started
    # The calibration loop runs before and after every timed segment.
    calibs = calib_at_start + calibrate()

    if mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
    results: dict = {}
    records: list[dict] = []
    for key, name, config in points:
        if tracer is not None:
            tracer.point = key
        if profiler is not None:
            profiler.enable()
        wall = time.perf_counter()
        started = cpu_now()
        error = None
        try:
            results[key] = ctx.run(name, config)
        except Exception:  # a failed point is counted, the sweep goes on
            error = traceback.format_exc()
            print(f"perfbench: point {key} failed:\n{error}", file=sys.stderr)
        cpu_s = cpu_now() - started
        wall = time.perf_counter() - wall
        if profiler is not None:
            profiler.disable()
        calibs += calibrate()
        records.append({"id": key, "cpu": cpu_s, "wall": wall, "error": error})

    render_cpu = render_wall = 0.0
    experiment_results = {}
    if role == "timed":
        render_wall = time.perf_counter()
        if tracer is not None:
            tracer.point = "render"
        if profiler is not None:
            profiler.enable()
        started = cpu_now()
        for experiment in spec["experiments"]:
            with (
                tracer.span("experiments", "run_experiment")
                if tracer is not None
                else nullcontext()
            ):
                experiment_results[experiment] = run_experiment(experiment, ctx)
        render_cpu = cpu_now() - started
        if profiler is not None:
            profiler.disable()
        render_wall = time.perf_counter() - render_wall
        calibs += calibrate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    factor = host_factor(calibs)
    for record in records:
        record["norm"] = record["cpu"] * factor
    timed_cpu = sum(r["cpu"] for r in records) + render_cpu
    report = {
        "role": role,
        "mode": mode,
        "setup_cpu": setup_cpu,
        "setup_norm": setup_cpu * factor,
        "points": records,
        "render_cpu": render_cpu,
        "render_norm": render_cpu * factor,
        "timed_cpu": timed_cpu,
        "timed_norm": timed_cpu * factor,
        "timed_wall": sum(r["wall"] for r in records) + render_wall,
        "calibs": calibs,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        from perfbench.layers import aggregate

        report["restored"] = tracer.restore()
        spans = tracer.records()
        report["spans"] = aggregate(spans, factor)
        report["kernel"] = kernel_counts(results.values())
        with open(job["spans_out"], "w", encoding="utf-8") as handle:
            json.dump(spans, handle)
    if profiler is not None:
        import pstats

        from perfbench.layers import profile_rollup

        report["profile"] = profile_rollup(pstats.Stats(profiler).stats)

    # -- output checks (untimed) ------------------------------------------------
    check_output(job, spec, ctx, points, results, records)
    report["ok"] = sum(1 for r in records if r["error"] is None)
    report["attempted"] = len(records)
    report["digest"] = results_digest(results)
    report["model"] = model_counts(results.values())
    report["instructions"] = report["model"]["represented"]
    report["cycles"] = {key: result.cycles for key, result in results.items()}
    report["baseline"] = ctx.model.baseline_config().label()
    if role == "populate":
        from repro.machine.serialization import result_to_dict

        with open(job["results_out"], "w", encoding="utf-8") as handle:
            json.dump({k: result_to_dict(r) for k, r in results.items()}, handle)
    if spec["sampling"] and role != "reference":
        from repro.sampling import CheckpointStore

        root = Path(job["store"]) / CheckpointStore.SUBDIR
        report["ckpt_bytes"] = CheckpointStore(root).total_bytes()
    checks = [
        check.evaluate(result)[1]
        for experiment, result in experiment_results.items()
        for check in SHAPE_CHECKS.get(experiment, [])
    ]
    report["shape"] = [sum(checks), len(checks)]
    return report


def check_output(job, spec, ctx, points, results, records) -> None:
    """Mark each point whose result fails an output check."""
    from repro.machine.serialization import result_to_dict
    from repro.trace.provider import provider_for

    provider = provider_for(job.get("event_dir"))
    expected: dict[tuple[str, int], int] = {}
    cold = None
    if job.get("compare_with"):
        with open(job["compare_with"], encoding="utf-8") as handle:
            cold = json.load(handle)
    by_id = {record["id"]: record for record in records}
    for key, name, config in points:
        record = by_id[key]
        if record["error"] is not None:
            continue
        result = results[key]
        shape = (name, config.core_count)
        if shape not in expected:
            expected[shape] = provider.trace_set(
                name, thread_count=config.core_count, scale=spec["scale"],
                seed=job["seed"],
            ).instruction_count
        problems = []
        if result.sampling:
            if result.sampling["total_instructions"] != expected[shape]:
                problems.append("sampled total_instructions != trace length")
        elif result.total_committed != expected[shape]:
            problems.append("committed != trace instruction count")
        if cold is not None:
            if (result.sampling or {}).get("checkpoints", {}).get("misses") != 0:
                problems.append("checkpoint misses on the warm pass")
            if _strip_checkpoint_counters(result_to_dict(result)) != (
                _strip_checkpoint_counters(cold.get(key, {}))
            ):
                problems.append("warm result differs from the cold result")
        if problems:
            record["error"] = "; ".join(problems)
            print(f"perfbench: point {key}: {record['error']}", file=sys.stderr)


def main(argv: list[str]) -> int:
    # Set-up runs from process start: interpreter start-up and the
    # imports above are already on the clock.
    cpu_at_start = cpu_now()
    calib_at_start = calibrate()
    job = json.loads(argv[1])
    report = run_pass(job, cpu_at_start, calib_at_start)
    with open(job["out"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
