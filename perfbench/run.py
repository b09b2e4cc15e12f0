"""Figure-regeneration benchmark of the shared-I-cache simulator.

Usage::

    python3 perfbench/run.py --workload paper-detail --seed 0 --seconds 20 --trace 0

Each workload regenerates a set of the paper's figures through the public
experiment API: ``design_points(ctx)``, ``ExperimentContext.run`` per point,
``run_experiment`` per figure, then the paper's shape checks. Every pass
runs in a fresh interpreter with the kernel backend pinned to ``py``.

``--trace 0`` repeats the workload (set-up and sweep, at least three
times, more while inside ``--seconds``) and prints the end-to-end
metrics as medians over the repetitions. Each design point's CPU time is
divided by a calibration loop timed right before and right after it, so
times read as seconds of a nominal host. ``--trace 1`` runs the workload
once untraced, once with spans around each layer's public entry points
and once under cProfile (plus, for sampled workloads, a full-detail
reference of the same points), and prints the per-layer metrics; it
ignores ``--seconds``. ``perfbench/describe.json`` explains every
workload and metric.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a digest of the simulated
results is printed before it, so two commits can be compared for
bit-identity.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    MIN_REPS,
    PINNED_ENV,
    ROOT,
    WORKLOADS,
    declared_units,
    median,
    percentile,
)

#: Every run must end within 180 s; leave room to clean up.
RUN_LIMIT_S = 170.0
OUT_DIR = ROOT / ".perfbench"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Passes:
    """Starts workload passes as child interpreters under a scratch root."""

    def __init__(self, workload: str, seed: int, scratch: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = deadline
        self.count = 0

    def path(self, stem: str) -> Path:
        self.count += 1
        return self.scratch / f"{stem}-{self.count}"

    def child(self, role: str, mode: str = "plain", **paths) -> dict:
        out = self.path(f"{role}-{mode}").with_suffix(".json")
        job = {"workload": self.workload, "seed": self.seed, "role": role,
               "mode": mode, "out": str(out)}
        job.update({key: str(value) for key, value in paths.items()})
        env = {k: v for k, v in os.environ.items() if k != "REPRO_OBS"}
        env.update(PINNED_ENV)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        if mode == "spans":
            env["REPRO_OBS"] = "metrics"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before a pass could start")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "perfbench.workload", json.dumps(job)],
                cwd=ROOT, env=env, stdout=sys.stderr, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{role}/{mode} pass ran out of time") from exc
        if proc.returncode != 0:
            raise BenchError(f"{role}/{mode} pass exited with {proc.returncode}")
        return json.loads(out.read_text(encoding="utf-8"))

    # -- one pass of each kind ------------------------------------------------------

    def populate(self) -> tuple[dict, Path, Path, Path]:
        """sampled-warm set-up: returns (report, checkpoint tree, corpus, results)."""
        store, corpus = self.path("cold-store"), self.path("corpus")
        results = self.path("cold-results").with_suffix(".json")
        report = self.child("populate", store=store, capture_dir=corpus,
                            results_out=results)
        return report, store / "checkpoints", corpus, results

    def timed(self, mode: str = "plain", warm=None, **paths) -> dict:
        """One timed pass; ``warm`` = (checkpoint tree, corpus, cold results)."""
        if not WORKLOADS[self.workload]["sampling"]:
            return self.child("timed", mode, **paths)
        store = self.path("store")
        if warm is None:
            report = self.child("timed", mode, store=store, **paths)
        else:
            tree, corpus, results = warm
            store.mkdir()
            tree.rename(store / "checkpoints")
            try:
                report = self.child("timed", mode, store=store, event_dir=corpus,
                                    compare_with=results, **paths)
            finally:
                (store / "checkpoints").rename(tree)
        shutil.rmtree(store, ignore_errors=True)
        return report

    def rep(self) -> dict:
        """Set-up plus one timed sweep, each part in a fresh interpreter."""
        if not WORKLOADS[self.workload].get("warm"):
            return self.timed()
        populated, tree, corpus, results = self.populate()
        report = self.timed(warm=(tree, corpus, results))
        report["setup_norm"] += populated["setup_norm"] + populated["timed_norm"]
        shutil.rmtree(tree.parent, ignore_errors=True)
        shutil.rmtree(corpus, ignore_errors=True)
        results.unlink(missing_ok=True)
        return report


# -- end-to-end run ------------------------------------------------------------------


def end_to_end(passes: Passes, seconds: float) -> tuple[dict, list[dict]]:
    reps: list[dict] = []
    started = time.monotonic()
    while True:
        reps.append(passes.rep())
        elapsed = time.monotonic() - started
        next_end = elapsed + elapsed / len(reps)
        if len(reps) >= MIN_REPS and (
            next_end > seconds or started + next_end > passes.deadline
        ):
            break
    metrics = {
        "setup_s": median([r["setup_norm"] for r in reps]),
        "minstr_per_s": median(
            [r["instructions"] / 1e6 / r["timed_norm"] for r in reps]
        ),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "ok_frac": sum(r["ok"] for r in reps) / sum(r["attempted"] for r in reps),
        "shape_checks_passed": median([r["shape"][0] / r["shape"][1] for r in reps]),
    }
    return metrics, reps


# -- traced run ----------------------------------------------------------------------


def estimator_errors(sampled: dict, full: dict, baseline: str) -> tuple[float, float]:
    """Worst relative error of sampled cycles and of shared/baseline ratios."""
    cycles_err = ratio_err = 0.0
    for key, cycles in sampled.items():
        cycles_err = max(cycles_err, abs(cycles / full[key] - 1.0))
        machine, benchmark, label = key.split("/", 2)
        base = f"{machine}/{benchmark}/{baseline}"
        if label != baseline and base in sampled:
            ratio = (cycles / sampled[base]) / (full[key] / full[base])
            ratio_err = max(ratio_err, abs(ratio - 1.0))
    return cycles_err, ratio_err


def layer_metrics(plain: dict, traced: dict, profiled: dict, reference) -> dict:
    """Every per-layer metric from the three passes (and the reference)."""
    spans = traced["spans"]

    def total(*names: str) -> float:
        return sum(spans[n]["total_s"] for n in names if n in spans)

    def units(*names: str) -> int:
        return sum(spans[n]["units"] for n in names if n in spans)

    def p50_ms(name: str) -> float:
        return median(spans[name]["durations"]) * 1000 if name in spans else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    model = plain["model"]
    kinstr = plain["instructions"] / 1000
    committed_k = model["committed"] / 1000
    kernel = traced["kernel"]
    steps = kernel.get("kernel.component_steps", 0)
    skipped = kernel.get("kernel.cycles_skipped", 0)
    kcycles = (kernel.get("kernel.cycles_executed", 0) + skipped) / 1000
    out = {
        "machine.sim_kinstr_per_s": ratio(
            units("SystemSimulator.run") / 1000, total("SystemSimulator.run")
        ),
        "engine.steps_per_kcycle": ratio(steps, kcycles),
        "engine.skipped_frac": ratio(skipped, kcycles * 1000),
        "engine.wakes_per_kcycle": ratio(kernel.get("kernel.wakes", 0), kcycles),
    }
    profile = profiled["profile"]
    profile_s = sum(entry["self_s"] for entry in profile.values())
    for package, entry in profile.items():
        out[f"{package}.self_share"] = ratio(entry["self_s"], profile_s)
        out[f"{package}.calls_per_kinstr"] = ratio(entry["calls"], kinstr)
    cycles_err = ratio_err = 0.0
    if reference is not None:
        cycles_err, ratio_err = estimator_errors(
            plain["cycles"], reference["cycles"], reference["baseline"]
        )
    warm_s = total("BatchedWarmer.warm_interval")
    synth_s = total("SynthesisProvider.trace_set", "TraceDirectoryProvider.trace_set")
    points = [record["norm"] for record in plain["points"]]
    out.update({
        "sampling.warm_s": warm_s,
        "sampling.warm_kblocks_per_s": ratio(
            units("BatchedWarmer.warm_interval") / 1000, warm_s
        ),
        "sampling.ckpt_put_ms.p50": p50_ms("CheckpointStore.put"),
        "sampling.encode_s": total("encode_state"),
        "sampling.ckpt_get_ms.p50": p50_ms("CheckpointStore.get"),
        "sampling.decode_s": total("decode_state"),
        "sampling.ckpt_hit_frac": ratio(model["hits"], model["hits"] + model["misses"]),
        "sampling.ckpt_kb": plain.get("ckpt_bytes", 0) / 1024,
        "sampling.slice_s": total("slice_traces", "interval_traceset"),
        "sampling.detail_frac": ratio(model["measured"], model["represented"]),
        "sampling.cycles_err_max": cycles_err,
        "sampling.ratio_err_max": ratio_err,
        "machine.build_s": total("AcmpModel.build_system", "ScmpModel.build_system"),
        "machine.restore_s": total("System.restore_warm_state"),
        "trace.synth_s": synth_s,
        "trace.synth_krec_per_s": ratio(
            units("SynthesisProvider.trace_set", "TraceDirectoryProvider.trace_set")
            / 1000,
            synth_s,
        ),
        "campaign.result_put_ms.p50": p50_ms("ResultStore.put"),
        "campaign.overhead_s": total("run_specs") - total("execute_run"),
        "campaign.point_s.p50": percentile(points, 0.5),
        "campaign.point_s.p90": percentile(points, 0.9),
        "campaign.point_count": len(points),
        "experiments.render_s": plain["render_norm"],
        "machine.cycles": model["cycles"],
        "machine.ipc": ratio(model["committed"], model["cycles"]),
        "cache.mpki": ratio(model["icache_misses"], committed_k),
        "branch.mpki": ratio(model["mispredicts"], committed_k),
        "frontend.lb_hit_frac": ratio(model["buffer_hits"], model["line_requests"]),
        "interconnect.wait_per_kinstr": ratio(model["bus_wait"], committed_k),
        "host.calib_ms.p50": median(plain["calibs"]) * 1000,
        "host.cpu_s": plain["timed_cpu"],
        "host.wall_s": plain["timed_wall"],
        "host.trace_overhead": traced["timed_norm"] / plain["timed_norm"] - 1.0,
        "host.profile_overhead": profiled["timed_norm"] / plain["timed_norm"] - 1.0,
    })
    return out


def traced(passes: Passes, spans_out: Path) -> tuple[dict, list[dict]]:
    warm = None
    if WORKLOADS[passes.workload].get("warm"):
        _populated, tree, corpus, results = passes.populate()
        warm = (tree, corpus, results)
    plain = passes.timed("plain", warm)
    spanned = passes.timed("spans", warm, spans_out=spans_out)
    profiled = passes.timed("profile", warm)
    reference = None
    if WORKLOADS[passes.workload]["sampling"]:
        reference = passes.child("reference")
    metrics = layer_metrics(plain, spanned, profiled, reference)
    return metrics, [plain, spanned, profiled] + ([reference] if reference else [])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="trace-synthesis seed (the only input it changes)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir()
    passes = Passes(args.workload, args.seed, scratch, deadline)
    try:
        if args.trace:
            spans_out = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            values, reports = traced(passes, spans_out)
            kind = "per_layer"
        else:
            values, reports = end_to_end(passes, args.seconds)
            kind = "end_to_end"
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    timed_reports = [r for r in reports if r["role"] == "timed"]
    digests = {r["digest"] for r in timed_reports}
    shapes = {tuple(r["shape"]) for r in timed_reports}
    attempted = sum(r["attempted"] for r in reports)
    failed = attempted - sum(r["ok"] for r in reports)
    for digest in sorted(digests):
        print(f"results digest {args.workload} seed={args.seed}: {digest}")
    units = declared_units(kind)
    # The span tracer must have put every wrapped attribute back.
    restored = all(r.get("restored", True) for r in reports)
    consistent = len(digests) == 1 and len(shapes) == 1
    result = {
        "correct": failed == 0 and consistent and restored,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
