"""Command-line campaign driver: populate and maintain a shared store.

Runs a declarative sweep — one machine model's standard design points
over a benchmark list and seed sweep — into a persistent
:class:`ResultStore`, with optional multi-host sharding, sampled
simulation, failure-journal resume, cross-host progress reporting and
store-tree maintenance.

Examples::

    # Sweep the ACMP standard design points over three benchmarks.
    python -m repro.campaign --machine acmp --benchmarks CG,UA,CoMD \\
        --scale 0.1 --cache-dir .results

    # The same sweep split across two hosts sharing .results (e.g. NFS):
    python -m repro.campaign --machine scmp --cache-dir .results --shard 1/2
    python -m repro.campaign --machine scmp --cache-dir .results --shard 2/2

    # Interval-sampled runs (cached separately from full runs):
    python -m repro.campaign --cache-dir .results --sampling fast

    # Retry only what the journal says is still failing:
    python -m repro.campaign --cache-dir .results --from-failures

    # Cross-host progress: done/failed/pending per machine and shard.
    python -m repro.campaign --cache-dir .results --status --shards 4

    # Fold per-host store trees back into one (newest wins):
    python -m repro.campaign merge hostA/.results hostB/.results .results

    # Drop entries whose machine/engine/sampling flavor no longer parses:
    python -m repro.campaign gc .results

Sharding hashes each run's persistent key, so every host enumerating
the same campaign agrees on the partition without coordination; the
``failures.jsonl`` journal next to the store is the resume manifest
(runs that later succeed are pruned from it automatically).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from repro.campaign.runner import print_progress, run_specs
from repro.campaign.spec import Campaign, RunSpec, parse_shard, shard_specs
from repro.campaign.store import ResultStore, merge_stores
from repro.machine.model import get_model, model_names
from repro.obs.log import add_log_arguments, setup_from_args
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import phase_breakdown
from repro.sampling.checkpoints import CheckpointStore
from repro.sampling.plan import resolve_plan, sampling_modes
from repro.workloads.suites import benchmark_names

# Not __name__: under `python -m` this module IS "__main__",
# which would fall outside the configured "repro" logger tree.
_LOG = logging.getLogger("repro.campaign.cli")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run a simulation campaign into a shared result store "
        "(subcommands: merge <src>... <dst>, gc <dir>).",
    )
    parser.add_argument(
        "--machine",
        choices=model_names(),
        default=None,
        help="machine model whose standard design points to sweep "
        "(default acmp; --status without it reports every model)",
    )
    parser.add_argument(
        "--benchmarks",
        type=str,
        default="",
        help="comma-separated benchmark subset (default: all)",
    )
    parser.add_argument(
        "--seeds",
        type=str,
        default="0",
        help="comma-separated trace-synthesis seeds (default: 0)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="per-thread instruction budget multiplier (default 1.0)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (default 1)",
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        required=True,
        help="result store root shared by every shard of the campaign",
    )
    parser.add_argument(
        "--shard",
        type=str,
        default="",
        help="K/N: run only the K-th of N deterministic partitions of "
        "the campaign (multi-host sweeps over one store tree)",
    )
    parser.add_argument(
        "--from-failures",
        action="store_true",
        help="ignore the sweep definition and retry the runs journalled "
        "in failures.jsonl (the resume manifest)",
    )
    parser.add_argument(
        "--no-cycle-skip",
        action="store_true",
        help="run the cycle-by-cycle reference engine (cross-check "
        "entries are cached separately from scheduled-engine ones)",
    )
    parser.add_argument(
        "--sampling",
        type=str,
        default="none",
        help=f"interval-sampled simulation: one of {sampling_modes()} or "
        f"a plan spec like d8000:s152000:w152000:r0 (sampled entries "
        f"are cached separately from full runs)",
    )
    parser.add_argument(
        "--checkpoints",
        choices=("on", "off", "refresh"),
        default="on",
        help="warm-checkpoint store for sampled runs, colocated at "
        "<cache-dir>/checkpoints: on (read+write, default), off, or "
        "refresh (ignore existing entries but rewrite them)",
    )
    parser.add_argument(
        "--event-dir",
        type=str,
        default=None,
        help="read traces from this captured corpus (layout written by "
        "'python -m repro.trace capture' / --capture-traces) instead of "
        "synthesising; chunked sets stream in O(chunk) memory",
    )
    parser.add_argument(
        "--capture-traces",
        type=str,
        default=None,
        metavar="DIR",
        help="persist every synthesized trace set into this corpus "
        "(chunked .trcz) as a side effect of the sweep",
    )
    parser.add_argument(
        "--status",
        action="store_true",
        help="no simulation: report done/failed/pending counts for the "
        "sweep against the store tree and failure journal, per machine "
        "and (with --shards N) per shard",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="with --status: break the progress report down into N "
        "hash-partitioned shards (the same partition --shard K/N uses)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress per-run progress on stderr",
    )
    add_log_arguments(parser)
    return parser


def _named_benchmarks(args) -> tuple[str, ...]:
    """The ``--benchmarks`` names, in order (empty: the whole suite)."""
    return tuple(
        name.strip() for name in args.benchmarks.split(",") if name.strip()
    )


def _build_specs(args, machine: str) -> list[RunSpec]:
    model = get_model(machine)
    benchmarks = _named_benchmarks(args) or tuple(benchmark_names())
    seeds = tuple(
        int(part) for part in args.seeds.split(",") if part.strip() != ""
    )
    campaign = Campaign(
        name=f"{machine}-standard",
        benchmarks=benchmarks,
        design_points=tuple(model.standard_design_points()),
        seeds=seeds or (0,),
        scale=args.scale,
        cycle_skip=not args.no_cycle_skip,
        sampling=args.sampling if args.sampling != "none" else "",
    )
    return campaign.runs()


def _status(args, store: ResultStore) -> int:
    """Cross-host progress summary: store + journal reads only."""
    machines = [args.machine] if args.machine else model_names()
    journalled = store.journalled_flavors()

    def bucket(specs: list[RunSpec]) -> tuple[int, int, int]:
        done = failed = pending = 0
        for spec in specs:
            if spec in store:
                done += 1
            elif (spec.key, spec.flavor) in journalled:
                failed += 1
            else:
                pending += 1
        return done, failed, pending

    print(f"store {store.root}: {len(store)} entries")
    checkpoint_root = store.root / CheckpointStore.SUBDIR
    if checkpoint_root.is_dir():
        checkpoint_store = CheckpointStore(checkpoint_root)
        print(
            f"checkpoints {checkpoint_root}: {len(checkpoint_store)} "
            f"warm-state entries, {checkpoint_store.total_bytes()} bytes"
        )
    phases = phase_breakdown(
        MetricsRegistry.rollup(
            entry.get("metrics") for entry in store.payloads()
        )
    )
    if phases:
        total = sum(phases.values()) or 1.0
        parts = ", ".join(
            f"{name} {seconds:.2f}s ({seconds / total:.0%})"
            for name, seconds in sorted(
                phases.items(), key=lambda item: -item[1]
            )
        )
        print(f"phase time across stored runs: {parts}")
    for machine in machines:
        specs = _build_specs(args, machine)
        done, failed, pending = bucket(specs)
        print(
            f"  {machine}: {len(specs)} runs — {done} done, "
            f"{failed} failed, {pending} pending"
        )
        if args.shards > 1:
            for index in range(1, args.shards + 1):
                shard = shard_specs(specs, index, args.shards)
                done, failed, pending = bucket(shard)
                print(
                    f"    shard {index}/{args.shards}: {len(shard)} runs "
                    f"— {done} done, {failed} failed, {pending} pending"
                )
    return 0


def _main_merge(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign merge",
        description="Union sharded store trees into one (newest-wins on "
        "entry collision; failure journals are deduplicated line-wise).",
    )
    parser.add_argument("source", nargs="+", help="store tree(s) to merge")
    parser.add_argument("destination", help="store tree to merge into")
    args = parser.parse_args(argv)
    report = merge_stores(args.source, args.destination)
    print(f"merged into {args.destination}: {report.summary()}")
    return 0


def _main_gc(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign gc",
        description="Drop store entries whose machine/engine/sampling "
        "flavor no longer parses (corrupt JSON, retired machine models, "
        "unknown flavor formats).",
    )
    parser.add_argument("store", help="store tree to collect")
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="only report what would be removed",
    )
    args = parser.parse_args(argv)
    removed = list(ResultStore(args.store).gc(dry_run=args.dry_run))
    checkpoint_root = Path(args.store) / CheckpointStore.SUBDIR
    if checkpoint_root.is_dir():
        removed.extend(
            CheckpointStore(checkpoint_root).gc(dry_run=args.dry_run)
        )
    verb = "would remove" if args.dry_run else "removed"
    print(f"gc {args.store}: {verb} {len(removed)} entr(y/ies)")
    for path in removed:
        print(f"  {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "merge":
        return _main_merge(argv[1:])
    if argv and argv[0] == "gc":
        return _main_gc(argv[1:])
    parser = _build_parser()
    args = parser.parse_args(argv)
    setup_from_args(args)
    if args.sampling != "none":
        resolve_plan(args.sampling)  # fail fast on malformed plans
    # Reject what every run would fail on before the sweep journals one
    # permanent failure per design point. A corpus (--event-dir) may
    # hold benchmarks outside the built-in suite, so names resolve at
    # run time there.
    if not args.scale > 0:  # NaN included
        parser.error(f"--scale must be positive, got {args.scale}")
    if args.event_dir is None:
        known = benchmark_names()
        unknown = [name for name in _named_benchmarks(args) if name not in known]
        if unknown:
            parser.error(
                f"unknown benchmark(s) {', '.join(unknown)}; valid names: "
                f"{', '.join(known)}"
            )
    store = ResultStore(args.cache_dir)
    if args.status:
        return _status(args, store)
    shard = parse_shard(args.shard) if args.shard else None
    machine = args.machine or "acmp"

    specs: list[RunSpec]
    if args.from_failures:
        specs = store.failed_specs()
        name = "resume-failures"
        if not specs:
            _LOG.warning("failures.jsonl is empty: nothing to resume")
            return 0
    else:
        specs = _build_specs(args, machine)
        name = f"{machine}-standard"

    report = run_specs(
        specs,
        jobs=args.jobs,
        store=store,
        progress=None if args.quiet else print_progress,
        name=name,
        strict=False,
        shard=shard,
        checkpoints=args.checkpoints,
        event_dir=args.event_dir,
        capture_dir=args.capture_traces,
    )
    if args.from_failures and report.completed:
        # Explicit single-operator compaction of the resume manifest;
        # routine sweeps only ever append to it. ``completed`` is
        # flavor-exact: a sampled recovery never prunes a still-failing
        # full run of the same key, and vice versa.
        pruned = store.prune_journal(report.completed)
        if pruned:
            print(f"pruned {pruned} recovered run(s) from failures.jsonl")
    print(report.summary())
    if report.failures:
        _LOG.warning(
            "%d run(s) journalled to %s; rerun with --from-failures to retry",
            len(report.failures),
            store.journal_path,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
