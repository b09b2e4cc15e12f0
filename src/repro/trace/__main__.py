"""Trace corpus tooling: ``python -m repro.trace <command>``.

Commands:

* ``dump`` — render a trace set directory or a single thread file
  (``.trcz``, ``.trct``) in the human-readable text format;
* ``index`` — print a ``.trcz`` file's header and chunk index (what the
  seek path uses), without decoding any chunk;
* ``convert`` — re-encode a trace set directory between ``trcz`` and
  ``trct`` (chunked sources stream through, O(chunk));
* ``capture`` — synthesize a benchmark and persist it into a corpus
  tree in the layout ``--event-dir`` resolves.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from repro.errors import TraceError
from repro.obs.log import add_log_arguments, setup_from_args
from repro.trace.chunked import ChunkedThreadReader, LazyThreadTrace
from repro.trace.encoding import (
    format_thread_trace,
    open_trace_set,
    parse_thread_trace,
    write_trace_set,
)
from repro.trace.provider import capture_trace_set

# Not __name__: under `python -m` this module IS "__main__",
# which would fall outside the configured "repro" logger tree.
_LOG = logging.getLogger("repro.trace.cli")


def _load_thread(path: Path):
    suffix = path.suffix
    if suffix == ".trct":
        return parse_thread_trace(path.read_text())
    if suffix == ".trcz":
        return LazyThreadTrace(ChunkedThreadReader(path))
    raise TraceError(f"unknown trace file suffix {suffix!r} on {path}")


def _cmd_dump(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if path.is_dir():
        traces = open_trace_set(path)
        print(f"# set {traces.benchmark} threads={traces.thread_count}")
        threads = traces.threads
    else:
        threads = [_load_thread(path)]
    for thread in threads:
        sys.stdout.write(format_thread_trace(thread))
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    path = Path(args.path)
    files = sorted(path.glob("*.trcz")) if path.is_dir() else [path]
    if not files:
        raise TraceError(f"no .trcz files in {path}")
    for file_path in files:
        reader = ChunkedThreadReader(file_path)
        print(
            f"{file_path.name}: thread {reader.thread_id}, "
            f"{reader.record_count} records, "
            f"{reader.total_instructions} instructions, "
            f"{reader.chunk_count} chunks of {reader.chunk_records}"
        )
        for row in reader.chunk_table():
            print(
                f"  chunk {row['chunk']:4d}  offset {row['offset']:10d}  "
                f"{row['compressed_bytes']:8d} B  "
                f"records {row['first_record']}+{row['records']}  "
                f"instructions {row['instructions_before']}+{row['instructions']}"
            )
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    traces = open_trace_set(args.source)
    fingerprint = write_trace_set(
        traces,
        args.destination,
        fmt=args.format,
        chunk_records=args.chunk_records,
    )
    _LOG.info(
        "wrote %s (%d threads) as %s to %s [fingerprint %s]",
        traces.benchmark,
        traces.thread_count,
        args.format,
        args.destination,
        fingerprint,
    )
    return 0


def _cmd_capture(args: argparse.Namespace) -> int:
    from repro.trace.synthesis import synthesize_benchmark

    traces = synthesize_benchmark(
        args.benchmark,
        thread_count=args.threads,
        scale=args.scale,
        seed=args.seed,
    )
    destination = capture_trace_set(
        traces,
        args.out,
        scale=args.scale,
        seed=args.seed,
        chunk_records=args.chunk_records,
    )
    _LOG.info("captured %s to %s", args.benchmark, destination)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Inspect, convert and capture on-disk trace sets.",
    )
    add_log_arguments(parser, quiet=True)
    commands = parser.add_subparsers(dest="command", required=True)

    dump = commands.add_parser(
        "dump", help="render a trace set or thread file as text"
    )
    dump.add_argument("path", help="set directory or .trcz/.trct file")
    dump.set_defaults(handler=_cmd_dump)

    index = commands.add_parser(
        "index", help="print a .trcz chunk index without decoding chunks"
    )
    index.add_argument("path", help=".trcz file or set directory")
    index.set_defaults(handler=_cmd_index)

    convert = commands.add_parser(
        "convert", help="re-encode a trace set between formats"
    )
    convert.add_argument("source", help="source set directory")
    convert.add_argument("destination", help="destination set directory")
    convert.add_argument(
        "--format",
        choices=("trcz", "trct"),
        default="trcz",
        help="destination encoding (default: trcz)",
    )
    convert.add_argument(
        "--chunk-records",
        type=int,
        default=None,
        help="records per compressed chunk for trcz output",
    )
    convert.set_defaults(handler=_cmd_convert)

    capture = commands.add_parser(
        "capture", help="synthesize a benchmark into a trace corpus"
    )
    capture.add_argument("benchmark", help="benchmark name (see workloads)")
    capture.add_argument("--out", required=True, help="corpus root directory")
    capture.add_argument("--threads", type=int, default=9)
    capture.add_argument("--scale", type=float, default=1.0)
    capture.add_argument("--seed", type=int, default=0)
    capture.add_argument("--chunk-records", type=int, default=None)
    capture.set_defaults(handler=_cmd_capture)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    setup_from_args(args)
    try:
        return args.handler(args)
    except BrokenPipeError:  # dump | head: the consumer hung up, not an error
        return 0
    except (TraceError, OSError) as exc:
        _LOG.error("error: %s", exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
