"""Trace providers: synthesis and file-backed streams behind one protocol.

The simulator stack never cares where records come from; everything
downstream of a :class:`~repro.trace.stream.TraceSet` is source-blind.
This module makes the source an explicit seam:

* :class:`SynthesisProvider` wraps the in-process workload synthesiser
  (the 24 calibrated models), optionally persisting every set it builds
  to a chunked on-disk corpus (the *capture hook*), so synthetic runs
  double as the first trace corpus;
* :class:`TraceDirectoryProvider` resolves benchmark names inside an
  ``--event-dir`` style tree of captured trace sets and streams them
  back without materialising.

Both satisfy :class:`TraceProvider`; the campaign runner and the
experiment drivers pick one per invocation via :func:`provider_for`.

Corpus layout (what the capture hook writes and the directory provider
resolves)::

    <root>/<benchmark>/t<threads>__scale<scale>__seed<seed>/
        manifest.txt
        thread_000.trcz
        ...

A benchmark directory that is itself a trace set (a bare ``manifest.txt``
with no parameter subdirectories) also resolves, so hand-captured
corpora don't need the parameter slug.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.errors import TraceError
from repro.trace.encoding import open_trace_set, write_trace_set
from repro.trace.stream import TraceSet

__all__ = [
    "SynthesisProvider",
    "TraceDirectoryProvider",
    "TraceProvider",
    "capture_trace_set",
    "provider_for",
    "trace_set_slug",
]

_UNSAFE = re.compile(r"[^A-Za-z0-9._+-]")


def _sanitize(part: str) -> str:
    return _UNSAFE.sub("-", part)


def trace_set_slug(thread_count: int, scale: float, seed: int) -> str:
    """Directory name for one ``(threads, scale, seed)`` realisation.

    ``scale`` uses ``%g`` so 1.0 and 1 collapse to the same slug,
    matching how the result store formats scales.
    """
    scale_part = f"{scale:g}".replace("/", "-")
    return f"t{thread_count}__scale{scale_part}__seed{seed}"


@runtime_checkable
class TraceProvider(Protocol):
    """Anything that can hand back a trace set for a benchmark name."""

    def trace_set(
        self,
        benchmark: str,
        *,
        thread_count: int = 9,
        scale: float = 1.0,
        seed: int = 0,
    ) -> TraceSet: ...


def capture_trace_set(
    traces: TraceSet,
    root: str | Path,
    *,
    scale: float = 1.0,
    seed: int = 0,
    chunk_records: int | None = None,
) -> Path:
    """Persist a trace set into the corpus layout; return its directory.

    Idempotent and safe under concurrent campaign workers: the set is
    written into a scratch sibling and renamed into place, and a
    directory that already holds a manifest is left untouched.
    """
    destination = (
        Path(root)
        / _sanitize(traces.benchmark)
        / trace_set_slug(traces.thread_count, scale, seed)
    )
    if (destination / "manifest.txt").exists():
        return destination
    scratch = destination.with_name(f"{destination.name}.tmp{os.getpid()}")
    write_trace_set(traces, scratch, chunk_records=chunk_records)
    try:
        os.rename(scratch, destination)
    except OSError:
        # A concurrent worker captured the same set first; keep theirs.
        if (destination / "manifest.txt").exists():
            for stray in scratch.iterdir():
                stray.unlink()
            scratch.rmdir()
        else:
            raise
    return destination


class SynthesisProvider:
    """The in-process synthesiser as a provider, with a capture hook.

    With ``capture_dir`` set, every synthesized set is persisted to the
    corpus (chunked ``.trcz``) as a side effect — the capture hook. The
    returned set is still the in-memory one; runs are byte-identical
    with the hook on or off.
    """

    def __init__(
        self,
        capture_dir: str | Path | None = None,
        *,
        chunk_records: int | None = None,
    ) -> None:
        self.capture_dir = Path(capture_dir) if capture_dir is not None else None
        self.chunk_records = chunk_records

    def trace_set(
        self,
        benchmark: str,
        *,
        thread_count: int = 9,
        scale: float = 1.0,
        seed: int = 0,
    ) -> TraceSet:
        from repro.trace.synthesis import synthesize_benchmark

        traces = synthesize_benchmark(
            benchmark, thread_count=thread_count, scale=scale, seed=seed
        )
        if self.capture_dir is not None:
            capture_trace_set(
                traces,
                self.capture_dir,
                scale=scale,
                seed=seed,
                chunk_records=self.chunk_records,
            )
        return traces


class TraceDirectoryProvider:
    """Streams captured trace sets out of an ``--event-dir`` tree.

    Resolution order for ``trace_set("CG", thread_count=9, ...)``:

    1. ``<root>/CG/t9__scale<scale>__seed<seed>/`` — the capture layout;
    2. ``<root>/CG/`` when it is itself a trace set (bare manifest).

    Chunked sets come back streamed (:class:`StreamedTraceSet`); text
    sets come back materialised. A resolved set must match the
    requested thread count — a silent mismatch would change sync-window
    alignment, so it raises instead.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        if not self.root.is_dir():
            raise TraceError(f"trace directory {self.root} does not exist")

    def trace_set(
        self,
        benchmark: str,
        *,
        thread_count: int = 9,
        scale: float = 1.0,
        seed: int = 0,
    ) -> TraceSet:
        base = self.root / _sanitize(benchmark)
        slug = trace_set_slug(thread_count, scale, seed)
        candidates = [base / slug, base]
        for candidate in candidates:
            if (candidate / "manifest.txt").exists():
                traces = open_trace_set(candidate)
                if traces.thread_count != thread_count:
                    raise TraceError(
                        f"{candidate} holds {traces.thread_count} threads, "
                        f"run requested {thread_count}"
                    )
                return traces
        raise TraceError(
            f"no captured trace set for benchmark {benchmark!r} "
            f"(looked for {candidates[0]} and {candidates[1]})"
        )


def provider_for(
    event_dir: str | Path | None = None,
    capture_dir: str | Path | None = None,
) -> TraceProvider:
    """The provider a CLI invocation implies.

    ``event_dir`` wins (read from disk); otherwise synthesis, capturing
    when ``capture_dir`` is given.
    """
    if event_dir is not None:
        return TraceDirectoryProvider(event_dir)
    return SynthesisProvider(capture_dir)
