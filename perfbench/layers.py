"""Per-layer instrumentation of the traced run, applied from outside.

:class:`SpanTracer` wraps the public entry points of each layer and
records one span per call in memory: layer, name, CPU start and end,
parent span and design-point id. Class methods are patched on the class;
functions that a module imported by name are patched in that consuming
module's namespace. :meth:`SpanTracer.restore` puts every original back.

:func:`profile_rollup` charges cProfile self time and call counts to
``repro.<package>``; time spent in the standard library or in builtins
goes to the package that called it.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from pathlib import Path


def _records(traces) -> int:
    return sum(len(thread) for thread in traces.threads)


#: (layer, module, attribute path, count of work units in the result).
#: The module is where the attribute is looked up at call time.
TARGETS: list[tuple[str, str, str, object]] = [
    ("machine", "repro.machine.simulator", "SystemSimulator.run",
     lambda result: result.total_committed),
    ("machine", "repro.acmp.model", "AcmpModel.build_system", None),
    ("machine", "repro.scmp.model", "ScmpModel.build_system", None),
    ("machine", "repro.machine.system", "System.restore_warm_state", None),
    ("sampling", "repro.sampling.simulator", "SampledSimulator.run", None),
    ("sampling", "repro.sampling.warmer", "BatchedWarmer.warm_interval",
     lambda blocks: blocks),
    ("sampling", "repro.sampling.checkpoints", "CheckpointStore.get", None),
    ("sampling", "repro.sampling.checkpoints", "CheckpointStore.put", None),
    ("sampling", "repro.sampling.simulator", "encode_state", None),
    ("sampling", "repro.sampling.simulator", "decode_state", None),
    ("sampling", "repro.sampling.simulator", "slice_traces", None),
    ("sampling", "repro.sampling.simulator", "interval_traceset", None),
    ("trace", "repro.trace.provider", "SynthesisProvider.trace_set", _records),
    ("trace", "repro.trace.provider", "TraceDirectoryProvider.trace_set",
     _records),
    ("campaign", "repro.experiments.common", "run_specs", None),
    ("campaign", "repro.campaign.runner", "execute_run", None),
    ("campaign", "repro.campaign.store", "ResultStore.get", None),
    ("campaign", "repro.campaign.store", "ResultStore.put", None),
]


class SpanTracer:
    """In-memory spans around the layers' public entry points."""

    def __init__(self) -> None:
        #: [layer, name, start, end, parent index, point id, work units]
        self.spans: list[list] = []
        self.point = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target; return the ones the program lacks."""
        missing = []
        for layer, module_name, path, count in targets:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path.split(".") if owner_path else ():
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(layer, path, original, count))
            self._patched.append((owner, attr, original))
        return missing

    def restore(self) -> bool:
        """Put every original back; True when all of them are in place."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        restored = all(
            vars(owner)[attr] is original for owner, attr, original in self._patched
        )
        self._patched.clear()
        return restored

    @contextmanager
    def span(self, layer: str, name: str):
        """Record a span around a harness-side call."""
        index = self._open(layer, name)
        try:
            yield
        finally:
            self._close(index, 0)

    def _open(self, layer: str, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(
            [layer, name, time.process_time(), None, parent, self.point, 0]
        )
        self._stack.append(index)
        return index

    def _close(self, index: int, units: int) -> None:
        record = self.spans[index]
        record[3] = time.process_time()
        record[6] = units
        self._stack.pop()

    def _wrap(self, layer, name, original, count):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer._open(layer, name)
            units = 0
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    units = count(result)
                return result
            finally:
                tracer._close(index, units)

        return wrapper

    def records(self) -> list[dict]:
        """Every span with its self time (duration minus its children)."""
        child_time = [0.0] * len(self.spans)
        for _layer, _name, start, end, parent, _point, _units in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = []
        for index, (layer, name, start, end, parent, point, units) in enumerate(
            self.spans
        ):
            out.append(
                {
                    "layer": layer,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "point": point,
                    "units": units,
                    "self": end - start - child_time[index],
                }
            )
        return out


def aggregate(records: list[dict], factor: float) -> dict[str, dict]:
    """Per span name: calls, work units, normalized total and durations.

    ``factor`` is the pass's host-normalization factor.
    """
    out: dict[str, dict] = {}
    for record in records:
        duration = (record["end"] - record["start"]) * factor
        entry = out.setdefault(
            record["name"], {"calls": 0, "units": 0, "total_s": 0.0, "durations": []}
        )
        entry["calls"] += 1
        entry["units"] += record["units"]
        entry["total_s"] += duration
        entry["durations"].append(duration)
    return out


# -- cProfile roll-up ------------------------------------------------------------

#: ``repro`` packages reported on their own; the rest rolls into "other".
PROFILE_PACKAGES = (
    "engine", "machine", "acmp", "frontend", "backend", "cache", "branch",
    "interconnect", "memory", "runtime", "kernels", "sampling", "trace",
    "workloads", "campaign", "experiments",
)


def package_of(filename: str) -> str | None:
    """``repro`` package of a source file; None outside ``repro``."""
    parts = Path(filename).parts
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro" and index + 1 < len(parts) - 1:
            package = parts[index + 1]
            return package if package in PROFILE_PACKAGES else "other"
        if parts[index] == "repro":
            return "other"
    return None


def profile_rollup(stats: dict) -> dict[str, dict]:
    """Self seconds and calls per package from ``pstats.Stats.stats``.

    A function outside ``repro`` is charged to its callers in proportion
    to what each caller spent in it (time for self seconds, calls for
    call counts, so counts stay deterministic), recursively until a
    ``repro`` function, or the profile root ("other"), owns it.
    """
    memos: tuple[dict, dict] = ({}, {})

    def owners(func, by: int, depth: int = 0) -> dict[str, float]:
        package = package_of(func[0])
        if package is not None:
            return {package: 1.0}
        memo = memos[by]
        if func in memo:
            return memo[func]
        memo[func] = {"other": 1.0}  # cycle guard
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        # Column 1 of a caller row is its call count, column 3 its
        # cumulative time.
        weights = {caller: row[3 if by else 1] for caller, row in callers.items()}
        total = sum(weights.values())
        if depth > 50 or not total:
            return memo[func]
        mix: dict[str, float] = {}
        for caller, weight in weights.items():
            for owner, share in owners(caller, by, depth + 1).items():
                mix[owner] = mix.get(owner, 0.0) + share * weight / total
        memo[func] = mix
        return mix

    rollup = {
        name: {"self_s": 0.0, "calls": 0.0}
        for name in (*PROFILE_PACKAGES, "other")
    }

    def charge(func, calls: float, self_s: float) -> None:
        for owner, share in owners(func, 0).items():
            rollup[owner]["calls"] += calls * share
        for owner, share in owners(func, 1).items():
            rollup[owner]["self_s"] += self_s * share

    for func, (_cc, calls, self_s, _cum, callers) in stats.items():
        if package_of(func[0]) is not None or not callers:
            charge(func, calls, self_s)
            continue
        # Outside repro: each caller owns what it spent here.
        for caller, (_ccc, caller_calls, caller_self, _ccum) in callers.items():
            charge(caller, caller_calls, caller_self)
    for entry in rollup.values():
        entry["calls"] = round(entry["calls"])
    return rollup
