"""Workload table, host calibration and metric arithmetic of the benchmark.

Nothing here imports ``repro``: the orchestrator (``run.py``) must run
and fail cleanly in a tree without the program, and the calibration
loop must not move when the program changes.
"""

from __future__ import annotations

import json
import math
import resource
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Design-point sweeps, one per workload. ``experiments`` are regenerated
#: through ``repro.experiments.registry.run_experiment`` after their
#: design points ran; ``sampling`` is the campaign sampling flavor
#: (empty = full detailed simulation, in memory, no result store).
WORKLOADS: dict[str, dict] = {
    "paper-detail": {
        "experiments": [
            "fig01", "fig02", "fig03", "fig04", "table1", "fig07",
            "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
        ],
        "benchmarks": ["UA", "CG", "CoEVP"],
        "scale": 0.03,
        "sampling": "",
    },
    "sampled-cold": {
        "experiments": ["fig07", "fig10"],
        "benchmarks": ["UA", "CG"],
        "scale": 0.5,
        "sampling": "fast",
    },
    "sampled-warm": {
        "experiments": ["fig07", "fig10"],
        "benchmarks": ["UA", "CG"],
        "scale": 0.5,
        "sampling": "fast",
        "warm": True,
    },
}

#: Environment every workload process runs under. The kernel backend is
#: pinned: a fresh checkout has no compiled extension, and a stale one
#: in the tree would switch backends between the two commits compared.
PINNED_ENV = {"REPRO_KERNELS": "py", "PYTHONHASHSEED": "0"}

#: Repetitions of a workload (each in fresh interpreters) per run; more
#: start while the run is still inside its ``--seconds`` budget.
MIN_REPS = 3

# -- host calibration ---------------------------------------------------------

#: Iterations of the calibration loop. Fixed forever: changing it (or
#: the loop body) rescales every normalized number the benchmark ever
#: recorded.
CALIB_ITERATIONS = 15_000
#: Loop timings taken at each calibration point.
CALIB_SAMPLES = 3
#: The loop's CPU time on the nominal host; normalized values are
#: expressed in seconds of that host.
NOMINAL_CALIB_S = 0.010


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self) -> None:
        self.value = 0
        self.hits = 0

    def bump(self, delta: int) -> int:
        self.hits += 1
        self.value = (self.value + delta) & 0xFFFF
        return self.value


def _calibration_work(iterations: int) -> int:
    # Interpreter dispatch, dict/list traffic, attribute access and
    # method calls: the operation mix the simulator's hot loops share.
    cells = [_Cell() for _ in range(64)]
    table: dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        cell = cells[i & 63]
        value = cell.bump(i)
        key = value & 1023
        acc = (acc + table.get(key, i)) & 0xFFFFFFF
        table[key] = acc
        if value & 3 == 0:
            acc ^= min(value, key)
    return acc


def cpu_now() -> float:
    """CPU seconds of this process (plus any reaped children)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibrate() -> list[float]:
    """CPU seconds the fixed calibration loop takes on this host now,
    one timing per sample."""
    timings = []
    for _ in range(CALIB_SAMPLES):
        started = time.process_time()
        _calibration_work(CALIB_ITERATIONS)
        timings.append(time.process_time() - started)
    return timings


def host_factor(calibs: list[float]) -> float:
    """Nominal-host seconds per CPU second of this host.

    ``calibs`` are loop timings interleaved with the measured work (taken
    before and after every segment of a pass). Their mean estimates the
    host's average speed over the pass, so CPU seconds times this factor
    do not change when the host runs everything uniformly slower. One
    loop timing swings far more than a design point does, so dividing
    each point by its two neighbouring timings alone would add noise
    instead of removing it.
    """
    return NOMINAL_CALIB_S * len(calibs) / sum(calibs)


# -- statistics -----------------------------------------------------------------


def median(values: list[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(share * len(ordered)))
    return float(ordered[rank - 1])


# -- metric declarations ----------------------------------------------------------


def load_spec(path: Path = SPEC_PATH) -> dict:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def declared_units(kind: str, path: Path = SPEC_PATH) -> dict[str, str]:
    """``{metric name: unit}`` of ``end_to_end`` or ``per_layer``."""
    return {row["name"]: row["unit"] for row in load_spec(path)[kind]}
