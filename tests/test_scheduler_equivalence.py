"""Scheduler-vs-stepped equivalence over a randomized config grid.

The ready/wake scheduler's contract is exact equivalence with the
cycle-by-cycle reference engine (``cycle_skip=False``): bit-identical
:class:`SimulationResult` payloads, and :class:`DeadlockError` raised at
the identical cycle with the identical diagnosis. This suite sweeps the
machine dimensions that exercise different sleep/wake paths — private
vs shared groups, single vs double bus, crossbar vs multi-bus, icount
vs round-robin arbitration, iTLB on/off/shared — plus a seeded random
sample of further combinations, on **both registered machine models**
(the ACMP and the symmetric CMP): every machine model must hold the
bit-identical contract, which is also what the ``engine-crosscheck``
CI matrix enforces end to end.

Both engines share the front-end and back-end, so a change to those
passes the equivalence check unseen; each row's scheduled result is
therefore also pinned by digest in ``tests/data/scheduler_golden.json``
(re-pin by running this module as a script, only for an intended
change of results).
"""

import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.acmp import (
    AcmpConfig,
    all_shared_config,
    baseline_config,
    result_to_dict,
    worker_shared_config,
)
from repro.errors import DeadlockError
from repro.machine import simulate
from repro.scmp import ScmpConfig, banked_config, private_config
from repro.trace.records import (
    BasicBlockRecord,
    IpcRecord,
    SyncKind,
    SyncRecord,
)
from repro.trace.stream import ThreadTrace, TraceSet
from repro.trace.synthesis import synthesize_benchmark

#: The directed grid: every row is one scheduler path worth pinning.
GRID: list[tuple[str, AcmpConfig]] = [
    ("private-baseline", baseline_config(worker_count=4)),
    ("private-itlb", baseline_config(worker_count=4, itlb_enabled=True)),
    (
        "shared-cpc2-single-bus",
        worker_shared_config(
            cores_per_cache=2, icache_kb=32, bus_count=1, line_buffers=4
        ),
    ),
    (
        "shared-cpc4-double-bus",
        AcmpConfig(
            worker_count=4,
            cores_per_cache=4,
            worker_icache_bytes=16 * 1024,
            bus_count=2,
        ),
    ),
    (
        "shared-crossbar",
        AcmpConfig(
            worker_count=4,
            cores_per_cache=4,
            interconnect="crossbar",
            bus_count=2,
        ),
    ),
    (
        "shared-icount",
        AcmpConfig(worker_count=4, cores_per_cache=4, arbitration="icount"),
    ),
    (
        "shared-itlb",
        AcmpConfig(
            worker_count=4,
            cores_per_cache=4,
            itlb_enabled=True,
            shared_itlb=True,
        ),
    ),
    ("all-shared", all_shared_config(icache_kb=32, bus_count=1)),
    # A deep FTQ behind two line buffers keeps the issue window full:
    # every way a scan stops happens here (a window of handled pieces,
    # a second miss in one cycle, an iTLB walk, no free line buffer).
    (
        "shared-issue-window",
        AcmpConfig(
            worker_count=4,
            cores_per_cache=4,
            ftq_capacity=16,
            line_buffers=2,
            itlb_enabled=True,
        ),
    ),
    # -- symmetric CMP: the same sleep/wake paths with no master core --
    ("scmp-private", private_config(core_count=4)),
    (
        "scmp-banked-cpc4",
        banked_config(cores_per_cache=4, icache_kb=16, core_count=4),
    ),
    (
        "scmp-banked-single-bus",
        banked_config(
            cores_per_cache=2, icache_kb=32, bus_count=1, core_count=4
        ),
    ),
    (
        "scmp-crossbar-icount",
        ScmpConfig(
            core_count_total=4,
            cores_per_cache=4,
            interconnect="crossbar",
            arbitration="icount",
            bus_count=2,
        ),
    ),
    (
        "scmp-itlb-shared",
        ScmpConfig(
            core_count_total=4,
            cores_per_cache=2,
            itlb_enabled=True,
            shared_itlb=True,
        ),
    ),
    # A narrow bus stretches transfer occupancy (8 cycles per line),
    # exercising the batched busy-horizon sleep of the interconnect.
    (
        "scmp-narrow-bus",
        ScmpConfig(
            core_count_total=4,
            cores_per_cache=4,
            bus_count=1,
            bus_width_bytes=8,
        ),
    ),
    (
        "acmp-narrow-bus",
        AcmpConfig(
            worker_count=4,
            cores_per_cache=4,
            bus_count=1,
            bus_width_bytes=8,
        ),
    ),
    # A large instruction queue leaves long drain phases behind a
    # quiescent front-end — the commit-replay window's home turf.
    ("acmp-big-iq", baseline_config(worker_count=4, iq_capacity=256)),
    # The smallest legal queue (one fetch line) space-gates the
    # front-end constantly, exercising the replay window's exact
    # space-wake cycle (one past the commit that frees the room).
    ("acmp-tiny-iq", baseline_config(worker_count=4, iq_capacity=16)),
    # Sub-unit serial IPC on the symmetric CMP mixes pacing and commit
    # cycles inside one replay window.
    (
        "scmp-lean-serial-big-iq",
        ScmpConfig(
            core_count_total=4, serial_ipc_scale=0.4, iq_capacity=128
        ),
    ),
]


def _random_configs(count: int = 4) -> list[tuple[str, AcmpConfig]]:
    """A deterministic random sample of further design points."""
    rng = random.Random(0xACC5)
    configs = []
    for index in range(count):
        workers = rng.choice((2, 4, 8))
        divisors = [d for d in (1, 2, 4, 8) if workers % d == 0 and d <= workers]
        cpc = rng.choice(divisors)
        itlb = rng.random() < 0.5
        config = AcmpConfig(
            worker_count=workers,
            cores_per_cache=cpc,
            worker_icache_bytes=rng.choice((16, 32)) * 1024,
            bus_count=rng.choice((1, 2)),
            line_buffers=rng.choice((2, 4, 8)),
            arbitration=rng.choice(("round-robin", "icount"))
            if cpc > 1
            else "round-robin",
            interconnect=rng.choice(("bus", "crossbar")),
            itlb_enabled=itlb,
            shared_itlb=itlb and cpc > 1 and rng.random() < 0.5,
        )
        configs.append((f"random-{index}", config))
    return configs


GOLDEN_PATH = Path(__file__).parent / "data" / "scheduler_golden.json"


ROWS = GRID + _random_configs()
_CONFIGS = dict(ROWS)


def _traces(label: str, bench: str) -> TraceSet:
    return synthesize_benchmark(
        bench, thread_count=_CONFIGS[label].core_count, scale=0.03, seed=3
    )


@functools.lru_cache(maxsize=None)
def _scheduled_payload(label: str, bench: str) -> dict:
    """One row's scheduled result, shared by the two tests below."""
    return result_to_dict(
        simulate(_CONFIGS[label], _traces(label, bench), cycle_skip=True)
    )


def _digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    ("label", "config"), ROWS, ids=lambda v: v if isinstance(v, str) else ""
)
@pytest.mark.parametrize("bench", ("CG", "UA"))
def test_bit_identical_results(label, config, bench):
    stepped = simulate(config, _traces(label, bench), cycle_skip=False)
    assert _scheduled_payload(label, bench) == result_to_dict(stepped)


@pytest.mark.parametrize(
    ("label", "config"), ROWS, ids=lambda v: v if isinstance(v, str) else ""
)
@pytest.mark.parametrize("bench", ("CG", "UA"))
def test_results_match_pinned_digest(label, config, bench):
    pinned = json.loads(GOLDEN_PATH.read_text())
    assert _digest(_scheduled_payload(label, bench)) == pinned[f"{label}/{bench}"]


def test_pinned_digests_cover_every_row():
    pinned = json.loads(GOLDEN_PATH.read_text())
    expected = {f"{label}/{bench}" for label, _ in ROWS for bench in ("CG", "UA")}
    assert set(pinned) == expected


def write_golden() -> None:
    """Re-pin every row's digest (``python tests/test_scheduler_equivalence.py``)."""
    pinned = {
        f"{label}/{bench}": _digest(_scheduled_payload(label, bench))
        for label, _ in ROWS
        for bench in ("CG", "UA")
    }
    GOLDEN_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def _deadlock_traces() -> TraceSet:
    """Worker 2 waits on a phase the master never starts."""
    master = [
        IpcRecord(1.0),
        BasicBlockRecord(0x100, 8),
        SyncRecord(SyncKind.PARALLEL_START, 0),
        IpcRecord(2.0),
        BasicBlockRecord(0x1000, 8),
        SyncRecord(SyncKind.PARALLEL_END, 0),
    ]
    worker = [
        SyncRecord(SyncKind.PARALLEL_START, 0),
        IpcRecord(1.0),
        BasicBlockRecord(0x1000, 8),
        SyncRecord(SyncKind.PARALLEL_END, 0),
    ]
    bad_worker = [
        SyncRecord(SyncKind.PARALLEL_START, 7),
        IpcRecord(1.0),
        BasicBlockRecord(0x1000, 8),
        SyncRecord(SyncKind.PARALLEL_END, 7),
    ]
    return TraceSet(
        "phantom-phase",
        [
            ThreadTrace(0, master),
            ThreadTrace(1, worker),
            ThreadTrace(2, bad_worker),
        ],
    )


@pytest.mark.parametrize(
    ("label", "config"),
    [
        ("private", baseline_config(worker_count=2)),
        (
            "shared",
            AcmpConfig(worker_count=2, cores_per_cache=2, bus_count=1),
        ),
        (
            "shared-icount-itlb",
            AcmpConfig(
                worker_count=2,
                cores_per_cache=2,
                arbitration="icount",
                itlb_enabled=True,
            ),
        ),
        ("scmp-private", ScmpConfig(core_count_total=3)),
        (
            "scmp-banked",
            ScmpConfig(core_count_total=3, cores_per_cache=3, bus_count=1),
        ),
        # Commit-replay windows drain the healthy cores' queues right up
        # to the hang; the watchdog must still fire at the stepped
        # engine's exact cycle (note_progress + the firing-horizon cap).
        ("private-big-iq", baseline_config(worker_count=2, iq_capacity=256)),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_deadlock_at_identical_cycle(label, config):
    traces = _deadlock_traces()
    with pytest.raises(DeadlockError) as scheduled:
        simulate(config, traces, cycle_skip=True)
    with pytest.raises(DeadlockError) as stepped:
        simulate(config, traces, cycle_skip=False)
    # Identical diagnosis, including the firing cycle embedded in it.
    assert str(scheduled.value) == str(stepped.value)
    assert "phase 7" in str(scheduled.value)


if __name__ == "__main__":
    write_golden()
