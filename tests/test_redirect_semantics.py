"""Tests for the drain-then-penalty branch-redirect model.

A mispredicted branch resolves in the back-end, roughly when the
pre-branch backlog has committed; only then does the front-end pay the
flush/refill penalty and restart fetch. This is what exposes the shared
I-cache's access latency on every misprediction — the mechanism behind
the Fig. 13 serial-code penalty.
"""

from random import Random

import pytest

from repro.acmp import baseline_config, simulate
from repro.errors import WorkloadError
from repro.trace.records import (
    BasicBlockRecord,
    BranchKind,
    BranchOutcome,
    IpcRecord,
)
from repro.trace.stream import ThreadTrace, TraceSet


def _random_branch_blocks(count, rng, address=0x1000):
    """Blocks whose branches are unpredictable (taken to fall-through)."""
    blocks = []
    for _ in range(count):
        block = BasicBlockRecord(
            address,
            8,
            BranchOutcome(
                BranchKind.CONDITIONAL,
                rng.random() < 0.5,
                address + 32,  # fall-through target: control flow unchanged
            ),
        )
        blocks.append(block)
    return blocks


def _steady_blocks(count, address=0x1000):
    return [
        BasicBlockRecord(
            address, 8, BranchOutcome(BranchKind.CONDITIONAL, True, address)
        )
        for _ in range(count)
    ]


def _single_thread_set(records):
    # worker_count=1 => master + one worker; give the worker a minimal
    # matching phase structure.
    from repro.trace.records import SyncKind, SyncRecord

    master = [IpcRecord(2.0)] + records + [
        SyncRecord(SyncKind.PARALLEL_START, 0),
        IpcRecord(2.0),
        BasicBlockRecord(0x9000, 4),
        SyncRecord(SyncKind.PARALLEL_END, 0),
    ]
    worker = [
        SyncRecord(SyncKind.PARALLEL_START, 0),
        IpcRecord(1.0),
        BasicBlockRecord(0x9000, 4),
        SyncRecord(SyncKind.PARALLEL_END, 0),
    ]
    return TraceSet("redirect", [ThreadTrace(0, master), ThreadTrace(1, worker)])


class TestDrainSemantics:
    def test_random_branches_cost_penalty_per_mispredict(self):
        rng = Random(11)
        noisy = _single_thread_set(_random_branch_blocks(80, rng))
        steady = _single_thread_set(_steady_blocks(80))
        config = baseline_config(worker_count=1, cores_per_cache=1)
        noisy_result = simulate(config, noisy)
        steady_result = simulate(config, steady)
        redirects = noisy_result.cores[0].redirects
        assert redirects > 10
        extra = noisy_result.cycles - steady_result.cycles
        # Each redirect costs at least the refill penalty once the
        # pipeline drains (master penalty is 12 cycles).
        assert extra >= redirects * 8

    def test_branch_stalls_attributed(self):
        rng = Random(12)
        noisy = _single_thread_set(_random_branch_blocks(80, rng))
        config = baseline_config(worker_count=1, cores_per_cache=1)
        result = simulate(config, noisy)
        assert result.cores[0].stall_cycles["branch"] > 0

    def test_mispredict_exposes_shared_latency(self):
        # The same unpredictable-branch stream must cost *more* behind a
        # shared bus than with a private I-cache: every redirect refetches
        # through the interconnect.
        rng = Random(13)
        blocks = _random_branch_blocks(120, rng)
        model_kwargs = dict(worker_count=8)
        traces9 = TraceSet(
            "redirect9",
            [_single_thread_set(blocks).threads[0]]
            + [
                ThreadTrace(i, list(_single_thread_set(blocks).threads[1].records))
                for i in range(1, 9)
            ],
        )
        private = simulate(baseline_config(**model_kwargs), traces9)
        # all-shared puts the master's serial fetches behind the bus too.
        from repro.acmp import all_shared_config

        shared = simulate(all_shared_config(icache_kb=32, bus_count=2), traces9)
        assert shared.cycles >= private.cycles


class TestTraceHygiene:
    def test_fall_through_targets_keep_flow_linear(self):
        rng = Random(14)
        blocks = _random_branch_blocks(10, rng)
        for block in blocks:
            assert block.next_address in (block.end_address, block.branch.target)
            if block.branch.taken:
                assert block.branch.target == block.end_address

    def test_synthesiser_rejects_bad_scale(self):
        from repro.trace.synthesis import synthesize_benchmark

        with pytest.raises(WorkloadError):
            synthesize_benchmark("CG", scale=-1)
