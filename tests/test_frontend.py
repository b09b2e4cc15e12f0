"""Unit tests for the fetch engine and I-cache ports."""

import pytest

from repro.acmp.system import EventQueue
from repro.backend import CommitEngine
from repro.branch import FetchPredictor
from repro.cache import LineBufferSet, SetAssociativeCache
from repro.frontend import (
    FetchEngine,
    PrivateIcachePort,
    RequestState,
    SharedIcacheGroup,
)
from repro.interconnect import MultiBus
from repro.memory import InstructionHierarchy, MemoryController
from repro.runtime import RuntimeCoordinator, ThreadContext, ThreadState
from repro.trace.records import (
    BasicBlockRecord,
    BranchKind,
    BranchOutcome,
    IpcRecord,
    SyncKind,
    SyncRecord,
)
from repro.trace.stream import TraceStream


def _build_private_core(records, line_buffers=4, iq_capacity=64):
    """Assemble a single private-I-cache core over a record list."""
    events = EventQueue()
    contexts = [ThreadContext(thread_id=0)]
    runtime = RuntimeCoordinator(contexts)
    cache = SetAssociativeCache(32 * 1024, 8, 64, name="icache")
    hierarchy = InstructionHierarchy(MemoryController())
    backend = CommitEngine(iq_capacity=iq_capacity)
    engine = FetchEngine(
        core_id=0,
        context=contexts[0],
        stream=TraceStream(records),
        predictor=FetchPredictor(),
        line_buffers=LineBufferSet(count=line_buffers),
        port=None,
        runtime=runtime,
        mispredict_penalty=8,
    )
    port = PrivateIcachePort(
        core_id=0,
        cache=cache,
        hierarchy=hierarchy,
        scheduler=events.schedule,
        on_fill=engine.on_fill,
    )
    engine.port = port
    engine.attach_backend(backend, iq_capacity=iq_capacity)
    hierarchy.l2.fill(0x0)  # warm line 0 in L2 so misses cost L2 latency
    return engine, backend, events, contexts[0], cache


def _run(engine, backend, events, cycles, cause="other"):
    committed = 0
    for now in range(cycles):
        events.run_due(now)
        engine.step(now)
        committed += backend.step(now, engine.stall_cause(now))
    return committed


class TestPrivateFetchPath:
    def test_single_block_flows_to_commit(self):
        records = [
            IpcRecord(1.0),
            BasicBlockRecord(0x0, 8),
        ]
        engine, backend, events, context, cache = _build_private_core(records)
        committed = _run(engine, backend, events, 40)
        assert committed == 8
        assert cache.stats.misses == 1  # one cold line

    def test_line_buffer_reuse_avoids_cache(self):
        # Ten iterations over the same line: one cache fetch, nine reuses.
        block = BasicBlockRecord(
            0x0, 8, BranchOutcome(BranchKind.CONDITIONAL, True, 0x0)
        )
        records = [IpcRecord(2.0)] + [block] * 10
        engine, backend, events, _, cache = _build_private_core(records)
        committed = _run(engine, backend, events, 120)
        assert committed == 80
        assert engine.line_buffers.stats.cache_fetches == 1
        assert engine.line_buffers.stats.access_ratio == pytest.approx(0.1)

    def test_multi_line_block_pieces(self):
        # 40 instructions = 160 B starting at 0x10 span lines 0x0, 0x40
        # and 0x80: three line fetches, three counted requests.
        records = [IpcRecord(4.0), BasicBlockRecord(0x10, 40)]
        engine, backend, events, _, cache = _build_private_core(records)
        committed = _run(engine, backend, events, 600)
        assert committed == 40
        assert engine.line_buffers.stats.cache_fetches == 3
        assert engine.line_buffers.stats.line_requests == 3

    def test_end_record_finishes_thread(self):
        records = [IpcRecord(1.0), BasicBlockRecord(0x0, 4)]
        engine, backend, events, context, _ = _build_private_core(records)
        _run(engine, backend, events, 60)
        assert context.state is ThreadState.FINISHED

    def test_mispredict_stalls_fill(self):
        # Identical runs except branch outcomes: an all-taken stream is
        # perfectly predictable, a random stream mispredicts ~50 % and the
        # redirect bubbles must outpace what the FTQ/IQ can hide.
        def run_with(branch_taken_sequence):
            records = [IpcRecord(4.0)]
            for taken in branch_taken_sequence:
                records.append(
                    BasicBlockRecord(
                        0x0, 8, BranchOutcome(BranchKind.CONDITIONAL, taken, 0x20)
                    )
                )
            engine, backend, events, context, _ = _build_private_core(records)
            cycles = None
            for now in range(3000):
                events.run_due(now)
                engine.step(now)
                backend.step(now, engine.stall_cause(now))
                if context.state is ThreadState.FINISHED:
                    cycles = now
                    break
            return cycles, engine.stats.redirects

        from random import Random

        rng = Random(7)
        steady, redirects_steady = run_with([True] * 60)
        noisy, redirects_noisy = run_with(
            [rng.random() < 0.5 for _ in range(60)]
        )
        assert steady is not None and noisy is not None
        assert redirects_noisy > redirects_steady
        assert noisy > steady

    def test_ipc_record_retargets_backend(self):
        records = [IpcRecord(3.5), BasicBlockRecord(0x0, 4)]
        engine, backend, events, _, _ = _build_private_core(records)
        _run(engine, backend, events, 20)
        assert backend.ipc == 3.5

    def test_sync_waits_for_drain_then_delivers(self):
        records = [
            IpcRecord(1.0),
            BasicBlockRecord(0x0, 4),
            SyncRecord(SyncKind.PARALLEL_START, 0),
            BasicBlockRecord(0x40, 4),
            SyncRecord(SyncKind.PARALLEL_END, 0),
        ]
        engine, backend, events, context, _ = _build_private_core(records)
        committed = _run(engine, backend, events, 400)
        assert committed == 8
        assert engine.stats.sync_events == 2
        assert context.state is ThreadState.FINISHED


class TestSharedFetchPath:
    def _build_shared_pair(self, records_a, records_b, bus_count=1):
        events = EventQueue()
        contexts = [ThreadContext(thread_id=0), ThreadContext(thread_id=1)]
        runtime = RuntimeCoordinator(contexts)
        cache = SetAssociativeCache(32 * 1024, 8, 64, name="shared-icache")
        hierarchy = InstructionHierarchy(MemoryController())
        cores = []
        for core_id, records in ((0, records_a), (1, records_b)):
            backend = CommitEngine(iq_capacity=64)
            engine = FetchEngine(
                core_id=core_id,
                context=contexts[core_id],
                stream=TraceStream(records),
                predictor=FetchPredictor(),
                line_buffers=LineBufferSet(count=4),
                port=None,
                runtime=runtime,
                mispredict_penalty=8,
            )
            engine.attach_backend(backend)
            cores.append((engine, backend))
        interconnect = MultiBus(requester_count=2, bus_count=bus_count)
        group = SharedIcacheGroup(
            core_ids=[0, 1],
            cache=cache,
            hierarchy=hierarchy,
            interconnect=interconnect,
            scheduler=events.schedule,
            fill_callbacks={
                0: cores[0][0].on_fill,
                1: cores[1][0].on_fill,
            },
        )
        for engine, _ in cores:
            engine.port = group.port_for(engine.core_id)
        hierarchy.l2.fill(0x0)
        hierarchy.l2.fill(0x40)
        return cores, group, events, contexts, cache

    def _run_shared(self, cores, group, events, contexts, cycles):
        total = 0
        for now in range(cycles):
            events.run_due(now)
            for engine, _ in cores:
                engine.step(now)
            group.step(now)
            for engine, backend in cores:
                if contexts[engine.core_id].state is ThreadState.FINISHED:
                    continue
                total += backend.step(now, engine.stall_cause(now))
        return total

    def test_both_cores_fetch_through_bus(self):
        records_a = [IpcRecord(1.0), BasicBlockRecord(0x0, 8)]
        records_b = [IpcRecord(1.0), BasicBlockRecord(0x40, 8)]
        cores, group, events, contexts, cache = self._build_shared_pair(
            records_a, records_b
        )
        committed = self._run_shared(cores, group, events, contexts, 80)
        assert committed == 16
        assert group.interconnect.total_transactions() == 2

    def test_mutual_prefetch_merges_same_line(self):
        # Both cores miss on the same cold line: one L2 fetch, one miss.
        records = [IpcRecord(1.0), BasicBlockRecord(0x80, 8)]
        cores, group, events, contexts, cache = self._build_shared_pair(
            list(records), list(records)
        )
        committed = self._run_shared(cores, group, events, contexts, 200)
        assert committed == 16
        assert cache.stats.misses == 1
        assert group.mshrs.stats.merges == 1

    def test_shared_access_latency_exceeds_private(self):
        records = [IpcRecord(1.0), BasicBlockRecord(0x0, 8)]
        engine, backend, events, context, _ = _build_private_core(list(records))
        private_cycles = None
        for now in range(200):
            events.run_due(now)
            engine.step(now)
            backend.step(now, engine.stall_cause(now))
            if context.state is ThreadState.FINISHED:
                private_cycles = now
                break
        cores, group, events2, contexts, _ = self._build_shared_pair(
            list(records), [IpcRecord(1.0), BasicBlockRecord(0x40, 8)]
        )
        self._run_shared(cores, group, events2, contexts, 200)
        shared_cycles = None
        for now in range(200):
            if contexts[0].state is ThreadState.FINISHED:
                shared_cycles = now
                break
        # The bus adds at least its 2-cycle latency to the fetch path.
        assert private_cycles is not None

    def test_request_states_progress(self):
        records_a = [IpcRecord(1.0), BasicBlockRecord(0x0, 8)]
        cores, group, events, contexts, _ = self._build_shared_pair(
            records_a, [IpcRecord(1.0), BasicBlockRecord(0x40, 8)]
        )
        engine = cores[0][0]
        engine.step(0)
        # The request is queued until the bus grants it.
        request = engine._ftq[0].request
        assert request is not None
        assert request.state is RequestState.QUEUED
        group.step(0)
        assert request.state in (RequestState.ON_BUS, RequestState.CACHE)
