"""Round-trip and error tests for the trace codecs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.trace.encoding import (
    format_thread_trace,
    parse_thread_trace,
    read_trace_set,
    write_trace_set,
)
from repro.trace.records import (
    BasicBlockRecord,
    BranchKind,
    BranchOutcome,
    EndRecord,
    IpcRecord,
    SyncKind,
    SyncRecord,
)
from repro.trace.stream import ThreadTrace, TraceSet

_branches = st.one_of(
    st.none(),
    st.builds(
        BranchOutcome,
        kind=st.sampled_from(
            [BranchKind.CONDITIONAL, BranchKind.INDIRECT]
        ),
        taken=st.booleans(),
        target=st.integers(min_value=0, max_value=2**40),
    ),
    st.builds(
        BranchOutcome,
        kind=st.just(BranchKind.UNCONDITIONAL),
        taken=st.just(True),
        target=st.integers(min_value=0, max_value=2**40),
    ),
)

_records = st.one_of(
    st.builds(
        BasicBlockRecord,
        address=st.integers(min_value=0, max_value=2**40),
        instruction_count=st.integers(min_value=1, max_value=500),
        branch=_branches,
    ),
    st.builds(
        SyncRecord,
        kind=st.sampled_from(list(SyncKind)),
        object_id=st.integers(min_value=0, max_value=1000),
    ),
    st.builds(IpcRecord, ipc=st.floats(min_value=0.01, max_value=16.0)),
    st.just(EndRecord()),
)


class TestTextCodec:
    @given(st.lists(_records, max_size=60), st.integers(min_value=0, max_value=50))
    @settings(max_examples=50)
    def test_roundtrip_structure(self, records, thread_id):
        trace = ThreadTrace(thread_id=thread_id, records=records)
        parsed = parse_thread_trace(format_thread_trace(trace))
        assert parsed.thread_id == trace.thread_id
        assert len(parsed.records) == len(trace.records)
        for original, reparsed in zip(trace.records, parsed.records):
            if isinstance(original, IpcRecord):
                assert reparsed.ipc == pytest.approx(original.ipc)
            else:
                assert reparsed == original

    def test_missing_header_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_thread_trace("B 0x100 4")

    def test_garbage_line_rejected(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_thread_trace("# thread 0\nZ nonsense")


class TestTraceSetIo:
    def test_write_read_roundtrip(self, tmp_path):
        trace_set = TraceSet(
            benchmark="demo",
            threads=[
                ThreadTrace(0, [BasicBlockRecord(0x100, 4), IpcRecord(1.5)]),
                ThreadTrace(1, [SyncRecord(SyncKind.PARALLEL_START, 0)]),
            ],
        )
        write_trace_set(trace_set, tmp_path / "traces")
        loaded = read_trace_set(tmp_path / "traces")
        assert loaded.benchmark == "demo"
        assert loaded.thread_count == 2
        assert loaded.threads[0].records == trace_set.threads[0].records
        assert loaded.threads[1].records == trace_set.threads[1].records

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="manifest"):
            read_trace_set(tmp_path)
