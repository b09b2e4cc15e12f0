"""Golden-file guarantees for the on-disk trace formats.

The fixtures under ``tests/data/trace_golden/`` are committed artifacts.
Encoding the reference records must reproduce them byte for byte
(a codec edit that changes bytes must bump the format version and
regenerate the fixtures deliberately), and decoding them must keep
yielding the reference records — otherwise existing on-disk corpora
would be silently orphaned.
"""

from pathlib import Path

import pytest

from repro.errors import TraceFormatError
from repro.trace.chunked import ChunkedThreadReader, write_thread_trace_chunked
from repro.trace.encoding import open_trace_set, read_trace_set
from repro.trace.fingerprint import trace_fingerprint
from repro.trace.records import (
    BasicBlockRecord,
    BranchKind,
    BranchOutcome,
    EndRecord,
    IpcRecord,
    SyncKind,
    SyncRecord,
)

GOLDEN_DIR = Path(__file__).parent / "data" / "trace_golden"

#: Pinned content digest of the golden set. Changing the fingerprint
#: algorithm invalidates every persisted checkpoint key — do it only
#: with a migration story.
GOLDEN_SET_FINGERPRINT = "c5060269ef0694a3"


def golden_records() -> list:
    """One of every record shape the codecs can express."""
    return [
        IpcRecord(1.25),
        BasicBlockRecord(0x400000, 6),
        BasicBlockRecord(
            0x400018, 4, BranchOutcome(BranchKind.CONDITIONAL, True, 0x400080)
        ),
        SyncRecord(SyncKind.PARALLEL_START, 0),
        BasicBlockRecord(
            0x400080, 9, BranchOutcome(BranchKind.UNCONDITIONAL, True, 0x400000)
        ),
        SyncRecord(SyncKind.BARRIER, 3),
        BasicBlockRecord(
            0x4000C0, 2, BranchOutcome(BranchKind.INDIRECT, True, 0x400140)
        ),
        SyncRecord(SyncKind.WAIT, 7),
        SyncRecord(SyncKind.SIGNAL, 7),
        SyncRecord(SyncKind.PARALLEL_END, 0),
        IpcRecord(2.5),
        BasicBlockRecord(0x400140, 11),
        EndRecord(),
    ]


class TestGoldenTrcz:
    def test_encode_is_byte_stable(self, tmp_path):
        path = tmp_path / "fresh.trcz"
        write_thread_trace_chunked(path, 5, golden_records(), chunk_records=4)
        assert path.read_bytes() == (GOLDEN_DIR / "golden.trcz").read_bytes()

    def test_decode_compatibility(self):
        reader = ChunkedThreadReader(GOLDEN_DIR / "golden.trcz")
        assert reader.thread_id == 5
        assert reader.chunk_records == 4
        assert list(reader.iter_records()) == golden_records()
        blocks = [
            r for r in golden_records() if isinstance(r, BasicBlockRecord)
        ]
        assert reader.total_instructions == sum(b.instruction_count for b in blocks)


class TestGoldenSet:
    def test_streamed_open(self):
        streamed = open_trace_set(GOLDEN_DIR / "set")
        assert streamed.benchmark == "golden"
        assert streamed.thread_count == 2
        assert list(streamed.threads[0]) == golden_records()
        assert trace_fingerprint(streamed) == GOLDEN_SET_FINGERPRINT

    def test_eager_read_matches_and_refingerprints(self):
        eager = read_trace_set(GOLDEN_DIR / "set")
        # Strip the manifest-sourced memo: the digest recomputed from
        # the decoded records must still match the pinned value, which
        # is what keeps persisted checkpoint keys reachable.
        del eager._warm_fingerprint
        assert trace_fingerprint(eager) == GOLDEN_SET_FINGERPRINT

    def test_legacy_manifest_is_rejected(self, tmp_path):
        # A manifest without format/fingerprint keys is not a trace set.
        write_thread_trace_chunked(
            tmp_path / "thread_000.trcz", 0, golden_records()
        )
        (tmp_path / "manifest.txt").write_text(
            "benchmark legacy\nthreads 1\nthread_000.trcz\n"
        )
        with pytest.raises(TraceFormatError, match="format, fingerprint"):
            read_trace_set(tmp_path)
