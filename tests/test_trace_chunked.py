"""Chunked (``.trcz``) codec: round-trips, index seeks, corruption, memory.

The contract under test: a chunked file round-trips bit-exactly, the
footer index lets readers reach any record/instruction position without
decoding the prefix, every corruption mode surfaces as a
:class:`TraceFormatError` carrying file + byte-offset context, and a
walked trace never holds more than O(chunk) decoded records.
"""

import random
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.trace.chunked import (
    _Z_HEADER,
    _Z_TRAILER,
    ChunkedThreadReader,
    ChunkedTraceWriter,
    LazyThreadTrace,
    write_thread_trace_chunked,
)
from repro.trace.encoding import open_trace_set, write_trace_set
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
        kind=st.sampled_from([BranchKind.CONDITIONAL, BranchKind.INDIRECT]),
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


def _mixed_records(count: int, seed: int = 0) -> list:
    """A deterministic record mix with non-trivial instruction counts."""
    rng = random.Random(seed)
    records = []
    for index in range(count):
        roll = rng.random()
        if roll < 0.85:
            branch = None
            if rng.random() < 0.4:
                branch = BranchOutcome(
                    BranchKind.CONDITIONAL, rng.random() < 0.5, rng.randrange(2**30)
                )
            records.append(
                BasicBlockRecord(rng.randrange(2**30), rng.randrange(1, 40), branch)
            )
        elif roll < 0.95:
            records.append(SyncRecord(rng.choice(list(SyncKind)), rng.randrange(8)))
        else:
            records.append(IpcRecord(rng.uniform(0.1, 4.0)))
    return records


class TestChunkedRoundtrip:
    @given(
        st.lists(_records, max_size=120),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=1, max_value=17),
    )
    @settings(max_examples=40)
    def test_roundtrip(self, tmp_path_factory, records, thread_id, chunk_records):
        path = tmp_path_factory.mktemp("trcz") / "t.trcz"
        write_thread_trace_chunked(
            path, thread_id, records, chunk_records=chunk_records
        )
        reader = ChunkedThreadReader(path)
        assert reader.thread_id == thread_id
        assert reader.record_count == len(records)
        assert list(reader.iter_records()) == records
        assert reader.total_instructions == sum(
            r.instruction_count for r in records if isinstance(r, BasicBlockRecord)
        )

    def test_byte_stable_encoding(self, tmp_path):
        records = _mixed_records(700, seed=5)
        write_thread_trace_chunked(tmp_path / "a.trcz", 3, records, chunk_records=128)
        write_thread_trace_chunked(tmp_path / "b.trcz", 3, records, chunk_records=128)
        assert (tmp_path / "a.trcz").read_bytes() == (tmp_path / "b.trcz").read_bytes()

    def test_streaming_write_never_materializes(self, tmp_path):
        # The writer consumes a generator; totals still land in the header.
        def generate():
            for index in range(5000):
                yield BasicBlockRecord(index * 64, 3)

        write_thread_trace_chunked(tmp_path / "t.trcz", 0, generate(), chunk_records=256)
        reader = ChunkedThreadReader(tmp_path / "t.trcz")
        assert reader.record_count == 5000
        assert reader.total_instructions == 15000
        assert reader.chunk_count == 5000 // 256 + 1

    def test_empty_trace(self, tmp_path):
        write_thread_trace_chunked(tmp_path / "t.trcz", 2, [])
        reader = ChunkedThreadReader(tmp_path / "t.trcz")
        assert reader.record_count == 0
        assert reader.chunk_count == 0
        assert list(reader.iter_records()) == []

    def test_lazy_thread_trace_surfaces(self, tmp_path):
        records = _mixed_records(300, seed=9)
        write_thread_trace_chunked(tmp_path / "t.trcz", 1, records, chunk_records=64)
        lazy = LazyThreadTrace(ChunkedThreadReader(tmp_path / "t.trcz"))
        eager = ThreadTrace(thread_id=1, records=records)
        assert len(lazy) == len(eager)
        assert list(lazy) == records
        assert lazy.records[17] == records[17]
        assert lazy.records[-1] == records[-1]
        assert lazy.records[40:130] == records[40:130]
        assert lazy.instruction_count == eager.instruction_count
        assert list(lazy.basic_blocks()) == list(eager.basic_blocks())

    def test_strided_slice_rejected(self, tmp_path):
        write_thread_trace_chunked(tmp_path / "t.trcz", 0, _mixed_records(10))
        lazy = LazyThreadTrace(ChunkedThreadReader(tmp_path / "t.trcz"))
        with pytest.raises(TraceFormatError, match="contiguous"):
            lazy.records[::2]


class TestChunkIndexSeeks:
    """Seek-to-interval through the index == decoding the prefix."""

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2, max_value=19),
        st.integers(min_value=20, max_value=400),
    )
    @settings(max_examples=30)
    def test_record_cut_points(
        self, tmp_path_factory, cut_seed, chunk_records, count
    ):
        records = _mixed_records(count, seed=cut_seed % 1000)
        path = tmp_path_factory.mktemp("seek") / "t.trcz"
        write_thread_trace_chunked(path, 0, records, chunk_records=chunk_records)
        reader = ChunkedThreadReader(path)
        rng = random.Random(cut_seed)
        for _ in range(5):
            start = rng.randrange(count + 1)
            end = rng.randrange(start, count + 1)
            assert list(reader.iter_records(start, end)) == records[start:end]

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2, max_value=19),
    )
    @settings(max_examples=30)
    def test_instruction_cut_points(self, tmp_path_factory, cut_seed, chunk_records):
        records = _mixed_records(250, seed=cut_seed % 997)
        path = tmp_path_factory.mktemp("seekI") / "t.trcz"
        write_thread_trace_chunked(path, 0, records, chunk_records=chunk_records)
        reader = ChunkedThreadReader(path)
        total = reader.total_instructions
        rng = random.Random(~cut_seed)
        targets = [0, 1, total, total + 7] + [
            rng.randrange(total + 1) for _ in range(6) if total
        ]
        for target in targets:
            got = reader.seek_instruction(target)
            # Reference semantics: scan the whole stream from record 0.
            cumulative = 0
            expected = None
            for index, record in enumerate(records):
                if isinstance(record, BasicBlockRecord):
                    if cumulative + record.instruction_count >= target:
                        expected = (index, cumulative)
                        break
                    cumulative += record.instruction_count
            if target <= 0:
                expected = (0, 0)
            if expected is None:
                expected = (len(records), cumulative)
            assert got == expected, f"target={target}"

    def test_seek_skips_prefix_chunks(self, tmp_path):
        records = _mixed_records(4000, seed=11)
        path = tmp_path / "t.trcz"
        write_thread_trace_chunked(path, 0, records, chunk_records=128)
        reader = ChunkedThreadReader(path)
        assert reader.chunk_count > 20
        tail_start = 3500
        assert list(reader.iter_records(tail_start)) == records[tail_start:]
        # The acceptance contract: the prefix was never decoded — the
        # lowest chunk touched is the one holding the interval start.
        assert reader.stats.min_chunk_decoded == tail_start // 128
        assert reader.stats.chunks_decoded == reader.chunk_count - tail_start // 128


class TestCorruptionModes:
    """Every structural defect names the file and the byte offset."""

    def _write(self, tmp_path, count=600, chunk_records=128):
        path = tmp_path / "t.trcz"
        write_thread_trace_chunked(
            path, 0, _mixed_records(count, seed=3), chunk_records=chunk_records
        )
        return path

    def test_too_short(self, tmp_path):
        path = tmp_path / "t.trcz"
        path.write_bytes(b"RITZ")
        with pytest.raises(TraceFormatError, match="shorter than header"):
            ChunkedThreadReader(path)

    def test_bad_magic(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match=r"t\.trcz @ byte 0: bad magic"):
            ChunkedThreadReader(path)

    def test_bad_version(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="version 99"):
            ChunkedThreadReader(path)

    def test_truncated_trailer(self, tmp_path):
        path = self._write(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(TraceFormatError, match="index magic|truncated"):
            ChunkedThreadReader(path)

    def test_index_out_of_bounds(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        index_offset, chunk_count, magic = _Z_TRAILER.unpack(
            bytes(data[-_Z_TRAILER.size :])
        )
        data[-_Z_TRAILER.size :] = _Z_TRAILER.pack(len(data), chunk_count, magic)
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="out of bounds"):
            ChunkedThreadReader(path)

    def test_corrupt_chunk_payload(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        # Flip bytes inside the first chunk's deflate stream (just past
        # the header), leaving header/index/trailer intact.
        for offset in range(_Z_HEADER.size + 4, _Z_HEADER.size + 12):
            data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        reader = ChunkedThreadReader(path)  # opening never decodes chunks
        with pytest.raises(
            TraceFormatError, match=rf"t\.trcz @ byte {_Z_HEADER.size}: chunk 0"
        ):
            list(reader.iter_records())

    def test_trailing_bytes_in_chunk(self, tmp_path):
        # Rebuild chunk 0 with one extra encoded record the index does
        # not account for; offsets of later chunks shift accordingly.
        path = self._write(tmp_path, count=130, chunk_records=128)
        reader = ChunkedThreadReader(path)
        entries = reader._entries
        data = path.read_bytes()
        first = entries[0]
        plain = zlib.decompress(data[first.offset : first.offset + first.length])
        rebuilt = zlib.compress(plain + b"\x04", 6)  # one stray END record
        delta = len(rebuilt) - first.length
        body = bytearray()
        body += data[: first.offset]
        body += rebuilt
        body += data[first.offset + first.length : reader._data_end]
        index_offset = reader._data_end + delta
        from repro.trace.chunked import _Z_ENTRY

        body += _Z_ENTRY.pack(
            first.offset, len(rebuilt), first.first_record, first.instructions_before
        )
        for entry in entries[1:]:
            body += _Z_ENTRY.pack(
                entry.offset + delta,
                entry.length,
                entry.first_record,
                entry.instructions_before,
            )
        body += _Z_TRAILER.pack(index_offset, len(entries), b"ZIDX")
        path.write_bytes(bytes(body))
        fresh = ChunkedThreadReader(path)
        with pytest.raises(TraceFormatError, match="trailing bytes"):
            list(fresh.iter_records(0, 10))

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="nowhere"):
            ChunkedThreadReader(tmp_path / "nowhere.trcz")


class TestResidency:
    """Decoded-record residency stays O(chunk), not O(trace)."""

    def test_lru_bounds_resident_records(self, tmp_path):
        path = tmp_path / "t.trcz"
        write_thread_trace_chunked(
            path, 0, _mixed_records(3000, seed=21), chunk_records=100
        )
        reader = ChunkedThreadReader(path)
        for _ in reader.iter_records():
            pass
        assert reader.stats.chunks_decoded == reader.chunk_count
        assert reader.stats.max_resident_records <= 2 * 100

    def test_sequential_walk_decodes_each_chunk_once(self, tmp_path):
        path = tmp_path / "t.trcz"
        write_thread_trace_chunked(
            path, 0, _mixed_records(1000, seed=22), chunk_records=64
        )
        reader = ChunkedThreadReader(path)
        list(reader.iter_records())
        assert reader.stats.chunks_decoded == reader.chunk_count

    def test_memory_bound_interval_run(self, tmp_path):
        """A big streamed trace walked end-to-end stays O(chunk) in RAM.

        Reduced-scale stand-in for a multi-hundred-MB capture: the
        writer consumes a generator (the full record list never
        exists), then a full walk plus an interval slice run under
        tracemalloc must peak far below the materialized-trace
        footprint (~tens of MB for this record count).
        """
        chunk_records = 1024
        total_records = 120_000
        path = tmp_path / "big.trcz"

        def generate():
            rng = random.Random(7)
            for index in range(total_records):
                if index % 50 == 49:
                    yield SyncRecord(SyncKind.BARRIER, 0)
                else:
                    yield BasicBlockRecord(
                        rng.randrange(2**30),
                        rng.randrange(1, 30),
                        BranchOutcome(BranchKind.CONDITIONAL, True, 0)
                        if index % 3 == 0
                        else None,
                    )

        with ChunkedTraceWriter(path, 0, chunk_records=chunk_records) as writer:
            writer.extend(generate())

        reader = ChunkedThreadReader(path)
        assert reader.record_count == total_records
        tracemalloc.start()
        count = sum(1 for _ in reader.iter_records())  # full streamed walk
        window = reader.iter_records(100_000, 103_000)  # interval materialization
        interval = list(window)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == total_records
        assert len(interval) == 3000
        # Live decoded records never exceeded the LRU bound...
        assert reader.stats.max_resident_records <= 2 * chunk_records
        # ...and the traced peak is a small multiple of one chunk, not
        # the ~20+ MB a materialized 120k-record list costs. 6 MB gives
        # the interval list + two cached chunks generous headroom.
        assert peak < 6 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB is not O(chunk)"


class TestStreamedTraceSet:
    def test_open_trace_set_streams_and_matches(self, tmp_path):
        threads = [
            ThreadTrace(0, _mixed_records(400, seed=31)),
            ThreadTrace(1, _mixed_records(300, seed=32)),
        ]
        original = TraceSet(benchmark="demo", threads=threads)
        write_trace_set(original, tmp_path / "set", chunk_records=64)
        streamed = open_trace_set(tmp_path / "set")
        assert streamed.benchmark == "demo"
        assert streamed.thread_count == 2
        assert streamed.instruction_count == original.instruction_count
        for mine, theirs in zip(original.threads, streamed.threads):
            assert isinstance(theirs, LazyThreadTrace)
            assert list(theirs) == list(mine)
        materialized = streamed.materialize()
        assert [t.records for t in materialized.threads] == [
            t.records for t in original.threads
        ]
