"""Streamed, chunked on-disk traces (``.trcz``).

Billion-instruction captures cannot be materialised a whole thread at
a time on either end. This format holds a thread's records (the byte
encoding of :func:`repro.trace.encoding.encode_record`),
deflate-compressed in fixed-size record chunks, followed by a footer
*chunk index* carrying each chunk's file offset, first record index and
cumulative instruction count — so a reader can seek to any record or
instruction position without decoding the prefix.

File layout (one file per thread)::

    header   <4sHHIQQ>   magic "RITZ", version, thread_id,
                         chunk_records, record_count, total_instructions
    chunk 0  zlib-compressed concatenation of record encodings
    chunk 1  ...
    index    per chunk <QQQQ>: data offset, compressed length,
                               first record index, instructions before
    trailer  <QQ4s>      index offset, chunk count, magic "ZIDX"

The trailer sits at a fixed distance from EOF, so opening a trace reads
the trailer, the index and the header — never the chunks.
:class:`ChunkedTraceWriter` streams records in (a capture hook or a
converter never holds more than one chunk); :class:`ChunkedThreadReader`
streams them out through a tiny decoded-chunk LRU, and
:class:`LazyThreadTrace` / :class:`StreamedTraceSet` dress that reader
in the exact :class:`~repro.trace.stream.ThreadTrace` /
:class:`~repro.trace.stream.TraceSet` surfaces the slicer, the warmers
and both engines consume — iteration, ``len``, span slicing and O(1)
``instruction_count``.

Every structural defect (truncated file, foreign magic, index out of
bounds, corrupt deflate stream, trailing bytes inside a chunk) surfaces
as :class:`~repro.errors.TraceFormatError` naming the file and byte
offset, never as a silent short read.
"""

from __future__ import annotations

import io
import struct
import zlib
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.errors import TraceFormatError
from repro.trace.records import BasicBlockRecord, TraceRecord
from repro.trace.stream import ThreadTrace, TraceSet

__all__ = [
    "ChunkedThreadReader",
    "ChunkedTraceWriter",
    "LazyThreadTrace",
    "StreamedTraceSet",
    "write_thread_trace_chunked",
]

_Z_MAGIC = b"RITZ"
_Z_INDEX_MAGIC = b"ZIDX"
_Z_VERSION = 1

#: Records per compressed chunk. Decoded residency, seek granularity
#: and compression ratio all follow from this; a few thousand records
#: keeps a decoded chunk in the hundreds of KB.
DEFAULT_CHUNK_RECORDS = 4096

#: Decoded chunks a reader keeps alive at once. Two slots cover the
#: common access pair (sequential walk + one random probe) while
#: bounding resident records at ``2 * chunk_records``.
_CACHE_CHUNKS = 2

_Z_HEADER = struct.Struct("<4sHHIQQ")
_Z_ENTRY = struct.Struct("<QQQQ")
_Z_TRAILER = struct.Struct("<QQ4s")

# The shared record codec (tag + payload structs) lives in encoding.py;
# imported lazily at module bottom to keep the import cycle trivial.


def _corrupt(path: Path, offset: int, detail: str) -> TraceFormatError:
    return TraceFormatError(f"{path} @ byte {offset}: {detail}")


@dataclass(frozen=True)
class _ChunkEntry:
    """One chunk-index row (decoded form)."""

    offset: int  # file offset of the compressed payload
    length: int  # compressed payload length in bytes
    first_record: int  # index of the chunk's first record
    instructions_before: int  # dynamic instructions before the chunk


class ChunkedTraceWriter:
    """Streams one thread's records into a ``.trcz`` file.

    Never holds more than one chunk of encoded records, so a capture
    hook can persist traces far larger than memory. ``close()`` (or the
    context manager exit) seals the file: flushes the tail chunk,
    writes the index and trailer, and back-patches the header's record
    and instruction totals.
    """

    def __init__(
        self,
        path: str | Path,
        thread_id: int,
        *,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
        compresslevel: int = 6,
    ) -> None:
        if chunk_records < 1:
            raise TraceFormatError(
                f"chunk_records must be >= 1, got {chunk_records}"
            )
        self.path = Path(path)
        self.thread_id = thread_id
        self.chunk_records = chunk_records
        self._compresslevel = compresslevel
        self._file = open(self.path, "wb")
        self._file.write(
            _Z_HEADER.pack(_Z_MAGIC, _Z_VERSION, thread_id, chunk_records, 0, 0)
        )
        self._entries: list[_ChunkEntry] = []
        self._buffer = io.BytesIO()
        self._buffered = 0
        self._records = 0
        self._instructions = 0
        self._closed = False

    def __enter__(self) -> "ChunkedTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        if exc_info[0] is None:
            self.close()
        else:  # don't seal a half-written file as valid
            self._file.close()
            self._closed = True

    def append(self, record: TraceRecord) -> None:
        """Encode one record into the current chunk."""
        encode_record(self._buffer, record)
        self._buffered += 1
        self._records += 1
        if isinstance(record, BasicBlockRecord):
            self._instructions += record.instruction_count
        if self._buffered >= self.chunk_records:
            self._flush_chunk()

    def extend(self, records) -> None:
        for record in records:
            self.append(record)

    def _flush_chunk(self) -> None:
        if self._buffered == 0:
            return
        payload = zlib.compress(self._buffer.getvalue(), self._compresslevel)
        self._entries.append(
            _ChunkEntry(
                offset=self._file.tell(),
                length=len(payload),
                first_record=self._records - self._buffered,
                instructions_before=self._instructions_at_chunk_start,
            )
        )
        self._file.write(payload)
        self._buffer = io.BytesIO()
        self._buffered = 0
        self._instructions_at_chunk_start = self._instructions

    #: Instructions emitted before the chunk currently being buffered.
    _instructions_at_chunk_start = 0

    def close(self) -> None:
        """Seal the file (idempotent)."""
        if self._closed:
            return
        self._flush_chunk()
        index_offset = self._file.tell()
        for entry in self._entries:
            self._file.write(
                _Z_ENTRY.pack(
                    entry.offset,
                    entry.length,
                    entry.first_record,
                    entry.instructions_before,
                )
            )
        self._file.write(
            _Z_TRAILER.pack(index_offset, len(self._entries), _Z_INDEX_MAGIC)
        )
        self._file.seek(0)
        self._file.write(
            _Z_HEADER.pack(
                _Z_MAGIC,
                _Z_VERSION,
                self.thread_id,
                self.chunk_records,
                self._records,
                self._instructions,
            )
        )
        self._file.close()
        self._closed = True


def write_thread_trace_chunked(
    path: str | Path,
    thread_id: int,
    records,
    *,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> None:
    """Write any iterable of records as one chunked thread file."""
    with ChunkedTraceWriter(
        path, thread_id, chunk_records=chunk_records
    ) as writer:
        writer.extend(records)


@dataclass
class ReaderStats:
    """Observability counters proving the O(chunk) residency contract."""

    chunks_decoded: int = 0
    #: Largest number of decoded records alive in the cache at once.
    max_resident_records: int = 0
    #: Smallest chunk ordinal ever decoded since the last reset.
    min_chunk_decoded: int | None = None


class ChunkedThreadReader:
    """Random/streamed access to one ``.trcz`` file via its chunk index.

    Opening reads only the trailer, index and header. Record access
    decodes whole chunks on demand through an LRU of
    ``cache_chunks`` decoded chunks, so resident decoded records stay
    O(chunk) no matter how much of the trace is walked.
    """

    def __init__(
        self, path: str | Path, *, cache_chunks: int = _CACHE_CHUNKS
    ) -> None:
        self.path = Path(path)
        self.stats = ReaderStats()
        self._cache: OrderedDict[int, list[TraceRecord]] = OrderedDict()
        self._cache_chunks = max(1, cache_chunks)
        try:
            size = self.path.stat().st_size
        except OSError as exc:
            raise TraceFormatError(f"{self.path}: {exc}") from exc
        if size < _Z_HEADER.size + _Z_TRAILER.size:
            raise _corrupt(
                self.path, size, "file shorter than header + trailer"
            )
        with open(self.path, "rb") as handle:
            header = handle.read(_Z_HEADER.size)
            magic, version, thread_id, chunk_records, records, instructions = (
                _Z_HEADER.unpack(header)
            )
            if magic != _Z_MAGIC:
                raise _corrupt(
                    self.path, 0, f"bad magic {magic!r}, expected {_Z_MAGIC!r}"
                )
            if version != _Z_VERSION:
                raise _corrupt(
                    self.path, 0, f"unsupported trace version {version}"
                )
            self.thread_id = thread_id
            self.chunk_records = chunk_records
            self.record_count = records
            self.total_instructions = instructions
            handle.seek(size - _Z_TRAILER.size)
            index_offset, chunk_count, index_magic = _Z_TRAILER.unpack(
                handle.read(_Z_TRAILER.size)
            )
            if index_magic != _Z_INDEX_MAGIC:
                raise _corrupt(
                    self.path,
                    size - _Z_TRAILER.size,
                    f"bad index magic {index_magic!r} (truncated file?)",
                )
            index_bytes = chunk_count * _Z_ENTRY.size
            if (
                index_offset < _Z_HEADER.size
                or index_offset + index_bytes + _Z_TRAILER.size > size
            ):
                raise _corrupt(
                    self.path,
                    index_offset,
                    f"chunk index ({chunk_count} entries) out of bounds",
                )
            handle.seek(index_offset)
            raw_index = handle.read(index_bytes)
            if len(raw_index) != index_bytes:
                raise _corrupt(self.path, index_offset, "truncated chunk index")
        self._entries = [
            _ChunkEntry(*_Z_ENTRY.unpack_from(raw_index, position))
            for position in range(0, index_bytes, _Z_ENTRY.size)
        ]
        self._data_end = index_offset
        for ordinal, entry in enumerate(self._entries):
            if entry.offset + entry.length > self._data_end:
                raise _corrupt(
                    self.path,
                    entry.offset,
                    f"chunk {ordinal} overruns the index region",
                )
        #: Per-chunk first-record / instructions-before arrays with an
        #: end sentinel, for bisect-based seeks.
        self._first_records = [e.first_record for e in self._entries]
        self._first_records.append(self.record_count)
        self._instruction_marks = [e.instructions_before for e in self._entries]
        self._instruction_marks.append(self.total_instructions)
        if self._entries and self._entries[0].first_record != 0:
            raise _corrupt(
                self.path, 0, "chunk index does not start at record 0"
            )
        if not self._entries and self.record_count:
            raise _corrupt(
                self.path, 0, f"{self.record_count} records but no chunks"
            )

    @property
    def chunk_count(self) -> int:
        return len(self._entries)

    def chunk_table(self) -> list[dict]:
        """The decoded index, one row per chunk (CLI ``index`` output)."""
        return [
            {
                "chunk": ordinal,
                "offset": entry.offset,
                "compressed_bytes": entry.length,
                "first_record": entry.first_record,
                "records": self._first_records[ordinal + 1]
                - entry.first_record,
                "instructions_before": entry.instructions_before,
                "instructions": self._instruction_marks[ordinal + 1]
                - entry.instructions_before,
            }
            for ordinal, entry in enumerate(self._entries)
        ]

    # -- chunk decode ------------------------------------------------------

    def _chunk(self, ordinal: int) -> list[TraceRecord]:
        cached = self._cache.get(ordinal)
        if cached is not None:
            self._cache.move_to_end(ordinal)
            return cached
        entry = self._entries[ordinal]
        with open(self.path, "rb") as handle:
            handle.seek(entry.offset)
            payload = handle.read(entry.length)
        if len(payload) != entry.length:
            raise _corrupt(
                self.path,
                entry.offset,
                f"chunk {ordinal} truncated "
                f"({len(payload)} of {entry.length} bytes)",
            )
        try:
            data = zlib.decompress(payload)
        except zlib.error as exc:
            raise _corrupt(
                self.path, entry.offset, f"chunk {ordinal} corrupt: {exc}"
            ) from exc
        expected = self._first_records[ordinal + 1] - entry.first_record
        records: list[TraceRecord] = []
        offset = 0
        try:
            for _ in range(expected):
                record, offset = decode_record(data, offset)
                records.append(record)
        except TraceFormatError as exc:
            raise _corrupt(
                self.path,
                entry.offset,
                f"chunk {ordinal}, record "
                f"{entry.first_record + len(records)}: {exc}",
            ) from exc
        if offset != len(data):
            raise _corrupt(
                self.path,
                entry.offset,
                f"chunk {ordinal} has {len(data) - offset} trailing bytes "
                f"after {expected} records",
            )
        self._cache[ordinal] = records
        stats = self.stats
        stats.chunks_decoded += 1
        if stats.min_chunk_decoded is None or ordinal < stats.min_chunk_decoded:
            stats.min_chunk_decoded = ordinal
        while len(self._cache) > self._cache_chunks:
            self._cache.popitem(last=False)
        resident = sum(len(chunk) for chunk in self._cache.values())
        if resident > stats.max_resident_records:
            stats.max_resident_records = resident
        return records

    def _chunk_for_record(self, index: int) -> int:
        return bisect_right(self._first_records, index, hi=self.chunk_count) - 1

    # -- record access -----------------------------------------------------

    def record(self, index: int) -> TraceRecord:
        if not 0 <= index < self.record_count:
            raise IndexError(index)
        ordinal = self._chunk_for_record(index)
        chunk = self._chunk(ordinal)
        return chunk[index - self._entries[ordinal].first_record]

    def iter_records(self, start: int = 0, end: int | None = None):
        """Yield records ``[start, end)``, decoding chunk by chunk.

        Seeks straight to the chunk containing ``start`` via the index;
        the prefix is never decoded.
        """
        end = self.record_count if end is None else min(end, self.record_count)
        if start >= end:
            return
        ordinal = self._chunk_for_record(start)
        position = start
        while position < end:
            first = self._entries[ordinal].first_record
            chunk = self._chunk(ordinal)
            stop = min(end - first, len(chunk))
            yield from chunk[position - first : stop]
            position = first + stop
            ordinal += 1

    def seek_instruction(self, target: int) -> tuple[int, int]:
        """Locate the instruction position ``target`` via the index.

        Returns ``(record_index, instructions_before)`` — the index of
        the first record at which the cumulative instruction count
        reaches or exceeds ``target``, and the cumulative count strictly
        before that record — decoding only the one chunk the index maps
        the position into (plus successors while a chunk boundary falls
        inside a block). Equivalent to scanning the whole prefix, which
        the property tests assert for random cut points.
        """
        if target <= 0:
            return 0, 0
        if target > self.total_instructions:
            return self.record_count, self.total_instructions
        ordinal = (
            bisect_right(self._instruction_marks, target - 1, hi=self.chunk_count)
            - 1
        )
        ordinal = max(0, ordinal)
        position = self._entries[ordinal].first_record
        cumulative = self._entries[ordinal].instructions_before
        for record in self.iter_records(position):
            if isinstance(record, BasicBlockRecord):
                if cumulative + record.instruction_count >= target:
                    return position, cumulative
                cumulative += record.instruction_count
            position += 1
        return position, cumulative


class _LazyRecords:
    """Sequence view over a :class:`ChunkedThreadReader`.

    Supports exactly the access patterns the simulator stack uses on a
    records list — ``len``, iteration, integer indexing and
    contiguous ``[start:end]`` slices (which materialise only the
    covered chunks) — while never holding more than the reader's cache.
    """

    __slots__ = ("_reader",)

    def __init__(self, reader: ChunkedThreadReader) -> None:
        self._reader = reader

    def __len__(self) -> int:
        return self._reader.record_count

    def __iter__(self):
        return self._reader.iter_records()

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(self._reader.record_count)
            if step != 1:
                raise TraceFormatError(
                    "streamed traces support only contiguous slices"
                )
            return list(self._reader.iter_records(start, stop))
        if item < 0:
            item += self._reader.record_count
        return self._reader.record(item)


class LazyThreadTrace(ThreadTrace):
    """A :class:`ThreadTrace` whose records stream from a ``.trcz`` file.

    Drop-in for the in-memory class everywhere the simulator stack
    touches traces: ``records`` is a lazy sequence (len / iterate /
    index / span-slice), ``instruction_count`` comes from the header in
    O(1), and the region iterators inherited from
    :class:`~repro.trace.stream.ThreadTrace` walk chunk by chunk.
    """

    def __init__(self, reader: ChunkedThreadReader) -> None:
        super().__init__(
            thread_id=reader.thread_id, records=_LazyRecords(reader)
        )
        self.reader = reader

    @property
    def instruction_count(self) -> int:
        return self.reader.total_instructions

    def materialize(self) -> ThreadTrace:
        """An eager in-memory copy of the thread."""
        return ThreadTrace(
            thread_id=self.thread_id, records=list(self.records)
        )


class StreamedTraceSet(TraceSet):
    """A :class:`TraceSet` of :class:`LazyThreadTrace` threads.

    Carries the directory it was opened from and the manifest's content
    fingerprint — pre-seeding the memo
    :func:`repro.trace.fingerprint.trace_fingerprint` consults, so
    checkpoint keys match the in-memory set the files were captured
    from without a decoding pass.
    """

    def __init__(
        self,
        benchmark: str,
        threads: list[LazyThreadTrace],
        *,
        directory: str | Path,
        fingerprint: str,
    ) -> None:
        super().__init__(benchmark=benchmark, threads=threads)
        self.directory = Path(directory)
        self._warm_fingerprint = fingerprint

    @property
    def instruction_count(self) -> int:
        return sum(trace.reader.total_instructions for trace in self.threads)

    def materialize(self) -> TraceSet:
        """An eager in-memory copy of the whole set."""
        return TraceSet(
            benchmark=self.benchmark,
            threads=[trace.materialize() for trace in self.threads],
        )


# Shared record codec, imported last: encoding.py imports the container
# classes above, so a top-of-module import would be circular.
from repro.trace.encoding import decode_record, encode_record  # noqa: E402
