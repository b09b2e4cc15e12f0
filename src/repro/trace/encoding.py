"""On-disk trace codecs.

A trace set is one file per thread plus a ``manifest.txt``, mirroring
the paper's per-thread trace files (Figure 6), in one of two encodings:

* the streamed, chunked binary format (``.trcz``,
  :mod:`repro.trace.chunked`), which every capture writes; its records
  use the byte encoding :func:`encode_record` / :func:`decode_record`
  define here; and
* a human-readable text format (``.trct``) convenient for debugging and
  for inspecting what the PinTool-equivalent synthesiser produced.

Both round-trip exactly (verified by property-based tests).
"""

from __future__ import annotations

import hashlib
import io
import struct
from pathlib import Path

from repro.errors import TraceFormatError
from repro.trace.records import (
    BasicBlockRecord,
    BranchKind,
    BranchOutcome,
    EndRecord,
    IpcRecord,
    SyncKind,
    SyncRecord,
    TraceRecord,
)
from repro.trace.stream import ThreadTrace, TraceSet

# Record tags in the binary stream.
_TAG_BLOCK_NO_BRANCH = 0
_TAG_BLOCK_BRANCH = 1
_TAG_SYNC = 2
_TAG_IPC = 3
_TAG_END = 4

_BLOCK = struct.Struct("<QI")  # address, instruction_count
_BRANCH = struct.Struct("<BBQ")  # kind, taken, target
_SYNC = struct.Struct("<BI")  # kind, object_id
_IPC = struct.Struct("<d")  # ipc

#: Enum members by stored value: a dict lookup costs a fraction of the
#: Enum call, and decode runs once per record of every streamed trace.
_BRANCH_KINDS = {kind.value: kind for kind in BranchKind}
_SYNC_KINDS = {kind.value: kind for kind in SyncKind}


def _encode_record(buffer: io.BytesIO, record: TraceRecord) -> None:
    if isinstance(record, BasicBlockRecord):
        if record.branch is None:
            buffer.write(bytes([_TAG_BLOCK_NO_BRANCH]))
            buffer.write(_BLOCK.pack(record.address, record.instruction_count))
        else:
            buffer.write(bytes([_TAG_BLOCK_BRANCH]))
            buffer.write(_BLOCK.pack(record.address, record.instruction_count))
            buffer.write(
                _BRANCH.pack(
                    int(record.branch.kind),
                    int(record.branch.taken),
                    record.branch.target,
                )
            )
    elif isinstance(record, SyncRecord):
        buffer.write(bytes([_TAG_SYNC]))
        buffer.write(_SYNC.pack(int(record.kind), record.object_id))
    elif isinstance(record, IpcRecord):
        buffer.write(bytes([_TAG_IPC]))
        buffer.write(_IPC.pack(record.ipc))
    elif isinstance(record, EndRecord):
        buffer.write(bytes([_TAG_END]))
    else:  # pragma: no cover - exhaustive union
        raise TraceFormatError(f"cannot encode record of type {type(record).__name__}")


def _decode_record(data: bytes, offset: int) -> tuple[TraceRecord, int]:
    try:
        tag = data[offset]
    except IndexError as exc:
        raise TraceFormatError("truncated trace: missing record tag") from exc
    offset += 1
    try:
        if tag == _TAG_BLOCK_NO_BRANCH:
            address, count = _BLOCK.unpack_from(data, offset)
            return BasicBlockRecord(address, count), offset + _BLOCK.size
        if tag == _TAG_BLOCK_BRANCH:
            address, count = _BLOCK.unpack_from(data, offset)
            offset += _BLOCK.size
            kind, taken, target = _BRANCH.unpack_from(data, offset)
            branch = BranchOutcome(_BRANCH_KINDS[kind], bool(taken), target)
            return BasicBlockRecord(address, count, branch), offset + _BRANCH.size
        if tag == _TAG_SYNC:
            kind, object_id = _SYNC.unpack_from(data, offset)
            return SyncRecord(_SYNC_KINDS[kind], object_id), offset + _SYNC.size
        if tag == _TAG_IPC:
            (ipc,) = _IPC.unpack_from(data, offset)
            return IpcRecord(ipc), offset + _IPC.size
        if tag == _TAG_END:
            return EndRecord(), offset
    except struct.error as exc:
        raise TraceFormatError("truncated trace record") from exc
    except KeyError as exc:
        raise TraceFormatError(f"invalid record kind {exc}") from exc
    except ValueError as exc:
        raise TraceFormatError(f"invalid record field: {exc}") from exc
    raise TraceFormatError(f"unknown record tag {tag}")


# The chunked codec's record-level encoding: a ``.trcz`` chunk is a
# deflate-compressed run of exactly these byte sequences.
encode_record = _encode_record
decode_record = _decode_record


#: The metadata keys every manifest carries ahead of its file list.
_MANIFEST_KEYS = ("benchmark", "threads", "format", "fingerprint")
_SET_FORMATS = ("trcz", "trct")


def write_trace_set(
    trace_set: TraceSet,
    directory: str | Path,
    *,
    fmt: str = "trcz",
    chunk_records: int | None = None,
) -> str:
    """Write one trace file per thread plus a ``manifest.txt``.

    Mirrors the paper's "trace per thread / core" layout (Figure 6) in
    the streamed chunked format, or in the text format with
    ``fmt="trct"``. The set's content fingerprint is computed in the
    same pass as the encode — streaming sources are written and
    digested without materialising — recorded in the manifest, and
    returned.
    """
    from repro.trace.chunked import DEFAULT_CHUNK_RECORDS, ChunkedTraceWriter
    from repro.trace.fingerprint import thread_digest_parts, trace_fingerprint

    if fmt not in _SET_FORMATS:
        raise TraceFormatError(
            f"unknown trace set format {fmt!r}, expected one of {_SET_FORMATS}"
        )
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    file_names: list[str] = []
    if fmt == "trcz":
        cached = getattr(trace_set, "_warm_fingerprint", None)
        if cached is None:
            digest = hashlib.sha256()
            digest.update(
                f"{trace_set.benchmark}|{trace_set.thread_count}\n".encode()
            )
        for trace in trace_set.threads:
            file_name = f"thread_{trace.thread_id:03d}.trcz"
            with ChunkedTraceWriter(
                path / file_name,
                trace.thread_id,
                chunk_records=chunk_records or DEFAULT_CHUNK_RECORDS,
            ) as writer:
                if cached is not None:
                    writer.extend(trace.records)
                else:
                    # One pass: each record is encoded into the chunk
                    # buffer and folded into the set digest as it goes by.
                    def _tee(records, _writer=writer):
                        for record in records:
                            _writer.append(record)
                            yield record

                    for part in thread_digest_parts(_tee(trace.records)):
                        digest.update(part.encode())
                        digest.update(b"\n")
            file_names.append(file_name)
        fingerprint = cached if cached is not None else digest.hexdigest()[:16]
        try:
            trace_set._warm_fingerprint = fingerprint
        except AttributeError:
            pass
    else:
        fingerprint = trace_fingerprint(trace_set)
        for trace in trace_set.threads:
            file_name = f"thread_{trace.thread_id:03d}.trct"
            (path / file_name).write_text(format_thread_trace(trace))
            file_names.append(file_name)
    manifest = [
        f"benchmark {trace_set.benchmark}",
        f"threads {trace_set.thread_count}",
        f"format {fmt}",
        f"fingerprint {fingerprint}",
        *file_names,
    ]
    (path / "manifest.txt").write_text("\n".join(manifest) + "\n")
    return fingerprint


def _parse_manifest(path: Path) -> tuple[str, int, str, str, list[str]]:
    """Parse ``manifest.txt`` -> (benchmark, threads, fmt, fingerprint, files).

    Every :data:`_MANIFEST_KEYS` entry must be present; any line after
    them that is not a ``key value`` metadata line is a file name.
    """
    manifest_path = path / "manifest.txt"
    if not manifest_path.exists():
        raise TraceFormatError(f"no manifest.txt in {path}")
    meta: dict[str, str] = {}
    file_names: list[str] = []
    for line in manifest_path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        if not file_names and value and key in _MANIFEST_KEYS:
            meta[key] = value
        else:
            file_names.append(line)
    missing = [key for key in _MANIFEST_KEYS if key not in meta]
    if missing:
        raise TraceFormatError(
            f"malformed manifest in {path}: no {', '.join(missing)}"
        )
    try:
        thread_count = int(meta["threads"])
    except ValueError as exc:
        raise TraceFormatError(f"malformed thread count in {manifest_path}") from exc
    if len(file_names) != thread_count:
        raise TraceFormatError(
            f"manifest lists {len(file_names)} files for {thread_count} threads"
        )
    fmt = meta["format"]
    if fmt not in _SET_FORMATS:
        raise TraceFormatError(f"unknown trace set format {fmt!r} in {manifest_path}")
    return meta["benchmark"], thread_count, fmt, meta["fingerprint"], file_names


def read_trace_set(directory: str | Path) -> TraceSet:
    """Eagerly read a trace set written by :func:`write_trace_set`.

    Materialises every thread in memory regardless of on-disk format;
    for large ``.trcz`` corpora use :func:`open_trace_set` instead.
    """
    from repro.trace.chunked import ChunkedThreadReader, LazyThreadTrace

    path = Path(directory)
    benchmark, _, fmt, fingerprint, file_names = _parse_manifest(path)
    threads: list[ThreadTrace] = []
    for file_name in file_names:
        if fmt == "trct":
            threads.append(parse_thread_trace((path / file_name).read_text()))
        else:
            reader = ChunkedThreadReader(path / file_name)
            threads.append(LazyThreadTrace(reader).materialize())
    trace_set = TraceSet(benchmark=benchmark, threads=threads)
    trace_set._warm_fingerprint = fingerprint
    return trace_set


def open_trace_set(directory: str | Path) -> TraceSet:
    """Open a trace set, streaming when the format allows it.

    ``.trcz`` sets come back as a
    :class:`~repro.trace.chunked.StreamedTraceSet` of lazy file-backed
    threads (O(chunk) residency); text sets fall back to
    :func:`read_trace_set`. Both carry the manifest fingerprint, so
    checkpoint keys match runs made from the in-memory original.
    """
    from repro.trace.chunked import (
        ChunkedThreadReader,
        LazyThreadTrace,
        StreamedTraceSet,
    )

    path = Path(directory)
    benchmark, _, fmt, fingerprint, file_names = _parse_manifest(path)
    if fmt != "trcz":
        return read_trace_set(path)
    threads = [
        LazyThreadTrace(ChunkedThreadReader(path / file_name))
        for file_name in file_names
    ]
    return StreamedTraceSet(
        benchmark, threads, directory=path, fingerprint=fingerprint
    )


def format_thread_trace(trace: ThreadTrace) -> str:
    """Render one thread trace in the human-readable text format."""
    lines = [f"# thread {trace.thread_id}"]
    for record in trace.records:
        if isinstance(record, BasicBlockRecord):
            if record.branch is None:
                lines.append(f"B {record.address:#x} {record.instruction_count}")
            else:
                branch = record.branch
                lines.append(
                    f"B {record.address:#x} {record.instruction_count} "
                    f"{branch.kind.name} {'T' if branch.taken else 'N'} {branch.target:#x}"
                )
        elif isinstance(record, SyncRecord):
            lines.append(f"S {record.kind.name} {record.object_id}")
        elif isinstance(record, IpcRecord):
            lines.append(f"I {record.ipc}")
        elif isinstance(record, EndRecord):
            lines.append("E")
    return "\n".join(lines) + "\n"


def parse_thread_trace(text: str) -> ThreadTrace:
    """Parse the text format produced by :func:`format_thread_trace`."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("# thread "):
        raise TraceFormatError("text trace must start with '# thread <id>'")
    try:
        thread_id = int(lines[0].removeprefix("# thread "))
    except ValueError as exc:
        raise TraceFormatError("malformed thread id") from exc
    records: list[TraceRecord] = []
    for line_number, line in enumerate(lines[1:], start=2):
        records.append(_parse_text_record(line, line_number))
    return ThreadTrace(thread_id=thread_id, records=records)


def _parse_text_record(line: str, line_number: int) -> TraceRecord:
    fields = line.split()
    kind = fields[0]
    try:
        if kind == "B" and len(fields) == 3:
            return BasicBlockRecord(int(fields[1], 0), int(fields[2]))
        if kind == "B" and len(fields) == 6:
            branch = BranchOutcome(
                BranchKind[fields[3]], fields[4] == "T", int(fields[5], 0)
            )
            return BasicBlockRecord(int(fields[1], 0), int(fields[2]), branch)
        if kind == "S" and len(fields) == 3:
            return SyncRecord(SyncKind[fields[1]], int(fields[2]))
        if kind == "I" and len(fields) == 2:
            return IpcRecord(float(fields[1]))
        if kind == "E" and len(fields) == 1:
            return EndRecord()
    except (KeyError, ValueError) as exc:
        raise TraceFormatError(f"line {line_number}: invalid record '{line}'") from exc
    raise TraceFormatError(f"line {line_number}: unrecognised record '{line}'")
