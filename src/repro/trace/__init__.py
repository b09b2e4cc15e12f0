"""Trace data model, codecs, streams, validation and synthesis.

The trace layer reproduces the paper's Pin-based methodology (Figure 6):
one record stream per thread containing basic blocks with branch outcomes,
OpenMP synchronisation events, and per-section IPC values.
"""

from repro.trace.records import (
    INSTRUCTION_BYTES,
    BasicBlockRecord,
    BranchKind,
    BranchOutcome,
    EndRecord,
    IpcRecord,
    SyncKind,
    SyncRecord,
    TraceRecord,
)
from repro.trace.stream import ThreadTrace, TraceSet, TraceStream
from repro.trace.encoding import (
    format_thread_trace,
    open_trace_set,
    parse_thread_trace,
    read_trace_set,
    write_trace_set,
)
from repro.trace.chunked import (
    ChunkedThreadReader,
    ChunkedTraceWriter,
    LazyThreadTrace,
    StreamedTraceSet,
)
from repro.trace.fingerprint import trace_fingerprint
from repro.trace.provider import (
    SynthesisProvider,
    TraceDirectoryProvider,
    TraceProvider,
    capture_trace_set,
    provider_for,
)
from repro.trace.validation import TraceReport, validate_thread_trace, validate_trace_set

__all__ = [
    "INSTRUCTION_BYTES",
    "BasicBlockRecord",
    "BranchKind",
    "BranchOutcome",
    "EndRecord",
    "IpcRecord",
    "SyncKind",
    "SyncRecord",
    "TraceRecord",
    "ThreadTrace",
    "TraceSet",
    "TraceStream",
    "ChunkedThreadReader",
    "ChunkedTraceWriter",
    "LazyThreadTrace",
    "StreamedTraceSet",
    "SynthesisProvider",
    "TraceDirectoryProvider",
    "TraceProvider",
    "capture_trace_set",
    "format_thread_trace",
    "open_trace_set",
    "parse_thread_trace",
    "provider_for",
    "read_trace_set",
    "trace_fingerprint",
    "write_trace_set",
    "TraceReport",
    "validate_thread_trace",
    "validate_trace_set",
]
