"""Ring-buffered span events exported as Chrome-trace / Perfetto JSON.

The tracer records two clock domains as two Chrome-trace "processes":

* ``pid 1`` — the **simulated clock**: timestamps are cycle numbers used
  directly as microsecond ticks, so spans are exact, deterministic and
  bit-identical across engines. Kernel naps, clock jumps and replay
  windows live here, one track (tid) per component.
* ``pid 2`` — the **host wall clock**: microseconds since the tracer was
  created. Warming, interval materialisation, measurement, store I/O and
  campaign run lifecycle live here.

Events are kept in a bounded ring (default 65536) so tracing a long run
degrades to "most recent window" instead of unbounded memory; the number
of dropped events is reported in the export's ``otherData``.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path

from repro.errors import ObsError

SIM_PID = 1
WALL_PID = 2
DEFAULT_CAPACITY = 65536

_PROCESS_NAMES = {
    SIM_PID: "simulation (cycles as µs)",
    WALL_PID: "host (wall clock)",
}


class TimelineTracer:
    """Collects Chrome-trace events into a bounded ring buffer."""

    __slots__ = (
        "_events",
        "_thread_names",
        "dropped",
        "cycle_offset",
        "_wall_epoch",
    )

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ObsError(f"timeline capacity must be positive, got {capacity}")
        self._events: deque[dict] = deque(maxlen=capacity)
        self._thread_names: dict[tuple[int, int], str] = {}
        self.dropped = 0
        # Successive simulator runs all start their clocks at cycle 0;
        # callers bump this so runs lay out end-to-end on the sim track.
        self.cycle_offset = 0
        self._wall_epoch = time.perf_counter()

    # -- recording ------------------------------------------------------

    def _append(self, event: dict) -> None:
        if len(self._events) == self._events.maxlen:
            self.dropped += 1
        self._events.append(event)

    def complete(
        self,
        name: str,
        *,
        cat: str,
        ts: int | float,
        dur: int | float,
        pid: int = SIM_PID,
        tid: int = 0,
        args: dict | None = None,
    ) -> None:
        """Record a complete span (Chrome-trace ``ph="X"``)."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": ts,
            "dur": dur,
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self._append(event)

    def instant(
        self,
        name: str,
        *,
        cat: str,
        ts: int | float,
        pid: int = SIM_PID,
        tid: int = 0,
        args: dict | None = None,
    ) -> None:
        """Record an instant event (Chrome-trace ``ph="i"``)."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "ts": ts,
            "s": "t",
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self._append(event)

    def wall_ts(self) -> float:
        """Microseconds since the tracer was created (wall domain)."""
        return (time.perf_counter() - self._wall_epoch) * 1e6

    def wall_span(self, name: str, *, cat: str, started_ts: float,
                  tid: int = 0, args: dict | None = None) -> None:
        """Record a wall-domain span that began at ``started_ts``
        (a prior :meth:`wall_ts` reading) and ends now."""
        now = self.wall_ts()
        self.complete(
            name,
            cat=cat,
            ts=started_ts,
            dur=max(0.0, now - started_ts),
            pid=WALL_PID,
            tid=tid,
            args=args,
        )

    def set_thread_name(self, pid: int, tid: int, name: str) -> None:
        self._thread_names[(pid, tid)] = name

    def __len__(self) -> int:
        return len(self._events)

    # -- export ---------------------------------------------------------

    def chrome_trace(self, metadata: dict | None = None) -> dict:
        """Assemble the Chrome-trace JSON object (Perfetto-loadable)."""
        events: list[dict] = []
        for pid in sorted(_PROCESS_NAMES):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": _PROCESS_NAMES[pid]},
                }
            )
        for (pid, tid), name in sorted(self._thread_names.items()):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        events.extend(self._events)
        other = {"dropped_events": self.dropped}
        if metadata:
            other.update(metadata)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {k: str(v) for k, v in sorted(other.items())},
        }


def validate_chrome_trace(payload: object) -> None:
    """Check a trace object against the Perfetto-compatible subset we
    emit. Raises :class:`ObsError` on the first violation."""
    if not isinstance(payload, dict):
        raise ObsError(f"trace payload must be an object, got {type(payload)}")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ObsError("trace payload is missing the traceEvents list")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            raise ObsError(f"{where}: events must be objects")
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            raise ObsError(f"{where}: unsupported phase {ph!r}")
        name = event.get("name")
        if not isinstance(name, str) or not name:
            raise ObsError(f"{where}: missing event name")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                raise ObsError(f"{where}: {field} must be an int")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            raise ObsError(f"{where}: args must be an object")
        if ph == "M":
            if name not in ("process_name", "thread_name"):
                raise ObsError(f"{where}: unknown metadata event {name!r}")
            if not isinstance((args or {}).get("name"), str):
                raise ObsError(f"{where}: metadata needs args.name")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ObsError(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ObsError(f"{where}: dur must be a non-negative number")
        if ph == "i" and event.get("s", "t") not in ("t", "p", "g"):
            raise ObsError(f"{where}: instant scope must be t, p or g")


def dump_chrome_trace(payload: dict, path: str | Path) -> Path:
    """Validate and write a trace payload as deterministic JSON."""
    validate_chrome_trace(payload)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path
