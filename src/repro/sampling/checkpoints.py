"""Persistent warm-state checkpoints for sampled simulation.

Functional warming dominates sampled-run cost, and without persistence
every design point of a campaign re-walks the same trace prefix from
cold. This module amortizes that cost across whole campaigns: a
:class:`CheckpointStore` living beside the campaign's ``ResultStore``
persists the warm state entering every measurement interval, keyed by
everything the state is actually a function of —

* the trace prefix: ``(benchmark, threads, seed, scale)`` plus a
  content fingerprint of the synthesized records (stale traces can
  never masquerade as fresh ones), and the sampling plan + interval
  ordinal that select the prefix boundary;
* the structural *shape* of the warm structures
  (:func:`repro.machine.system.warm_shape_digest`) — and nothing else.
  Warm state is independent of timing parameters, so a whole timing
  sweep (bus counts, latencies, arbitration policies) shares one set of
  checkpoints per trace prefix;
* the machine model and the ``warm_l2`` mode (a pre-filled L2 is part
  of the functional state).

Layout::

    <root>/
      <machine>/
        <benchmark>/
          seed<seed>__scale<scale>__t<threads>/
            <trace-fingerprint>/
              <plan>__<warm|cold>__<shape>/
                detail<k>.json      # state entering detail interval k

Unlike the ``ResultStore``, the checkpoint store is a pure cache:
``get`` answers ``None`` for anything it cannot fully verify (corrupt
JSON, mismatched identity fields), never an error — the caller warms
from the trace instead, and a later ``put`` self-heals the entry.
Writes use the same mkstemp-then-rename discipline as
``ResultStore.put``, so concurrent shard hosts can share one tree.

Payloads hold a *sparse* encoding of :class:`WarmState`
(:func:`encode_state` / :func:`decode_state`): the dense tables are
dominated by default values (weakly-taken gshare counters, invalid
cache ways), and storing only the non-default cells keeps a snapshot
around a hundred KB instead of megabytes. A fig07 + fig10 sweep under
the ``fast`` preset writes ~113 KB per entry (6.8 MB for 60 entries);
the two L2 LRU order lists alone take ~41 KB of a 129 KB entry. A
payload whose cells fall outside its own tables fails to decode (a
:class:`~repro.errors.ConfigurationError`), never restores as
wrapped-around state.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.campaign.store import _UMASK, _format_scale, _sanitize
from repro.errors import ConfigurationError
from repro.machine.warm import WarmState
from repro.obs.recorder import metrics_registry as _active_metrics

__all__ = [
    "CheckpointKey",
    "CheckpointStore",
    "Checkpointing",
    "decode_state",
    "encode_state",
    "trace_fingerprint",
]

#: gshare counters initialize to 2 (weakly taken); every other value is
#: a non-default cell worth storing.
_NON_DEFAULT_COUNTER = re.compile(rb"[^\x02]")


# -- trace fingerprints ----------------------------------------------------

# The digest moved to the trace layer so the on-disk codec can stamp
# manifests without importing sampling; re-exported here because every
# existing checkpoint-key call site imports it from this module.
from repro.trace.fingerprint import trace_fingerprint  # noqa: E402, F401


# -- sparse warm-state codec -----------------------------------------------


def _encode_gshare(state: dict) -> dict:
    counters = state["counters"]  # a bytearray: the regex scans it as is
    return {
        "entries": len(counters),
        "history": state["history"],
        "counters": [
            [match.start(), counters[match.start()]]
            for match in _NON_DEFAULT_COUNTER.finditer(counters)
        ],
    }


def _out_of_range(what: str, value, size: int) -> ConfigurationError:
    return ConfigurationError(
        f"checkpoint {what} {value!r} outside [0, {size})"
    )


def _decode_gshare(payload: dict) -> dict:
    entries = int(payload["entries"])
    history = int(payload["history"])
    if not 0 <= history < entries:
        raise _out_of_range("gshare history", history, entries)
    counters = bytearray(b"\x02") * entries
    for index, value in payload["counters"]:
        if not 0 <= index < entries:
            raise _out_of_range("gshare index", index, entries)
        if not 0 <= value <= 3:
            raise _out_of_range("gshare counter", value, 4)
        counters[index] = value
    return {"counters": counters, "history": history}


def _encode_loop(state: dict) -> dict:
    tags = state["tags"]
    trips = state["trips"]
    currents = state["currents"]
    confidences = state["confidences"]
    return {
        "entries": len(tags),
        "rows": [
            [index, tags[index], trips[index], currents[index],
             confidences[index]]
            for index in range(len(tags))
            if tags[index] != -1
        ],
    }


def _decode_loop(payload: dict) -> dict:
    entries = int(payload["entries"])
    tags = [-1] * entries
    trips = [0] * entries
    currents = [0] * entries
    confidences = [0] * entries
    for index, tag, trip, current, confidence in payload["rows"]:
        if not 0 <= index < entries:
            raise _out_of_range("loop-predictor index", index, entries)
        tags[index] = tag
        trips[index] = trip
        currents[index] = current
        confidences[index] = confidence
    return {
        "tags": tags,
        "trips": trips,
        "currents": currents,
        "confidences": confidences,
    }


def _encode_btb(state: dict) -> dict:
    tags = state["tags"]
    targets = state["targets"]
    return {
        "entries": len(tags),
        "rows": [
            [index, tags[index], targets[index]]
            for index in range(len(tags))
            if tags[index] != -1
        ],
    }


def _decode_btb(payload: dict) -> dict:
    entries = int(payload["entries"])
    tags = [-1] * entries
    targets = [0] * entries
    for index, tag, target in payload["rows"]:
        if not 0 <= index < entries:
            raise _out_of_range("BTB index", index, entries)
        tags[index] = tag
        targets[index] = target
    return {"tags": tags, "targets": targets}


def _encode_policy(state) -> dict:
    if state is None:
        return {"kind": "none"}
    if all(isinstance(entry, int) for entry in state):
        # FIFO-style dense int vector.
        return {"kind": "dense", "data": list(state)}
    # LRU/PLRU-style per-set lists (None marks an untouched set).
    return {
        "kind": "sparse",
        "sets": len(state),
        "data": [
            [index, list(entry)]
            for index, entry in enumerate(state)
            if entry is not None
        ],
    }


#: The values a tree-PLRU bit may hold.
_PLRU_BITS = frozenset((0, 1))


def _damaged_policy(what: str, value, ways: int) -> ConfigurationError:
    return ConfigurationError(
        f"checkpoint replacement {what} {value!r} invalid for {ways} ways"
    )


def _decode_policy(payload: dict, ways: int):
    """Replacement state, checked against the cache's ``ways``.

    A damaged order would otherwise surface mid-run (an LRU row that is
    not a permutation fails its first ``remove``) or silently pick
    impossible victims, so every row is checked here, with one C-level
    comparison each: a dense FIFO pointer must lie in ``[0, ways)``; a
    sparse row holds ``ways`` entries for LRU (a permutation of
    ``range(ways)``) or ``ways - 1`` for PLRU (bits 0/1).
    """
    kind = payload["kind"]
    if kind == "none":
        return None
    if kind == "dense":
        pointers = list(payload["data"])
        if pointers and not (min(pointers) >= 0 and max(pointers) < ways):
            raise _damaged_policy("FIFO pointers", pointers, ways)
        return pointers
    sets = int(payload["sets"])
    every_way = set(range(ways))
    order: list[list[int] | None] = [None] * sets
    for index, entry in payload["data"]:
        if not 0 <= index < sets:
            raise _out_of_range("replacement-order set", index, sets)
        row = list(entry)
        if len(row) == ways:
            if set(row) != every_way:
                raise _damaged_policy("LRU order", row, ways)
        elif len(row) != ways - 1:
            raise _damaged_policy("row", row, ways)
        elif not _PLRU_BITS.issuperset(row):
            raise _damaged_policy("PLRU bits", row, ways)
        order[index] = row
    return order


def _encode_cache(state: dict) -> dict:
    tags = state["tags"]
    return {
        "sets": len(tags),
        "ways": len(tags[0]) if tags else 0,
        "lines": [
            [set_index, way, line]
            for set_index, row in enumerate(tags)
            for way, line in enumerate(row)
            if line is not None
        ],
        "policy": _encode_policy(state["policy"]),
        "seen": sorted(state["seen"]),
    }


def _decode_cache(payload: dict) -> dict:
    sets = int(payload["sets"])
    ways = int(payload["ways"])
    tags: list[list[int | None]] = [[None] * ways for _ in range(sets)]
    for set_index, way, line in payload["lines"]:
        if not 0 <= set_index < sets:
            raise _out_of_range("cache set", set_index, sets)
        if not 0 <= way < ways:
            raise _out_of_range("cache way", way, ways)
        tags[set_index][way] = line
    return {
        "tags": tags,
        "policy": _decode_policy(payload["policy"], ways),
        "seen": set(payload["seen"]),
    }


def _encode_line_buffers(state: dict) -> dict:
    return {
        "clock": state["clock"],
        "entries": [list(entry) for entry in state["entries"]],
    }


def _encode_itlb(state: dict) -> dict:
    return {
        "clock": state["clock"],
        "pages": [list(page) for page in state["pages"]],
        "seen": sorted(state["seen"]),
    }


def _decode_itlb(payload: dict) -> dict:
    return {
        "clock": int(payload["clock"]),
        "pages": [list(page) for page in payload["pages"]],
        "seen": set(payload["seen"]),
    }


def encode_state(state: WarmState) -> dict:
    """Sparse, JSON-ready encoding of a :class:`WarmState`.

    A pure read: the snapshot (and any system sharing its storage) is
    untouched, so the sampled simulator encodes mid-run without copying
    the dense tables first.
    """
    return {
        "machine": state.machine,
        "config_label": state.config_label,
        "shape": state.shape,
        "cores": [
            {
                "line_buffers": _encode_line_buffers(core["line_buffers"]),
                "predictor": core["predictor"],
                "itlb": core["itlb"],
            }
            for core in state.cores
        ],
        "predictors": [
            {
                "direction": _encode_gshare(predictor["direction"]),
                "loop": _encode_loop(predictor["loop"]),
                "btb": _encode_btb(predictor["btb"]),
            }
            for predictor in state.predictors
        ],
        "itlbs": [_encode_itlb(itlb) for itlb in state.itlbs],
        "groups": [
            {
                "icache": _encode_cache(group["icache"]),
                "l2": _encode_cache(group["l2"]),
            }
            for group in state.groups
        ],
    }


def decode_state(payload: dict) -> WarmState:
    """Rebuild a :class:`WarmState` with fresh dense storage.

    The inverse of :func:`encode_state`; every decode owns independent
    tables, so restoring the result never couples two systems. Raises
    :class:`~repro.errors.ConfigurationError` on a damaged payload:
    missing fields, wrong types, a cell outside its table (an index
    outside ``[0, entries)``/``[0, sets)``/``[0, ways)``, a gshare
    counter outside 0..3 or history outside ``[0, entries)``), or
    replacement state no policy could hold (see :func:`_decode_policy`).
    """
    try:
        return WarmState(
            machine=payload["machine"],
            config_label=payload["config_label"],
            shape=payload.get("shape", ""),
            cores=[
                {
                    "line_buffers": _encode_line_buffers(
                        core["line_buffers"]
                    ),
                    "predictor": core["predictor"],
                    "itlb": core["itlb"],
                }
                for core in payload["cores"]
            ],
            predictors=[
                {
                    "direction": _decode_gshare(predictor["direction"]),
                    "loop": _decode_loop(predictor["loop"]),
                    "btb": _decode_btb(predictor["btb"]),
                }
                for predictor in payload["predictors"]
            ],
            itlbs=[_decode_itlb(itlb) for itlb in payload["itlbs"]],
            groups=[
                {
                    "icache": _decode_cache(group["icache"]),
                    "l2": _decode_cache(group["l2"]),
                }
                for group in payload["groups"]
            ],
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigurationError(
            f"malformed checkpoint payload: {exc}"
        ) from exc


# -- the on-disk store -----------------------------------------------------


@dataclass(frozen=True)
class CheckpointKey:
    """Everything the warm state entering an interval is a function of."""

    machine: str
    benchmark: str
    seed: int
    scale: float
    threads: int
    fingerprint: str
    plan: str
    warm_l2: bool
    shape: str

    def directory(self) -> Path:
        mode = "warm" if self.warm_l2 else "cold"
        return (
            Path(_sanitize(self.machine))
            / _sanitize(self.benchmark)
            / (
                f"seed{self.seed}__scale{_format_scale(self.scale)}"
                f"__t{self.threads}"
            )
            / _sanitize(self.fingerprint)
            / f"{_sanitize(self.plan)}__{mode}__{_sanitize(self.shape)}"
        )

    def header(self) -> dict:
        return {
            "machine": self.machine,
            "benchmark": self.benchmark,
            "seed": self.seed,
            "scale": self.scale,
            "threads": self.threads,
            "fingerprint": self.fingerprint,
            "plan": self.plan,
            "warm_l2": self.warm_l2,
            "shape": self.shape,
        }


class CheckpointStore:
    """Directory-backed store of per-interval warm-state checkpoints.

    A pure cache over re-derivable state: reads verify the full identity
    header and answer ``None`` on any mismatch or corruption (the caller
    re-warms and re-puts), so a damaged tree degrades to cold warming,
    never to wrong results.
    """

    #: Subdirectory name used when co-locating with a ``ResultStore``.
    SUBDIR = "checkpoints"

    #: Parsed payloads kept in memory (a campaign worker re-reads the
    #: same checkpoints for every design point of a timing sweep).
    _CACHE_LIMIT = 64

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._parsed: dict[Path, tuple[tuple[int, int], dict]] = {}
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ConfigurationError(
                f"checkpoint store root {self.root} is not a usable "
                f"directory: {exc}"
            ) from exc

    def path_for(self, key: CheckpointKey, detail_index: int) -> Path:
        return self.root / key.directory() / f"detail{detail_index}.json"

    def _read(self, path: Path) -> dict | None:
        """Parse one checkpoint file, memoising by (mtime, size).

        JSON parsing dominates a checkpoint-hit run; the memo hands the
        same parsed payload back for every design point sharing the
        entry. Returned payloads are therefore shared and must be
        treated read-only — :func:`decode_state` builds fresh storage
        and never mutates its input.
        """
        try:
            stat = path.stat()
        except OSError:
            self._parsed.pop(path, None)
            return None
        stamp = (stat.st_mtime_ns, stat.st_size)
        cached = self._parsed.get(path)
        if cached is not None and cached[0] == stamp:
            return cached[1]
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        if len(self._parsed) >= self._CACHE_LIMIT:
            self._parsed.clear()
        self._parsed[path] = (stamp, payload)
        return payload

    def get(self, key: CheckpointKey, detail_index: int) -> dict | None:
        """The encoded warm state entering detail interval
        ``detail_index``, or ``None`` when absent or unverifiable.

        The payload is shared with the store's in-memory parse memo:
        treat it as read-only.
        """
        registry = _active_metrics()
        if registry is None:
            return self._get(key, detail_index)
        started = time.perf_counter()
        state = self._get(key, detail_index)
        registry.histogram("store.checkpoint.get_s").observe(
            time.perf_counter() - started
        )
        registry.counter(
            "store.checkpoint.requests",
            outcome="hit" if state is not None else "miss",
        ).inc()
        return state

    def _get(self, key: CheckpointKey, detail_index: int) -> dict | None:
        path = self.path_for(key, detail_index)
        payload = self._read(path)
        if payload is None:
            return None
        header = key.header()
        stored = payload.get("key")
        if not isinstance(stored, dict):
            return None
        for field_name, expected in header.items():
            if stored.get(field_name) != expected:
                return None
        if payload.get("detail") != detail_index:
            return None
        state = payload.get("state")
        return state if isinstance(state, dict) else None

    def put(
        self,
        key: CheckpointKey,
        detail_index: int,
        state: dict,
        config_label: str = "",
    ) -> Path:
        """Persist one encoded warm state; returns the written path.

        Same write discipline as ``ResultStore.put``: a uniquely-named
        tmp file in the final directory, atomically renamed, so
        concurrent writers (shard hosts warming the same prefix) cannot
        interleave half-written payloads.
        """
        registry = _active_metrics()
        started = time.perf_counter() if registry is not None else 0.0
        path = self.path_for(key, detail_index)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key.header(),
            "detail": detail_index,
            "config_label": config_label,
            "state": state,
        }
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.stem + ".", suffix=".tmp", dir=path.parent
        )
        tmp = Path(tmp_name)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload) + "\n")
            os.chmod(tmp, 0o666 & ~_UMASK)
            tmp.replace(path)  # atomic within one filesystem
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        try:
            stat = path.stat()
            if len(self._parsed) >= self._CACHE_LIMIT:
                self._parsed.clear()
            self._parsed[path] = ((stat.st_mtime_ns, stat.st_size), payload)
        except OSError:  # pragma: no cover - a concurrent gc raced us
            pass
        if registry is not None:
            registry.histogram("store.checkpoint.put_s").observe(
                time.perf_counter() - started
            )
        return path

    # -- maintenance -------------------------------------------------------

    def entry_paths(self) -> list[Path]:
        return sorted(self.root.glob("*/*/*/*/*/detail*.json"))

    def __len__(self) -> int:
        return len(self.entry_paths())

    def total_bytes(self) -> int:
        total = 0
        for path in self.entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def gc(self, dry_run: bool = False) -> list[Path]:
        """Drop checkpoints that can no longer be served.

        A checkpoint is collectable when its payload is not valid JSON,
        its identity header no longer parses (unknown machine model,
        unparseable plan spec), or its trace fingerprint is stale — the
        synthesizer for its ``(benchmark, threads, seed, scale)`` now
        produces different records, so the stored state describes a
        trace that no longer exists. Fingerprints are re-derived once
        per distinct trace identity; identities whose synthesis fails
        (retired benchmark names) are collected too. Returns the victim
        paths; ``dry_run`` only reports them. Empty key directories
        left behind are pruned as well.
        """
        from repro.machine.model import model_names
        from repro.sampling.plan import resolve_plan
        from repro.trace.synthesis import synthesize_benchmark

        known_machines = set(model_names())
        current: dict[tuple, str | None] = {}

        def current_fingerprint(identity: tuple) -> str | None:
            if identity not in current:
                benchmark, threads, seed, scale = identity
                try:
                    traces = synthesize_benchmark(
                        benchmark,
                        thread_count=threads,
                        scale=scale,
                        seed=seed,
                    )
                    current[identity] = trace_fingerprint(traces)
                except Exception:
                    current[identity] = None
            return current[identity]

        victims: list[Path] = []
        for path in self.entry_paths():
            try:
                payload = json.loads(path.read_text())
                header = payload["key"]
                machine = str(header["machine"])
                benchmark = str(header["benchmark"])
                seed = int(header["seed"])
                scale = float(header["scale"])
                threads = int(header["threads"])
                fingerprint = str(header["fingerprint"])
                plan = str(header["plan"])
            except (OSError, json.JSONDecodeError, KeyError, TypeError,
                    ValueError):
                victims.append(path)
                continue
            parseable = machine in known_machines
            if parseable:
                try:
                    resolve_plan(plan)
                except ConfigurationError:
                    parseable = False
            if not parseable:
                victims.append(path)
                continue
            expected = current_fingerprint((benchmark, threads, seed, scale))
            if expected is None or expected != fingerprint:
                victims.append(path)
        if not dry_run:
            for path in victims:
                path.unlink(missing_ok=True)
            # Prune now-empty key directories bottom-up.
            directories = sorted(
                (p for p in self.root.rglob("*") if p.is_dir()),
                key=lambda p: len(p.parts),
                reverse=True,
            )
            for directory in directories:
                try:
                    directory.rmdir()  # fails (kept) unless empty
                except OSError:
                    pass
        return victims


@dataclass(frozen=True)
class Checkpointing:
    """Checkpoint policy for one sampled run.

    Attributes:
        store: the checkpoint tree to read/write.
        seed: trace synthesis seed of the run (a key component the
            trace set itself does not carry).
        scale: trace scale of the run (same reason).
        refresh: when True, ignore existing entries (every interval
            warms from the trace) but still write fresh ones — the
            ``--checkpoints refresh`` recovery mode.
    """

    store: CheckpointStore
    seed: int = 0
    scale: float = 1.0
    refresh: bool = False
