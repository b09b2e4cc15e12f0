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

Payloads hold a *packed* encoding of :class:`WarmState`
(:func:`encode_state` / :func:`decode_state`), tagged
``"layout": "packed-1"``. Each dense table is one packed table: its
elements little-endian under a layout tag (``u8``, ``u16`` or
``i64``), zlib-compressed and base64-encoded, with its element count
beside it, so ``json.dumps``/``json.loads`` handle a few strings per
structure instead of ~10^4 small lists:

* gshare counters: their raw bytes (``u8``, one per counter);
* loop predictor and BTB: one ``i64`` table per column;
* cache tags: a fill count per set (``u8``, ``u16`` past 255 ways)
  and the filled sets' lines (``i64``) in set order — rows fill from
  their first way, so a count is a row's length;
* replacement state, named by its policy (``lru``/``plru``/``fifo``/
  ``random``): LRU a touched flag per set plus the touched sets'
  recency orders, PLRU ``ways - 1`` tree bits per set, FIFO one
  next-victim index per set — way indices one byte each, two past 255
  ways;
* seen lines and pages: sorted ``i64`` arrays.

Line buffers and iTLB translations (a handful of pairs) stay JSON
lists. On the fig07 + fig10 sweep under the ``fast`` preset (UA and CG
at scale 0.5) a 9-group baseline entry shrinks from 342 KB in the
sparse-list layout earlier stores wrote to 56 KB, and the whole tree
from 6.7 MB to 2.0 MB. Decoding checks every table against its
declaration (layout tag, element count, a declared size the stream's
length can reach, a zlib stream that is whole and inflates to exactly
that size — never past it) and every value against what its structure
can hold; any failure is a
:class:`~repro.errors.ConfigurationError`, which the sampled simulator
treats as a miss, never restores as wrong state.
"""

from __future__ import annotations

import base64
import json
import os
import struct
import tempfile
import time
import zlib
from dataclasses import dataclass
from itertools import chain, compress
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

# -- trace fingerprints ----------------------------------------------------

# The digest moved to the trace layer so the on-disk codec can stamp
# manifests without importing sampling; re-exported here because every
# existing checkpoint-key call site imports it from this module.
from repro.trace.fingerprint import trace_fingerprint  # noqa: E402, F401


# -- packed warm-state codec -----------------------------------------------

#: Layout tag of an encoded state. A state without it (the sparse lists
#: earlier stores wrote) or with another tag fails to decode, so a stale
#: entry is a miss that the next put rewrites.
STATE_LAYOUT = "packed-1"

#: Element layouts of a packed table: the little-endian ``struct`` code
#: of one element.
_FORMATS = {"u8": "B", "u16": "H", "i64": "q"}

#: zlib level of every packed table: the fastest to compress and to
#: inflate. The tables are long runs (weakly-taken counters, invalid BTB
#: and loop entries), which level 1 already shrinks ~25x (a 9-group
#: baseline entry's 1.0 MB of tables to 37 KB of base64 text).
_ZLIB_LEVEL = 1

#: Deflate codes at most 258 bytes in two bits, so no zlib stream
#: inflates past 1032 times its length: a table declaring more is
#: damaged, whatever its stream holds.
_MAX_INFLATION = 1032

#: Way indices pack in at most two bytes, so no encodable cache has
#: more ways.
_MAX_WAYS = 0xFFFF

#: The byte values a gshare counter and a tree-PLRU bit or touched-set
#: flag may hold; ``translate(None, values)`` leaves what is left over.
_COUNTER_VALUES = bytes(range(4))
_BIT_VALUES = bytes(range(2))


def _damaged(what: str, detail: str) -> ConfigurationError:
    return ConfigurationError(f"checkpoint {what}: {detail}")


def _out_of_range(what: str, value, size: int) -> ConfigurationError:
    return ConfigurationError(
        f"checkpoint {what} {value!r} outside [0, {size})"
    )


def _damaged_policy(what: str, value, ways: int) -> ConfigurationError:
    return ConfigurationError(
        f"checkpoint replacement {what} {value!r} invalid for {ways} ways"
    )


def _pack(layout: str, values) -> dict:
    """One dense table: ``values`` as little-endian ``layout`` elements,
    zlib-compressed and base64-encoded, under its layout tag and
    element count."""
    if layout == "u8":
        raw = bytes(values)
    else:
        values = list(values)
        raw = struct.pack(f"<{len(values)}{_FORMATS[layout]}", *values)
    return {
        "layout": layout,
        "count": len(raw) // struct.calcsize(_FORMATS[layout]),
        "data": base64.b64encode(
            zlib.compress(raw, _ZLIB_LEVEL)
        ).decode("ascii"),
    }


def _unpack(table: dict, layout: str, count: int | None, what: str):
    """The elements of a packed table, checked against its declaration:
    ``bytes`` for a ``u8`` table, a fresh list of ints otherwise.

    ``count`` is the element count the enclosing structure implies
    (``None`` for a table that sizes itself, like a seen set). A
    declared size no stream of the given length can reach is rejected
    before inflating, and the stream is inflated to at most its
    declared size plus one byte, so a stream that would inflate past it
    is rejected without inflating the rest.
    """
    tag = table["layout"]
    if tag not in _FORMATS:
        raise _damaged(what, f"unknown layout tag {tag!r}")
    if tag != layout:
        raise _damaged(what, f"layout {tag!r}, expected {layout!r}")
    declared = table["count"]
    if type(declared) is not int or declared < 0 or (
        count is not None and declared != count
    ):
        raise _damaged(what, f"declares {declared!r} elements, not {count}")
    width = struct.calcsize(_FORMATS[tag])
    size = declared * width
    try:
        packed = base64.b64decode(table["data"], validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise _damaged(what, f"text is not base64 ({exc})") from exc
    if size > _MAX_INFLATION * len(packed):
        raise _damaged(
            what, f"declares {size} bytes, more than {len(packed)} "
            "bytes of zlib stream can inflate to",
        )
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(packed, size + 1)
    except zlib.error as exc:
        raise _damaged(what, f"corrupt zlib stream ({exc})") from exc
    if len(raw) > size:
        raise _damaged(what, f"inflates past its declared {size} bytes")
    if not inflater.eof:
        raise _damaged(what, "truncated zlib stream")
    if inflater.unused_data:
        raise _damaged(what, "bytes after the zlib stream")
    if len(raw) != size:
        raise _damaged(what, f"inflates to {len(raw)} of {size} bytes")
    if tag == "u8":
        return raw
    return list(struct.unpack(f"<{declared}{_FORMATS[tag]}", raw))


def _dimension(payload: dict, name: str, what: str) -> int:
    value = payload[name]
    if type(value) is not int or value < 1:
        raise _damaged(what, f"{name} {value!r} is not a positive count")
    return value


def _way_layout(ways: int) -> str:
    """One byte per way index, two past 255 ways."""
    return "u8" if ways <= 255 else "u16"


def _encode_gshare(state: dict) -> dict:
    counters = state["counters"]  # a bytearray: packed as is
    return {
        "entries": len(counters),
        "history": state["history"],
        "counters": _pack("u8", counters),
    }


def _decode_gshare(payload: dict) -> dict:
    entries = _dimension(payload, "entries", "gshare")
    counters = _unpack(payload["counters"], "u8", entries, "gshare counters")
    stray = counters.translate(None, _COUNTER_VALUES)
    if stray:
        raise _out_of_range("gshare counter", stray[0], 4)
    history = int(payload["history"])
    if not 0 <= history < entries:
        raise _out_of_range("gshare history", history, entries)
    return {"counters": bytearray(counters), "history": history}


#: The flat, equal-length tables of the loop predictor and the BTB.
_LOOP_COLUMNS = ("tags", "trips", "currents", "confidences")
_BTB_COLUMNS = ("tags", "targets")


def _encode_columns(state: dict, columns: tuple[str, ...]) -> dict:
    encoded = {"entries": len(state[columns[0]])}
    for name in columns:
        encoded[name] = _pack("i64", state[name])
    return encoded


def _decode_columns(payload: dict, columns: tuple[str, ...], what: str):
    entries = _dimension(payload, "entries", what)
    return {
        name: _unpack(payload[name], "i64", entries, f"{what} {name}")
        for name in columns
    }


def _decode_loop(payload: dict) -> dict:
    return _decode_columns(payload, _LOOP_COLUMNS, "loop predictor")


def _decode_btb(payload: dict) -> dict:
    return _decode_columns(payload, _BTB_COLUMNS, "BTB")


def _encode_policy(name: str, state, sets: int, ways: int) -> dict:
    """Replacement state under its policy's name.

    LRU: a touched flag per set (an untouched set holds no order list)
    and the touched sets' recency orders in set order, ``ways`` indices
    each; PLRU: ``ways - 1`` tree bits per set; FIFO: one next-victim
    index per set; any other policy (random) holds no warm state.
    """
    if name == "lru":
        return {
            "policy": name,
            "touched": _pack("u8", map(state.__contains__, range(sets))),
            "rows": _pack(
                _way_layout(ways),
                list(chain.from_iterable(map(state.__getitem__, sorted(state)))),
            ),
        }
    if name == "plru":
        return {"policy": name, "rows": _pack("u8", chain.from_iterable(state))}
    if name == "fifo":
        return {"policy": name, "pointers": _pack(_way_layout(ways), state)}
    return {"policy": name}


def _decode_policy(payload: dict, sets: int, ways: int):
    """Replacement state, checked against the policy the record names.

    An LRU row must be a permutation of ``range(ways)`` (one C-level
    comparison per touched set), a PLRU row ``ways - 1`` bits of 0/1
    and a FIFO pointer below ``ways``; a damaged order would otherwise
    surface mid-run (an LRU row that is not a permutation fails its
    first ``remove``) or silently pick impossible victims. LRU state
    decodes to a dict of the touched sets' orders.
    """
    name = payload["policy"]
    if name == "lru":
        touched = _unpack(
            payload["touched"], "u8", sets, "replacement touched sets"
        )
        stray = touched.translate(None, _BIT_VALUES)
        if stray:
            raise _damaged_policy("touched flag", stray[0], ways)
        layout = _way_layout(ways)
        flat = _unpack(
            payload["rows"], layout, touched.count(1) * ways,
            "replacement LRU rows",
        )
        # A row of ``ways`` indices is a permutation of range(ways)
        # when deleting its values from range(ways) leaves nothing: one
        # C-level translate per touched set (a set compare past 255).
        identity = bytes(range(ways)) if layout == "u8" else set(range(ways))
        order: dict[int, list[int]] = {}
        start = 0
        for index in compress(range(sets), touched):
            row = flat[start:start + ways]
            if (
                identity.translate(None, row) if layout == "u8"
                else identity.difference(row)
            ):
                raise _damaged_policy("LRU order", list(row), ways)
            order[index] = list(row)
            start += ways
        return order
    if name == "plru":
        width = ways - 1
        bits = _unpack(
            payload["rows"], "u8", sets * width, "replacement PLRU rows"
        )
        stray = bits.translate(None, _BIT_VALUES)
        if stray:
            raise _damaged_policy("PLRU bit", stray[0], ways)
        return [
            list(bits[index * width:(index + 1) * width])
            for index in range(sets)
        ]
    if name == "fifo":
        pointers = _unpack(
            payload["pointers"], _way_layout(ways), sets,
            "replacement FIFO pointers",
        )
        if max(pointers) >= ways:
            raise _damaged_policy("FIFO pointer", max(pointers), ways)
        return list(pointers)
    if name == "random":
        return None
    raise _damaged("replacement", f"unknown policy {name!r}")


def _encode_lines(tags: dict[int, list[int]], sets: int, ways: int) -> dict:
    """The filled sets' rows as a fill count per set plus the valid
    lines, in set order."""
    counts = [0] * sets
    for index, row in tags.items():
        counts[index] = len(row)
    return {
        "filled": _pack(_way_layout(ways), counts),
        "lines": _pack(
            "i64", chain.from_iterable(map(tags.__getitem__, sorted(tags)))
        ),
    }


def _decode_lines(payload: dict, sets: int, ways: int) -> dict:
    """A row per filled set; nothing is allocated for an empty one, so
    the declared geometry costs only its fill-count table."""
    counts = _unpack(
        payload["filled"], _way_layout(ways), sets, "cache fill counts"
    )
    if max(counts) > ways:
        raise _damaged("cache fill counts", f"{max(counts)} of {ways} ways")
    lines = _unpack(payload["lines"], "i64", sum(counts), "cache lines")
    tags: dict[int, list[int]] = {}
    start = 0
    for index in compress(range(sets), counts):
        end = start + counts[index]
        tags[index] = lines[start:end]
        start = end
    return tags


def _encode_cache(state: dict) -> dict:
    sets, ways = state["sets"], state["ways"]
    return {
        "sets": sets,
        "ways": ways,
        **_encode_lines(state["tags"], sets, ways),
        "replacement": _encode_policy(
            state["replacement"], state["policy"], sets, ways
        ),
        "seen": _pack("i64", sorted(state["seen"])),
    }


def _decode_cache(payload: dict) -> dict:
    sets = _dimension(payload, "sets", "cache")
    ways = _dimension(payload, "ways", "cache")
    if ways > _MAX_WAYS:
        raise _damaged("cache", f"{ways} ways, past a two-byte way index")
    replacement = payload["replacement"]
    return {
        "sets": sets,
        "ways": ways,
        "tags": _decode_lines(payload, sets, ways),
        "replacement": replacement["policy"],
        "policy": _decode_policy(replacement, sets, ways),
        "seen": set(_unpack(payload["seen"], "i64", None, "seen lines")),
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
        "seen": _pack("i64", sorted(state["seen"])),
    }


def _decode_itlb(payload: dict) -> dict:
    return {
        "clock": int(payload["clock"]),
        "pages": [list(page) for page in payload["pages"]],
        "seen": set(_unpack(payload["seen"], "i64", None, "seen pages")),
    }


def encode_state(state: WarmState) -> dict:
    """Packed, JSON-ready encoding of a :class:`WarmState`.

    A pure read: the snapshot (and any system sharing its storage) is
    untouched, so the sampled simulator encodes a live warming machine
    without copying its tables first. Deterministic: equal states encode
    to equal payloads, so a rewritten entry is byte-identical.
    """
    return {
        "layout": STATE_LAYOUT,
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
                "loop": _encode_columns(predictor["loop"], _LOOP_COLUMNS),
                "btb": _encode_columns(predictor["btb"], _BTB_COLUMNS),
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
    """Rebuild a :class:`WarmState` with fresh storage.

    The inverse of :func:`encode_state` (``encode_state(decode_state(p))
    == p`` for every payload the encoder wrote); every decode owns
    independent tables, so restoring the result never couples two
    systems. Cache rows and LRU orders are built for the filled and
    touched sets only: a declared geometry costs its per-set count and
    flag tables, never a ``sets × ways`` array. Raises
    :class:`~repro.errors.ConfigurationError` on a damaged payload: a
    layout other than :data:`STATE_LAYOUT`, missing fields or wrong
    types or numbers past what the structures can hold (an infinite
    history, a cache past 65535 ways), a packed table that is not
    base64, not one whole zlib stream or not the size its structure
    implies (see :func:`_unpack`), a gshare counter outside 0..3 or
    history outside ``[0, entries)``, or replacement state its named
    policy could not hold (see :func:`_decode_policy`).
    """
    try:
        layout = payload["layout"]
        if layout != STATE_LAYOUT:
            raise _damaged("state", f"unknown layout {layout!r}")
        return WarmState(
            machine=payload["machine"],
            config_label=payload["config_label"],
            shape=payload["shape"],
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
    except (KeyError, TypeError, ValueError, IndexError,
            OverflowError) as exc:
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
        unparseable plan spec), its state is in a layout other than
        :data:`STATE_LAYOUT` (the sparse lists earlier stores wrote:
        never served, and rewritten only if its sweep reruns), or its
        trace fingerprint is stale — the synthesizer for its
        ``(benchmark, threads, seed, scale)`` now produces different
        records, so the stored state describes a trace that no longer
        exists. Fingerprints are re-derived once per distinct trace
        identity; identities whose synthesis fails (retired benchmark
        names) are collected too. Returns the victim paths; ``dry_run``
        only reports them. Empty key directories left behind are pruned
        as well.
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
                layout = payload["state"]["layout"]
            except (OSError, json.JSONDecodeError, KeyError, TypeError,
                    ValueError):
                victims.append(path)
                continue
            parseable = machine in known_machines and layout == STATE_LAYOUT
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
