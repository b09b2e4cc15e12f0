"""The warm-checkpoint store and the batched functional warmer.

Three contracts:

* the :class:`BatchedWarmer` is a pure speedup — the warm state it
  produces is bit-identical to the scalar reference walk's, on the
  LRU walk and on the scalar fallback alike;
* :class:`CheckpointStore` entries are served only under their exact
  identity (header verification, shape digests) and degrade to misses,
  never to wrong state;
* the campaign maintenance commands treat the checkpoint tree as
  first-class: ``gc`` prunes stale/unparsable entries, ``merge``
  unions trees newest-wins.
"""

import base64
import json
import os
import random
import time
import zlib
from dataclasses import replace

import pytest

from repro.cache.set_assoc import SetAssociativeCache
from repro.campaign.store import ResultStore, merge_stores
from repro.errors import ConfigurationError
from repro.machine.model import get_model
from repro.machine.system import warm_shape_digest
from repro.sampling import (
    BatchedWarmer,
    CheckpointKey,
    CheckpointStore,
    SamplingPlan,
    trace_fingerprint,
)
from repro.sampling.checkpoints import (
    STATE_LAYOUT,
    _BTB_COLUMNS,
    _LOOP_COLUMNS,
    _decode_btb,
    _decode_cache,
    _decode_gshare,
    _decode_loop,
    _encode_cache,
    _pack,
    _unpack,
    decode_state,
    encode_state,
)
from repro.sampling.slicer import IntervalKind, slice_traces
from repro.sampling.warmer import core_warm_structures, scalar_walk
from repro.trace.synthesis import synthesize_benchmark

TINY_PLAN = SamplingPlan(
    detail_instructions=2_000,
    skip_instructions=6_000,
    warmup_instructions=6_000,
)


def _warm_intervals(traces):
    return [
        interval
        for interval in slice_traces(traces, TINY_PLAN)
        if interval.kind is not IntervalKind.SKIP
    ]


def _scalar_warm(system, traces, intervals):
    """The oracle: every core's span of every interval, scalar-walked."""
    structures = core_warm_structures(system)
    for interval in intervals:
        for core_id, (start, end) in enumerate(interval.spans):
            scalar_walk(
                structures[core_id], traces.threads[core_id].records,
                start, end,
            )


class TestBatchedWarmer:
    @pytest.mark.parametrize("machine", ["acmp", "scmp"])
    @pytest.mark.parametrize("point", ["baseline", "shared"])
    def test_batched_walk_is_bit_identical_to_scalar(self, machine, point):
        """Every I-cache policy, with and without an iTLB: LRU cores
        take :func:`lru_walk`, the others the scalar fallback, and both
        must land on the oracle's warm state. On the shared point a
        fetch predictor and an iTLB shared by the group's cores hand
        their history and clock from one core's walk to the next."""
        model = get_model(machine)
        make_config = (
            model.baseline_config if point == "baseline"
            else model.shared_config
        )
        traces = synthesize_benchmark(
            "UA", thread_count=make_config().core_count, scale=0.2
        )
        intervals = _warm_intervals(traces)
        assert intervals, "probe trace too small to slice"

        variants = [
            dict(icache_policy=policy, itlb_enabled=itlb_enabled)
            for policy in ("lru", "plru", "fifo", "random")
            for itlb_enabled in (False, True)
        ]
        if point == "shared":
            variants += [
                dict(
                    icache_policy=policy,
                    itlb_enabled=True,
                    shared_fetch_predictor=True,
                    shared_itlb=True,
                )
                for policy in ("lru", "plru")
            ]
        for variant in variants:
            config = make_config(**variant)
            scalar = model.build_system(config, traces)
            _scalar_warm(scalar, traces, intervals)

            batched = model.build_system(config, traces)
            warmer = BatchedWarmer(batched, traces)
            blocks = sum(warmer.warm_interval(i) for i in intervals)
            assert blocks > 0

            assert (
                batched.capture_warm_state().to_dict()
                == scalar.capture_warm_state().to_dict()
            ), variant

    def test_batched_walk_survives_a_restore(self):
        """Restores adopt snapshot storage; the warmer must keep
        warming the adopted tables, not stranded pre-restore ones."""
        model = get_model("acmp")
        config = model.shared_config()
        traces = synthesize_benchmark(
            "UA", thread_count=config.core_count, scale=0.2
        )
        intervals = _warm_intervals(traces)
        assert len(intervals) >= 2

        scalar = model.build_system(config, traces)
        _scalar_warm(scalar, traces, intervals)

        batched = model.build_system(config, traces)
        warmer = BatchedWarmer(batched, traces)
        warmer.warm_interval(intervals[0])
        batched.restore_warm_state(batched.capture_warm_state())
        for interval in intervals[1:]:
            warmer.warm_interval(interval)
        assert (
            batched.capture_warm_state().to_dict()
            == scalar.capture_warm_state().to_dict()
        )


class TestWarmerSpanRouting:
    def test_non_lru_l1_takes_fallback(self, monkeypatch):
        from repro.sampling import warmer as warmer_module

        model = get_model("acmp")
        config = model.shared_config(itlb_enabled=True, icache_policy="plru")
        traces = synthesize_benchmark(
            "UA", thread_count=config.core_count, scale=0.2
        )
        intervals = _warm_intervals(traces)
        assert intervals, "probe trace too small to slice"

        def forbidden(*args):
            raise AssertionError("lru_walk engaged for a non-LRU L1")

        monkeypatch.setattr(warmer_module, "lru_walk", forbidden)
        warmer = BatchedWarmer(model.build_system(config, traces), traces)
        assert sum(warmer.warm_interval(i) for i in intervals) > 0

    def test_span_path_safe_after_restore(self):
        """Restores adopt snapshot storage; the LRU walk must re-read
        the inner tables and keep warming the adopted ones."""
        model = get_model("acmp")
        config = model.shared_config(itlb_enabled=True)
        traces = synthesize_benchmark(
            "UA", thread_count=config.core_count, scale=0.2
        )
        intervals = _warm_intervals(traces)
        assert len(intervals) >= 2

        first = model.build_system(config, traces)
        BatchedWarmer(first, traces).warm_interval(intervals[0])
        restored = model.build_system(config, traces)
        warmer = BatchedWarmer(restored, traces)
        restored.restore_warm_state(first.capture_warm_state())
        warmer.warm_interval(intervals[1])

        straight = model.build_system(config, traces)
        straight_warmer = BatchedWarmer(straight, traces)
        for interval in intervals[:2]:
            straight_warmer.warm_interval(interval)

        assert (
            restored.capture_warm_state().to_dict()
            == straight.capture_warm_state().to_dict()
        )


def _key(**overrides):
    fields = dict(
        machine="acmp", benchmark="UA", seed=0, scale=1.0, threads=9,
        fingerprint="a" * 12, plan="d2000:s6000:w6000:r0",
        warm_l2=True, shape="b" * 12,
    )
    fields.update(overrides)
    return CheckpointKey(**fields)


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.get(_key(), 0) is None
        store.put(_key(), 0, {"cores": []}, "shared::32KB")
        assert store.get(_key(), 0) == {"cores": []}
        assert len(store) == 1
        assert store.total_bytes() > 0

    @pytest.mark.parametrize(
        "mismatch",
        [
            {"fingerprint": "c" * 12},
            {"shape": "c" * 12},
            {"machine": "scmp"},
            {"seed": 1},
            {"scale": 0.5},
            {"plan": "d1000:s6000:w6000:r0"},
            {"warm_l2": False},
        ],
    )
    def test_identity_mismatch_is_a_miss(self, tmp_path, mismatch):
        store = CheckpointStore(tmp_path)
        store.put(_key(), 0, {"cores": []})
        other = _key(**mismatch)
        # A differing key lands in a different directory; force the
        # collision by copying the entry onto the other key's path.
        victim = store.path_for(other, 0)
        victim.parent.mkdir(parents=True, exist_ok=True)
        victim.write_bytes(store.path_for(_key(), 0).read_bytes())
        assert store.get(other, 0) is None

    def test_wrong_detail_index_and_corruption_are_misses(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.put(_key(), 2, {"cores": []})
        assert store.get(_key(), 2) == {"cores": []}
        bad = store.path_for(_key(), 3)
        bad.write_bytes(path.read_bytes())  # claims detail=2, named 3
        assert store.get(_key(), 3) is None
        path.write_text("{ not json")
        assert store.get(_key(), 2) is None

    def test_gc_prunes_stale_and_unparsable_entries(self, tmp_path):
        traces = synthesize_benchmark("CG", thread_count=3, scale=0.05)
        live_key = _key(
            benchmark="CG", threads=3, scale=0.05,
            fingerprint=trace_fingerprint(traces),
        )
        store = CheckpointStore(tmp_path)
        live = store.put(live_key, 0, {"layout": STATE_LAYOUT})
        # An entry in the sparse-list layout earlier stores wrote (no
        # layout tag) and one in a foreign layout can never be served.
        sparse = store.put(live_key, 1, {"cores": []})
        foreign = store.put(live_key, 2, {"layout": "packed-0"})
        stale = store.put(replace(live_key, fingerprint="d" * 12), 0, {})
        retired = store.put(_key(machine="vliw9000"), 0, {})
        corrupt = store.path_for(_key(benchmark="BT"), 0)
        corrupt.parent.mkdir(parents=True, exist_ok=True)
        corrupt.write_text("{ not json")

        preview = set(store.gc(dry_run=True))
        assert preview == {sparse, foreign, stale, retired, corrupt}
        assert all(path.exists() for path in preview)
        assert set(store.gc()) == preview
        assert live.exists()
        assert not any(path.exists() for path in preview)

    def test_merge_unions_checkpoint_trees_newest_wins(self, tmp_path):
        roots = [tmp_path / name for name in ("host_a", "host_b", "merged")]
        for root in roots:
            ResultStore(root)  # materialise the result-store trees
        key = _key()
        store_a = CheckpointStore(roots[0] / CheckpointStore.SUBDIR)
        store_b = CheckpointStore(roots[1] / CheckpointStore.SUBDIR)
        store_a.put(key, 0, {"writer": "a"})
        store_a.put(key, 1, {"writer": "a"})
        store_b.put(key, 1, {"writer": "b"})
        store_b.put(key, 2, {"writer": "b"})
        # Host B's detail1 is strictly newer than host A's.
        newer = time.time() + 10
        os.utime(store_b.path_for(key, 1), (newer, newer))

        report = merge_stores([roots[0], roots[1]], roots[2])
        assert report.checkpoints >= 3
        assert "checkpoint" in report.summary()
        merged = CheckpointStore(roots[2] / CheckpointStore.SUBDIR)
        assert merged.get(key, 0) == {"writer": "a"}
        assert merged.get(key, 1) == {"writer": "b"}
        assert merged.get(key, 2) == {"writer": "b"}


class TestShapeDigest:
    def test_digest_ignores_timing_but_not_geometry(self):
        model = get_model("acmp")
        config = model.baseline_config()
        digest = warm_shape_digest(config, model.build_topology(config))
        again = warm_shape_digest(config, model.build_topology(config))
        assert digest == again
        bigger = model.baseline_config(worker_icache_bytes=64 * 1024)
        assert digest != warm_shape_digest(
            bigger, model.build_topology(bigger)
        )

    def test_restore_refuses_a_different_shape(self):
        model = get_model("acmp")
        config = model.baseline_config()
        traces = synthesize_benchmark(
            "CG", thread_count=config.core_count, scale=0.05
        )
        state = model.build_system(config, traces).capture_warm_state()
        bigger = model.baseline_config(worker_icache_bytes=64 * 1024)
        target = model.build_system(bigger, traces)
        with pytest.raises(ConfigurationError, match="design point"):
            target.restore_warm_state(state)


def _table(layout, values, count=None, stream=None):
    """A packed table; ``count`` and ``stream`` override what
    :func:`_pack` would declare and write."""
    table = _pack(layout, values)
    if count is not None:
        table["count"] = count
    if stream is not None:
        table["data"] = base64.b64encode(stream).decode("ascii")
    return table


def _gshare(counters=(2, 2, 2, 2), history=0):
    return {"entries": 4, "history": history, "counters": _pack("u8", counters)}


def _columns(names, entries=4, long_column=None):
    """Loop-predictor or BTB columns of ``entries`` cells; ``long_column``
    (a name, count) resizes one of them."""
    payload = {"entries": 4}
    for name in names:
        size = entries
        if long_column is not None and long_column[0] == name:
            size = long_column[1]
        payload[name] = _pack("i64", [-1] * size)
    return payload


_STATELESS = {"policy": "random"}


def _lru(rows, touched=(0, 1), ways=2):
    return {
        "policy": "lru",
        "touched": _pack("u8", touched),
        "rows": _pack("u8" if ways <= 255 else "u16", rows),
    }


def _cache(filled=(0, 0), lines=(), policy=None, ways=2, sets=2):
    return {
        "sets": sets,
        "ways": ways,
        "filled": _pack("u8", filled),
        "lines": _pack("i64", lines),
        "replacement": policy or _STATELESS,
        "seen": _pack("i64", []),
    }


def _deflated(payload: bytes) -> bytes:
    return zlib.compress(payload)


#: A stream whose first bytes inflate fine but whose checksum is wrong:
#: only an inflater that runs to the end of the stream notices.
_BAD_TAIL = _deflated(bytes(1 << 20))[:-4] + b"\x00\x00\x00\x00"


class TestDecoderBounds:
    """A damaged payload fails to decode: no table restores at a size
    other than its structure's, and no cell stores an impossible value.
    Dense tables have no indices to push out of range, so the cases
    that once pushed a sparse index past a table's end now shorten or
    lengthen the table by one cell."""

    @pytest.mark.parametrize(
        "decoder,payload,match",
        [
            (
                _decode_gshare,
                {**_gshare(), "counters": _pack("u8", [7, 9, 2, 2, 2])},
                "gshare counters",
            ),
            (
                _decode_gshare,
                {**_gshare(), "counters": _pack("u8", [2, 2, 2])},
                "gshare counters",
            ),
            (
                _decode_gshare,
                {**_gshare(), "counters": _pack("u8", [2, 2, 2, 2, 3])},
                "gshare counters",
            ),
            (_decode_gshare, _gshare([2, 4, 2, 2]), "gshare counter 4"),
            (_decode_gshare, _gshare([2, 255, 2, 2]), "gshare counter 255"),
            (_decode_gshare, _gshare(history=4), "gshare history"),
            (_decode_gshare, _gshare(history=-1), "gshare history"),
            (
                _decode_loop,
                _columns(_LOOP_COLUMNS, long_column=("trips", 3)),
                "loop predictor trips",
            ),
            (
                _decode_loop,
                _columns(_LOOP_COLUMNS, long_column=("tags", 5)),
                "loop predictor tags",
            ),
            (
                _decode_btb,
                _columns(_BTB_COLUMNS, long_column=("targets", 3)),
                "BTB targets",
            ),
            (
                _decode_btb,
                _columns(_BTB_COLUMNS, long_column=("tags", 5)),
                "BTB tags",
            ),
            (_decode_cache, _cache(filled=(0,)), "cache fill counts"),
            (_decode_cache, _cache(filled=(0, 0, 0)), "cache fill counts"),
            (
                _decode_cache,
                _cache(filled=(1, 1), lines=[64]),
                "cache lines",
            ),
            (_decode_cache, _cache(filled=(3, 0), lines=[0, 64, 128]),
             "cache fill counts"),
            (
                _decode_cache,
                _cache(policy=_lru([0, 1], touched=(1,))),
                "replacement touched sets",
            ),
        ],
        ids=[
            "gshare-wrap-and-value", "gshare-negative-index",
            "gshare-index-past-end", "gshare-counter-4",
            "gshare-counter-negative", "gshare-history-past-end",
            "gshare-history-negative", "loop-negative-index",
            "loop-index-past-end", "btb-negative-index",
            "btb-index-past-end", "cache-negative-set", "cache-set-past-end",
            "cache-negative-way", "cache-way-past-end",
            "policy-negative-set",
        ],
    )
    def test_out_of_range_cell_is_rejected(self, decoder, payload, match):
        with pytest.raises(ConfigurationError, match=match):
            decoder(payload)

    @pytest.mark.parametrize(
        "policy,ways",
        [
            (_lru([1, 1], touched=(1, 0)), 2),
            (_lru([0, 2], touched=(1, 0)), 2),
            (_lru([3, 0, 1, 1], touched=(0, 1), ways=4), 4),
            (_lru([0, 1], touched=(1, 0), ways=4), 4),
            (_lru([0, 1, 2], touched=(1, 0)), 2),
            ({"policy": "plru", "rows": _pack("u8", [1, 2, 0, 0, 0, 0])}, 4),
            ({"policy": "plru", "rows": _pack("u8", [2, 0])}, 2),
            ({"policy": "fifo", "pointers": _pack("u8", [0, 2])}, 2),
            ({"policy": "fifo", "pointers": _pack("u8", [255, 0])}, 2),
        ],
        ids=[
            "lru-duplicate-way", "lru-way-past-end", "lru-not-permutation",
            "row-too-short", "row-too-long", "plru-bit-2",
            "plru-single-bit-2", "fifo-pointer-past-end",
            "fifo-pointer-negative",
        ],
    )
    def test_damaged_replacement_state_is_rejected(self, policy, ways):
        with pytest.raises(ConfigurationError, match="replacement"):
            _decode_cache(_cache(policy=policy, ways=ways))

    @pytest.mark.parametrize(
        "policy",
        [
            # The FOUND case: LRU rows damaged into ways - 1 zero bits.
            _lru([0, 0, 0], touched=(1, 0), ways=4),
            # PLRU bits relabelled as LRU, and LRU rows as PLRU bits.
            {**_lru([0, 1, 2, 3], touched=(1, 0), ways=4), "policy": "plru"},
            {"policy": "lru", "touched": _pack("u8", [1, 0]),
             "rows": _pack("u8", [0, 0, 0])},
            {"policy": "lru", "touched": _pack("u8", [2, 0]),
             "rows": _pack("u8", [0, 1, 2, 3])},
            {"policy": "mru"},
        ],
        ids=[
            "lru-rows-as-plru-bits", "lru-rows-named-plru",
            "plru-bits-named-lru", "touched-flag-2", "unknown-policy",
        ],
    )
    def test_rows_are_checked_against_the_named_policy(self, policy):
        with pytest.raises(ConfigurationError, match="replacement"):
            _decode_cache(_cache(policy=policy, ways=4))

    @pytest.mark.parametrize(
        "table,match",
        [
            ({"layout": "u8", "count": 4, "data": "not base64!"}, "base64"),
            ({"layout": "u8", "count": 4, "data": "AAAAé"}, "base64"),
            (_table("u8", [2] * 4, stream=b"\x78\x9cgarbage"), "corrupt"),
            (
                _table("u8", [2] * 4, stream=_deflated(bytes(4))[:-3]),
                "truncated",
            ),
            (
                _table("u8", [2] * 4, stream=_deflated(bytes(4)) + b"\x00"),
                "after the zlib stream",
            ),
            (_table("u8", [2] * 4, stream=_BAD_TAIL), "inflates past"),
            (
                _table("u8", [2] * 4, stream=_deflated(bytes(3))),
                "inflates to 3 of 4",
            ),
            ({**_pack("u8", [2] * 4), "layout": "u4"}, "unknown layout tag"),
            ({**_pack("i64", [2] * 4)}, "layout 'i64', expected 'u8'"),
            (_table("u8", [2] * 4, count=-4), "declares -4"),
        ],
        ids=[
            "not-base64", "non-ascii-text", "corrupt-zlib", "truncated-zlib",
            "bytes-after-stream", "inflates-past-declared-size",
            "inflates-short", "unknown-layout-tag", "wrong-layout-tag",
            "negative-count",
        ],
    )
    def test_damaged_table_is_rejected(self, table, match):
        with pytest.raises(ConfigurationError, match=match):
            _decode_gshare({"entries": 4, "history": 0, "counters": table})

    @pytest.mark.parametrize("count", [2**62, 2**70], ids=["2^62", "2^70"])
    def test_declared_size_no_stream_can_reach_is_rejected(self, count):
        """A huge declared count, on a table that sizes itself or on a
        structure whose entries agree with it, is rejected before zlib
        is asked for a buffer that large."""
        seen = _table("i64", [64], count=count)
        with pytest.raises(ConfigurationError, match="more than"):
            _unpack(seen, "i64", None, "seen lines")
        counters = _table("u8", [2] * 4, count=count)
        with pytest.raises(ConfigurationError, match="more than"):
            _decode_gshare(
                {"entries": count, "history": 0, "counters": counters}
            )
        payload = encode_state(_small_state())
        payload["groups"][0]["icache"]["seen"] = seen
        with pytest.raises(ConfigurationError, match="more than"):
            decode_state(payload)

    @pytest.mark.parametrize("ways", [2**16, 2**63], ids=["2^16", "2^63"])
    def test_cache_past_a_two_byte_way_index_is_rejected(self, ways):
        """Way indices pack in two bytes, so no encodable cache has this
        many ways; its tag rows are never allocated."""
        cache = {**_cache(ways=ways), "filled": _pack("u16", [0, 0])}
        with pytest.raises(ConfigurationError, match="two-byte way index"):
            _decode_cache(cache)

    def test_number_that_overflows_is_a_damaged_payload(self):
        payload = encode_state(_small_state())
        payload["predictors"][0]["direction"]["history"] = float("inf")
        with pytest.raises(ConfigurationError, match="malformed"):
            decode_state(payload)

    def test_oversized_stream_is_not_inflated_past_its_declaration(self):
        """The bad checksum sits after a megabyte of output: a decoder
        that inflated the whole stream would report it as corrupt."""
        with pytest.raises(zlib.error, match="incorrect data check"):
            zlib.decompress(_BAD_TAIL)
        with pytest.raises(ConfigurationError, match="inflates past"):
            _unpack(_table("u8", [2] * 4, stream=_BAD_TAIL), "u8", 4, "t")

    def test_valid_replacement_state_decodes(self):
        lru = _lru([3, 0, 2, 1], touched=(0, 1), ways=4)
        plru = {"policy": "plru", "rows": _pack("u8", [1, 0, 1, 0, 0, 0])}
        fifo = {"policy": "fifo", "pointers": _pack("u8", [3, 0])}
        assert _decode_cache(_cache(policy=lru, ways=4))["policy"] == [
            None, [3, 0, 2, 1],
        ]
        assert _decode_cache(_cache(policy=plru, ways=4))["policy"] == [
            [1, 0, 1], [0, 0, 0],
        ]
        assert _decode_cache(_cache(policy=fifo, ways=4))["policy"] == [3, 0]

    def test_in_range_cells_decode(self):
        decoded = _decode_gshare(_gshare([0, 2, 2, 3], history=3))
        assert decoded == {
            "counters": bytearray([0, 2, 2, 3]), "history": 3,
        }
        tags = _decode_cache(_cache(filled=(0, 1), lines=[64]))["tags"]
        assert tags == [[None, None], [64, None]]

    @pytest.mark.parametrize("policy", ["lru", "fifo", "plru"])
    def test_cache_past_255_ways_round_trips(self, policy):
        """Way indices and fill counts switch to two bytes each."""
        cache = SetAssociativeCache(64 * 1024, 512, 64, policy=policy)
        for line in random.Random(5).sample(range(0, 1 << 22, 64), 900):
            cache.access(line)
        state = cache.warm_state()
        payload = _encode_cache(state)
        assert payload["filled"]["layout"] == "u16"
        if policy != "plru":
            assert "u16" in json.dumps(payload["replacement"])
        decoded = _decode_cache(json.loads(json.dumps(payload)))
        assert decoded == {**state, "seen": set(state["seen"])}
        fresh = SetAssociativeCache(64 * 1024, 512, 64, policy=policy)
        fresh.load_warm_state(decoded)
        assert fresh.warm_state() == state

    def test_unknown_state_layout_is_rejected(self):
        payload = encode_state(_small_state())
        decode_state(payload)
        for layout in (None, "sparse", "packed-0"):
            damaged = dict(payload)
            if layout is None:
                del damaged["layout"]
            else:
                damaged["layout"] = layout
            with pytest.raises(ConfigurationError):
                decode_state(damaged)

    def test_decode_state_rejects_a_damaged_real_payload(self):
        payload = encode_state(_small_state())
        decode_state(payload)  # the undamaged payload decodes
        direction = payload["predictors"][0]["direction"]
        direction["counters"] = _pack("u8", bytes(direction["entries"] - 1))
        with pytest.raises(ConfigurationError, match="gshare counters"):
            decode_state(payload)
        direction["counters"] = ["x", 3]
        with pytest.raises(ConfigurationError, match="malformed"):
            decode_state(payload)

    def test_encoding_is_deterministic_and_round_trips(self):
        state = _small_state()
        payload = encode_state(state)
        assert json.dumps(encode_state(state)) == json.dumps(payload)
        decoded = decode_state(json.loads(json.dumps(payload)))
        assert decoded.to_dict() == state.to_dict()
        assert json.dumps(encode_state(decoded)) == json.dumps(payload)


def _small_state():
    """A warmed baseline snapshot (every structure populated)."""
    model = get_model("acmp")
    config = model.baseline_config(itlb_enabled=True)
    traces = synthesize_benchmark(
        "CG", thread_count=config.core_count, scale=0.05
    )
    system = model.build_system(config, traces)
    system.warm_instruction_l2s()
    warmer = BatchedWarmer(system, traces)
    for interval in slice_traces(traces, TINY_PLAN):
        if interval.kind is not IntervalKind.SKIP:
            warmer.warm_interval(interval)
    return system.capture_warm_state()
