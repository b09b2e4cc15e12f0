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

import os
import time
from dataclasses import replace

import pytest

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
    _decode_btb,
    _decode_cache,
    _decode_gshare,
    _decode_loop,
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
        live = store.put(live_key, 0, {"cores": []})
        stale = store.put(replace(live_key, fingerprint="d" * 12), 0, {})
        retired = store.put(_key(machine="vliw9000"), 0, {})
        corrupt = store.path_for(_key(benchmark="BT"), 0)
        corrupt.parent.mkdir(parents=True, exist_ok=True)
        corrupt.write_text("{ not json")

        preview = set(store.gc(dry_run=True))
        assert preview == {stale, retired, corrupt}
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


def _gshare(counters=(), history=0):
    return {"entries": 4, "history": history, "counters": list(counters)}


def _cache(lines=(), policy=None, ways=2):
    return {
        "sets": 2,
        "ways": ways,
        "lines": list(lines),
        "policy": policy or {"kind": "none"},
        "seen": [],
    }


class TestDecoderBounds:
    """A damaged payload fails to decode; it never wraps a negative or
    oversized index onto another cell, or stores an impossible value."""

    @pytest.mark.parametrize(
        "decoder,payload",
        [
            (_decode_gshare, _gshare([[-1, 7], [1, 9]])),
            (_decode_gshare, _gshare([[-1, 3]])),
            (_decode_gshare, _gshare([[4, 3]])),
            (_decode_gshare, _gshare([[1, 4]])),
            (_decode_gshare, _gshare([[1, -1]])),
            (_decode_gshare, _gshare(history=4)),
            (_decode_gshare, _gshare(history=-1)),
            (_decode_loop, {"entries": 4, "rows": [[-2, 5, 1, 0, 0]]}),
            (_decode_loop, {"entries": 4, "rows": [[4, 5, 1, 0, 0]]}),
            (_decode_btb, {"entries": 4, "rows": [[-2, 64, 128]]}),
            (_decode_btb, {"entries": 4, "rows": [[4, 64, 128]]}),
            (_decode_cache, _cache([[-1, 0, 64]])),
            (_decode_cache, _cache([[2, 0, 64]])),
            (_decode_cache, _cache([[0, -1, 64]])),
            (_decode_cache, _cache([[0, 2, 64]])),
            (
                _decode_cache,
                _cache(policy={"kind": "sparse", "sets": 2,
                               "data": [[-1, [0, 1]]]}),
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
    def test_out_of_range_cell_is_rejected(self, decoder, payload):
        with pytest.raises(ConfigurationError, match="outside"):
            decoder(payload)

    @pytest.mark.parametrize(
        "policy,ways",
        [
            ({"kind": "sparse", "sets": 2, "data": [[0, [1, 1]]]}, 2),
            ({"kind": "sparse", "sets": 2, "data": [[0, [0, 2]]]}, 2),
            ({"kind": "sparse", "sets": 2, "data": [[1, [3, 0, 1, 1]]]}, 4),
            ({"kind": "sparse", "sets": 2, "data": [[0, [0, 1]]]}, 4),
            ({"kind": "sparse", "sets": 2, "data": [[0, [0, 1, 2]]]}, 2),
            ({"kind": "sparse", "sets": 2, "data": [[0, [1, 2, 0]]]}, 4),
            ({"kind": "sparse", "sets": 2, "data": [[0, [2]]]}, 2),
            ({"kind": "dense", "data": [0, 2]}, 2),
            ({"kind": "dense", "data": [-1, 0]}, 2),
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

    def test_valid_replacement_state_decodes(self):
        lru = {"kind": "sparse", "sets": 2, "data": [[1, [3, 0, 2, 1]]]}
        plru = {"kind": "sparse", "sets": 2, "data": [[0, [1, 0, 1]]]}
        fifo = {"kind": "dense", "data": [3, 0]}
        assert _decode_cache(_cache(policy=lru, ways=4))["policy"] == [
            None, [3, 0, 2, 1],
        ]
        assert _decode_cache(_cache(policy=plru, ways=4))["policy"] == [
            [1, 0, 1], None,
        ]
        assert _decode_cache(_cache(policy=fifo, ways=4))["policy"] == [3, 0]

    def test_in_range_cells_decode(self):
        decoded = _decode_gshare(_gshare([[0, 0], [3, 3]], history=3))
        assert decoded == {
            "counters": bytearray([0, 2, 2, 3]), "history": 3,
        }
        tags = _decode_cache(_cache([[1, 1, 64]]))["tags"]
        assert tags == [[None, None], [None, 64]]

    def test_decode_state_rejects_a_damaged_real_payload(self):
        model = get_model("acmp")
        config = model.baseline_config()
        traces = synthesize_benchmark(
            "CG", thread_count=config.core_count, scale=0.05
        )
        payload = encode_state(
            model.build_system(config, traces).capture_warm_state()
        )
        decode_state(payload)  # the undamaged payload decodes
        payload["predictors"][0]["direction"]["counters"].append([-1, 3])
        with pytest.raises(ConfigurationError, match="gshare index"):
            decode_state(payload)
        payload["predictors"][0]["direction"]["counters"][-1] = ["x", 3]
        with pytest.raises(ConfigurationError, match="malformed"):
            decode_state(payload)

