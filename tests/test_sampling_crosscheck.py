"""Sampled-run equivalence contracts, cross-checked per machine model.

Two contracts, both enforced per machine model and per engine (the CI
``sampling-crosscheck`` job runs this module as an acmp/scmp/resume
matrix):

* **Exactness** — a plan with ``skip = 0`` covers every instruction,
  and the resulting :class:`SimulationResult` — every cycle count,
  every counter — must equal an unsampled run's bit for bit, with only
  the ``sampling`` annotation added.
* **Resume equivalence** — warming is a pure function of the trace
  prefix, so a run seeded from persisted warm-state checkpoints must
  reproduce the straight-through run exactly: identical results
  (modulo the hit/miss counters) and byte-identical rewritten
  checkpoints.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.machine.model import get_model
from repro.machine.serialization import result_to_dict
from repro.machine.simulator import simulate
from repro.sampling import (
    Checkpointing,
    CheckpointKey,
    CheckpointStore,
    SamplingPlan,
    simulate_sampled,
)
from repro.sampling.checkpoints import (
    _pack,
    _unpack,
    decode_state,
    encode_state,
)
from repro.sampling.plan import resolve_plan
from repro.trace.synthesis import synthesize_benchmark

EXACT_PLAN = SamplingPlan(
    detail_instructions=1_000, skip_instructions=0, warmup_instructions=0
)

#: One private and one shared design point per machine: the warm-state
#: protocol and the interval machinery cover both topologies.
def _design_points(machine):
    model = get_model(machine)
    return [model.baseline_config(), model.shared_config()]


@pytest.mark.parametrize("machine", ["acmp", "scmp"])
@pytest.mark.parametrize(
    "cycle_skip", [True, False], ids=["skip", "reference"]
)
def test_full_coverage_is_bit_identical(machine, cycle_skip):
    for config in _design_points(machine):
        traces = synthesize_benchmark(
            "UA", thread_count=config.core_count, scale=0.1
        )
        full = simulate(config, traces, cycle_skip=cycle_skip)
        sampled = simulate_sampled(
            config, traces, EXACT_PLAN, cycle_skip=cycle_skip
        )
        assert sampled.sampling is not None and sampled.sampling["exact"]
        sampled_payload = result_to_dict(sampled)
        annotation = sampled_payload.pop("sampling")
        assert annotation["coverage"] == 1.0
        assert sampled_payload == result_to_dict(full), (
            f"{machine}/{config.label()} under "
            f"{'skip' if cycle_skip else 'reference'}: coverage=1.0 "
            f"sampled run diverged from the full run"
        )


@pytest.mark.parametrize("machine", ["acmp", "scmp"])
def test_exact_annotation_reports_no_error(machine):
    config = get_model(machine).shared_config()
    traces = synthesize_benchmark(
        "CG", thread_count=config.core_count, scale=0.05
    )
    sampled = simulate_sampled(config, traces, EXACT_PLAN)
    assert all(
        error == 0.0 for error in sampled.sampling["errors"].values()
    )


TINY_PLAN = SamplingPlan(
    detail_instructions=2_000,
    skip_instructions=6_000,
    warmup_instructions=6_000,
)


def _strip_counters(result):
    """A result dict with the checkpoint hit/miss counters removed —
    the only field allowed to differ between cold, hit and store-less
    runs of the same design point."""
    payload = result_to_dict(result)
    payload["sampling"] = dict(payload["sampling"])
    counters = payload["sampling"].pop("checkpoints", None)
    return payload, counters


def _recoded(mutate):
    """A damage that decodes an entry's state, lets ``mutate`` change the
    :class:`WarmState`, and encodes it back."""

    def damage(state):
        warm = decode_state(state)
        mutate(warm)
        state.clear()
        state.update(encode_state(warm))

    return damage


def _assert_damage_heals(
    tmp_path, config, damage, *, scale=0.2, plan=TINY_PLAN
):
    """Run cold, ``damage`` the middle entry's state in place and rerun:
    the entry must be exactly one miss, the rerun must give the clean
    result, and the entry must be rewritten byte for byte."""
    store = CheckpointStore(tmp_path / "checkpoints")
    policy = Checkpointing(store=store, seed=0, scale=scale)
    traces = synthesize_benchmark(
        "UA", thread_count=config.core_count, scale=scale
    )
    clean = simulate_sampled(config, traces, plan, checkpoints=policy)
    entries = sorted(store.root.glob("*/*/*/*/*/detail*.json"))
    assert len(entries) >= 2
    damaged = entries[len(entries) // 2]
    original = damaged.read_bytes()
    payload = json.loads(original)
    damage(payload["state"])
    damaged.write_text(json.dumps(payload) + "\n")
    rerun = simulate_sampled(config, traces, plan, checkpoints=policy)
    rerun_payload, counters = _strip_counters(rerun)
    clean_payload, _ = _strip_counters(clean)
    assert rerun_payload == clean_payload
    assert counters == {
        "hits": len(entries) - 1, "misses": 1, "writes": 1,
    }
    assert damaged.read_bytes() == original


def _row_past_the_last_set(cache):
    """A line in the first set past the cache's, the record declaring
    twice its sets."""
    cache["tags"][cache["sets"]] = [0]
    cache["sets"] *= 2


def _row_past_the_last_way(cache):
    """A row one line longer than the cache's ways, the record declaring
    that many ways and no touched set (no LRU order is out of shape)."""
    ways = cache["ways"] + 1
    cache["tags"][min(cache["tags"], default=0)] = [
        64 * line for line in range(ways)
    ]
    cache["ways"] = ways
    cache["policy"] = {}


def _order_past_the_last_way(cache):
    """LRU orders over one way more than the cache has, the record
    declaring that many ways (every row still fits)."""
    ways = cache["ways"] + 1
    cache["ways"] = ways
    cache["policy"] = {index: list(range(ways)) for index in cache["policy"]}


class TestCheckpointResume:
    """Checkpoint-seeded warming reproduces straight-through warming."""

    @pytest.mark.parametrize("machine", ["acmp", "scmp"])
    @pytest.mark.parametrize(
        "cycle_skip", [True, False], ids=["skip", "reference"]
    )
    def test_resume_from_checkpoints_is_bit_identical(
        self, machine, cycle_skip, tmp_path
    ):
        policy = Checkpointing(
            store=CheckpointStore(tmp_path / "checkpoints"), seed=0, scale=0.2
        )
        for config in _design_points(machine):
            traces = synthesize_benchmark(
                "UA", thread_count=config.core_count, scale=0.2
            )
            plain = simulate_sampled(
                config, traces, TINY_PLAN, cycle_skip=cycle_skip
            )
            assert not plain.sampling["exact"]  # the plan really samples
            cold = simulate_sampled(
                config, traces, TINY_PLAN,
                cycle_skip=cycle_skip, checkpoints=policy,
            )
            hit = simulate_sampled(
                config, traces, TINY_PLAN,
                cycle_skip=cycle_skip, checkpoints=policy,
            )
            plain_payload = result_to_dict(plain)
            cold_payload, cold_counters = _strip_counters(cold)
            hit_payload, hit_counters = _strip_counters(hit)
            label = f"{machine}/{config.label()}"
            assert cold_payload == plain_payload, label
            assert hit_payload == plain_payload, label
            assert cold_counters["hits"] == 0, label
            assert cold_counters["writes"] == cold_counters["misses"] > 0
            assert hit_counters["misses"] == hit_counters["writes"] == 0
            assert hit_counters["hits"] == cold_counters["misses"], label

    @pytest.mark.parametrize("machine", ["acmp", "scmp"])
    def test_resume_mid_trace_rewrites_byte_identical_state(
        self, machine, tmp_path
    ):
        """Warm a run cold, drop its *last* checkpoint, and re-run: the
        earlier intervals hit, the last interval warms forward from the
        restored mid-trace state, and the rewritten checkpoint must be
        byte-for-byte the one that was deleted."""
        store = CheckpointStore(tmp_path / "checkpoints")
        policy = Checkpointing(store=store, seed=0, scale=0.2)
        config = get_model(machine).shared_config()
        traces = synthesize_benchmark(
            "UA", thread_count=config.core_count, scale=0.2
        )
        cold = simulate_sampled(config, traces, TINY_PLAN, checkpoints=policy)
        entries = sorted(
            store.root.glob("*/*/*/*/*/detail*.json"),
            key=lambda path: int(path.stem.removeprefix("detail")),
        )
        assert len(entries) >= 2
        last = entries[-1]
        original = last.read_bytes()
        last.unlink()
        resumed = simulate_sampled(
            config, traces, TINY_PLAN, checkpoints=policy
        )
        assert last.read_bytes() == original
        resumed_payload, counters = _strip_counters(resumed)
        cold_payload, _ = _strip_counters(cold)
        assert resumed_payload == cold_payload
        assert counters["misses"] == counters["writes"] == 1
        assert counters["hits"] == len(entries) - 1

    def test_damaged_entry_is_a_miss_and_heals(self, tmp_path):
        """An entry whose payload parses but fails to decode (a gshare
        table one byte longer than its predictor) counts as one miss:
        the run re-warms that interval, gives the clean run's result,
        and rewrites the entry byte for byte."""

        def damage(state):
            direction = state["predictors"][0]["direction"]
            counters = _unpack(direction["counters"], "u8", None, "gshare")
            direction["counters"] = _pack("u8", counters + b"\x03")

        _assert_damage_heals(
            tmp_path, get_model("acmp").shared_config(), damage
        )

    def test_damaged_replacement_order_is_a_miss_and_heals(self, tmp_path):
        """An entry whose L2 recency orders were damaged into
        non-permutations of the same length decodes to a miss, not to a
        run that crashes (or evicts impossible ways) mid-interval."""

        def damage(warm):
            for group in warm.groups:
                rows = list(group["l2"]["policy"].values())
                assert rows, "the L2 holds touched sets"
                for row in rows:
                    row[:] = [row[0]] * len(row)

        _assert_damage_heals(
            tmp_path, get_model("acmp").shared_config(), _recoded(damage)
        )

    @pytest.mark.parametrize(
        "scale,plan",
        [(0.2, TINY_PLAN), (0.5, resolve_plan("fast"))],
        ids=["silently-wrong", "crash"],
    )
    def test_lru_rows_damaged_into_plru_bits_are_a_miss(
        self, scale, plan, tmp_path
    ):
        """L1I recency orders damaged into ``ways - 1`` zero bits, the
        shape of tree-PLRU state: a decoder that told policies apart by
        row length restored them as a hit, which either ran on with
        wrong replacement state (scale 0.2) or failed mid-interval on
        ``list.remove`` (scale 0.5, ``fast``). The record names its
        policy, so the rows are checked as LRU rows: a miss that
        heals."""

        def damage(warm):
            for group in warm.groups:
                order = group["icache"]["policy"]
                for index, row in order.items():
                    order[index] = [0] * (len(row) - 1)

        _assert_damage_heals(
            tmp_path,
            get_model("acmp").baseline_config(),
            _recoded(damage),
            scale=scale,
            plan=plan,
        )

    def test_entry_that_decodes_but_does_not_fit_is_a_miss(self, tmp_path):
        """A self-consistent entry the system cannot adopt (PLRU bits in
        an LRU cache, a gshare table of the wrong size) decodes, fails
        its restore, and is a miss that heals like a damaged one."""

        def damage(warm):
            icache = warm.groups[0]["icache"]
            icache["replacement"] = "plru"
            icache["policy"] = [[0] * (icache["ways"] - 1)] * icache["sets"]
            warm.predictors[0]["direction"]["counters"].append(2)

        _assert_damage_heals(
            tmp_path, get_model("acmp").shared_config(), _recoded(damage)
        )

    @pytest.mark.parametrize(
        "damage",
        [
            _row_past_the_last_set,
            _row_past_the_last_way,
            _order_past_the_last_way,
        ],
        ids=["set-past-end", "row-past-ways", "order-past-ways"],
    )
    def test_rows_that_do_not_fit_the_cache_are_a_miss_and_heal(
        self, damage, tmp_path
    ):
        """An L1I row at a set index the cache lacks, or a row or LRU
        order longer than its ways, under a geometry the record declares
        to match: the entry decodes, its restore is refused, and the run
        counts it as a miss that heals."""
        config = get_model("acmp").shared_config()

        def mutate(warm):
            damage(warm.groups[0]["icache"])

        _assert_damage_heals(tmp_path, config, _recoded(mutate))
        entries = sorted(
            (tmp_path / "checkpoints").glob("*/*/*/*/*/detail*.json")
        )
        state = json.loads(entries[len(entries) // 2].read_text())["state"]
        _recoded(mutate)(state)
        traces = synthesize_benchmark(
            "UA", thread_count=config.core_count, scale=0.2
        )
        system = get_model("acmp").build_system(config, traces)
        with pytest.raises(ConfigurationError, match="does not fit"):
            system.restore_warm_state(decode_state(state))

    def test_resume_over_a_sparse_layout_entry_rewrites_it(self, tmp_path):
        """An entry in the sparse-list layout stores wrote before states
        were packed carries no layout tag: it is a miss that the run
        rewrites in the packed layout, byte for byte what a cold run
        writes."""
        _assert_damage_heals(
            tmp_path,
            get_model("scmp").shared_config(),
            lambda state: state.pop("layout"),
        )

    @pytest.mark.parametrize("machine", ["acmp", "scmp"])
    def test_resume_alternating_hits_and_misses_rewrites_every_gap(
        self, machine, tmp_path
    ):
        """Delete every other entry of a cold run and rerun. Each miss
        hands its measurement machine a copy of the warming machine's
        state and walks on from it; each hit after a miss restores the
        warming machine from the hit's entry first. The rerun gives the
        cold result and rewrites every deleted entry byte for byte."""
        for index, config in enumerate(_design_points(machine)):
            store = CheckpointStore(tmp_path / f"checkpoints{index}")
            policy = Checkpointing(store=store, seed=0, scale=0.2)
            traces = synthesize_benchmark(
                "UA", thread_count=config.core_count, scale=0.2
            )
            cold = simulate_sampled(
                config, traces, TINY_PLAN, checkpoints=policy
            )
            entries = sorted(
                store.root.glob("*/*/*/*/*/detail*.json"),
                key=lambda path: int(path.stem.removeprefix("detail")),
            )
            assert len(entries) >= 4
            deleted = {path: path.read_bytes() for path in entries[::2]}
            for path in deleted:
                path.unlink()
            resumed = simulate_sampled(
                config, traces, TINY_PLAN, checkpoints=policy
            )
            label = f"{machine}/{config.label()}"
            for path, original in deleted.items():
                assert path.read_bytes() == original, (label, path.name)
            resumed_payload, counters = _strip_counters(resumed)
            assert resumed_payload == _strip_counters(cold)[0], label
            assert counters == {
                "hits": len(entries) - len(deleted),
                "misses": len(deleted),
                "writes": len(deleted),
            }, label

    def test_resume_concurrent_writers_never_tear_entries(self, tmp_path):
        """Two stores sharing one tree (shard hosts warming the same
        prefix) interleave puts of the same key: every read parses,
        the newest write wins, and no tmp files are left behind."""
        key = CheckpointKey(
            machine="acmp", benchmark="UA", seed=0, scale=1.0, threads=9,
            fingerprint="a" * 12, plan="d2000:s6000:w6000:r0",
            warm_l2=True, shape="b" * 12,
        )
        writer_a = CheckpointStore(tmp_path / "checkpoints")
        writer_b = CheckpointStore(tmp_path / "checkpoints")
        for round_index in range(3):
            writer_a.put(key, 0, {"round": round_index, "writer": "a"})
            assert writer_b.get(key, 0) == {
                "round": round_index, "writer": "a",
            }
            writer_b.put(key, 0, {"round": round_index, "writer": "b"})
            reader = CheckpointStore(tmp_path / "checkpoints")
            assert reader.get(key, 0) == {
                "round": round_index, "writer": "b",
            }
            payload = json.loads(writer_a.path_for(key, 0).read_text())
            assert payload["key"] == key.header()
        assert not list((tmp_path / "checkpoints").rglob("*.tmp"))
        assert len(writer_a) == 1
