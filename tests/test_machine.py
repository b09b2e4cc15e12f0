"""Tests for the machine-model abstraction layer.

Covers the registry (lookup, config-type resolution, duplicate
protection), the symmetric-CMP model's topology and serial-IPC replay
scaling, serialization round-trips for every registered model with
cross-model rejection, the machine/engine-aware result store (legacy
acmp entries included), campaign sharding, and the interconnect
busy-cycle batching.
"""

import json

import pytest

from repro.acmp import AcmpConfig, baseline_config, worker_shared_config
from repro.campaign import (
    ResultStore,
    RunSpec,
    execute_run,
    parse_shard,
    run_specs,
    shard_specs,
)
from repro.errors import ConfigurationError, SimulationError
from repro.machine import (
    get_model,
    model_for_config,
    model_names,
    register_model,
    result_from_dict,
    result_to_dict,
    scale_serial_ipc,
    simulate,
)
from repro.machine.simulator import SystemSimulator
from repro.scmp import ScmpConfig, banked_config, private_config
from repro.scmp.topology import build_topology
from repro.trace.records import IpcRecord, SyncKind, SyncRecord
from repro.trace.synthesis import synthesize_benchmark


class TestRegistry:
    def test_builtin_models_known(self):
        assert model_names() == ["acmp", "scmp"]
        assert get_model("acmp").name == "acmp"
        assert get_model("scmp").name == "scmp"

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown machine"):
            get_model("tpu")

    def test_config_type_resolution(self):
        assert model_for_config(baseline_config()).name == "acmp"
        assert model_for_config(private_config()).name == "scmp"
        with pytest.raises(ConfigurationError, match="no registered"):
            model_for_config(object())

    def test_reregistering_same_model_is_noop(self):
        model = get_model("scmp")
        assert register_model(model) is model

    def test_conflicting_registration_rejected(self):
        class Impostor:
            name = "acmp"
            config_type = dict

        with pytest.raises(ConfigurationError, match="already registered"):
            register_model(Impostor())

    def test_config_space_builds_valid_configs(self):
        # Every value of every swept dimension must construct, alone,
        # a valid configuration of its model.
        for name in model_names():
            model = get_model(name)
            space = model.config_space()
            assert space
            for dimension, values in space.items():
                for value in values:
                    model.default_config(**{dimension: value})

    def test_standard_design_points_have_unique_labels(self):
        for name in model_names():
            points = get_model(name).standard_design_points()
            labels = [config.label() for config in points]
            assert len(set(labels)) == len(labels) >= 2

    def test_result_schema_names_machine(self):
        for name in model_names():
            assert get_model(name).result_schema()["machine"] == name


class TestScmpModel:
    def test_uniform_topology_has_no_master_group(self):
        topology = build_topology(
            banked_config(cores_per_cache=4, core_count=8)
        )
        assert topology.icache_count == 2
        assert topology.groups[0].core_ids == (0, 1, 2, 3)
        assert topology.groups[1].core_ids == (4, 5, 6, 7)

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            ScmpConfig(core_count_total=6, cores_per_cache=4)

    def test_sub_line_iq_capacity_rejected(self):
        # A queue smaller than one fetch line can never accept a
        # line-sized fetch piece: the machine would hang, so the
        # substrate config rejects it up front (for every model).
        with pytest.raises(ConfigurationError, match="full\\s+fetch line"):
            ScmpConfig(core_count_total=4, iq_capacity=8)
        with pytest.raises(ConfigurationError, match="full\\s+fetch line"):
            AcmpConfig(worker_count=4, iq_capacity=15)
        # One full line is the smallest legal capacity.
        assert AcmpConfig(worker_count=4, iq_capacity=16).iq_capacity == 16

    def test_labels_are_namespaced(self):
        assert private_config().label() == "scmp8::private::32KB::4lb"
        assert (
            banked_config().label() == "scmp8::cpc=8::16KB::4lb::double-bus"
        )

    def test_serial_ipc_scaling_only_touches_serial_sections(self):
        records = [
            IpcRecord(2.0),  # serial
            SyncRecord(SyncKind.PARALLEL_START, 0),
            IpcRecord(2.0),  # parallel: untouched
            SyncRecord(SyncKind.PARALLEL_END, 0),
            IpcRecord(2.0),  # serial again
        ]
        scaled = scale_serial_ipc(records, 0.5)
        assert [r.ipc for r in scaled if isinstance(r, IpcRecord)] == [
            1.0,
            2.0,
            1.0,
        ]

    def test_lean_serial_replay_slows_master_thread(self):
        traces = synthesize_benchmark("CoMD", thread_count=9, scale=0.05)
        lean = simulate(private_config(core_count=9), traces)
        big = simulate(
            private_config(core_count=9, serial_ipc_scale=1.0), traces
        )
        assert lean.cycles > big.cycles
        assert lean.machine == big.machine == "scmp"

    def test_scmp_committed_matches_traces(self):
        traces = synthesize_benchmark("CG", thread_count=8, scale=0.03)
        result = simulate(banked_config(), traces)
        assert result.total_committed == traces.instruction_count


@pytest.fixture(scope="module")
def per_model_results():
    """One small simulated result per registered machine model."""
    results = {}
    for name in model_names():
        model = get_model(name)
        config = model.default_config()
        traces = synthesize_benchmark(
            "CG", thread_count=config.core_count, scale=0.02
        )
        results[name] = simulate(config, traces)
    return results


class TestCrossModelSerialization:
    """Every model's results survive JSON round-trips and reject
    payloads from a different model with a clear error."""

    def test_round_trip_every_model(self, per_model_results):
        for name, result in per_model_results.items():
            payload = result_to_dict(result)
            assert payload["machine"] == name
            rebuilt = result_from_dict(json.loads(json.dumps(payload)))
            assert result_to_dict(rebuilt) == payload
            assert rebuilt.machine == name

    def test_expected_machine_accepts_own_payload(self, per_model_results):
        for name, result in per_model_results.items():
            rebuilt = result_from_dict(
                result_to_dict(result), expect_machine=name
            )
            assert rebuilt.cycles == result.cycles

    def test_cross_model_payload_rejected(self, per_model_results):
        names = list(per_model_results)
        for name in names:
            for other in names:
                if other == name:
                    continue
                with pytest.raises(SimulationError, match="machine model"):
                    result_from_dict(
                        result_to_dict(per_model_results[name]),
                        expect_machine=other,
                    )

    def test_legacy_payload_defaults_to_acmp(self, per_model_results):
        payload = result_to_dict(per_model_results["acmp"])
        del payload["machine"]  # pre-machine-axis payload
        rebuilt = result_from_dict(payload, expect_machine="acmp")
        assert rebuilt.machine == "acmp"


def _spec(config, benchmark="CG", **kwargs):
    return RunSpec(benchmark=benchmark, config=config, scale=0.02, **kwargs)


class TestMachineAwareStore:
    def test_machines_never_share_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        acmp_spec = _spec(baseline_config())
        scmp_spec = _spec(private_config(core_count=9))
        store.put(acmp_spec, execute_run(acmp_spec))
        assert acmp_spec in store
        assert scmp_spec not in store
        store.put(scmp_spec, execute_run(scmp_spec))
        assert {key[0] for key in store.keys()} == {"acmp", "scmp"}
        assert store.get(scmp_spec).machine == "scmp"

    def test_engine_flavors_never_share_entries(self, tmp_path):
        # The fix for the shared-cache-entry bug: --no-cycle-skip runs
        # must not read (or be read by) scheduled-engine entries.
        store = ResultStore(tmp_path)
        skip_spec = _spec(baseline_config())
        ref_spec = _spec(baseline_config(), cycle_skip=False)
        assert store.path_for(skip_spec) != store.path_for(ref_spec)
        store.put(skip_spec, execute_run(skip_spec))
        assert skip_spec in store
        assert ref_spec not in store
        store.put(ref_spec, execute_run(ref_spec))
        assert store.get(ref_spec) is not None


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("2/4") == (2, 4)
        for bad in ("0/4", "5/4", "x/4", "3"):
            with pytest.raises(ConfigurationError):
                parse_shard(bad)

    def test_partition_is_complete_and_disjoint(self):
        specs = [
            _spec(config, benchmark=benchmark, seed=seed)
            for benchmark in ("CG", "UA", "BT", "IS")
            for config in (baseline_config(), worker_shared_config())
            for seed in (0, 1)
        ]
        count = 3
        shards = [shard_specs(specs, k, count) for k in range(1, count + 1)]
        all_keys = sorted(spec.key for shard in shards for spec in shard)
        assert all_keys == sorted(spec.key for spec in specs)
        seen = set()
        for shard in shards:
            keys = {spec.key for spec in shard}
            assert not keys & seen
            seen |= keys

    def test_partition_is_order_independent(self):
        specs = [
            _spec(baseline_config(), benchmark=benchmark, seed=seed)
            for benchmark in ("CG", "UA", "BT")
            for seed in (0, 1)
        ]
        forward = {s.key for s in shard_specs(specs, 1, 2)}
        reverse = {s.key for s in shard_specs(list(reversed(specs)), 1, 2)}
        assert forward == reverse

    def test_run_specs_executes_only_its_shard(self, tmp_path):
        specs = [
            _spec(baseline_config(), benchmark=benchmark)
            for benchmark in ("CG", "UA")
        ]
        store = ResultStore(tmp_path)
        first = run_specs(specs, store=store, shard=(1, 2), strict=False)
        second = run_specs(specs, store=store, shard=(2, 2), strict=False)
        assert first.sharded_out + second.sharded_out == len(specs)
        assert len(first.results) + len(second.results) == len(specs)
        assert not set(first.results) & set(second.results)
        assert "on other shards" in (first.summary() + second.summary())
        # The shared store now holds the full campaign.
        merged = run_specs(specs, store=store, strict=False)
        assert merged.cached == len(specs)

    def test_failure_journal_is_resume_manifest(self, tmp_path):
        store = ResultStore(tmp_path)
        bad = RunSpec(
            benchmark="NO_SUCH_BENCH", config=private_config(), scale=0.02
        )
        good = _spec(baseline_config())
        report = run_specs([bad, good], store=store, strict=False)
        assert len(report.failures) == 1
        # Only the still-missing run is in the manifest; the journal
        # itself is append-only (concurrent hosts share it).
        manifest = store.failed_specs()
        assert [spec.key for spec in manifest] == [bad.key]
        assert manifest[0].machine == "scmp"
        entry = store.journalled_failures()[0]
        assert entry["machine"] == "scmp"
        assert entry["engine"] == "skip"
        # Once the run lands in the store, the manifest drops it even
        # before the explicit compaction rewrites the journal.
        store.put(bad, execute_run(good))
        assert store.failed_specs() == []
        assert store.journalled_failures()  # not rewritten yet
        assert store.prune_journal({(bad.key, bad.flavor)}) == 1
        assert store.journalled_failures() == []

    def test_prune_is_engine_aware(self, tmp_path):
        # A scheduled-engine success must not erase a reference-engine
        # failure of the same design point from the manifest.
        store = ResultStore(tmp_path)
        bad_ref = RunSpec(
            benchmark="NO_SUCH_BENCH",
            config=private_config(),
            scale=0.02,
            cycle_skip=False,
        )
        run_specs([bad_ref], store=store, strict=False)
        assert store.prune_journal({(bad_ref.key, ("skip", ""))}) == 0
        assert len(store.failed_specs()) == 1
        assert store.prune_journal({(bad_ref.key, ("reference", ""))}) == 1
        assert store.failed_specs() == []

    def test_cross_check_batch_runs_both_engines(self, tmp_path):
        # The two engine flavors of one design point are distinct work
        # units: a cross-check batch must execute and cache both.
        store = ResultStore(tmp_path)
        skip_spec = _spec(baseline_config())
        ref_spec = _spec(baseline_config(), cycle_skip=False)
        report = run_specs([skip_spec, ref_spec], store=store)
        assert report.total == 2
        assert report.executed == 2
        assert skip_spec in store
        assert ref_spec in store


class TestBusyBatching:
    """The interconnect's batched busy-cycle accounting (ROADMAP lever)."""

    def _simulator(self, config, bench="UA"):
        model = model_for_config(config)
        traces = synthesize_benchmark(
            bench, thread_count=config.core_count, scale=0.05
        )
        system = model.build_system(config, traces)
        system.warm_instruction_l2s()
        return SystemSimulator(system)

    def test_narrow_bus_batches_busy_windows(self):
        # 64 B lines over an 8 B bus occupy a bus for 8 cycles: the
        # interconnect component must sleep across those windows and
        # recover the busy accounting in batches.
        simulator = self._simulator(
            worker_shared_config(bus_count=1, bus_width_bytes=8)
        )
        result = simulator.run()
        stats = simulator.kernel.stats
        assert stats.interconnect_busy_batched > 0
        busy = sum(group.bus_busy_cycles for group in result.cache_groups)
        assert busy >= stats.interconnect_busy_batched

    def test_reference_engine_never_batches(self):
        config = worker_shared_config(bus_count=1, bus_width_bytes=8)
        model = model_for_config(config)
        traces = synthesize_benchmark(
            "UA", thread_count=config.core_count, scale=0.05
        )
        system = model.build_system(config, traces)
        system.warm_instruction_l2s()
        simulator = SystemSimulator(system, cycle_skip=False)
        simulator.run()
        assert simulator.kernel.stats.interconnect_busy_batched == 0

    def test_default_width_still_engages(self):
        # Even at the paper's 32 B bus (2-cycle occupancy), draining
        # transfers let the component sleep and settle on wake.
        simulator = self._simulator(worker_shared_config())
        simulator.run()
        assert simulator.kernel.stats.interconnect_busy_batched > 0
