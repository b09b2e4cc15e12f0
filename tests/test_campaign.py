"""Tests for the campaign layer: specs, the JSON store, and the runner."""

import json
import threading

import pytest

from repro.acmp import baseline_config, result_to_dict, worker_shared_config
from repro.campaign import (
    Campaign,
    ResultStore,
    RunSpec,
    execute_run,
    run_campaign,
    run_specs,
)
from repro.campaign import runner as campaign_runner
from repro.campaign.spec import shard_specs
from repro.campaign.store import merge_stores
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.common import ExperimentContext
from repro.scmp import private_config


def _tiny_spec(benchmark="CG", seed=0, **config_overrides):
    return RunSpec(
        benchmark=benchmark,
        config=baseline_config(**config_overrides),
        seed=seed,
        scale=0.02,
    )


class TestSpec:
    def test_key_identity(self):
        spec = _tiny_spec()
        # The machine model leads the key; it is derived from the
        # config's type through the registry when not given explicitly.
        assert spec.key == ("acmp", "CG", "baseline::32KB::4lb", 0, 0.02)
        assert spec.machine == "acmp"

    def test_campaign_cross_product(self):
        campaign = Campaign(
            name="sweep",
            benchmarks=("CG", "UA"),
            design_points=(baseline_config(), worker_shared_config()),
            seeds=(0, 1, 2),
            scale=0.02,
        )
        runs = campaign.runs()
        assert len(runs) == campaign.size == 2 * 2 * 3
        assert len({spec.key for spec in runs}) == len(runs)

    def test_empty_campaign_rejected(self):
        with pytest.raises(ConfigurationError):
            Campaign(name="x", benchmarks=(), design_points=(baseline_config(),))

    def test_colliding_labels_rejected(self):
        with pytest.raises(ConfigurationError, match="colliding"):
            Campaign(
                name="x",
                benchmarks=("CG",),
                # Same label, different configs: silent collisions in the
                # store would serve wrong results.
                design_points=(
                    baseline_config(),
                    baseline_config(arbitration="icount"),
                ),
            )


class TestResultStore:
    def test_round_trip_across_instances(self, tmp_path):
        spec = _tiny_spec()
        result = execute_run(spec)
        store = ResultStore(tmp_path / "cache")
        assert spec not in store
        store.put(spec, result)
        reopened = ResultStore(tmp_path / "cache")
        assert spec in reopened
        loaded = reopened.get(spec)
        assert result_to_dict(loaded) == result_to_dict(result)
        assert reopened.keys() == [spec.key]

    def test_distinct_keys_distinct_paths(self, tmp_path):
        store = ResultStore(tmp_path)
        paths = {
            store.path_for(_tiny_spec()),
            store.path_for(_tiny_spec(seed=1)),
            store.path_for(_tiny_spec(benchmark="UA")),
            store.path_for(_tiny_spec(line_buffers=8)),
        }
        assert len(paths) == 4

    def test_label_collision_detected_on_load(self, tmp_path):
        # worker_count is not part of the label, so these two specs
        # share a key; the store must refuse to serve one for the other
        # instead of silently returning a different machine's result.
        spec_9core = _tiny_spec()
        spec_5core = _tiny_spec(worker_count=4)
        assert spec_9core.key == spec_5core.key
        store = ResultStore(tmp_path)
        store.put(spec_9core, execute_run(spec_9core))
        with pytest.raises(SimulationError, match="different"):
            store.get(spec_5core)

    def test_warm_l2_mismatch_detected_on_load(self, tmp_path):
        spec_warm = _tiny_spec()
        spec_cold = RunSpec(
            benchmark="CG", config=baseline_config(), seed=0, scale=0.02,
            warm_l2=False,
        )
        store = ResultStore(tmp_path)
        store.put(spec_warm, execute_run(spec_warm))
        with pytest.raises(SimulationError, match="different"):
            store.get(spec_cold)


class TestStoreLegacyLayout:
    def test_entry_outside_machine_layout_is_a_miss(self, tmp_path):
        """A pre-machine-axis entry at ``<root>/<benchmark>/<file>`` —
        even a complete one under the spec's own filename — is never
        read: a miss for ``in`` and ``get``, absent from ``keys()``."""
        spec = _tiny_spec()
        store = ResultStore(tmp_path)
        legacy = store.root / spec.benchmark / store.path_for(spec).name
        legacy.parent.mkdir(parents=True)
        legacy.write_text(
            json.dumps(
                {
                    "key": list(spec.key),
                    "config_digest": spec.config_digest(),
                    "result": result_to_dict(execute_run(spec)),
                }
            )
        )
        assert spec not in store
        assert store.get(spec) is None
        assert store.keys() == []


class TestStoreConcurrentWriters:
    """Two runners over one store tree: engine flavors stay separate and
    interleaved writes never corrupt or cross-serve entries."""

    def test_engine_flavors_write_distinct_entries(self, tmp_path):
        spec_skip = _tiny_spec(worker_count=2)
        spec_ref = RunSpec(
            benchmark="CG",
            config=baseline_config(worker_count=2),
            scale=0.02,
            cycle_skip=False,
        )
        store = ResultStore(tmp_path)
        assert store.path_for(spec_skip) != store.path_for(spec_ref)
        assert store.path_for(spec_ref).name.endswith("__ref.json")

        # Two concurrent runners — one per engine flavor — share the
        # tree, as an engine cross-check batch on one host would.
        stores = [ResultStore(tmp_path), ResultStore(tmp_path)]
        reports = {}

        def runner(index, spec):
            reports[index] = run_specs(
                [spec], store=stores[index], name=f"runner-{index}"
            )

        threads = [
            threading.Thread(target=runner, args=(0, spec_skip)),
            threading.Thread(target=runner, args=(1, spec_ref)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert reports[0].executed == reports[1].executed == 1
        assert len(store) == 2  # one entry per flavor, same run key
        # Each flavor round-trips through a fresh store handle; the two
        # engines are bit-identical by contract, so the payloads agree,
        # but each must have been served from its own file.
        fresh = ResultStore(tmp_path)
        skip_loaded = fresh.get(spec_skip)
        ref_loaded = fresh.get(spec_ref)
        assert result_to_dict(skip_loaded) == result_to_dict(ref_loaded)
        # Tampering with the ref entry must not leak into skip reads
        # (i.e. the flavors really are separate files).
        store.path_for(spec_ref).unlink()
        assert fresh.get(spec_ref) is None
        assert fresh.get(spec_skip) is not None

    def test_flavor_mismatch_inside_entry_is_rejected(self, tmp_path):
        spec = _tiny_spec(worker_count=2)
        store = ResultStore(tmp_path)
        store.put(spec, execute_run(spec))
        path = store.path_for(spec)
        payload = json.loads(path.read_text())
        payload["engine"] = "reference"
        path.write_text(json.dumps(payload))
        with pytest.raises(SimulationError, match="never share"):
            store.get(spec)

    def test_interleaved_writers_land_every_entry(self, tmp_path):
        # Two runner threads racing disjoint-but-interleaved spec lists
        # over one tree: every entry lands intact (atomic tmp-file
        # replace), including the spec both runners write.
        result = execute_run(_tiny_spec(worker_count=2))
        specs = [
            _tiny_spec(worker_count=2, seed=seed) for seed in range(6)
        ]
        stores = [ResultStore(tmp_path), ResultStore(tmp_path)]

        def writer(store, mine):
            for spec in mine:
                store.put(spec, result)

        threads = [
            threading.Thread(target=writer, args=(stores[0], specs[:4])),
            threading.Thread(target=writer, args=(stores[1], specs[2:])),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        fresh = ResultStore(tmp_path)
        assert len(fresh) == len(specs)
        for spec in specs:
            assert result_to_dict(fresh.get(spec)) == result_to_dict(result)
        assert not list(fresh.root.rglob("*.tmp"))


class TestSharding:
    """--shard K/N must partition a campaign: disjoint and complete."""

    def _campaign_specs(self):
        return Campaign(
            name="shardable",
            benchmarks=("CG", "UA", "CoMD"),
            design_points=(
                baseline_config(),
                worker_shared_config(),
                private_config(core_count=4),
            ),
            seeds=(0, 1, 2),
            scale=0.02,
        ).runs()

    @pytest.mark.parametrize("count", (1, 2, 3, 4, 7))
    def test_shards_disjoint_and_complete(self, count):
        specs = self._campaign_specs()
        shards = [
            shard_specs(specs, index, count)
            for index in range(1, count + 1)
        ]
        seen = [spec.key for shard in shards for spec in shard]
        assert sorted(seen) == sorted(spec.key for spec in specs)
        assert len(seen) == len(set(seen))

    def test_shard_assignment_is_enumeration_order_independent(self):
        specs = self._campaign_specs()
        forward = {spec.key for spec in shard_specs(specs, 1, 3)}
        backward = {
            spec.key for spec in shard_specs(list(reversed(specs)), 1, 3)
        }
        assert forward == backward

    def test_runner_executes_only_its_shard(self, monkeypatch, tmp_path):
        result = execute_run(_tiny_spec(worker_count=2))
        monkeypatch.setattr(
            campaign_runner, "execute_run", lambda spec: result
        )
        specs = self._campaign_specs()
        keys_by_shard = []
        total_sharded_out = 0
        for index in (1, 2, 3):
            report = run_specs(
                specs, shard=(index, 3), name=f"shard-{index}"
            )
            keys_by_shard.append(set(report.results))
            assert report.sharded_out == len(specs) - len(report.results)
            total_sharded_out += report.sharded_out
        union = set().union(*keys_by_shard)
        assert union == {spec.key for spec in specs}
        assert sum(len(keys) for keys in keys_by_shard) == len(union)
        assert total_sharded_out == 2 * len(specs)


class TestRunner:
    def test_serial_and_parallel_agree(self, tmp_path):
        campaign = Campaign(
            name="agree",
            benchmarks=("CG", "UA"),
            design_points=(baseline_config(),),
            scale=0.02,
        )
        serial = run_campaign(campaign)
        parallel = run_campaign(campaign, jobs=2)
        assert serial.results.keys() == parallel.results.keys()
        for key, result in serial.results.items():
            assert result_to_dict(result) == result_to_dict(
                parallel.results[key]
            )
        assert serial.executed == parallel.executed == 2

    def test_store_caching_across_invocations(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        campaign = Campaign(
            name="cached",
            benchmarks=("CG",),
            design_points=(baseline_config(),),
            seeds=(0, 1),
            scale=0.02,
        )
        first = run_campaign(campaign, store=store)
        assert (first.executed, first.cached) == (2, 0)
        second = run_campaign(campaign, store=store)
        assert (second.executed, second.cached) == (0, 2)
        for key, result in first.results.items():
            assert result_to_dict(result) == result_to_dict(
                second.results[key]
            )

    def test_per_seed_traces_differ(self):
        # Different seeds synthesise different trace realisations, so the
        # runs are genuinely independent samples.
        base = execute_run(_tiny_spec(seed=0))
        other = execute_run(_tiny_spec(seed=7))
        assert base.cycles != other.cycles

    def test_progress_hook_called(self):
        calls = []
        run_specs(
            [_tiny_spec(), _tiny_spec(benchmark="UA")],
            progress=lambda done, total, spec, elapsed: calls.append(
                (done, total)
            ),
        )
        assert calls == [(1, 2), (2, 2)]

    def test_duplicate_specs_run_once(self):
        report = run_specs([_tiny_spec(), _tiny_spec()])
        assert report.total == 1
        assert report.executed == 1

    def test_jobs_clamped_to_host_cpus(self, monkeypatch, caplog):
        monkeypatch.setattr(campaign_runner.os, "cpu_count", lambda: 2)
        with caplog.at_level("WARNING", logger="repro.campaign.runner"):
            report = run_specs(
                [_tiny_spec(), _tiny_spec(benchmark="UA")], jobs=64
            )
        assert report.jobs == 64
        assert report.effective_jobs == 2
        assert "clamping --jobs 64 to 2 host CPU(s)" in caplog.text
        assert "(clamped to 2)" in report.summary()

    def test_jobs_within_host_cpus_not_clamped(self, monkeypatch, caplog):
        monkeypatch.setattr(campaign_runner.os, "cpu_count", lambda: 8)
        with caplog.at_level("WARNING", logger="repro.campaign.runner"):
            report = run_specs([_tiny_spec()], jobs=1)
        assert report.jobs == 1
        assert report.effective_jobs == 1
        assert "clamping" not in caplog.text
        assert "(clamped" not in report.summary()

    def test_colliding_specs_in_one_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="share the key"):
            run_specs([_tiny_spec(), _tiny_spec(worker_count=4)])


class TestFromFailuresResume:
    """failures.jsonl as a resume manifest: recovered runs are pruned
    from it exactly once."""

    def _journal_entry(self, spec):
        from dataclasses import asdict

        return {
            "machine": spec.machine,
            "benchmark": spec.benchmark,
            "label": spec.config.label(),
            "seed": spec.seed,
            "scale": spec.scale,
            "warm_l2": spec.warm_l2,
            "cycle_skip": spec.cycle_skip,
            "engine": spec.engine,
            "config": asdict(spec.config),
            "error": "RuntimeError: transient",
            "attempts": 2,
        }

    def test_cli_resume_prunes_recovered_run_exactly_once(
        self, tmp_path, capsys
    ):
        from repro.campaign.__main__ import main

        store = ResultStore(tmp_path / "cache")
        # A run that failed transiently in some past sweep but succeeds
        # now: journalled, absent from the store.
        spec = _tiny_spec(worker_count=2)
        with store.journal_path.open("a") as journal:
            journal.write(json.dumps(self._journal_entry(spec)) + "\n")

        code = main(
            ["--cache-dir", str(store.root), "--from-failures", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pruned 1 recovered run(s)" in out
        assert store.get(spec) is not None
        assert store.journalled_failures() == []

        # Second resume: the manifest is empty — the recovered run is
        # not pruned (or executed) a second time.
        code = main(
            ["--cache-dir", str(store.root), "--from-failures", "--quiet"]
        )
        assert code == 0
        assert "pruned" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad_args, message",
        [
            (["--benchmarks", "CG,NOPE", "--scale", "0.05"], "valid names"),
            (["--scale", "0"], "--scale must be positive"),
        ],
        ids=["unknown-benchmark", "zero-scale"],
    )
    def test_cli_rejects_inputs_every_run_would_fail_on(
        self, tmp_path, capsys, bad_args, message
    ):
        """A typo must not journal one permanent failure per design
        point: the CLI exits with status 2 before touching the store."""
        from repro.campaign.__main__ import main

        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as exit_info:
            main(["--cache-dir", str(cache), "--quiet", *bad_args])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not (cache / "failures.jsonl").exists()

    def test_prune_drops_only_matching_flavor(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = _tiny_spec(worker_count=2)
        ref_spec = RunSpec(
            benchmark=spec.benchmark,
            config=spec.config,
            seed=spec.seed,
            scale=spec.scale,
            cycle_skip=False,
        )
        with store.journal_path.open("a") as journal:
            journal.write(json.dumps(self._journal_entry(spec)) + "\n")
            journal.write(json.dumps(self._journal_entry(ref_spec)) + "\n")
        # Only the scheduled flavor recovered: the reference cross-check
        # entry must survive the compaction.
        assert store.prune_journal({(spec.key, spec.flavor)}) == 1
        remaining = store.journalled_failures()
        assert len(remaining) == 1
        assert remaining[0]["engine"] == "reference"
        # Re-compacting with the same success set is a no-op: an entry
        # is pruned exactly once.
        assert store.prune_journal({(spec.key, spec.flavor)}) == 0
        assert len(store.journalled_failures()) == 1

    def test_failed_specs_skips_entries_already_in_store(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = _tiny_spec(worker_count=2)
        store.put(spec, execute_run(spec))
        with store.journal_path.open("a") as journal:
            journal.write(json.dumps(self._journal_entry(spec)) + "\n")
        # The run already landed (another shard recovered it): the
        # manifest rebuild must not schedule it again.
        assert store.failed_specs() == []


class TestExperimentContextIntegration:
    def test_context_uses_store(self, tmp_path):
        cache = tmp_path / "cache"
        first = ExperimentContext(
            scale=0.02, benchmarks=["CG"], cache_dir=cache
        )
        result = first.run("CG", baseline_config())
        # A fresh context with the same cache must not re-simulate: the
        # stored result round-trips identically.
        second = ExperimentContext(
            scale=0.02, benchmarks=["CG"], cache_dir=cache
        )
        cached = second.run("CG", baseline_config())
        assert result_to_dict(cached) == result_to_dict(result)
        assert len(ResultStore(cache)) == 1

    def test_context_rejects_label_collision(self):
        ctx = ExperimentContext(scale=0.02, benchmarks=["CG"])
        ctx.run("CG", baseline_config())
        with pytest.raises(ConfigurationError, match="share the label"):
            ctx.run("CG", baseline_config(worker_count=4))

    def test_context_handles_non_default_core_count(self):
        # The in-process path must synthesise traces matching the design
        # point's core count, exactly as the campaign workers do.
        ctx = ExperimentContext(scale=0.02, benchmarks=["CG"])
        result = ctx.run("CG", baseline_config(worker_count=4))
        assert len(result.cores) == 5

    def test_context_parallel_matches_serial(self):
        pairs = [
            ("CG", baseline_config()),
            ("CG", worker_shared_config()),
            ("UA", baseline_config()),
            ("UA", worker_shared_config()),
        ]
        serial = ExperimentContext(scale=0.02, benchmarks=["CG", "UA"])
        parallel = ExperimentContext(
            scale=0.02, benchmarks=["CG", "UA"], jobs=2
        )
        parallel.ensure(pairs)
        for name, config in pairs:
            assert result_to_dict(
                parallel.run(name, config)
            ) == result_to_dict(serial.run(name, config))


class TestFaultTolerance:
    """A failing run is retried once, journalled, and never aborts a sweep."""

    def _bad_spec(self):
        return RunSpec(
            benchmark="NO_SUCH_BENCH", config=baseline_config(), scale=0.02
        )

    def test_failure_journalled_and_sweep_completes(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        good = _tiny_spec()
        report = run_specs(
            [good, self._bad_spec()], store=store, strict=False
        )
        assert good.key in report.results
        assert store.get(good) is not None  # the good run still landed
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.attempts == campaign_runner.MAX_ATTEMPTS
        assert "NO_SUCH_BENCH" in failure.spec.benchmark
        assert "FAILED" in report.summary()
        lines = (
            (tmp_path / "cache" / "failures.jsonl").read_text().splitlines()
        )
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["benchmark"] == "NO_SUCH_BENCH"
        assert entry["attempts"] == campaign_runner.MAX_ATTEMPTS
        assert entry["config"]["worker_count"] == 8
        assert entry["error"]

    def test_strict_raises_after_finishing_everything_else(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        good = _tiny_spec()
        with pytest.raises(SimulationError, match="still failing"):
            run_specs([good, self._bad_spec()], store=store)
        # The sweep was not aborted: the good run is cached and the
        # failure journalled before the raise.
        assert store.get(good) is not None
        assert (tmp_path / "cache" / "failures.jsonl").exists()

    def test_retry_recovers_transient_failure(self, monkeypatch):
        real = campaign_runner.execute_run
        calls = {"n": 0}

        def flaky(spec):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient worker crash")
            return real(spec)

        monkeypatch.setattr(campaign_runner, "execute_run", flaky)
        report = run_specs([_tiny_spec()], strict=True)
        assert not report.failures
        assert len(report.results) == 1
        assert calls["n"] == 2

    def test_parallel_sweep_survives_failures(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = [_tiny_spec(seed=0), _tiny_spec(seed=1), self._bad_spec()]
        report = run_specs(specs, jobs=2, store=store, strict=False)
        assert len(report.results) == 2
        assert len(report.failures) == 1
        assert report.executed == 2

    def test_no_store_still_tolerates_failures(self):
        report = run_specs(
            [_tiny_spec(), self._bad_spec()], strict=False
        )
        assert len(report.results) == 1
        assert len(report.failures) == 1


class TestJournalForensics:
    """failures.jsonl entries carry when/where/how-long; legacy lines
    without those fields keep parsing."""

    def _bad_spec(self):
        return RunSpec(
            benchmark="NO_SUCH_BENCH", config=baseline_config(), scale=0.02
        )

    def _journal_one_failure(self, root):
        store = ResultStore(root)
        run_specs([self._bad_spec()], store=store, strict=False)
        return store

    def test_new_entries_carry_forensic_fields(self, tmp_path):
        import datetime
        import socket

        store = self._journal_one_failure(tmp_path / "cache")
        (entry,) = store.journalled_failures()
        # ISO-8601, parseable back to an aware datetime.
        stamp = datetime.datetime.fromisoformat(entry["time"])
        assert stamp.tzinfo is not None
        assert entry["host"] == socket.gethostname()
        assert isinstance(entry["duration_s"], float)
        assert entry["duration_s"] >= 0.0

    def test_legacy_lines_without_fields_still_parse(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = self._bad_spec()
        legacy = {
            "machine": spec.machine,
            "benchmark": spec.benchmark,
            "label": spec.config.label(),
            "seed": spec.seed,
            "scale": spec.scale,
            "engine": spec.engine,
            "sampling": spec.sampling,
            "config": {
                "worker_count": spec.config.worker_count,
                "cores_per_cache": spec.config.cores_per_cache,
            },
            "error": "boom",
            "attempts": 2,
        }
        store.journal_path.write_text(json.dumps(legacy) + "\n")
        (entry,) = store.journalled_failures()
        assert "time" not in entry and "host" not in entry
        (rebuilt,) = store.failed_specs()
        assert rebuilt.benchmark == spec.benchmark

    def test_lines_without_a_machine_are_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = self._bad_spec()
        line = {
            "benchmark": spec.benchmark,
            "label": spec.config.label(),
            "config": {"worker_count": spec.config.worker_count},
            "error": "boom",
        }
        store.journal_path.write_text(json.dumps(line) + "\n")
        assert len(store.journalled_failures()) == 1
        assert store.failed_specs() == []

    def test_prune_preserves_fields_of_kept_entries(self, tmp_path):
        store = self._journal_one_failure(tmp_path / "cache")
        good = _tiny_spec()
        run_specs([good], store=store, strict=True)
        # Pruning the recovered run must rewrite the journal without
        # stripping the surviving entry's forensic fields.
        assert store.prune_journal({(good.key, good.flavor)}) == 0
        (kept,) = store.journalled_failures()
        assert "time" in kept and "host" in kept and "duration_s" in kept

    def test_merge_preserves_journal_fields(self, tmp_path):
        source = self._journal_one_failure(tmp_path / "source")
        (original,) = source.journalled_failures()
        merge_stores([source.root], tmp_path / "merged")
        merged = ResultStore(tmp_path / "merged")
        assert merged.journalled_failures() == [original]


class TestStoreMaintenance:
    """merge / gc / --status: store-tree upkeep without simulation."""

    def _store_with(self, root, specs_and_results):
        store = ResultStore(root)
        for spec, result in specs_and_results:
            store.put(spec, result)
        return store

    def _result_for(self, spec, cycles=100):
        from repro.machine.results import SimulationResult

        return SimulationResult(
            benchmark=spec.benchmark,
            config_label=spec.config.label(),
            cycles=cycles,
            machine=spec.machine,
        )

    def test_merge_unions_disjoint_trees(self, tmp_path):
        from repro.campaign import merge_stores

        spec_a = _tiny_spec("CG")
        spec_b = _tiny_spec("UA")
        self._store_with(tmp_path / "a", [(spec_a, self._result_for(spec_a))])
        self._store_with(tmp_path / "b", [(spec_b, self._result_for(spec_b))])
        report = merge_stores(
            [tmp_path / "a", tmp_path / "b"], tmp_path / "merged"
        )
        assert report.copied == 2 and report.replaced == 0
        merged = ResultStore(tmp_path / "merged")
        assert merged.get(spec_a).cycles == 100
        assert merged.get(spec_b).cycles == 100

    def test_merge_newest_wins_on_collision(self, tmp_path):
        import os

        from repro.campaign import merge_stores

        spec = _tiny_spec("CG")
        old = self._store_with(
            tmp_path / "old", [(spec, self._result_for(spec, cycles=1))]
        )
        new = self._store_with(
            tmp_path / "new", [(spec, self._result_for(spec, cycles=2))]
        )
        stale = old.path_for(spec)
        fresh = new.path_for(spec)
        os.utime(stale, (1_000_000, 1_000_000))
        os.utime(fresh, (2_000_000, 2_000_000))
        merge_stores([tmp_path / "old"], tmp_path / "merged")
        report = merge_stores([tmp_path / "new"], tmp_path / "merged")
        assert report.replaced == 1
        assert ResultStore(tmp_path / "merged").get(spec).cycles == 2
        # Merging the stale tree back does not regress the entry.
        report = merge_stores([tmp_path / "old"], tmp_path / "merged")
        assert report.skipped == 1
        assert ResultStore(tmp_path / "merged").get(spec).cycles == 2

    def test_merge_unions_failure_journals(self, tmp_path):
        from repro.campaign import merge_stores

        line = json.dumps({"machine": "acmp", "benchmark": "CG"})
        for name in ("a", "b"):
            store = ResultStore(tmp_path / name)
            store.journal_path.write_text(line + "\n")
        merge_stores([tmp_path / "a", tmp_path / "b"], tmp_path / "merged")
        merged = ResultStore(tmp_path / "merged")
        assert len(merged.journalled_failures()) == 1  # deduplicated

    def test_merge_rejects_bad_sources(self, tmp_path):
        from repro.campaign import merge_stores

        with pytest.raises(ConfigurationError, match="not a directory"):
            merge_stores([tmp_path / "missing"], tmp_path / "merged")
        (tmp_path / "tree").mkdir()
        with pytest.raises(ConfigurationError, match="destination itself"):
            merge_stores([tmp_path / "tree"], tmp_path / "tree")

    def test_gc_drops_unparsable_flavors(self, tmp_path):
        spec = _tiny_spec("CG")
        store = self._store_with(
            tmp_path, [(spec, self._result_for(spec))]
        )
        good = store.path_for(spec)
        sampled = RunSpec(
            benchmark="CG",
            config=baseline_config(),
            scale=0.02,
            sampling="fast",
        )
        store.put(sampled, self._result_for(sampled))
        # Three kinds of debris: corrupt JSON, a retired machine model,
        # and an unparsable sampling flavor.
        corrupt = good.parent / "corrupt.json"
        corrupt.write_text("{not json")
        retired = json.loads(good.read_text())
        retired["key"][0] = "retired-machine"
        (good.parent / "retired.json").write_text(json.dumps(retired))
        bad_sampling = json.loads(good.read_text())
        bad_sampling["sampling"] = "x-not-a-plan"
        (good.parent / "badsamp.json").write_text(json.dumps(bad_sampling))

        victims = store.gc(dry_run=True)
        assert len(victims) == 3
        assert len(store) == 5  # dry run removed nothing
        assert len(store.gc()) == 3
        assert len(store) == 2
        assert store.get(spec) is not None
        assert store.get(sampled) is not None

    def test_status_reports_done_failed_pending(self, tmp_path, capsys):
        from repro.campaign.__main__ import main
        from repro.machine.model import get_model

        store = ResultStore(tmp_path)
        model = get_model("acmp")
        points = model.standard_design_points()
        specs = [
            RunSpec(benchmark="CG", config=config, scale=0.02)
            for config in points
        ]
        # Two done, one journalled as failed, the rest pending.
        for spec in specs[:2]:
            store.put(spec, self._result_for(spec))
        failed = specs[2]
        entry = {
            "machine": failed.machine,
            "benchmark": failed.benchmark,
            "label": failed.config.label(),
            "seed": failed.seed,
            "scale": failed.scale,
            "engine": failed.engine,
            "sampling": failed.sampling,
        }
        with store.journal_path.open("a") as journal:
            journal.write(json.dumps(entry) + "\n")

        code = main(
            [
                "--cache-dir", str(tmp_path), "--status", "--machine",
                "acmp", "--benchmarks", "CG", "--scale", "0.02",
                "--shards", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert (
            f"acmp: {len(points)} runs — 2 done, 1 failed, "
            f"{len(points) - 3} pending"
        ) in out
        assert "shard 1/2" in out and "shard 2/2" in out

    def test_sampled_campaign_caches_separately(self, tmp_path):
        full = _tiny_spec("CG", worker_count=2)
        sampled = RunSpec(
            benchmark="CG",
            config=baseline_config(worker_count=2),
            scale=0.02,
            sampling="d1000000:s7000000:w7000000:r0",
        )
        store = ResultStore(tmp_path)
        run_specs([full, sampled], store=store, name="both-flavors")
        assert len(store) == 2
        # The sampled entry carries its annotation; the full one not.
        assert store.get(full).sampling is None
        info = store.get(sampled).sampling
        assert info is not None and info["plan"] == sampled.sampling

    def test_mixed_flavor_batch_prefers_full_detail(self, tmp_path):
        """One batch carrying both flavors of a key: results surfaces
        the full-detail run deterministically, and ``completed`` keeps
        the flavor-exact record for journal compaction."""
        full = _tiny_spec("CG", worker_count=2)
        sampled = RunSpec(
            benchmark="CG",
            config=baseline_config(worker_count=2),
            scale=0.02,
            sampling="d1000000:s7000000:w7000000:r0",
        )
        for batch in ([full, sampled], [sampled, full]):
            report = run_specs(batch, name="mixed")
            assert report.results[full.key].sampling is None
            assert report.completed == {
                (full.key, full.flavor),
                (sampled.key, sampled.flavor),
            }
