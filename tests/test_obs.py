"""Tests for the observability layer: metrics registry, event timeline,
recorder switch, phase profiling, logging setup and the obs CLI."""

import importlib
import json
import logging
from pathlib import Path

import pytest

from repro import obs
from repro.errors import ObsError
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    canonical_labels,
)
from repro.obs.profile import PhaseTimer, phase_breakdown
from repro.obs.recorder import metrics_registry, recorder
from repro.obs.timeline import (
    SIM_PID,
    WALL_PID,
    TimelineTracer,
    dump_chrome_trace,
    validate_chrome_trace,
)

GOLDEN = Path(__file__).parent / "data" / "timeline_golden.json"


class TestLabels:
    def test_order_never_matters(self):
        assert canonical_labels({"a": 1, "b": 2}) == canonical_labels(
            {"b": 2, "a": 1}
        )

    def test_values_are_stringified(self):
        assert canonical_labels({"scale": 0.5}) == (("scale", "0.5"),)

    def test_bad_label_names_rejected(self):
        with pytest.raises(ObsError, match="label names"):
            canonical_labels({"": "x"})
        with pytest.raises(ObsError, match="label names"):
            canonical_labels({3: "x"})

    def test_same_series_same_metric(self):
        registry = MetricsRegistry()
        registry.counter("hits", machine="acmp", engine="skip").inc()
        registry.counter("hits", engine="skip", machine="acmp").inc()
        assert len(registry) == 1
        assert registry.find("hits", machine="acmp", engine="skip").value == 2


class TestMergeSemantics:
    def _registry(self, counter=0, gauge=0, observations=()):
        registry = MetricsRegistry()
        registry.counter("c").inc(counter)
        registry.gauge("g").set(gauge)
        for value in observations:
            registry.histogram("h").observe(value)
        return registry

    def test_counters_sum_gauges_max_histograms_componentwise(self):
        merged = self._registry(2, 5, (1.0, 3.0)).merge(
            self._registry(3, 4, (2.0,))
        )
        assert merged.find("c").value == 5
        assert merged.find("g").value == 5
        histogram = merged.find("h")
        assert (histogram.count, histogram.total) == (3, 6.0)
        assert (histogram.minimum, histogram.maximum) == (1.0, 3.0)

    def test_merge_is_associative_and_commutative(self):
        parts = [
            self._registry(1, 7, (2.0,)),
            self._registry(4, 2, ()),
            self._registry(2, 9, (5.0, 1.0)),
        ]

        def rollup(order):
            registry = MetricsRegistry()
            for part in order:
                registry.merge(part.to_payload())
            return registry.to_payload()

        a, b, c = parts
        assert rollup([a, b, c]) == rollup([c, a, b]) == rollup([b, c, a])
        # Grouped differently: (a+b)+c == a+(b+c).
        left = MetricsRegistry.rollup([a.to_payload(), b.to_payload()])
        left.merge(c.to_payload())
        right = MetricsRegistry.rollup([b.to_payload(), c.to_payload()])
        right.merge(a.to_payload())
        assert left.to_payload() == right.to_payload()

    def test_counter_cannot_decrease(self):
        with pytest.raises(ObsError, match="cannot decrease"):
            MetricsRegistry().counter("c").inc(-1)

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        with pytest.raises(ObsError, match="is a counter"):
            registry.histogram("x")
        other = MetricsRegistry()
        other.gauge("x").set(3)
        with pytest.raises(ObsError, match="cannot merge"):
            registry.merge(other)

    def test_relabel_overrides_and_stamps(self):
        registry = MetricsRegistry()
        registry.counter("n", sampling="", keep="yes").inc(2)
        stamped = registry.relabel(sampling="fast")
        metric = stamped.find("n", sampling="fast", keep="yes")
        assert metric is not None and metric.value == 2
        # The original registry is untouched.
        assert registry.find("n", sampling="", keep="yes").value == 2


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        registry = MetricsRegistry()
        registry.counter("runs", machine="acmp").inc(3)
        registry.gauge("depth").set(7)
        registry.histogram("lat", op="get").observe(0.25)
        registry.histogram("lat", op="get").observe(0.5)
        payload = registry.to_payload()
        rebuilt = MetricsRegistry.from_payload(
            json.loads(json.dumps(payload))
        )
        assert rebuilt.to_payload() == payload

    def test_payload_is_deterministic(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        one.counter("a").inc()
        one.counter("b", x="1").inc(2)
        two.counter("b", x="1").inc(2)
        two.counter("a").inc()
        assert one.to_payload() == two.to_payload()

    def test_malformed_rows_rejected(self):
        with pytest.raises(ObsError, match="malformed"):
            MetricsRegistry.from_payload([{"type": "counter"}])
        with pytest.raises(ObsError, match="malformed"):
            MetricsRegistry.from_payload([{"name": "x", "type": "nope"}])

    def test_rollup_skips_none(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        merged = MetricsRegistry.rollup([None, registry.to_payload(), None])
        assert merged.find("c").value == 1

    def test_empty_labels_kwargless(self):
        registry = MetricsRegistry()
        registry.counter("bare").inc()
        row = registry.to_payload()[0]
        assert row["labels"] == {}
        assert isinstance(
            MetricsRegistry.from_payload([row]).find("bare"), Counter
        )


class TestTimeline:
    def test_ring_buffer_drops_oldest_and_counts(self):
        tracer = TimelineTracer(capacity=3)
        for i in range(5):
            tracer.complete(f"e{i}", cat="t", ts=i, dur=1)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        names = [e["name"] for e in tracer.chrome_trace()["traceEvents"]
                 if e["ph"] == "X"]
        assert names == ["e2", "e3", "e4"]
        payload = tracer.chrome_trace()
        assert payload["otherData"]["dropped_events"] == "2"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ObsError, match="capacity"):
            TimelineTracer(capacity=0)

    def test_metadata_events_lead_the_export(self):
        tracer = TimelineTracer()
        tracer.set_thread_name(SIM_PID, 3, "2:Core")
        tracer.complete("nap", cat="kernel", ts=0, dur=5, tid=3)
        events = tracer.chrome_trace()["traceEvents"]
        phases = [e["ph"] for e in events]
        assert phases == ["M", "M", "M", "X"]
        named = [e for e in events if e["name"] == "thread_name"]
        assert named[0]["args"]["name"] == "2:Core"

    def test_wall_span_is_wall_domain(self):
        tracer = TimelineTracer()
        started = tracer.wall_ts()
        tracer.wall_span("warming", cat="sampling", started_ts=started)
        event = tracer.chrome_trace()["traceEvents"][-1]
        assert event["pid"] == WALL_PID
        assert event["dur"] >= 0

    def test_validator_accepts_own_output(self):
        tracer = TimelineTracer()
        tracer.complete("a", cat="t", ts=0, dur=1)
        tracer.instant("b", cat="t", ts=2)
        validate_chrome_trace(tracer.chrome_trace(metadata={"k": "v"}))

    @pytest.mark.parametrize(
        "payload, match",
        [
            ([], "object"),
            ({}, "traceEvents"),
            ({"traceEvents": [{"ph": "B", "name": "x"}]}, "phase"),
            (
                {"traceEvents": [{"ph": "X", "name": "", "pid": 1, "tid": 0}]},
                "name",
            ),
            (
                {
                    "traceEvents": [
                        {"ph": "X", "name": "x", "pid": "1", "tid": 0}
                    ]
                },
                "pid",
            ),
            (
                {
                    "traceEvents": [
                        {
                            "ph": "X",
                            "name": "x",
                            "pid": 1,
                            "tid": 0,
                            "ts": -1,
                        }
                    ]
                },
                "ts",
            ),
            (
                {
                    "traceEvents": [
                        {
                            "ph": "X",
                            "name": "x",
                            "pid": 1,
                            "tid": 0,
                            "ts": 0,
                        }
                    ]
                },
                "dur",
            ),
            (
                {
                    "traceEvents": [
                        {"ph": "M", "name": "oops", "pid": 1, "tid": 0}
                    ]
                },
                "metadata",
            ),
        ],
    )
    def test_validator_rejects(self, payload, match):
        with pytest.raises(ObsError, match=match):
            validate_chrome_trace(payload)

    def test_dump_validates_and_writes_deterministically(self, tmp_path):
        tracer = TimelineTracer()
        tracer.complete("a", cat="t", ts=0, dur=1)
        payload = tracer.chrome_trace()
        first = dump_chrome_trace(payload, tmp_path / "a.json")
        second = dump_chrome_trace(payload, tmp_path / "b.json")
        assert first.read_bytes() == second.read_bytes()
        with pytest.raises(ObsError):
            dump_chrome_trace({"traceEvents": 3}, tmp_path / "c.json")


class TestRecorder:
    def test_recording_scopes_and_restores(self):
        before = recorder()
        with obs.recording(metrics=True, timeline=True) as rec:
            assert recorder() is rec
            assert rec.registry is not None and rec.tracer is not None
            assert metrics_registry() is rec.registry
        assert recorder() is before

    def test_configure_and_disable(self):
        recorder_module = importlib.import_module("repro.obs.recorder")

        before = recorder()
        try:
            rec = obs.configure(metrics=True)
            assert obs.enabled() and rec.tracer is None
            obs.disable()
            assert not obs.enabled()
            assert metrics_registry() is None
        finally:
            recorder_module._active = before

    def test_env_activation(self, monkeypatch):
        recorder_module = importlib.import_module("repro.obs.recorder")
        from repro.obs.recorder import _configure_from_env

        before = recorder()
        try:
            monkeypatch.setenv("REPRO_OBS", "timeline")
            _configure_from_env()
            rec = recorder()
            assert rec is not None and rec.tracer is not None
            monkeypatch.setenv("REPRO_OBS", "metrics")
            _configure_from_env()
            assert recorder().tracer is None
        finally:
            recorder_module._active = before

    def test_unknown_env_value_warns_but_never_raises(
        self, monkeypatch, caplog
    ):
        from repro.obs.recorder import _configure_from_env

        recorder_module = importlib.import_module("repro.obs.recorder")

        before = recorder()
        try:
            obs.disable()
            monkeypatch.setenv("REPRO_OBS", "bogus")
            with caplog.at_level(logging.WARNING, logger="repro.obs.recorder"):
                _configure_from_env()
            assert "not recognised" in caplog.text
            assert recorder() is None
        finally:
            recorder_module._active = before

    def test_disabled_run_attaches_no_metrics(self):
        from repro.acmp import AcmpConfig
        from repro.machine import simulate
        from repro.trace.synthesis import synthesize_benchmark

        config = AcmpConfig(worker_count=2, cores_per_cache=2)
        traces = synthesize_benchmark(
            "CG", thread_count=3, scale=0.01, seed=0
        )
        # Force-disable regardless of the ambient REPRO_OBS state (CI
        # runs this file with recording on to hold bit-identity).
        recorder_module = importlib.import_module("repro.obs.recorder")
        before = recorder()
        try:
            obs.disable()
            result = simulate(config, traces)
        finally:
            recorder_module._active = before
        assert result.metrics is None


class TestPhaseTimer:
    def test_phases_accumulate(self):
        timer = PhaseTimer()
        with timer.phase("warming"):
            pass
        timer.add("warming", 0.5)
        timer.add("measurement", 1.5)
        assert timer.sections["warming"] == 2
        assert timer.seconds["warming"] >= 0.5
        fractions = timer.fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9

    def test_record_and_breakdown(self):
        timer = PhaseTimer()
        timer.add("warming", 2.0)
        timer.add("measurement", 6.0)
        registry = MetricsRegistry()
        timer.record(registry, machine="acmp")
        breakdown = phase_breakdown(registry)
        assert breakdown == {"warming": 2.0, "measurement": 6.0}
        histogram = registry.find("phase.warming", machine="acmp")
        assert isinstance(histogram, Histogram)
        assert histogram.count == 1 and histogram.total == 2.0


class TestGoldenTimeline:
    def test_small_run_export_is_byte_pinned(self, tmp_path):
        """The cycle-domain event stream of a tiny deterministic run is
        bit-identical across engines, so its export is pinned
        byte-for-byte (wall-domain spans only appear when the
        sampling/campaign tiers run)."""
        from repro.acmp import AcmpConfig
        from repro.machine import simulate
        from repro.trace.synthesis import synthesize_benchmark

        config = AcmpConfig(worker_count=2, cores_per_cache=2)
        traces = synthesize_benchmark(
            "CG", thread_count=3, scale=0.01, seed=0
        )
        with obs.recording(metrics=False, timeline=True) as rec:
            simulate(config, traces)
            payload = rec.tracer.chrome_trace(metadata={"benchmark": "CG"})
        exported = dump_chrome_trace(payload, tmp_path / "timeline.json")
        assert exported.read_text() == GOLDEN.read_text()


class TestLogSetup:
    def test_idempotent_single_handler(self):
        from repro.obs.log import ROOT, setup

        logger = setup("info")
        setup("debug")
        setup("warning")
        handlers = logging.getLogger(ROOT).handlers
        assert len(handlers) == 1
        assert logger.level == logging.WARNING

    def test_quiet_clamps(self):
        import argparse

        from repro.obs.log import setup_from_args

        logger = setup_from_args(
            argparse.Namespace(log_level="debug", quiet=True)
        )
        assert logger.level == logging.WARNING


class TestObsCli:
    def _record_store(self, tmp_path):
        from repro.campaign.runner import run_specs
        from repro.campaign.spec import RunSpec
        from repro.campaign.store import ResultStore
        from repro.machine.model import get_model

        store = ResultStore(tmp_path / "store")
        config = get_model("acmp").standard_design_points()[0]
        with obs.recording(metrics=True):
            run_specs(
                [RunSpec(benchmark="CG", config=config, scale=0.02)],
                store=store,
                name="obs-cli",
            )
        return store

    def test_summary_rolls_up_store(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        store = self._record_store(tmp_path)
        assert main(["summary", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "kernel.cycles_executed{" in out
        assert "phase.simulate{" in out

    def test_summary_prefix_filter_and_empty(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        store = self._record_store(tmp_path)
        assert main(["summary", str(store.root), "--prefix", "phase."]) == 0
        out = capsys.readouterr().out
        assert "kernel." not in out and "phase." in out
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["summary", str(empty)]) == 1

    def test_diff_reports_deltas(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        store = self._record_store(tmp_path)
        # A store diffed against itself is all-zero deltas.
        assert main(["diff", str(store.root), str(store.root)]) == 0
        assert "no metric deltas" in capsys.readouterr().out
        # Against an empty tree, every metric disappears.
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["diff", str(store.root), str(empty)]) == 0
        out = capsys.readouterr().out
        assert "kernel.cycles_executed{" in out and "value-" in out

    def test_timeline_exports_valid_trace(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        out_path = tmp_path / "timeline.json"
        assert (
            main(
                [
                    "timeline",
                    "--benchmark",
                    "CG",
                    "--scale",
                    "0.02",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        validate_chrome_trace(payload)
        cats = {e.get("cat") for e in payload["traceEvents"]}
        assert "kernel" in cats


class TestResultMetricsPersistence:
    def test_store_round_trips_metrics_beside_result(self, tmp_path):
        from repro.campaign.runner import execute_run
        from repro.campaign.spec import RunSpec
        from repro.campaign.store import ResultStore
        from repro.machine.model import get_model

        config = get_model("acmp").standard_design_points()[0]
        spec = RunSpec(benchmark="CG", config=config, scale=0.02)
        with obs.recording(metrics=True):
            result = execute_run(spec)
        assert result.metrics is not None
        store = ResultStore(tmp_path)
        store.put(spec, result)
        entry = json.loads(store.path_for(spec).read_text())
        # Beside, not inside: the result payload stays the bit-identity
        # contract.
        assert "metrics" in entry
        assert "metrics" not in entry["result"]
        loaded = store.get(spec)
        assert loaded.metrics == result.metrics

    def test_store_latency_metrics_recorded(self, tmp_path):
        from repro.campaign.spec import RunSpec
        from repro.campaign.store import ResultStore
        from repro.machine.model import get_model

        config = get_model("acmp").standard_design_points()[0]
        spec = RunSpec(benchmark="CG", config=config, scale=0.02)
        result = None
        with obs.recording(metrics=True):
            from repro.campaign.runner import execute_run

            result = execute_run(spec)
        store = ResultStore(tmp_path)
        with obs.recording(metrics=True) as rec:
            store.put(spec, result)
            assert store.get(spec) is not None
            assert store.get(RunSpec(
                benchmark="CG", config=config, scale=0.03
            )) is None
        assert rec.registry.find("store.result.put_s").count == 1
        assert (
            rec.registry.find("store.result.requests", outcome="hit").value
            == 1
        )
        assert (
            rec.registry.find("store.result.requests", outcome="miss").value
            == 1
        )
