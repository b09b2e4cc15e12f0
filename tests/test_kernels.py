"""Kernel backend tests: compiled equivalence, selection, consumers.

``repro.kernels.pylib`` is the specification and the pure-Python
backend; the compiled backend must be bit-identical on every input,
including tie-breaks, seen-set insertion order and float rounding. The
equivalence classes run both backends over the same randomized inputs
and compare final table states. When the extension is not already
loaded, the fixture builds it into a temp directory (skipping if the
host has no C compiler), so the pure-Python CI leg still exercises
everything except the native code itself.

The consumer classes run whichever backend is active: the commit
engine's walks against repeated ``step()`` calls, and the warmer's
per-core dispatch between the span kernel and the scalar walk.
"""

import importlib
import importlib.util
import random
import sys

import pytest

from repro.errors import ConfigurationError
from repro.kernels import pylib

# -- compiled backend equivalence ------------------------------------------


@pytest.fixture(scope="module")
def native(tmp_path_factory):
    """The compiled module: the loaded one, or a fresh temp-dir build."""
    from repro import kernels

    if kernels.backend_name() == "compiled":
        return importlib.import_module("repro.kernels._native")
    from repro.kernels.build import build

    out = tmp_path_factory.mktemp("kernels")
    try:
        path = build(out_dir=out, verbose=False)
    except Exception as exc:  # no compiler / headers on this host
        pytest.skip(f"cannot build the native extension here: {exc}")
    spec = importlib.util.spec_from_file_location("_native", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- backend selection ------------------------------------------------------


def _fresh_kernels(monkeypatch, value, block_native=False):
    """Re-import repro.kernels under ``REPRO_KERNELS=value``, leaving
    the process's real module bindings untouched afterwards."""
    if value is None:
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
    else:
        monkeypatch.setenv("REPRO_KERNELS", value)
    saved = {
        name: sys.modules.pop(name)
        for name in list(sys.modules)
        if name == "repro.kernels" or name.startswith("repro.kernels.")
    }

    class _BlockNative:
        def find_spec(self, fullname, path=None, target=None):
            if fullname == "repro.kernels._native":
                raise ImportError("native extension blocked for this test")
            return None

    finder = _BlockNative() if block_native else None
    if finder is not None:
        sys.meta_path.insert(0, finder)
    try:
        return importlib.import_module("repro.kernels")
    finally:
        if finder is not None:
            sys.meta_path.remove(finder)
        for name in list(sys.modules):
            if name == "repro.kernels" or name.startswith("repro.kernels."):
                del sys.modules[name]
        sys.modules.update(saved)


class TestBackendSelection:
    def test_py_override_forces_fallback(self, monkeypatch):
        module = _fresh_kernels(monkeypatch, "py")
        assert module.NATIVE is False
        assert module.backend_name() == "py"
        assert module.warm_span is module.pylib.warm_span
        assert module.replay_walk is module.pylib.replay_walk

    def test_invalid_value_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="REPRO_KERNELS"):
            _fresh_kernels(monkeypatch, "fast")

    def test_compiled_without_extension_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="not.*built"):
            _fresh_kernels(monkeypatch, "compiled", block_native=True)

    def test_default_falls_back_silently(self, monkeypatch):
        module = _fresh_kernels(monkeypatch, None, block_native=True)
        assert module.NATIVE is False
        assert module.backend_name() == "py"


# -- warmer dispatch (active backend) ----------------------------------------


def _sampled_warm_setup(**config_overrides):
    """A sliced UA trace plus the model and config to warm it on."""
    from repro.machine.model import get_model
    from repro.sampling import SamplingPlan
    from repro.sampling.slicer import IntervalKind, slice_traces
    from repro.trace.synthesis import synthesize_benchmark

    model = get_model("acmp")
    config = model.shared_config(itlb_enabled=True, **config_overrides)
    traces = synthesize_benchmark(
        "UA", thread_count=config.core_count, scale=0.2
    )
    plan = SamplingPlan(
        detail_instructions=2_000,
        skip_instructions=6_000,
        warmup_instructions=6_000,
    )
    intervals = [
        interval
        for interval in slice_traces(traces, plan)
        if interval.kind is not IntervalKind.SKIP
    ]
    assert intervals, "probe trace too small to slice"
    return model, config, traces, intervals


class TestWarmerSpanRouting:
    def test_non_lru_l1_takes_fallback(self, monkeypatch):
        from repro import kernels
        from repro.sampling import BatchedWarmer

        model, config, traces, intervals = _sampled_warm_setup(
            icache_policy="plru"
        )

        def forbidden(*args):
            raise AssertionError("span kernel engaged for a non-LRU L1")

        monkeypatch.setattr(kernels, "warm_span", forbidden)
        warmer = BatchedWarmer(model.build_system(config, traces), traces)
        assert sum(warmer.warm_interval(i) for i in intervals) > 0

    def test_span_path_safe_after_restore(self):
        """Restores adopt snapshot storage; the span walk must re-read
        the inner tables and keep warming the adopted ones."""
        from repro.sampling import BatchedWarmer

        model, config, traces, intervals = _sampled_warm_setup()
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


# -- replay_walk: the commit engine against its stepped self -----------------


def _random_engine(rng):
    from repro.backend.backend import CommitEngine

    engine = CommitEngine(
        iq_capacity=rng.choice([8, 16, 64]),
        initial_ipc=rng.choice([0.3, 0.6, 0.75, 1.0, 1.6, 2.3]),
    )
    engine.iq_push(rng.randrange(0, engine.iq_capacity + 1))
    engine._credit = rng.uniform(0.0, 0.99)
    return engine


def _stepped_horizons(engine, cap, space_limit):
    """Step ``engine`` with no pushes for up to ``cap`` cycles.

    Returns what the three planning walks must predict: the first
    committing cycle, the replay-window bound (one cycle past the commit
    that drains the queue or frees room down to ``space_limit``, else
    ``cap``) and the draining cycle.
    """
    first = horizon = drain = None
    for ahead in range(1, cap + 1):
        if not engine.step(ahead, "other"):
            continue
        if first is None:
            first = ahead
        remaining = engine.iq_count
        if horizon is None and (remaining <= space_limit or remaining == 0):
            horizon = ahead + 1
        if remaining == 0:
            drain = ahead
            break
    return first, cap if horizon is None else horizon, drain


class TestReplayWalkSpec:
    """The CommitEngine's replay_walk-backed planning and settlement
    walks against repeated ``step()`` calls on an identical engine."""

    def test_planning_modes_match_stepped_engine(self):
        rng = random.Random(51)
        for trial in range(300):
            seed = rng.randrange(1 << 30)
            engine = _random_engine(random.Random(seed))
            cap = rng.choice([5, 64, 4096])
            space = rng.randrange(0, engine.iq_capacity + 1)
            space_limit = engine.iq_capacity - space if space else -1
            occupied = engine.iq_count > 0

            first, horizon, drain = _stepped_horizons(
                _random_engine(random.Random(seed)), cap, space_limit
            )
            assert engine.cycles_to_next_commit(cap) == first, trial
            assert engine.replay_horizon(space, cap) == (
                horizon if occupied else None
            ), trial
            assert engine.drain_horizon(cap) == drain, trial

    def test_steps_mode_matches_stepped_settlement(self):
        from repro.errors import SimulationError

        rng = random.Random(52)
        stalls = 0
        for trial in range(400):
            seed = rng.randrange(1 << 30)
            cycles = rng.randrange(1, 60)
            replayed = _random_engine(random.Random(seed))
            stepped = _random_engine(random.Random(seed))
            committed = 0
            last_commit = None
            stall_credit = None
            for offset in range(1, cycles + 1):
                credit_before = stepped._credit
                stalls_before = stepped.stats.total_stall_cycles
                commit = stepped.step(offset, "other")
                if stepped.stats.total_stall_cycles != stalls_before:
                    # A replay stops on the stall cycle with its credit
                    # earned and nothing charged — the stepped prefix.
                    stall_credit = credit_before + stepped.ipc
                    break
                if commit:
                    committed += commit
                    last_commit = offset

            if stall_credit is not None:
                stalls += 1
                with pytest.raises(SimulationError, match="stall boundary"):
                    replayed.replay_steps(cycles)
                assert repr(replayed._credit) == repr(stall_credit), trial
            else:
                assert replayed.replay_steps(cycles) == (
                    committed, last_commit
                ), trial
                assert repr(replayed._credit) == repr(stepped._credit), trial
            assert replayed.iq_count == stepped.iq_count, trial
            assert replayed.stats.committed == stepped.stats.committed
            assert replayed.stats.base_cycles == stepped.stats.base_cycles
        assert stalls > 0, "trial mix never crossed a stall boundary"


# -- whole-span warming kernel and replay walk, compiled vs pylib ------------


def _random_span_columns(rng, blocks):
    """Flat span columns covering every branch kind and zero-line blocks."""
    starts, counts, kinds, keys, targets, takens = [], [], [], [], [], []
    for _ in range(blocks):
        starts.append(rng.randrange(1 << 16) & -64)
        counts.append(rng.randrange(0, 6))
        kind = rng.choice([0, 1, 1, 1, 2])
        kinds.append(kind)
        keys.append(rng.randrange(1 << 16))
        targets.append(rng.randrange(1 << 16))
        takens.append(rng.randrange(2))
    return starts, counts, kinds, keys, targets, takens


def _random_span_state(rng, have_itlb):
    """One randomized full warm-structure state for a warm_span trial."""
    l1_sets, l1_ways = 8, 2
    l2_sets, l2_ways = 16, 4
    return {
        "lb_lines": [None] * 4,
        "lb_uses": [0] * 4,
        "lb_clock": rng.randrange(64),
        "l1_tags": [[None] * l1_ways for _ in range(l1_sets)],
        "l1_order": [None] * l1_sets,
        "l1_ways": l1_ways,
        "l1_shift": 6,
        "l1_set_mask": l1_sets - 1,
        "l1_seen": set(),
        "l2_tags": [[None] * l2_ways for _ in range(l2_sets)],
        "l2_order": [None] * l2_sets,
        "l2_ways": l2_ways,
        "l2_shift": 6,
        "l2_set_mask": l2_sets - 1,
        "l2_seen": set(),
        "g_counters": [rng.randrange(4) for _ in range(64)],
        "g_history": rng.randrange(64),
        "g_mask": 63,
        "g_shift": 2,
        "lp_tags": [-1] * 16,
        "lp_trips": [0] * 16,
        "lp_currents": [0] * 16,
        "lp_conf": [0] * 16,
        "lp_mask": 15,
        "lp_shift": 2,
        "b_tags": [-1] * 32,
        "b_targets": [0] * 32,
        "b_mask": 31,
        "b_shift": 2,
        "t_map": {} if have_itlb else None,
        "t_seen": set() if have_itlb else None,
        "t_clock": rng.randrange(64),
        "t_shift": 12,
        "t_capacity": 4,
    }


_SPAN_ARG_ORDER = (
    "lb_lines", "lb_uses", "lb_clock",
    "l1_tags", "l1_order", "l1_ways", "l1_shift", "l1_set_mask", "l1_seen",
    "l2_tags", "l2_order", "l2_ways", "l2_shift", "l2_set_mask", "l2_seen",
    "g_counters", "g_history", "g_mask", "g_shift",
    "lp_tags", "lp_trips", "lp_currents", "lp_conf", "lp_mask", "lp_shift",
    "b_tags", "b_targets", "b_mask", "b_shift",
    "t_map", "t_seen", "t_clock", "t_shift", "t_capacity",
)


class TestCompiledSpanEquivalence:
    def test_warm_span(self, native):
        for trial in range(60):
            rng = random.Random(6200 + trial)
            columns = _random_span_columns(rng, rng.randrange(0, 40))
            have_itlb = trial % 2 == 0
            # Identically-seeded states, not deepcopies: a copy would
            # rebuild seen-sets/dicts in iteration order and silently
            # perturb their internal layout.
            state = _random_span_state(random.Random(trial), have_itlb)
            mirror = _random_span_state(random.Random(trial), have_itlb)

            def run(impl, s):
                return impl(
                    64, *columns, *(s[name] for name in _SPAN_ARG_ORDER)
                )

            result_native = run(native.warm_span, state)
            result_py = run(pylib.warm_span, mirror)
            assert result_native == result_py, trial
            for name in _SPAN_ARG_ORDER:
                value, expected = state[name], mirror[name]
                if isinstance(value, set):
                    # Insertion order must match, not just membership.
                    assert list(value) == list(expected), (trial, name)
                elif isinstance(value, dict):
                    assert list(value.items()) == list(expected.items()), (
                        trial, name,
                    )
                else:
                    assert value == expected, (trial, name)

    def test_replay_walk(self, native):
        rng = random.Random(63)
        for trial in range(4000):
            mode = rng.randrange(4)
            credit = rng.uniform(0.0, 1.5)
            ipc = rng.choice(
                [0.3, 0.6, 0.75, 1.0, 1.6, 2.3, rng.uniform(0.05, 4.0)]
            )
            iq = rng.randrange(0, 80)
            count = rng.randrange(0, 300)
            space_limit = rng.choice([-1, rng.randrange(0, 80)])
            result_py = pylib.replay_walk(
                mode, credit, ipc, iq, count, space_limit
            )
            result_native = native.replay_walk(
                mode, credit, ipc, iq, count, space_limit
            )
            assert result_py == result_native, (trial, mode)
            if mode == pylib.REPLAY_STEPS:
                # Float credit must match bit for bit, not just ==.
                assert repr(result_py[4]) == repr(result_native[4]), trial


# -- build CLI ---------------------------------------------------------------


def _fresh_kernels_with_stale_native(monkeypatch, value):
    """Re-import repro.kernels against a fake native module built
    before ``replay_walk`` existed, restoring real bindings afterwards."""
    import types

    if value is None:
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
    else:
        monkeypatch.setenv("REPRO_KERNELS", value)
    saved = {
        name: sys.modules.pop(name)
        for name in list(sys.modules)
        if name == "repro.kernels" or name.startswith("repro.kernels.")
    }
    stale = types.ModuleType("repro.kernels._native")
    stale.warm_span = pylib.warm_span  # no replay_walk
    sys.modules["repro.kernels._native"] = stale
    try:
        return importlib.import_module("repro.kernels")
    finally:
        for name in list(sys.modules):
            if name == "repro.kernels" or name.startswith("repro.kernels."):
                del sys.modules[name]
        sys.modules.update(saved)


class TestStaleExtension:
    def test_compiled_with_stale_extension_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="stale"):
            _fresh_kernels_with_stale_native(monkeypatch, "compiled")

    def test_default_demotes_stale_extension(self, monkeypatch):
        module = _fresh_kernels_with_stale_native(monkeypatch, None)
        assert module.NATIVE is False
        assert module.backend_name() == "py"


class TestBuildCli:
    def test_check_reports_backend_and_staleness(self, capsys):
        from repro.kernels import build as build_module

        status = build_module.main(["--check"])
        out = capsys.readouterr().out
        assert "backend:" in out
        assert "cc:" in out
        assert "staleness:" in out
        assert status in (0, 1)
        assert (status == 0) == ("staleness: current" in out)

    def test_build_failure_surfaces_compiler_stderr(
        self, monkeypatch, tmp_path
    ):
        from repro.kernels import build as build_module

        class _Failed:
            returncode = 1
            stderr = "synthetic-diagnostic: expected ';'"
            stdout = ""

        monkeypatch.setattr(
            build_module.subprocess,
            "run",
            lambda command, capture_output, text: _Failed(),
        )
        with pytest.raises(
            build_module.BuildError, match="synthetic-diagnostic"
        ):
            build_module.build(out_dir=tmp_path, verbose=False)
