"""Trace providers, the capture hook, corpus resolution and the trace CLI."""

import pytest

from repro.errors import TraceError
from repro.trace import open_trace_set
from repro.trace.__main__ import main as trace_main
from repro.trace.fingerprint import trace_fingerprint
from repro.trace.provider import (
    SynthesisProvider,
    TraceDirectoryProvider,
    TraceProvider,
    capture_trace_set,
    provider_for,
    trace_set_slug,
)
from repro.trace.synthesis import synthesize_benchmark
from repro.trace.validation import validate_trace_set


class TestSynthesisProvider:
    def test_matches_direct_synthesis(self):
        provider = SynthesisProvider()
        mine = provider.trace_set("CG", thread_count=3, scale=0.02, seed=4)
        direct = synthesize_benchmark("CG", thread_count=3, scale=0.02, seed=4)
        assert [t.records for t in mine.threads] == [
            t.records for t in direct.threads
        ]

    def test_capture_hook_persists_and_is_idempotent(self, tmp_path):
        provider = SynthesisProvider(tmp_path / "corpus", chunk_records=64)
        traces = provider.trace_set("CG", thread_count=3, scale=0.02, seed=4)
        expected = (
            tmp_path / "corpus" / "CG" / trace_set_slug(3, 0.02, 4)
        )
        assert (expected / "manifest.txt").exists()
        streamed = open_trace_set(expected)
        assert [list(t) for t in streamed.threads] == [
            t.records for t in traces.threads
        ]
        assert trace_fingerprint(streamed) == trace_fingerprint(traces)
        # Second synthesis leaves the captured set untouched.
        marker = (expected / "manifest.txt").read_bytes()
        provider.trace_set("CG", thread_count=3, scale=0.02, seed=4)
        assert (expected / "manifest.txt").read_bytes() == marker

    def test_satisfies_protocol(self):
        assert isinstance(SynthesisProvider(), TraceProvider)


class TestDirectoryProvider:
    def _corpus(self, tmp_path):
        traces = synthesize_benchmark("UA", thread_count=3, scale=0.02, seed=1)
        capture_trace_set(traces, tmp_path, scale=0.02, seed=1)
        return traces

    def test_resolves_capture_layout(self, tmp_path):
        traces = self._corpus(tmp_path)
        provider = TraceDirectoryProvider(tmp_path)
        assert isinstance(provider, TraceProvider)
        loaded = provider.trace_set("UA", thread_count=3, scale=0.02, seed=1)
        assert [list(t) for t in loaded.threads] == [
            t.records for t in traces.threads
        ]

    def test_resolves_bare_set_directory(self, tmp_path):
        from repro.trace.encoding import write_trace_set

        traces = synthesize_benchmark("CG", thread_count=2, scale=0.02, seed=0)
        write_trace_set(traces, tmp_path / "CG")
        loaded = TraceDirectoryProvider(tmp_path).trace_set(
            "CG", thread_count=2
        )
        assert loaded.thread_count == 2

    def test_missing_benchmark_raises(self, tmp_path):
        self._corpus(tmp_path)
        with pytest.raises(TraceError, match="no captured trace set.*'BT'"):
            TraceDirectoryProvider(tmp_path).trace_set("BT", thread_count=3)

    def test_thread_count_mismatch_raises(self, tmp_path):
        from repro.trace.encoding import write_trace_set

        traces = synthesize_benchmark("CG", thread_count=2, scale=0.02, seed=0)
        write_trace_set(traces, tmp_path / "CG")
        with pytest.raises(TraceError, match="holds 2 threads"):
            TraceDirectoryProvider(tmp_path).trace_set("CG", thread_count=5)

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(TraceError, match="does not exist"):
            TraceDirectoryProvider(tmp_path / "nope")

    def test_provider_for_dispatch(self, tmp_path):
        assert isinstance(provider_for(None, None), SynthesisProvider)
        assert isinstance(provider_for(None, tmp_path).capture_dir.name, str)
        (tmp_path / "corpus").mkdir()
        assert isinstance(
            provider_for(tmp_path / "corpus"), TraceDirectoryProvider
        )


class TestStreamValidation:
    def test_streamed_set_validates_single_pass(self, tmp_path):
        from repro.trace.encoding import write_trace_set

        traces = synthesize_benchmark("CG", thread_count=3, scale=0.02, seed=2)
        write_trace_set(traces, tmp_path / "set", chunk_records=64)
        streamed = open_trace_set(tmp_path / "set")
        report = validate_trace_set(streamed)
        reference = validate_trace_set(traces)
        assert report.instruction_counts == reference.instruction_counts
        assert report.parallel_phase_count == reference.parallel_phase_count
        assert report.total_instructions == traces.instruction_count


class TestTraceCli:
    def test_capture_index_convert_dump(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert (
            trace_main(
                [
                    "capture",
                    "CG",
                    "--out",
                    str(corpus),
                    "--threads",
                    "2",
                    "--scale",
                    "0.02",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        set_dir = corpus / "CG" / trace_set_slug(2, 0.02, 3)
        assert (set_dir / "manifest.txt").exists()
        capsys.readouterr()

        assert trace_main(["index", str(set_dir)]) == 0
        index_out = capsys.readouterr().out
        assert "thread 0" in index_out and "chunks" in index_out

        text = tmp_path / "text"
        assert (
            trace_main(["convert", str(set_dir), str(text), "--format", "trct"])
            == 0
        )
        rezip = tmp_path / "rezip"
        assert (
            trace_main(["convert", str(text), str(rezip), "--format", "trcz"])
            == 0
        )
        capsys.readouterr()
        # Conversion through a text intermediate is lossless AND
        # byte-stable: re-chunking reproduces the original files.
        for name in ("thread_000.trcz", "thread_001.trcz"):
            assert (rezip / name).read_bytes() == (set_dir / name).read_bytes()

        assert trace_main(["dump", str(rezip)]) == 0
        dump_out = capsys.readouterr().out
        assert dump_out.startswith("# set CG threads=2")
        assert "# thread 1" in dump_out

    def test_dump_single_file(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        trace_main(
            ["capture", "UA", "--out", str(corpus), "--threads", "2",
             "--scale", "0.02", "--seed", "0"]
        )
        capsys.readouterr()
        set_dir = corpus / "UA" / trace_set_slug(2, 0.02, 0)
        assert trace_main(["dump", str(set_dir / "thread_001.trcz")]) == 0
        assert capsys.readouterr().out.startswith("# thread 1")

    def test_error_paths_exit_nonzero(self, tmp_path, capsys):
        assert trace_main(["index", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err
        assert trace_main(["dump", str(tmp_path / "missing.trcz")]) == 1


class TestCampaignWiring:
    def test_execute_run_event_dir_matches_synthesis(self, tmp_path):
        from repro.acmp import AcmpConfig, result_to_dict
        from repro.campaign.runner import _traces_cached, execute_run
        from repro.campaign.spec import RunSpec

        _traces_cached.cache_clear()
        config = AcmpConfig(worker_count=2, cores_per_cache=2)
        spec = RunSpec(
            benchmark="CG", config=config, seed=5, scale=0.02
        )
        baseline = execute_run(spec)
        captured = execute_run(
            spec, None, "on", None, str(tmp_path / "corpus")
        )
        assert result_to_dict(captured) == result_to_dict(baseline)
        from_disk = execute_run(
            spec, None, "on", str(tmp_path / "corpus"), None
        )
        assert result_to_dict(from_disk) == result_to_dict(baseline)
        _traces_cached.cache_clear()
