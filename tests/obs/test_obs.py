"""Unit tests for the observability layer (spans, metrics, sinks)."""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.errors import TelemetryError
from repro.obs.metrics import (
    MetricsRegistry,
    is_environment_metric,
    is_timing_metric,
    merge_snapshot,
)
from repro.obs.sinks import (
    merge_profile,
    merge_telemetry,
    render_flat_profile,
    render_span_tree,
    render_telemetry,
    run_telemetry,
    write_telemetry_file,
)
from repro.obs.spans import capture, recording, span, span_label
from repro.obs.validate import validate_telemetry_file
from repro.runtime.records import RunRecord


class TestSpanLabel:
    def test_plain_name(self):
        assert span_label("estimate", {}) == "estimate"

    def test_attributes_sorted_deterministically(self):
        label = span_label("bootstrap", {"replicates": 3, "estimator": "dr"})
        assert label == "bootstrap[estimator=dr,replicates=3]"

    def test_separator_sanitised_out_of_values(self):
        label = span_label("x", {"chain": "dr>snips"})
        assert ">" not in label.split("[", 1)[1]


class TestCapture:
    def test_no_recorder_means_no_op(self):
        assert not recording()
        with span("estimate", estimator="dr"):
            assert not recording()

    def test_spans_recorded_with_paths_and_depth(self):
        with capture() as recorder:
            with span("outer"):
                with span("inner", k="v"):
                    pass
        paths = [record.path for record in recorder.spans]
        assert paths == ["outer>inner[k=v]", "outer"]
        depths = {record.path: record.depth for record in recorder.spans}
        assert depths["outer"] == 0
        assert depths["outer>inner[k=v]"] == 1

    def test_span_counts_aggregate(self):
        with capture() as recorder:
            for _ in range(3):
                with span("estimate", estimator="dr"):
                    pass
        assert recorder.span_counts() == {"estimate[estimator=dr]": 3}

    def test_capture_clears_ambient_span_stack(self):
        # A capture inside an ambient span must observe the same paths a
        # forked worker (fresh stack) would — this is what keeps
        # sequential and parallel telemetry byte-identical.
        with capture() as outer:
            with span("harness.sweep"):
                with capture() as inner:
                    with span("harness.run"):
                        pass
        assert inner.span_counts() == {"harness.run": 1}
        # The ambient prefix is cleared for every recorder, so the outer
        # sees the same flat path the inner (worker-equivalent) does.
        assert outer.span_counts() == {"harness.run": 1, "harness.sweep": 1}

    def test_nested_captures_both_record(self):
        with capture() as outer:
            with capture() as inner:
                with span("estimate"):
                    pass
        assert outer.span_counts() == inner.span_counts() == {"estimate": 1}

    def test_timings_are_nonnegative(self):
        with capture() as recorder:
            with span("estimate"):
                pass
        (record,) = recorder.spans
        assert record.wall_seconds >= 0.0
        assert record.cpu_seconds >= 0.0

    def test_module_level_metric_helpers_reach_recorder(self):
        with capture() as recorder:
            obs.increment("ope.fallback.hops")
            obs.set_gauge("ope.weights.max", 4.0)
            obs.observe("ope.weights.ess", 10.0)
        snapshot = recorder.metrics.snapshot()
        assert snapshot["counters"]["ope.fallback.hops"] == 1
        assert snapshot["gauges"]["ope.weights.max"]["last"] == 4.0
        assert snapshot["histograms"]["ope.weights.ess"]["count"] == 1

    def test_thread_local_span_stacks(self):
        # Spans on another thread must not nest under this thread's path.
        seen = {}

        def worker():
            with span("estimate", estimator="t"):
                pass

        with capture() as recorder:
            with span("main"):
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        seen = recorder.span_counts()
        assert seen == {"estimate[estimator=t]": 1, "main": 1}


class TestMetricsRegistry:
    def test_empty_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.increment("  ")

    def test_timing_metrics_dropped_from_deterministic_snapshot(self):
        registry = MetricsRegistry()
        registry.observe("harness.seed.duration", 1.23)
        registry.observe("ope.weights.ess", 9.0)
        deterministic = registry.snapshot(deterministic=True)
        assert "harness.seed.duration" not in deterministic.get("histograms", {})
        assert "ope.weights.ess" in deterministic["histograms"]

    def test_is_timing_metric_looks_at_last_segment(self):
        assert is_timing_metric("harness.seed.duration")
        assert is_timing_metric("x.wall")
        assert not is_timing_metric("ope.weights.ess")
        assert not is_timing_metric("duration.total")

    def test_is_environment_metric_matches_prefixes(self):
        assert is_environment_metric("harness.pool.ipc.bytes")
        assert not is_environment_metric("ope.stream.chunks")

    def test_merge_counters_add_and_gauges_last_write(self):
        a = MetricsRegistry()
        a.increment("c", 2)
        a.set_gauge("g", 1.0)
        a.observe("h", 1.0)
        b = MetricsRegistry()
        b.increment("c", 3)
        b.set_gauge("g", 7.0)
        b.observe("h", 5.0)
        merged = a.snapshot()
        merge_snapshot(merged, b.snapshot())
        assert merged["counters"]["c"] == 5
        assert merged["gauges"]["g"]["last"] == 7.0
        assert merged["gauges"]["g"]["updates"] == 2
        histogram = merged["histograms"]["h"]
        assert histogram["count"] == 2
        assert histogram["total"] == 6.0
        assert histogram["min"] == 1.0
        assert histogram["max"] == 5.0


class TestSinks:
    def _recorder(self):
        with capture() as recorder:
            with span("estimate", estimator="dr"):
                obs.observe("ope.weights.ess", 12.0)
            obs.observe("harness.seed.duration", 0.5)
        return recorder

    def test_run_telemetry_drops_timing_metrics(self):
        telemetry = run_telemetry(self._recorder())
        assert telemetry["spans"] == {"estimate[estimator=dr]": 1}
        assert "harness.seed.duration" not in telemetry["metrics"].get(
            "histograms", {}
        )

    def test_run_telemetry_empty_is_none(self):
        with capture() as recorder:
            pass
        assert run_telemetry(recorder) is None

    def test_merge_telemetry_and_profile(self):
        one = run_telemetry(self._recorder())
        merged: dict = {}
        merge_telemetry(merged, one)
        merge_telemetry(merged, one)
        assert merged["spans"]["estimate[estimator=dr]"] == 2
        profile: dict = {}
        merge_profile(profile, {"estimate": {"count": 1, "wall": 0.5, "cpu": 0.25}})
        merge_profile(profile, {"estimate": {"count": 1, "wall": 0.5, "cpu": 0.25}})
        assert profile["estimate"] == {"count": 2, "wall": 1.0, "cpu": 0.5}

    def test_renders_are_deterministic_lines(self):
        telemetry = run_telemetry(self._recorder())
        assert render_telemetry(telemetry) == render_telemetry(telemetry)
        recorder = self._recorder()
        flat_lines = render_flat_profile(recorder.flat_profile())
        assert flat_lines[0].lstrip().startswith("span")
        tree_lines = render_span_tree(recorder.spans)
        assert any("estimate" in line for line in tree_lines)


class TestTelemetryFile:
    def _write(self, path):
        recorder_telemetry = run_telemetry(TestSinks()._recorder())
        records = [
            RunRecord(
                index=index,
                seed=index + 100,
                status="ok",
                attempts=1,
                duration=0.5,
                errors={"dr": 0.1},
                telemetry=recorder_telemetry,
            )
            for index in range(2)
        ]
        summary: dict = {}
        for record in records:
            merge_telemetry(summary, record.telemetry)
        write_telemetry_file(
            path,
            experiment="unit",
            root_seed=7,
            runs=2,
            records=records,
            summary=summary,
        )
        return path

    def test_round_trip_validates(self, tmp_path):
        path = self._write(tmp_path / "telemetry.jsonl")
        header = validate_telemetry_file(path)
        assert header["runs"] == 2
        assert header["experiment"] == "unit"


    def test_run_lines_have_canonical_duration(self, tmp_path):
        path = self._write(tmp_path / "telemetry.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        run_lines = [line for line in lines if line.get("kind") == "run"]
        assert len(run_lines) == 2
        assert all(line["duration"] == 0.0 for line in run_lines)

    @pytest.mark.parametrize(
        "line, tamper",
        [
            (1, lambda payload: payload.update(duration=1.5)),
            (1, lambda payload: payload.update(index="zero")),
            (0, lambda payload: payload.update(runs="two")),
            (1, lambda payload: payload.update(telemetry={"metrics": {"counters": []}})),
            (0, lambda payload: payload.update(experiment=["x"])),
            (0, lambda payload: payload.update(root_seed="s")),
            (0, lambda payload: payload.update(extra=1)),
            (1, lambda payload: payload.update(seed=None)),
            (1, lambda payload: payload.update(status=17)),
            (1, lambda payload: payload.update(duration=False)),
            (1, lambda payload: payload.update(extra=1)),
            (3, lambda payload: payload.update(extra=1)),
        ],
        ids=[
            "duration",
            "index",
            "runs",
            "counters",
            "header-experiment",
            "header-root-seed",
            "header-unknown-key",
            "run-seed",
            "run-status",
            "run-duration-false",
            "run-unknown-key",
            "summary-unknown-key",
        ],
    )
    def test_tampered_file_rejected_with_line_number(self, tmp_path, line, tamper):
        # Malformed fields must surface as a TelemetryError naming the
        # line, never as a raw ValueError/AttributeError from the checker.
        path = self._write(tmp_path / "telemetry.jsonl")
        lines = path.read_text().splitlines()
        broken = json.loads(lines[line])
        tamper(broken)
        lines[line] = json.dumps(broken)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TelemetryError) as excinfo:
            validate_telemetry_file(path)
        assert f":{line + 1}:" in str(excinfo.value)

    def test_validator_cli_entrypoint(self, tmp_path, capsys):
        from repro.obs.validate import main

        path = self._write(tmp_path / "telemetry.jsonl")
        assert main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        path.write_text("not json\n")
        assert main([str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err
