"""LiveWatch end to end: monitors, reports, capture, CLI, verification."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.core.estimators import IPS, SelfNormalizedIPS
from repro.errors import EstimatorError, ReproError
from repro.live import LiveWatch, require_verified
from repro.workloads.drift import LiveTrafficGenerator

CHUNK = 2_000
CHUNKS = 6


@pytest.fixture()
def generator():
    return LiveTrafficGenerator(
        scenario="diurnal", seed=8, chunk_records=CHUNK
    )


def drive(watch, generator, chunks=CHUNKS):
    for _ in range(chunks):
        watch.process(generator.next_batch())
    return watch


class TestLiveWatch:
    def test_report_shape_and_counts(self, generator):
        watch = drive(
            LiveWatch(SelfNormalizedIPS, generator.candidate_policies(2)),
            generator,
        )
        payload = watch.report().to_json()
        assert payload["records"] == CHUNK * CHUNKS
        assert payload["chunks"] == CHUNKS
        assert sorted(payload["policies"]) == ["policy-d0", "policy-d1"]
        entry = payload["policies"]["policy-d0"]
        assert entry["estimator"] == "snips"
        assert entry["n"] == CHUNK * CHUNKS
        assert entry["cs_lower"] <= entry["value"] <= entry["cs_upper"]
        assert payload["detector"]["records"] == CHUNK * CHUNKS
        rendered = watch.report().render()
        assert "policy-d0" in rendered and "segments=" in rendered

    def test_live_equals_offline_on_captured_prefix(self, generator, tmp_path):
        capture = tmp_path / "capture"
        watch = LiveWatch(
            SelfNormalizedIPS,
            generator.candidate_policies(2),
            capture_directory=capture,
            capture_shard_size=5_000,
        )
        drive(watch, generator)
        assert watch.close_capture() is not None
        verdicts = watch.verify_against_capture(capture)
        assert all(v["match"] for v in verdicts.values())
        require_verified(verdicts)  # must not raise

    def test_require_verified_raises_on_divergence(self):
        with pytest.raises(ReproError, match="diverged"):
            require_verified(
                {
                    "p": {
                        "match": False,
                        "live_value": 1.0,
                        "offline_value": 2.0,
                        "n": 10,
                    }
                }
            )

    def test_metrics_published_under_recorder(self, generator):
        watch = LiveWatch(IPS, generator.candidate_policies(1))
        with obs.capture() as recorder:
            drive(watch, generator, chunks=2)
        snapshot = recorder.metrics.snapshot()
        assert snapshot["counters"]["live.ingest.records"] == 2 * CHUNK
        assert snapshot["gauges"]["live.segments"]["last"] >= 1.0
        assert "live.cs.width.policy-d0" in snapshot["gauges"]
        assert snapshot["histograms"]["live.update.seconds"]["count"] == 2
        # Rate and timing metrics are environment/timing-valued: the
        # deterministic snapshot must exclude them.
        deterministic = recorder.metrics.snapshot(deterministic=True)
        assert "live.ingest.rate" not in deterministic.get("gauges", {})
        assert "live.update.seconds" not in deterministic.get("histograms", {})

    def test_needs_at_least_one_policy(self):
        with pytest.raises(EstimatorError, match="at least one policy"):
            LiveWatch(IPS, {})

    def test_run_bounds_by_records(self, generator):
        watch = LiveWatch(IPS, generator.candidate_policies(1))
        seen = []
        report = watch.run(
            generator.iter_batches(),
            max_records=3 * CHUNK,
            on_refresh=lambda r: seen.append(r.to_json()["records"]),
        )
        assert report.to_json()["records"] == 3 * CHUNK
        assert seen[-1] == 3 * CHUNK


class TestWatchCli:
    def test_cli_watch_verify_offline_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        capture = tmp_path / "capture"
        report_path = tmp_path / "report.json"
        telemetry_path = tmp_path / "telemetry.json"
        code = main(
            [
                "watch",
                "--scenario",
                "flash-crowd",
                "--records",
                "12000",
                "--chunk-size",
                "3000",
                "--seed",
                "11",
                "--refresh",
                "0",
                "--capture",
                str(capture),
                "--report",
                str(report_path),
                "--telemetry",
                str(telemetry_path),
                "--verify-offline",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "bit-identical to offline replay" in out
        report = json.loads(report_path.read_text())
        assert report["records"] == 12000
        telemetry = json.loads(telemetry_path.read_text())
        assert telemetry["metrics"]["counters"]["live.ingest.records"] == 12000

    def test_cli_watch_verify_requires_capture(self, capsys):
        from repro.cli import main

        code = main(["watch", "--verify-offline"])
        assert code == 2
        assert "requires --capture" in capsys.readouterr().err

    def test_cli_watch_follow_mode(self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads.synthetic import SyntheticWorkload

        workload = SyntheticWorkload()
        policy = workload.logging_policy(epsilon=0.3)
        trace = workload.generate_trace(policy, 400, np.random.default_rng(2))
        path = tmp_path / "live.jsonl"
        trace.to_jsonl(path)
        code = main(
            [
                "watch",
                "--follow",
                str(path),
                "--records",
                "400",
                "--chunk-size",
                "100",
                "--idle-timeout",
                "0.2",
                "--refresh",
                "0",
                "--policies",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "records=400" in out

    def test_cli_watch_follow_mode_with_capture(self, tmp_path, capsys):
        # Follow mode yields Trace chunks; capture must take them as it
        # takes live batches, and verify offline like any other run.
        from repro.cli import main
        from repro.core.types import Trace
        from repro.store import ShardedTrace
        from repro.workloads.synthetic import SyntheticWorkload

        workload = SyntheticWorkload()
        policy = workload.logging_policy(epsilon=0.3)
        trace = workload.generate_trace(policy, 200, np.random.default_rng(4))
        path = tmp_path / "live.jsonl"
        trace.to_jsonl(path)
        capture = tmp_path / "capture"
        code = main(
            [
                "watch",
                "--follow",
                str(path),
                "--records",
                "200",
                "--chunk-size",
                "64",
                "--idle-timeout",
                "0.2",
                "--refresh",
                "0",
                "--policies",
                "2",
                "--capture",
                str(capture),
                "--verify-offline",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.count(": MATCH") == 2, out
        captured = ShardedTrace(capture).materialize()
        assert list(captured) == list(Trace.from_jsonl(str(path)))
