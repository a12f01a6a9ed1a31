"""``repro bench --check`` gates on medians read against a reference.

The regression gate compares ``sequential_runs_per_ref`` with the
baseline's; the parallel gate reads the median per-pair
``parallel_speedup``.  A raw runs/s figure, which swings with the host's
speed, decides neither.
"""

import json

import pytest

from repro.experiments.bench import bench_fig7a, check_against_baseline


def _payload(runs_per_ref, speedup, raw=100.0):
    return {
        "fig7a": {
            "workers": 4,
            "repeats": 5,
            "sequential_runs_per_second": raw,
            "sequential_runs_per_ref": runs_per_ref,
            "parallel_speedup": speedup,
        }
    }


@pytest.fixture
def baseline(tmp_path):
    path = tmp_path / "warmup.json"
    path.write_text(json.dumps(_payload(0.5, 1.3, raw=250.0)))
    return path


def test_raw_rate_swings_do_not_fail(baseline):
    assert check_against_baseline(_payload(0.45, 1.2, raw=120.0), baseline) is None


def test_normalised_regression_fails(baseline):
    failure = check_against_baseline(_payload(0.37, 1.2, raw=400.0), baseline)
    assert "regressed" in failure and "0.3700" in failure


def test_parallel_behind_sequential_fails(baseline):
    assert check_against_baseline(_payload(0.5, 0.951), baseline) is None
    failure = check_against_baseline(_payload(0.5, 0.949), baseline)
    assert "fell behind sequential" in failure and "median of 5" in failure


def test_baseline_without_normalised_rate(tmp_path):
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"fig7a": {"sequential_runs_per_second": 1.0}}))
    failure = check_against_baseline(_payload(0.5, 1.2), old)
    assert "record it again" in failure


def test_bench_fig7a_records_the_gated_medians():
    fig7a = bench_fig7a(runs=2, seed=3, workers=2, repeats=5)
    assert fig7a["repeats"] == 5
    assert fig7a["sequential_runs_per_ref"] > 0
    assert fig7a["parallel_speedup"] > 0
    assert fig7a["parallel_beats_sequential"] == (fig7a["parallel_speedup"] > 1.0)
