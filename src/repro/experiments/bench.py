"""Estimator and sweep throughput benchmarks (``repro bench``).

Two layers:

* **Estimator micro-benchmark** — how many full estimate() calls per
  second each estimator family sustains on a uniformly-logged synthetic
  trace.  This exercises the columnar trace cache and the batched
  policy/propensity/model APIs directly.
* **fig7a sweep benchmark** — wall-clock for the paper's 50-seed Fig 7a
  sweep, sequentially and with a worker pool, compared against the
  pre-optimisation baseline measured on the same scenario (recorded in
  :data:`PRE_PR_BASELINE`).  Sequential and parallel summaries must be
  identical — the benchmark asserts it on every run.

Results land in ``benchmark_results/BENCH_estimators.json``; CI runs the
quick variant and fails when fig7a throughput, read against a reference
computation timed beside it, regresses more than 25% against a same-job
warmup run (see :func:`check_against_baseline`).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

from repro import core
from repro.core.estimators import (
    IPS,
    DirectMethod,
    DoublyRobust,
    SelfNormalizedIPS,
    SwitchDR,
)
from repro.core.models import TabularMeanModel
from repro.experiments.fig7 import run_fig7a

DEFAULT_OUTPUT = Path("benchmark_results") / "BENCH_estimators.json"

#: Sequential fig7a sweep measured on this scenario immediately before
#: the columnar-trace / batched-evaluation rewrite; the denominator for
#: the reported speedups.
PRE_PR_BASELINE = {
    "runs": 50,
    "seed": 2017,
    "seconds": 58.958,
    "runs_per_second": 0.848,
}


def _micro_trace(n: int = 2000) -> core.Trace:
    """A uniformly-logged trace with mixed numeric/categorical context."""
    rng = np.random.default_rng(20170805)
    space = core.DecisionSpace(("a", "b", "c"))
    old = core.UniformRandomPolicy(space)
    records = []
    for _ in range(n):
        context = core.ClientContext(
            x=float(rng.integers(0, 5)), isp=f"isp-{rng.integers(0, 2)}"
        )
        decision = old.sample(context, rng)
        base = {"a": 1.0, "b": 2.0, "c": 3.0}[decision]
        reward = base + 0.1 * float(context["x"]) + float(rng.normal(0.0, 0.2))
        records.append(
            core.TraceRecord(
                context=context,
                decision=decision,
                reward=reward,
                propensity=old.propensity(decision, context),
            )
        )
    return core.Trace(records)


def _timed_rate(body: Callable[[], None], repeats: int) -> float:
    """Calls per second of *body* over *repeats* invocations."""
    started = time.perf_counter()
    for _ in range(repeats):
        body()
    elapsed = time.perf_counter() - started
    return repeats / elapsed if elapsed > 0 else float("inf")


def bench_micro(repeats: int = 20, trace_size: int = 2000) -> Dict[str, float]:
    """estimate() calls per second for each estimator family."""
    trace = _micro_trace(trace_size)
    space = core.DecisionSpace(("a", "b", "c"))
    new = core.EpsilonGreedyPolicy(
        core.DeterministicPolicy(space, lambda context: "c"), epsilon=0.2
    )
    old = core.UniformRandomPolicy(space)

    def model() -> TabularMeanModel:
        return TabularMeanModel(key_features=("isp",))

    suites: Dict[str, Callable[[], None]] = {
        "ips": lambda: IPS().estimate(new, trace, old_policy=old),
        "snips": lambda: SelfNormalizedIPS().estimate(new, trace, old_policy=old),
        "dm": lambda: DirectMethod(model()).estimate(new, trace),
        "dr": lambda: DoublyRobust(model()).estimate(new, trace, old_policy=old),
        "switch-dr": lambda: SwitchDR(model()).estimate(
            new, trace, old_policy=old
        ),
    }
    return {
        name: _timed_rate(body, repeats) for name, body in suites.items()
    }


_REFERENCE_PAYLOAD = {"values": [i * 0.37 for i in range(2_000)]}


def _reference_seconds(repeats: int = 5) -> float:
    """Median wall time of a fixed reference computation (interpreted
    loops, dict writes and a ``json.dumps``, about 3 ms a run).

    A shared host runs the same code up to twice as slow for tens of
    seconds at a time.  A rate multiplied by a reading taken beside it
    (runs per reference time) moves with the program, while a change in
    the host's speed mostly cancels.
    """
    readings = []
    for _ in range(repeats):
        started = time.perf_counter()
        table = {}
        total = 0
        for i in range(10_000):
            total += i * i
            table[i & 511] = total & 0xFFFF
        json.dumps(_REFERENCE_PAYLOAD)
        readings.append(time.perf_counter() - started)
    return statistics.median(readings)


def bench_fig7a(
    runs: int, seed: int, workers: int, repeats: int = 5
) -> Dict[str, object]:
    """Time the fig7a sweep sequentially and with *workers* processes.

    The modes are timed in *repeats* interleaved pairs (seq, par, seq,
    par, ...), each pair after a :func:`_reference_seconds` reading.  The
    gated figures are medians over the pairs, so one sample taken while
    the host was slow does not decide them:

    * ``sequential_runs_per_ref`` — sequential runs per reference time,
      comparable across processes on the same hardware;
    * ``parallel_speedup`` — sequential over parallel seconds within a
      pair, which a change in the host's speed hits on both sides.

    The best time per mode is reported as raw throughput.
    """
    sequential_times, parallel_times, normalised = [], [], []
    sequential = parallel = None
    for _ in range(max(repeats, 1)):
        reference = _reference_seconds()
        started = time.perf_counter()
        sequential = run_fig7a(runs=runs, seed=seed)
        sequential_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        parallel = run_fig7a(runs=runs, seed=seed, workers=workers)
        parallel_times.append(time.perf_counter() - started)
        normalised.append(runs * reference / sequential_times[-1])
    if sequential.summaries != parallel.summaries:
        raise SystemExit(
            "parallel execution changed the results: sequential and "
            f"workers={workers} sweeps must produce identical summaries"
        )
    sequential_seconds = min(sequential_times)
    parallel_seconds = min(parallel_times)
    speedup = statistics.median(
        s / p for s, p in zip(sequential_times, parallel_times)
    )
    return {
        "runs": runs,
        "seed": seed,
        "repeats": len(sequential_times),
        "sequential_seconds": sequential_seconds,
        "sequential_runs_per_second": runs / sequential_seconds,
        "sequential_runs_per_ref": statistics.median(normalised),
        "workers": workers,
        "parallel_seconds": parallel_seconds,
        "parallel_runs_per_second": runs / parallel_seconds,
        "parallel_speedup": speedup,
        "summaries_identical": True,
        "parallel_beats_sequential": speedup > 1.0,
    }


def run_benchmark(
    runs: int = 50,
    seed: int = 2017,
    workers: int = 4,
    micro_repeats: int = 20,
    output: Optional[Path] = None,
) -> Dict[str, object]:
    """Run both layers, write the JSON payload, and return it."""
    from repro.kernels import get_backend

    fig7a = bench_fig7a(runs, seed, workers)
    payload: Dict[str, object] = {
        "benchmark": "estimators",
        "kernels_backend": get_backend().name,
        "fig7a": fig7a,
        "estimators_per_second": bench_micro(repeats=micro_repeats),
        "pre_pr_baseline": dict(PRE_PR_BASELINE),
        "speedup_vs_pre_pr": {
            "sequential": fig7a["sequential_runs_per_second"]
            / PRE_PR_BASELINE["runs_per_second"],
            "parallel": fig7a["parallel_runs_per_second"]
            / PRE_PR_BASELINE["runs_per_second"],
        },
    }
    if output is not None:
        from repro.ioutil import atomic_write_text

        output.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            output, json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    return payload


def check_against_baseline(
    payload: Dict[str, object],
    baseline_path: Path,
    tolerance: float = 0.25,
    parallel_tolerance: float = 0.05,
) -> Optional[str]:
    """``None`` if fig7a throughput is within *tolerance* of the baseline
    at *baseline_path*, else a human-readable failure message.

    Both sides are read as ``sequential_runs_per_ref`` (runs per
    reference time, see :func:`bench_fig7a`), so a baseline from a
    warmup run in the same job compares on the host's speed of the
    moment rather than its speed when the warmup ran.  A committed
    baseline from other hardware still needs a generous tolerance: the
    reference does not scale exactly as the sweep does across machines.

    Beyond the baseline comparison, the gate asserts the payload is
    internally healthy: the median per-pair ``parallel_speedup`` must
    reach ``(1 - parallel_tolerance)``.  This is the blind spot that let
    a parallel-*slower*-than-sequential pool ship while the
    sequential-only gate stayed green; *parallel_tolerance* absorbs
    scheduler noise, not a structurally slower pool.
    """
    fig7a = payload["fig7a"]
    speedup = float(fig7a["parallel_speedup"])
    if speedup < 1.0 - parallel_tolerance:
        return (
            "fig7a parallel throughput fell behind sequential: with "
            f"workers={fig7a['workers']} the median of {fig7a['repeats']} "
            f"interleaved pairs runs {speedup:.3f}x the sequential speed, "
            f"below {1.0 - parallel_tolerance:.2f}x "
            f"({parallel_tolerance:.0%} under sequential); the worker pool "
            "is overhead, not parallelism"
        )
    committed = json.loads(Path(baseline_path).read_text())
    reference = committed["fig7a"].get("sequential_runs_per_ref")
    if reference is None:
        return (
            f"{baseline_path} records no sequential_runs_per_ref; "
            "record it again with this version of repro bench"
        )
    measured = float(fig7a["sequential_runs_per_ref"])
    floor = (1.0 - tolerance) * float(reference)
    if measured < floor:
        return (
            f"fig7a throughput regressed: {measured:.4f} runs per reference "
            f"time is below {floor:.4f} ({tolerance:.0%} under the baseline "
            f"of {float(reference):.4f} in {baseline_path})"
        )
    return None
