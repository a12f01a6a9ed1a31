"""The repository benchmark: four user-path workloads of the ``repro`` package.

Run one workload from the repository root::

    python3 perfbench/run.py --workload offline-panel --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the same checkout.  Each run sets
the workload up several times (``setup_s`` is the median set-up, each
divided by the reference computation read around it), computes the
reference outputs its correctness checks need, then measures operations
for ``--seconds``.  ``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``, whose throughput and median latency are normalised
by a reference computation timed next to each sample (``reference.py``)
and so are in units of ``ref``; ``--trace 1`` alternates untraced slices
with slices run under the ledger wrappers (see ``ledger.py``), half the
time each, and reports the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the provenance (environment,
seed, input sizes), the workload's figures under its own metric names
(``hit_p99_ms``, ``live_records_per_s``, ...), the checks run and, when
traced, the full ledger.  The exit status is 1 when a correctness check
fails, or a traced run finds a layer the workload names at 0, and 2 when
the program's sources are missing.

``python3 perfbench/smoke.py`` runs every workload on tiny inputs.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Untraced/traced slice pairs in a ``--trace 1`` run.
TRACE_SLICES = 4


def _workloads():
    from fig7a_sweep import Fig7aSweep
    from live_capture import LiveCapture
    from offline_panel import OfflinePanel
    from serve_hot import ServeHot

    return {cls.name: cls for cls in (OfflinePanel, ServeHot, LiveCapture, Fig7aSweep)}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny inputs for the smoke check (default full)",
    )
    return parser.parse_args(argv)


def _provenance(workload, arguments):
    import numpy

    from repro.kernels import get_backend
    from common import nproc

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_backend": get_backend().name,
        "workload": workload.name,
        "why": workload.why,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "trace": arguments.trace,
        "input": workload.input_description(),
    }


#: Units of the figures every workload yields; the end-to-end metrics
#: and each workload's own metric names are drawn from these.  ``ref``
#: is the time the reference computation took next to the sample.
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_ref": "1/ref",
    "latency_p50_ref": "ref",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "failed_ratio": "ratio",
}

#: Each workload's own names for its figures (setup, peak RSS and the
#: failed share keep theirs on every workload).
SHARED_NAMES = ("setup_s", "peak_rss_mb", "failed_ratio")


def _set_up(workload, context) -> None:
    """Set the workload up repeatedly (see ``common.SETUP_MIN_REPEATS``),
    timing each sample between two readings of the reference computation.

    A set-up shorter than ``SETUP_SAMPLE_SECONDS`` is timed over a batch
    of set-ups that long (tear-downs untimed), so that timer and scheduler
    jitter average out; a sample is the batch's mean set-up.
    """
    from common import (
        SETUP_MAX_REPEATS,
        SETUP_MIN_REPEATS,
        SETUP_MIN_SECONDS,
        SETUP_SAMPLE_SECONDS,
    )
    from reference import gauge

    seconds = context.setup_seconds
    built = False
    batch = 1
    while len(seconds) < SETUP_MAX_REPEATS and (
        len(seconds) < SETUP_MIN_REPEATS or sum(seconds) < SETUP_MIN_SECONDS
    ):
        before = gauge()
        elapsed = 0.0
        for _ in range(batch):
            if built:
                workload.teardown()
            started = time.perf_counter()
            workload.setup()
            elapsed += time.perf_counter() - started
            built = True
        seconds.append(elapsed / batch)
        context.setup_references.append((before + gauge()) / 2)
        batch = min(1000, max(1, round(SETUP_SAMPLE_SECONDS / max(seconds[-1], 1e-9))))


def _figures(context, untraced, peak_rss, attempted, failed):
    """Every figure of the untraced operations.

    The bounded timed figures are the normalised ones (see
    ``reference.py``): as measured, a run's median follows whichever of
    the host's fast or slow episodes it fell in.  The figures in seconds
    are reported beside them, unbounded.
    """
    from common import NOMINAL_REFERENCE_SECONDS, median, quantile

    latencies = untraced.latencies
    normalised = untraced.norm_latencies
    setups = [s / r for s, r in zip(context.setup_seconds, context.setup_references)]
    return {
        "setup_s": median(setups) * NOMINAL_REFERENCE_SECONDS,
        "peak_rss_mb": peak_rss,
        "throughput_per_ref": median(untraced.norm_rates),
        "latency_p50_ref": quantile(normalised, 0.50),
        "throughput_per_s": median(untraced.rates),
        "latency_p50_ms": quantile(latencies, 0.50) * 1e3,
        "latency_p90_ms": quantile(latencies, 0.90) * 1e3,
        "latency_p99_ms": quantile(latencies, 0.99) * 1e3,
        "failed_ratio": failed / attempted,
    }


def _named(workload, figures):
    """The workload's figures under the names it is known by."""
    names = {name: name for name in SHARED_NAMES}
    names.update(workload.named_metrics)
    return {
        name: {"value": figures[source], "unit": UNITS[source]} for name, source in names.items()
    }


def _per_layer(spec, workload, context, untraced, traced, failed_ratio):
    """The per-layer metrics of the traced slices.

    Attributed time is the parent's layer self time less the layers in
    which the program waits for work (``Workload.idle_layers``), as a
    share of the traced wall time less that same wait.
    """
    from common import median

    parent_seconds, _ = context.ledger.parent_totals()
    seconds, counts = context.ledger.totals()
    idle = sum(parent_seconds.get(name, 0.0) for name in workload.idle_layers)
    attributed = sum(parent_seconds.values()) - idle
    busy = traced.wall - idle
    values = dict(counts)
    values.update(seconds)
    values.update(workload.layer_extras(traced, seconds, counts))
    values.update(
        {
            "unattributed_s": busy - attributed,
            "attributed_share": attributed / busy,
            "tracing_overhead": median(untraced.norm_rates) / median(traced.norm_rates) - 1.0,
            "failed_ratio": failed_ratio,
        }
    )
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in spec["per_layer"]
    }


def _ledger_table(context):
    parent_seconds, parent_counts = context.ledger.parent_totals()
    worker_seconds, worker_counts = context.ledger.worker_totals()
    names = sorted(set(parent_seconds) | set(parent_counts) | set(worker_seconds) | set(worker_counts))
    return {
        name: {
            "self_s": parent_seconds.get(name, 0.0),
            "count": parent_counts.get(name, 0),
            "worker_self_s": worker_seconds.get(name, 0.0),
            "worker_count": worker_counts.get(name, 0),
        }
        for name in names
    }


def run(arguments) -> int:
    from common import Context, Phase, peak_rss_mb, reset_peak_rss
    from ledger import Ledger, Patches

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = _workloads()
    if arguments.workload not in workloads:
        print(f"perfbench: unknown workload {arguments.workload!r}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-work" / f"{arguments.workload}-{os.getpid()}"
    spool = workdir / "ledger"
    spool.mkdir(parents=True)
    try:
        context = Context(
            seed=arguments.seed,
            seconds=arguments.seconds,
            trace=bool(arguments.trace),
            tiny=arguments.size == "tiny",
            workdir=workdir,
            ledger=Ledger(spool),
        )
        workload = workloads[arguments.workload](context)
        _set_up(workload, context)
        workload.prepare_checks()

        untraced = Phase(traced=False, ledger=context.ledger)
        traced = Phase(traced=True, ledger=context.ledger)
        reset_peak_rss()
        if context.trace:
            # Untraced and traced slices alternate, so a drift in the
            # host's speed lands on both sides of tracing_overhead.
            for _ in range(TRACE_SLICES):
                workload.run_phase(untraced, arguments.seconds / (2 * TRACE_SLICES))
                patches = Patches()
                workload.install(patches, context.ledger)
                try:
                    workload.run_phase(traced, arguments.seconds / (2 * TRACE_SLICES))
                finally:
                    patches.undo()
        else:
            workload.run_phase(untraced, arguments.seconds)
        peak_rss = peak_rss_mb()
        workload.finish_checks()
        workload.teardown()

        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        figures = _figures(context, untraced, peak_rss, attempted, failed)
        silent = []
        if context.trace:
            metrics = _per_layer(
                spec, workload, context, untraced, traced, figures["failed_ratio"]
            )
            # A layer the workload is there to measure that reads 0 has
            # lost its wrapper's call site on the workload's path.
            silent = [name for name in workload.layers if not metrics.get(name, {}).get("value")]
            context.checks.record("named_layers_recorded", not silent)
        else:
            metrics = {
                m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]
            }
        correct = context.checks.passed and failed == 0 and attempted > 0
        print(
            json.dumps(
                {
                    "provenance": _provenance(workload, arguments),
                    "named_metrics": _named(workload, figures),
                    "samples": {
                        "latencies": len(untraced.latencies),
                        "rates": len(untraced.rates),
                    },
                    "setup_seconds": context.setup_seconds,
                    "setup_references": context.setup_references,
                    "extras": context.extras,
                    "checks": {"ran": context.checks.ran, "failed": context.checks.failed},
                    "silent_layers": silent,
                    "ledger": _ledger_table(context) if context.trace else {},
                }
            )
        )
        print(
            json.dumps(
                {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
            ),
            flush=True,
        )
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it has ended.

    The program's shared-memory segments start the tracker, a child
    process that otherwise outlives this one until it reads end-of-file
    on its pipe.  Registered with ``atexit`` before anything else, so it
    runs last, after the handlers that unlink the segments.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    atexit.register(_stop_resource_tracker)
    arguments = _parse(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"perfbench: no program sources at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    return run(arguments)


if __name__ == "__main__":
    sys.exit(main())
