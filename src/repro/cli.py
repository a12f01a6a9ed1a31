"""Command-line entry point: experiments plus the OPE-correctness linter.

``repro list`` shows available experiment ids;
``repro run fig7a [--runs N] [--seed S]`` runs one;
``repro run fig7a --ledger L.jsonl [--resume] [--retries N] [--timeout S]``
runs a harness experiment resiliently: completed seeds are journaled to
the JSONL run ledger, ``--resume`` continues an interrupted sweep from
that ledger, and ``--retries``/``--timeout`` bound each seed's attempts
and wall-clock time (see :mod:`repro.runtime`);
``repro run fig7a --workers 4`` executes the seeds on a process pool
with results (and any ledger) identical to the sequential sweep;
``repro run fig7a --telemetry T.jsonl [--profile]`` additionally writes
the sweep's JSONL telemetry file (deterministic — byte-identical
however the sweep executed) and, with ``--profile``, prints the merged
per-span flat profile (real timings);
``repro trace fig7a`` runs an experiment under the process-level
recorder and prints the span tree, flat profile, and metric summary;
``repro bench [--quick] [--check BASELINE.json --tolerance F]`` records
estimator/sweep throughput to
``benchmark_results/BENCH_estimators.json`` and optionally gates on a
relative regression against a baseline (CI uses a same-job warmup run
as the baseline so the gate is hardware-independent);
``repro shard trace.jsonl shards/ [--shard-size N]`` converts a trace
file to the on-disk sharded format of :mod:`repro.store`;
``repro all`` runs everything at paper scale and prints the
tables EXPERIMENTS.md records;
``repro lint [--rules REP001,...] [--format text|json|sarif]
[--cache [PATH]] PATH...`` runs the :mod:`repro.analysis` linter
(exit 0 clean, 1 violations, 2 usage).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from repro.errors import AnalysisError, EstimatorError, LedgerError
from repro.experiments import EXPERIMENTS
from repro.runtime import RetryPolicy


def _positive_int(text: str) -> int:
    """argparse type for ``--runs``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the paper's figures and ablations, or lint the "
            "codebase for OPE-correctness."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list experiment ids")
    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_parser.add_argument("--runs", type=_positive_int, default=None)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help=(
            "journal each completed seed to this JSONL run ledger "
            "(harness experiments: " + ", ".join(_harness_names()) + ")"
        ),
    )
    run_parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep from --ledger instead of restarting",
    )
    run_parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="total attempts per seed (default 1 = no retries)",
    )
    run_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-seed wall-clock timeout (timed-out seeds are retried/recorded)",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run seeds on a process pool of N workers (harness experiments "
            "only; results and ledgers are identical to a sequential sweep)"
        ),
    )
    run_parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help=(
            "write the sweep's JSONL telemetry file (per-seed metrics/span "
            "counts plus the merged summary; harness experiments only)"
        ),
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="print the merged per-span flat profile (real wall/CPU timings)",
    )
    trace_parser = subparsers.add_parser(
        "trace",
        help="run one experiment under the process recorder and print its trace",
    )
    trace_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    trace_parser.add_argument("--runs", type=_positive_int, default=None)
    trace_parser.add_argument("--seed", type=int, default=0)
    all_parser = subparsers.add_parser("all", help="run every experiment")
    all_parser.add_argument("--seed", type=int, default=0)
    bench_parser = subparsers.add_parser(
        "bench", help="record estimator/sweep throughput benchmarks"
    )
    bench_parser.add_argument("--runs", type=int, default=50)
    bench_parser.add_argument("--seed", type=int, default=2017)
    bench_parser.add_argument("--workers", type=int, default=4)
    bench_parser.add_argument(
        "--quick",
        action="store_true",
        help="small sweep (16 runs, 5 micro repeats) for CI smoke checks",
    )
    bench_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="where to write the JSON payload "
        "(default benchmark_results/BENCH_estimators.json)",
    )
    bench_parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE.json",
        help=(
            "exit 1 if fig7a throughput, in runs per reference time, "
            "regressed more than --tolerance below this baseline (a "
            "committed file, or a same-job warmup run's --output for "
            "hardware-independent gating)"
        ),
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        metavar="FRACTION",
        help=(
            "allowed relative regression for --check (default 0.25 = 25%%); "
            "CI gates against a same-job warmup baseline with a tight "
            "tolerance instead of trusting numbers from different hardware"
        ),
    )
    bench_parser.add_argument(
        "--parallel-tolerance",
        type=float,
        default=0.05,
        metavar="FRACTION",
        help=(
            "how far below sequential throughput the parallel sweep may "
            "fall, as the median of interleaved per-pair ratios, before "
            "--check fails (default 0.05 = 5%%); 0 demands parallel "
            "strictly match or beat sequential"
        ),
    )
    shard_parser = subparsers.add_parser(
        "shard",
        help="convert a trace file to an on-disk sharded trace directory",
    )
    shard_parser.add_argument(
        "source",
        metavar="SRC",
        help="input trace: a Trace.to_jsonl file (streamed) or .csv file",
    )
    shard_parser.add_argument(
        "directory",
        metavar="DIR",
        help="output shard directory (must not already hold a manifest)",
    )
    shard_parser.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="N",
        help="records per shard (default 100000)",
    )
    verify_parser = subparsers.add_parser(
        "verify",
        help="verify every shard of a sharded trace against its manifest",
    )
    verify_parser.add_argument(
        "directory", metavar="DIR", help="shard directory to verify"
    )
    verify_parser.add_argument(
        "--no-decode",
        action="store_true",
        help=(
            "skip the full npz decode check; size + sha256 only (faster, "
            "still catches every byte-level corruption)"
        ),
    )
    repair_parser = subparsers.add_parser(
        "repair",
        help=(
            "rebuild a damaged sharded trace: promote a crashed writer's "
            "journal, excise or re-derive corrupt shards"
        ),
    )
    repair_parser.add_argument(
        "directory", metavar="DIR", help="shard directory to repair"
    )
    repair_parser.add_argument(
        "--source",
        default=None,
        metavar="JSONL",
        help=(
            "the original Trace.to_jsonl file the shards were written "
            "from; corrupt shards are re-derived from it (bit-identically) "
            "instead of dropped"
        ),
    )
    lint_parser = subparsers.add_parser(
        "lint", help="run the OPE-correctness linter (repro.analysis)"
    )
    lint_parser.add_argument("paths", nargs="+", metavar="PATH")
    lint_parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all registered rules)",
    )
    lint_parser.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    lint_parser.add_argument(
        "--cache",
        nargs="?",
        const="__default__",
        default=None,
        metavar="PATH",
        help=(
            "enable the content-hash incremental cache (default path "
            ".repro-lint-cache.json); unchanged files are not re-analyzed"
        ),
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the evaluation service over a named-trace registry",
    )
    serve_parser.add_argument(
        "registry",
        metavar="REGISTRY.json",
        help='trace registry: {"traces": {"name": "path", ...}}',
    )
    serve_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8321,
        help="bind port (default 8321; 0 picks an ephemeral port)",
    )
    serve_parser.add_argument(
        "--cache-size",
        type=int,
        default=256,
        metavar="N",
        help="result-cache capacity in entries (default 256)",
    )
    serve_parser.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="result-cache time-to-live (default: no expiry)",
    )

    watch_parser = subparsers.add_parser(
        "watch",
        help=(
            "live OPE monitor: incremental estimates with anytime "
            "confidence sequences over a drift-injected synthetic stream "
            "or a tailed JSONL trace file"
        ),
    )
    watch_parser.add_argument(
        "--scenario",
        choices=["stationary", "diurnal", "flash-crowd", "coupled"],
        default="stationary",
        help="drift-injection scenario for the synthetic stream",
    )
    watch_parser.add_argument(
        "--records",
        type=int,
        default=1_000_000,
        metavar="N",
        help="stop after N records (default 1,000,000)",
    )
    watch_parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        metavar="S",
        help="also stop after S wall-clock seconds",
    )
    watch_parser.add_argument(
        "--chunk-size",
        type=int,
        default=65_536,
        metavar="N",
        help="records per ingested chunk (default 65536)",
    )
    watch_parser.add_argument("--seed", type=int, default=0)
    watch_parser.add_argument(
        "--estimator",
        choices=["ips", "snips", "clipped-ips"],
        default="snips",
        help=(
            "live estimator (model-free only: live mode requires "
            "stream-independent setup; default snips)"
        ),
    )
    watch_parser.add_argument(
        "--policies",
        type=int,
        default=2,
        metavar="N",
        help="number of candidate policies to value live (default 2)",
    )
    watch_parser.add_argument(
        "--follow",
        default=None,
        metavar="TRACE.jsonl",
        help=(
            "tail this live JSONL trace file instead of the synthetic "
            "generator (torn tails re-polled, rotations followed)"
        ),
    )
    watch_parser.add_argument(
        "--idle-timeout",
        type=float,
        default=5.0,
        metavar="S",
        help="(--follow) end the stream after S seconds with no new data",
    )
    watch_parser.add_argument(
        "--alpha",
        type=float,
        default=0.05,
        metavar="A",
        help="anytime error rate of the confidence sequences (default 0.05)",
    )
    watch_parser.add_argument(
        "--capture",
        default=None,
        metavar="DIR",
        help="also write every observed record to this shard directory",
    )
    watch_parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the final watch report as JSON",
    )
    watch_parser.add_argument(
        "--refresh",
        type=float,
        default=5.0,
        metavar="S",
        help="print a live status line every S seconds (0 disables)",
    )
    watch_parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="write the run's metric snapshot (counters/gauges) as JSON",
    )
    watch_parser.add_argument(
        "--verify-offline",
        action="store_true",
        help=(
            "after the run, replay the --capture directory through the "
            "offline engine and exit 1 unless every live estimate is "
            "bit-identical to its offline twin"
        ),
    )

    arguments = parser.parse_args(argv)
    try:
        return _dispatch(arguments)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like a
        # well-behaved CLI tool.
        return 0


def _run_lint(arguments) -> int:
    """Run the linter; exit 0 clean, 1 on violations, 2 on bad usage."""
    from repro.analysis import DEFAULT_CACHE_PATH, exit_code_for, lint_paths, render

    rule_ids = None
    if arguments.rules is not None:
        rule_ids = [rule.strip() for rule in arguments.rules.split(",") if rule.strip()]
        if not rule_ids:
            print("repro lint: error: --rules given but no rule ids parsed", file=sys.stderr)
            return 2
    cache_path = arguments.cache
    if cache_path == "__default__":
        cache_path = DEFAULT_CACHE_PATH
    try:
        report = lint_paths(arguments.paths, rule_ids, cache_path=cache_path)
        print(render(report, arguments.output_format))
    except AnalysisError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    return exit_code_for(report)


def _run_resilient(arguments, runs: int) -> int:
    """Run a harness experiment with ledger/retry options; exit 0 or 2."""
    name = arguments.experiment
    driver = EXPERIMENTS[name].harness
    if driver is None:
        print(
            f"repro run: error: --ledger/--resume/--retries/--timeout/"
            f"--workers/--telemetry/--profile are only supported for "
            f"harness experiments "
            f"({', '.join(_harness_names())}), not {name!r}",
            file=sys.stderr,
        )
        return 2
    if arguments.resume and arguments.ledger is None:
        print("repro run: error: --resume requires --ledger", file=sys.stderr)
        return 2
    try:
        retry: Optional[RetryPolicy] = None
        if arguments.retries is not None or arguments.timeout is not None:
            retry = RetryPolicy(
                max_attempts=arguments.retries if arguments.retries is not None else 1,
                timeout_seconds=arguments.timeout,
            )
        result = driver(
            runs=runs,
            seed=arguments.seed,
            retry=retry,
            ledger_path=arguments.ledger,
            resume=arguments.resume,
            workers=arguments.workers,
            telemetry_path=arguments.telemetry,
        )
    except (LedgerError, EstimatorError) as exc:
        print(f"repro run: error: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    if arguments.telemetry is not None:
        print(f"(telemetry written to {arguments.telemetry})")
    if arguments.profile:
        _print_profile(result.profile)
    return 0


def _harness_names() -> list[str]:
    """Ids of the harness experiments, which take the runtime options."""
    return sorted(name for name, entry in EXPERIMENTS.items() if entry.harness)


def _print_profile(profile) -> None:
    """Print an ExperimentResult's merged flat profile and timing metrics."""
    from repro.obs import render_flat_profile, render_telemetry

    print("\n== flat profile (real timings, merged over seeds) ==")
    spans = (profile or {}).get("spans") or {}
    print("\n".join(render_flat_profile(spans)))
    metrics = (profile or {}).get("metrics")
    if metrics:
        print("timing metrics:")
        print("\n".join(render_telemetry({"metrics": metrics})))


def _run_trace(arguments) -> int:
    """Run one experiment under the process recorder; print its trace."""
    from repro import obs

    experiment = EXPERIMENTS[arguments.experiment]
    recorder = obs.enable()
    try:
        print(experiment.run(arguments.runs or experiment.default_runs, arguments.seed))
    finally:
        obs.disable()
    print("\n== span tree ==")
    print("\n".join(obs.render_span_tree(recorder.spans)))
    print("\n== flat profile ==")
    print("\n".join(obs.render_flat_profile(recorder.flat_profile())))
    metrics = recorder.metrics.snapshot()
    if metrics:
        print("\n== metrics ==")
        print("\n".join(obs.render_telemetry({"metrics": metrics})))
    return 0


def _dispatch(arguments) -> int:
    """Execute the parsed command."""
    if arguments.command == "lint":
        return _run_lint(arguments)
    if arguments.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if arguments.command == "run":
        experiment = EXPERIMENTS[arguments.experiment]
        runs = arguments.runs or experiment.default_runs  # --runs is >= 1
        runtime_requested = (
            arguments.ledger is not None
            or arguments.resume
            or arguments.retries is not None
            or arguments.timeout is not None
            or arguments.workers != 1
            or arguments.telemetry is not None
            or arguments.profile
        )
        started = time.time()
        if runtime_requested:
            exit_code = _run_resilient(arguments, runs)
            if exit_code != 0:
                return exit_code
        else:
            print(experiment.run(runs, arguments.seed))
        print(f"({time.time() - started:.1f}s)")
        return 0
    if arguments.command == "trace":
        return _run_trace(arguments)
    if arguments.command == "all":
        for experiment in EXPERIMENTS.values():
            started = time.time()
            print(experiment.run(experiment.default_runs, arguments.seed))
            print(f"({time.time() - started:.1f}s)\n")
        return 0
    if arguments.command == "bench":
        return _run_bench(arguments)
    if arguments.command == "shard":
        return _run_shard(arguments)
    if arguments.command == "verify":
        return _run_verify(arguments)
    if arguments.command == "repair":
        return _run_repair(arguments)
    if arguments.command == "serve":
        return _run_serve(arguments)
    if arguments.command == "watch":
        return _run_watch(arguments)
    return 1  # pragma: no cover - argparse enforces commands


def _run_serve(arguments) -> int:
    """Run the blocking evaluation service; exit 1 on setup errors."""
    from repro.errors import ReproError
    from repro.serve.server import run_server

    try:
        run_server(
            arguments.registry,
            host=arguments.host,
            port=arguments.port,
            cache_size=arguments.cache_size,
            cache_ttl=arguments.cache_ttl,
        )
    except ReproError as error:
        print(f"repro serve: error: {error}", file=sys.stderr)
        return 1
    return 0


def _run_watch(arguments) -> int:
    """Run the live OPE monitor; exit 0, 1 on divergence, 2 on bad usage."""
    import json as _json
    from pathlib import Path

    from repro.core.estimators import IPS, ClippedIPS, SelfNormalizedIPS
    from repro.errors import ReproError
    from repro.live import LiveWatch, follow_trace_chunks, require_verified
    from repro.obs import spans as obs_spans
    from repro.workloads import LiveTrafficGenerator

    if arguments.verify_offline and not arguments.capture:
        print(
            "repro watch: error: --verify-offline requires --capture",
            file=sys.stderr,
        )
        return 2
    factories = {
        "ips": IPS,
        "snips": SelfNormalizedIPS,
        "clipped-ips": ClippedIPS,
    }
    factory = factories[arguments.estimator]

    generator = LiveTrafficGenerator(
        scenario=arguments.scenario,
        seed=arguments.seed,
        chunk_records=arguments.chunk_size,
    )
    if arguments.follow:
        # Tailed files carry arbitrary (but schema-matching) contexts, so
        # candidates are the raw workload policies, not grid snapshots.
        policies = {
            f"policy-d{index}": generator.workload.logging_policy(
                epsilon=0.05, base_index=index
            )
            for index in range(arguments.policies)
        }
        chunks = follow_trace_chunks(
            arguments.follow,
            chunk_records=arguments.chunk_size,
            idle_timeout=arguments.idle_timeout,
        )
    else:
        policies = generator.candidate_policies(arguments.policies)
        chunks = generator.iter_batches(max_records=arguments.records)

    watch = LiveWatch(
        factory,
        policies,
        alpha=arguments.alpha,
        capture_directory=arguments.capture,
    )

    def refresh(report) -> None:
        payload = report.to_json()
        print(
            f"[watch] records={payload['records']:,}  "
            f"ingest={payload['ingest_records_per_second']:,.0f} rec/s  "
            f"segments={len(payload['detector']['segments'])}",
            flush=True,
        )

    on_refresh = refresh if arguments.refresh > 0 else None
    try:
        with obs_spans.capture() as recorder:
            report = watch.run(
                chunks,
                max_records=arguments.records,
                max_seconds=arguments.seconds,
                on_refresh=on_refresh,
                refresh_seconds=arguments.refresh,
            )
            capture_path = watch.close_capture()
        if arguments.telemetry:
            telemetry = {
                "metrics": recorder.metrics.snapshot(deterministic=False),
                "spans": recorder.span_counts(),
                "report": report.to_json(),
            }
            path = Path(arguments.telemetry)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(_json.dumps(telemetry, indent=2, sort_keys=True) + "\n")
        print(report.render())
        if arguments.report:
            written = report.write(arguments.report)
            print(f"repro watch: report written to {written}")
        if capture_path is not None:
            print(f"repro watch: capture committed to {capture_path.parent}")
        if arguments.verify_offline:
            verdicts = watch.verify_against_capture(arguments.capture)
            for name in sorted(verdicts):
                verdict = verdicts[name]
                status = "MATCH" if verdict["match"] else "DIVERGED"
                print(
                    f"repro watch: verify {name}: {status} "
                    f"(live={verdict['live_value']!r}, "
                    f"offline={verdict['offline_value']!r}, n={verdict['n']})"
                )
            require_verified(verdicts)
            print(
                "repro watch: live estimates bit-identical to offline replay "
                f"({len(verdicts)} policies)"
            )
    except ReproError as error:
        print(f"repro watch: error: {error}", file=sys.stderr)
        return 1
    return 0


def _run_verify(arguments) -> int:
    """Verify a shard directory; exit 0 clean, 1 corrupt, 2 on bad usage."""
    from pathlib import Path

    from repro.store import verify_store

    directory = Path(arguments.directory)
    if not directory.is_dir():
        print(
            f"repro verify: error: {directory} is not a directory",
            file=sys.stderr,
        )
        return 2
    report = verify_store(directory, decode=not arguments.no_decode)
    print(report.render())
    return 0 if report.ok else 1


def _run_repair(arguments) -> int:
    """Repair a shard directory; exit 0 on success, 1 if records were
    lost (dropped shards), 2 when nothing was recoverable."""
    from pathlib import Path

    from repro.errors import StoreError, TraceError
    from repro.store import repair_store

    directory = Path(arguments.directory)
    if not directory.is_dir():
        print(
            f"repro repair: error: {directory} is not a directory",
            file=sys.stderr,
        )
        return 2
    try:
        report = repair_store(directory, source=arguments.source)
    except (StoreError, TraceError) as exc:
        print(f"repro repair: error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"repro repair: error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 1 if report.dropped else 0


def _run_shard(arguments) -> int:
    """Convert a JSONL/CSV trace file to a shard directory; exit 0 or 2."""
    from pathlib import Path

    from repro.errors import StoreError, TraceError
    from repro.store import (
        DEFAULT_SHARD_SIZE,
        ShardedTrace,
        iter_jsonl_records,
        write_shards,
    )

    source = Path(arguments.source)
    shard_size = (
        DEFAULT_SHARD_SIZE if arguments.shard_size is None else arguments.shard_size
    )
    started = time.time()
    try:
        if source.suffix == ".csv":
            # CSV has no streaming decoder; materialise then write.
            from repro.core.types import Trace

            records = iter(Trace.from_csv(source))
        else:
            records = iter_jsonl_records(source)
        write_shards(records, arguments.directory, shard_size=shard_size)
        sharded = ShardedTrace(arguments.directory)
    except FileNotFoundError as exc:
        print(f"repro shard: error: {exc}", file=sys.stderr)
        return 2
    except (StoreError, TraceError) as exc:
        print(f"repro shard: error: {exc}", file=sys.stderr)
        return 2
    shards = len(sharded.manifest["shards"])
    print(
        f"wrote {len(sharded)} records to {shards} shard(s) in "
        f"{arguments.directory} ({time.time() - started:.1f}s)"
    )
    return 0


def _run_bench(arguments) -> int:
    """Run the throughput benchmark; exit 1 on a --check regression."""
    from pathlib import Path

    from repro.experiments.bench import (
        DEFAULT_OUTPUT,
        check_against_baseline,
        run_benchmark,
    )

    runs = 16 if arguments.quick else arguments.runs
    micro_repeats = 5 if arguments.quick else 20
    output = Path(arguments.output) if arguments.output else DEFAULT_OUTPUT
    started = time.time()
    payload = run_benchmark(
        runs=runs,
        seed=arguments.seed,
        workers=arguments.workers,
        micro_repeats=micro_repeats,
        output=output,
    )
    fig7a = payload["fig7a"]
    print(
        f"fig7a: {fig7a['sequential_runs_per_second']:.2f} runs/s sequential, "
        f"{fig7a['parallel_runs_per_second']:.2f} runs/s with "
        f"{fig7a['workers']} workers "
        f"({payload['speedup_vs_pre_pr']['sequential']:.1f}x / "
        f"{payload['speedup_vs_pre_pr']['parallel']:.1f}x vs pre-PR baseline)"
    )
    print(
        f"  medians of {fig7a['repeats']} interleaved pairs: "
        f"{fig7a['sequential_runs_per_ref']:.4f} sequential runs per "
        f"reference time, parallel speedup {fig7a['parallel_speedup']:.3f}x"
    )
    for name, rate in payload["estimators_per_second"].items():
        print(f"  {name:<10} {rate:8.1f} estimates/s")
    print(f"wrote {output} ({time.time() - started:.1f}s)")
    if arguments.check is not None:
        if not 0.0 < arguments.tolerance < 1.0:
            print(
                f"repro bench: error: --tolerance must lie in (0, 1), got "
                f"{arguments.tolerance}",
                file=sys.stderr,
            )
            return 2
        if not 0.0 <= arguments.parallel_tolerance < 1.0:
            print(
                f"repro bench: error: --parallel-tolerance must lie in "
                f"[0, 1), got {arguments.parallel_tolerance}",
                file=sys.stderr,
            )
            return 2
        failure = check_against_baseline(
            payload,
            Path(arguments.check),
            tolerance=arguments.tolerance,
            parallel_tolerance=arguments.parallel_tolerance,
        )
        if failure is not None:
            print(f"repro bench: {failure}", file=sys.stderr)
            return 1
        print(
            f"throughput within {arguments.tolerance:.0%} of the baseline "
            f"in {arguments.check}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
