"""Smoke check of the benchmark: every workload on tiny inputs.

Run from the repository root::

    python3 perfbench/smoke.py [--seconds 1.5] [--workload NAME ...]

Runs each workload once untraced and once traced with ``--size tiny``
and asserts that the result line carries exactly the metrics
``BENCHMARK.json`` names, each with its unit and a finite value; that
the provenance line carries the environment and every metric name the
workload is known by; that each of the workload's correctness checks
ran and passed; and that in the traced run every layer the workload
names (``Workload.layers``) reads above 0.  Exits 0 when all hold, 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PROVENANCE = ("nproc", "python", "numpy", "kernels_backend", "workload", "why", "seed", "input")


def _problems(workload, trace, spec, lines):
    """What is wrong with one run's last two output lines."""
    import run

    problems = []
    details, result = (json.loads(line) for line in lines[-2:])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("attempted", 0) < 1:
        problems.append(f"not correct: {result.get('attempted')} attempted, {result.get('failed')} failed")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not math.isfinite(entry.get("value", math.nan)):
            problems.append(f"metric {name}: {entry}")
    missing = [key for key in PROVENANCE if key not in details["provenance"]]
    if missing:
        problems.append(f"provenance lacks {missing}")
    named = details["named_metrics"]
    for name in run.SHARED_NAMES + tuple(workload.named_metrics):
        entry = named.get(name, {})
        if "unit" not in entry or not math.isfinite(entry.get("value", math.nan)):
            problems.append(f"named metric {name}: {entry}")
    for check in workload.checks:
        if not details["checks"]["ran"].get(check):
            problems.append(f"check {check} did not run")
    if details["checks"]["failed"]:
        problems.append(f"checks failed: {details['checks']['failed']}")
    if trace and not details["ledger"]:
        problems.append("traced run has an empty ledger")
    silent = [name for name in workload.layers if trace and not metrics.get(name, {}).get("value")]
    if silent:
        problems.append(f"layers the workload names read 0: {silent}")
    return problems


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import run

    workloads = run._workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.5)
    parser.add_argument("--workload", action="append", choices=sorted(workloads))
    arguments = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for name in arguments.workload or list(workloads):
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
                "--seconds", str(arguments.seconds), "--trace", str(trace), "--size", "tiny",
            ]  # fmt: skip
            process = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = process.stdout.strip().splitlines()
            if process.returncode != 0 or len(lines) < 2:
                problems = [f"exit {process.returncode}: {process.stderr[-2000:]}"]
            else:
                problems = _problems(workloads[name], trace, spec, lines)
            print(f"{name} --trace {trace}: {'ok' if not problems else 'FAILED'}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
