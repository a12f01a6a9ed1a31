"""Shared pieces of the benchmark: run context, timed sections, statistics."""

from __future__ import annotations

import math
import os
import re
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from ledger import Ledger, Patches
from reference import gauge

#: Each run sets the workload up at least SETUP_MIN_REPEATS times, and
#: again until SETUP_MIN_SECONDS of set-up have passed, at most
#: SETUP_MAX_REPEATS times: a short set-up is timed many times.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 40
#: Shorter set-ups are timed in batches at least this long.
SETUP_SAMPLE_SECONDS = 0.005

#: setup_s is normalised like the other timed figures and given in
#: seconds of a host on which the reference computation takes this long.
NOMINAL_REFERENCE_SECONDS = 0.003


def nproc() -> int:
    """CPUs this process may run on (the load and worker bound)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark for this process (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set size since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as handle:
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", handle.read())
    return int(match.group(1)) / 1024.0


def quantile(values: List[float], fraction: float) -> float:
    """Linear-interpolated quantile of *values* (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Checks:
    """Named correctness checks: how often each ran and failed."""

    ran: Dict[str, int] = field(default_factory=dict)
    failed: Dict[str, int] = field(default_factory=dict)

    def record(self, name: str, ok: bool) -> bool:
        self.ran[name] = self.ran.get(name, 0) + 1
        if not ok:
            self.failed[name] = self.failed.get(name, 0) + 1
        return ok

    @property
    def passed(self) -> bool:
        return not self.failed


@dataclass
class Phase:
    """One measured phase: traced or not, with its timed sections.

    Every sample is kept twice: as measured, and normalised by the
    reference readings taken around its section (see ``reference.py``).
    """

    traced: bool
    ledger: Ledger
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    rates: List[float] = field(default_factory=list)
    norm_rates: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    norm_latencies: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    reference: float = 0.0

    @contextmanager
    def section(self, work: float = 0.0) -> Iterator[None]:
        """Time one operation's end-to-end section (ledger on if traced).

        The reference computation is read before and after, untimed.  A
        latency sample added inside the section is normalised by the first
        reading; the section's rate sample, and samples added after it, by
        the mean of both.  With *work*, the section contributes one rate
        sample, ``work / elapsed``.
        """
        self.reference = gauge()
        self.ledger.active = self.traced
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.ledger.active = False
            self.wall += elapsed
            self.reference = (self.reference + gauge()) / 2
            if work:
                self.add_rate(work / elapsed, self.reference)

    def add_rate(self, rate: float, reference: float) -> None:
        self.rates.append(rate)
        self.norm_rates.append(rate * reference)

    def add_latency(self, seconds: float, reference: float = 0.0) -> None:
        """One latency sample; *reference* defaults to the section's."""
        self.latencies.append(seconds)
        self.norm_latencies.append(seconds / (reference or self.reference))

    def absorb_counters(self, recorder, names) -> None:
        """Add the program's own obs counters *names* from *recorder*."""
        counters = recorder.metrics.snapshot(deterministic=False).get("counters", {})
        for name in names:
            self.counters[name] = self.counters.get(name, 0) + counters.get(name, 0)


@dataclass
class Context:
    """Everything a workload needs from the command line."""

    seed: int
    seconds: float
    trace: bool
    tiny: bool
    workdir: Path
    ledger: Ledger
    checks: Checks = field(default_factory=Checks)
    setup_seconds: List[float] = field(default_factory=list)
    setup_references: List[float] = field(default_factory=list)
    extras: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Base class: set up, then run operations until the phase deadline."""

    name = ""
    why = ""
    #: The workload's own metric names -> the shared figure each one is.
    named_metrics: Dict[str, str] = {}
    #: Correctness checks every run of the workload makes.
    checks: Tuple[str, ...] = ()
    #: Per-layer metrics a traced run must find above 0: the layers the
    #: workload is there to measure.
    layers: Tuple[str, ...] = ()
    #: Layers in which the program waits for work: reported, but counted
    #: neither as attributed nor as busy time.
    idle_layers: Tuple[str, ...] = ()

    def __init__(self, context: Context):
        self.context = context

    def input_description(self) -> Dict[str, object]:
        raise NotImplementedError

    def setup(self) -> None:
        """Build the workload's inputs and warm state (timed, repeated)."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built (not timed)."""

    def prepare_checks(self) -> None:
        """Compute reference outputs once, after the last setup."""

    def install(self, patches: Patches, ledger: Ledger) -> None:
        """Wrap the program's public calls for the traced phase."""
        raise NotImplementedError

    def operation(self, phase: Phase) -> None:
        """Run and check one operation, timing it with ``phase.section()``."""
        raise NotImplementedError

    def run_phase(self, phase: Phase, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            self.operation(phase)
            if time.perf_counter() >= deadline:
                return

    def finish_checks(self) -> None:
        """Checks that need the whole run (counters, totals)."""

    def layer_extras(
        self, phase: Phase, seconds: Dict[str, float], counts: Dict[str, float]
    ) -> Dict[str, float]:
        """Per-layer figures derived from the ledger totals or measured
        outside the wrapped calls."""
        return {}


def median(values: List[float]) -> float:
    return statistics.median(values)
