"""Fork-pool helpers shared by the experiment harness and the parallel stream.

Both pools fork so workers inherit their context (run closures, fitted
estimators, gather buffers) instead of pickling it, cap themselves at
the CPUs this process may run on, and hand each worker one contiguous
block of tasks.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import List, Sequence


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _effective_workers(workers: int, tasks: int) -> int:
    """Cap the pool at the CPUs this process may actually run on.

    Oversubscribing a saturated host adds context-switch overhead with
    no added parallelism — the measured cause of the historical
    parallel-slower-than-sequential fig7a regression.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return max(1, min(workers, tasks, cpus))


def _block_partition(pending: Sequence[int], count: int) -> List[List[int]]:
    """Split *pending* (ascending) into *count* contiguous blocks.

    One task per worker amortises task dispatch and result pickling over
    the whole block instead of paying per task, and contiguous ranges
    keep the parent's in-order drain (ledger journaling, telemetry
    replay) a simple walk over finished blocks.
    """
    base, extra = divmod(len(pending), count)
    blocks: List[List[int]] = []
    start = 0
    for position in range(count):
        size = base + (1 if position < extra else 0)
        if size:
            blocks.append(list(pending[start : start + size]))
            start += size
    return blocks
