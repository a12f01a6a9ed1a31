"""A fixed reference computation that gauges the host's current speed.

The benchmark's host shares its CPUs: for tens of seconds at a time the
same code runs up to twice as slow.  Each timed operation is therefore
read against this computation (interpreted loops, dict writes and a
``json.dumps``, about 3 ms a run; :func:`gauge` takes the median of a
few runs), and the normalised figures divide the operation's time by the
reading.  A change to the program moves them as much as the raw times; a
change in the host's speed mostly cancels.

Standard library only, so that ``loadgen.py`` can import it as well.
"""

from __future__ import annotations

import json
import statistics
import time

_PAYLOAD = {"values": [i * 0.37 for i in range(2_000)], "names": [f"n{i}" for i in range(500)]}


def reference_seconds() -> float:
    """Wall time of one run of the reference computation."""
    started = time.perf_counter()
    table = {}
    total = 0
    for i in range(10_000):
        total += i * i
        table[i & 511] = total & 0xFFFF
    json.dumps(_PAYLOAD)
    return time.perf_counter() - started


def gauge(repeats: int = 5) -> float:
    """Median time of *repeats* reference runs: one steadier reading."""
    return statistics.median([reference_seconds() for _ in range(repeats)])
