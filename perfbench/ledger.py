"""The per-layer time ledger behind ``--trace 1``.

The benchmark never edits the program.  Instead, for the traced half of a
run it replaces public callables of the program (module functions,
methods, classmethods, generator methods, coroutines) with thin wrappers
that record one span per call into a :class:`Ledger`, and puts the
originals back afterwards.  A layer's *self time* is the span's duration
minus the time covered by the wrapped calls nested inside it, so the self
times of all layers on one thread add up to at most the wall time they
cover; what is left is reported as ``unattributed_s``.

Forked pool workers (the parallel stream and the experiment harness)
inherit the wrappers at fork.  Each worker starts an empty ledger and
writes its totals to a file in the ledger's spool directory after every
pool task; the parent merges those files into :meth:`Ledger.totals`.
Worker totals count busy time summed over workers, so they are reported
with the layer metrics but never subtracted from the parent's wall time:
on the parent's timeline the pool section belongs to the layer whose
wrapped call waits on the pool.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

LayerName = Union[str, Callable[..., str]]


class Ledger:
    """Span and counter accumulator, one table per thread."""

    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self._active = False
        # When the ledger was switched off, in order: a span still open
        # then (a server waiting on its socket) ends there.
        self._stops: List[float] = []
        self._in_child = False
        self._child_file: Optional[Path] = None
        self._reset_tables()
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    @property
    def active(self) -> bool:
        """Whether wrapped calls record spans now."""
        return self._active

    @active.setter
    def active(self, value: bool) -> None:
        if self._active and not value:
            self._stops.append(time.perf_counter())
        self._active = value

    def _reset_tables(self) -> None:
        self._local = threading.local()
        self._tables: List[Tuple[Dict[str, float], Dict[str, float], list]] = []

    def _after_fork_in_child(self) -> None:
        if not self.active:
            return
        self._reset_tables()
        self._in_child = True
        self._child_file = self.spool / f"worker-{os.getpid()}-{time.monotonic_ns()}.json"

    def _table(self):
        table = getattr(self._local, "table", None)
        if table is None:
            table = ({}, {}, [])
            self._local.table = table
            self._tables.append(table)
        return table

    # -- spans ---------------------------------------------------------------

    def push(self, layer: str) -> list:
        frame = [layer, time.perf_counter(), 0.0, len(self._stops)]
        self._table()[2].append(frame)
        return frame

    def pop(self, frame: list) -> None:
        now = time.perf_counter()
        seconds, counts, stack = self._table()
        if stack and stack[-1] is frame:
            stack.pop()
        elif frame in stack:  # a coroutine span closed out of order
            stack.remove(frame)
        layer, started, nested, epoch = frame
        if epoch < len(self._stops):
            now = min(now, self._stops[epoch])
        elapsed = now - started
        seconds[layer] = seconds.get(layer, 0.0) + elapsed - nested
        counts[layer] = counts.get(layer, 0) + 1
        if stack:
            stack[-1][2] += elapsed

    def add(self, name: str, value: float) -> None:
        """Add *value* to counter *name* (bytes, records, ...)."""
        counts = self._table()[1]
        counts[name] = counts.get(name, 0) + value

    # -- results -------------------------------------------------------------

    def _merged(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        seconds: Dict[str, float] = {}
        counts: Dict[str, float] = {}
        for table_seconds, table_counts, _stack in list(self._tables):
            for name, value in list(table_seconds.items()):
                seconds[name] = seconds.get(name, 0.0) + value
            for name, value in list(table_counts.items()):
                counts[name] = counts.get(name, 0) + value
        return seconds, counts

    def flush_worker(self) -> None:
        """In a forked worker: persist this worker's totals for the parent."""
        if not self._in_child or self._child_file is None:
            return
        seconds, counts = self._merged()
        partial = self._child_file.with_suffix(".tmp")
        partial.write_text(json.dumps({"seconds": seconds, "counts": counts}))
        os.replace(partial, self._child_file)

    def parent_totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Self seconds and counts recorded in this process only."""
        return self._merged()

    def worker_totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Self seconds and counts brought back from forked workers."""
        seconds: Dict[str, float] = {}
        counts: Dict[str, float] = {}
        for path in sorted(self.spool.glob("worker-*.json")):
            payload = json.loads(path.read_text())
            for name, value in payload["seconds"].items():
                seconds[name] = seconds.get(name, 0.0) + value
            for name, value in payload["counts"].items():
                counts[name] = counts.get(name, 0) + value
        return seconds, counts

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Parent plus worker totals."""
        seconds, counts = self.parent_totals()
        worker_seconds, worker_counts = self.worker_totals()
        for name, value in worker_seconds.items():
            seconds[name] = seconds.get(name, 0.0) + value
        for name, value in worker_counts.items():
            counts[name] = counts.get(name, 0) + value
        return seconds, counts


def _layer_for(layer: LayerName, args, kwargs) -> str:
    return layer(*args, **kwargs) if callable(layer) else layer


def timed(
    ledger: Ledger, layer: LayerName, function: Callable, items: Optional[str] = None
) -> Callable:
    """Wrap *function* so each call is one span of *layer*.

    Generator functions get one span per ``next()`` (time spent producing
    items, not time the consumer spends between them), and each item
    yielded adds one to the *items* counter when given; coroutine
    functions get one span from call to completion, which is exact only
    while they do not suspend — the workloads only trace such calls.
    """
    if inspect.isgeneratorfunction(function):

        @functools.wraps(function)
        def generator_wrapper(*args, **kwargs):
            iterator = function(*args, **kwargs)
            name = _layer_for(layer, args, kwargs)
            while True:
                if not ledger.active:
                    yield from iterator
                    return
                frame = ledger.push(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    ledger.pop(frame)
                if items is not None:
                    ledger.add(items, 1)
                yield item

        return generator_wrapper

    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def coroutine_wrapper(*args, **kwargs):
            if not ledger.active:
                return await function(*args, **kwargs)
            frame = ledger.push(_layer_for(layer, args, kwargs))
            try:
                return await function(*args, **kwargs)
            finally:
                ledger.pop(frame)

        return coroutine_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not ledger.active:
            return function(*args, **kwargs)
        frame = ledger.push(_layer_for(layer, args, kwargs))
        try:
            return function(*args, **kwargs)
        finally:
            ledger.pop(frame)

    return wrapper


def counted(ledger: Ledger, counter: str, measure: Callable[[Any], float], function: Callable) -> Callable:
    """Wrap *function* so each result adds ``measure(result)`` to *counter*."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        result = function(*args, **kwargs)
        if ledger.active:
            ledger.add(counter, measure(result))
        return result

    return wrapper


def flushing(ledger: Ledger, function: Callable) -> Callable:
    """Wrap a pool task function so forked workers persist their totals."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        try:
            return function(*args, **kwargs)
        finally:
            ledger.flush_worker()

    return wrapper


class Patches:
    """Install wrappers over program callables and undo them all.

    :meth:`function` rebinds every module-level name in ``sys.modules``
    that refers to the original function (so ``from x import f`` call
    sites see the wrapper); :meth:`method` rebinds a class attribute,
    keeping ``classmethod``/``staticmethod`` descriptors; :meth:`attribute`
    rebinds one module attribute to an arbitrary object.
    """

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, name: str, value: Any) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[name]
        else:
            original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, value)

    def function(self, module: Any, name: str, wrap: Callable[[Callable], Callable]) -> None:
        original = getattr(module, name)
        wrapper = wrap(original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(loaded, key, wrapper)

    def method(self, cls: type, name: str, wrap: Callable[[Callable], Callable]) -> None:
        descriptor = cls.__dict__[name]
        if isinstance(descriptor, (classmethod, staticmethod)):
            self._set(cls, name, type(descriptor)(wrap(descriptor.__func__)))
        else:
            self._set(cls, name, wrap(descriptor))

    def attribute(self, owner: Any, name: str, value: Any) -> None:
        self._set(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class ModuleProxy:
    """Stand-in for a module at one call site, with some names replaced."""

    def __init__(self, module: Any, **replacements: Any):
        self._module = module
        self.__dict__.update(replacements)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)
