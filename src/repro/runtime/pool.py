"""The fork pool shared by the experiment harness and the parallel stream.

:func:`fork_blocks` runs the first block of tasks in the caller and forks
one child per other block, so *n* workers cost *n − 1* forks.  Children
inherit their context (run closures, fitted estimators, gather buffers)
instead of unpickling it, answer over one pipe each and exit.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import WorkerError
from repro.obs.spans import increment

#: Exit status of a child whose answer is its pickled exception.
_RAISED = 3


def _fork_available() -> bool:
    return hasattr(os, "fork")


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


def forks(counter: str, reasons: Iterable[Tuple[str, bool]]) -> bool:
    """Whether work asked to fork does: ``False`` for the first of the
    ``(reason, applies)`` *reasons* that applies, counted once as
    ``<counter>.<reason>``; ``True`` when none applies."""
    for reason, applies in reasons:
        if applies:
            increment(f"{counter}.{reason}")
            return False
    return True


def _block_partition(pending: Sequence[int], count: int) -> List[List[int]]:
    """Split *pending* (ascending) into *count* contiguous blocks.

    One block per worker pays result pickling per block, not per task,
    and contiguous ranges keep the caller's in-order walk (ledger
    journaling, telemetry replay) a walk over blocks.
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


def _answer(work: Callable[[object], bytes], block, pipe: int) -> None:
    """In a forked child: write ``work(block)`` or its pickled exception."""
    status = 1
    try:
        with os.fdopen(pipe, "wb") as writer:
            try:
                writer.write(work(block))
                status = 0
            except BaseException as failure:
                # An exception that cannot cross back exits with status 1.
                pickle.loads(answer := pickle.dumps(failure))
                writer.write(answer)
                status = _RAISED
                raise  # for os._exit to end; the caller re-raises it
    finally:
        os._exit(status)


def _collect(position: int, children: Dict[int, Tuple[int, int]]) -> bytes:
    """Read and reap block *position*'s child; raise what it raised."""
    pid, pipe = children[position]
    with open(pipe, "rb", closefd=False) as reader:
        answer = reader.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    os.close(children.pop(position)[1])
    if code == 0:
        increment("harness.pool.ipc.bytes", float(len(answer)))
        return answer
    if code == _RAISED:
        raise pickle.loads(answer)
    how = signal.Signals(-code).name if code < 0 else f"exit status {code}"
    raise WorkerError(f"fork worker for block {position} died ({how}) with no result")


def fork_blocks(work: Callable[[object], bytes], blocks: Sequence) -> Iterator[bytes]:
    """Yield ``work(block)`` for every block, in block order; the caller
    runs the first.  Children's payloads count as ``harness.pool.ipc.bytes``.
    A child's exception re-raises as itself, and a child that dies without
    answering is a :class:`~repro.errors.WorkerError` naming its block.  On
    any failure every running child is killed and reaped."""
    if not blocks:
        return
    children: Dict[int, Tuple[int, int]] = {}
    # Collector passes were a measured cause of parallel losing to
    # sequential: the pause spans every block, as children inherit it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for position in range(1, len(blocks)):
            reader, writer = os.pipe()
            pid = os.fork()
            if pid == 0:  # pragma: no cover - the child never returns
                os.close(reader)
                _answer(work, blocks[position], writer)
            os.close(writer)
            children[position] = (pid, reader)
        yield work(blocks[0])
        for position in range(1, len(blocks)):
            yield _collect(position, children)
    finally:
        for pid, reader in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(reader)
        if collecting:
            gc.enable()
