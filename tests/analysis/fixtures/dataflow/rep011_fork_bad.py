"""REP011 positive fixture: fork-hostile workers handed to fork_blocks."""

from repro.runtime.pool import fork_blocks

_SEEN = []


def _remember(block):
    """Worker: appends to a module-level list each forked copy discards."""
    _SEEN.append(block)
    return bytes(block)


def run_blocks(blocks):
    """Fork a module-state-mutating worker and an unpicklable lambda."""
    answers = list(fork_blocks(_remember, blocks))
    return answers + list(fork_blocks(lambda block: bytes(block), blocks))
