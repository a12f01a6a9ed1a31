"""REP011 negative fixture: a pure module-level worker through fork_blocks."""

import pickle

from repro.runtime.pool import fork_blocks


def _squares(block):
    """Worker: returns its answer instead of storing it."""
    return pickle.dumps([value * value for value in block])


def run_blocks(blocks):
    """Fork a pure module-level worker; the answers come back as bytes."""
    return [pickle.loads(payload) for payload in fork_blocks(_squares, blocks)]
