"""Grid policies: vectorised policy evaluation over a finite context grid.

The synthetic workloads draw contexts from a finite categorical grid
(``cardinality ** n_features`` cells).  Over such a grid any policy is
fully described by one ``(cells, decisions)`` probability matrix — and
once that matrix is precomputed, every propensity query is a gather, not
a dict lookup.  :class:`GridPolicy` snapshots a base policy into that
matrix form:

* ``propensity_batch`` over :class:`~repro.live.chunks.CodedSequence`
  inputs whose vocabularies are *identical* (``is``) to the policy's own
  grid resolves as ``matrix[context_codes, decision_codes]`` — one fused
  numpy gather for the whole chunk, the >1M records/s path.
* Any other input goes to the base ``Policy.propensity_batch``, which
  gathers from ``probability_matrix`` rows of the same stored matrix, so
  fast and slow paths return the same float64 objects bit for bit (both
  *read* matrix entries; neither recomputes them).

The matrix itself is built once via the base policy's own
``probability_matrix`` — after construction the grid policy is a pure
function of the snapshot, immune to any statefulness in the base.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.policy import Policy
from repro.core.spaces import DecisionSpace
from repro.core.types import ClientContext, Decision
from repro.errors import PolicyError
from repro.live.chunks import CodedSequence


class GridPolicy(Policy):
    """A policy tabulated over a finite grid of context cells.

    Parameters
    ----------
    base:
        Any policy; its ``probability_matrix`` over *cells* becomes the
        snapshot this policy serves forever after.
    cells:
        The context grid, as a tuple of (interned) contexts.  Shared by
        identity with the traffic generator's
        :attr:`~repro.live.chunks.StreamBatch.contexts_vocabulary`, which
        is what unlocks the coded fast path.
    """

    def __init__(
        self,
        base: Policy,
        cells: Tuple[ClientContext, ...],
        decisions_vocabulary: Tuple[Decision, ...] = None,
    ):
        super().__init__(base.space)
        if not cells:
            raise PolicyError("GridPolicy needs at least one context cell")
        self._cells = tuple(cells)
        if decisions_vocabulary is None:
            self._decisions = self._space.decisions
        else:
            # The caller shares one vocabulary tuple across policies and
            # stream batches; the coded fast path checks *identity*, so
            # accepting the shared object (after a value check) is what
            # makes the check pass.
            if tuple(decisions_vocabulary) != self._space.decisions:
                raise PolicyError(
                    "decisions_vocabulary does not match the decision space order"
                )
            self._decisions = decisions_vocabulary
        self._cell_rows: Dict[ClientContext, int] = {
            cell: row for row, cell in enumerate(self._cells)
        }
        if len(self._cell_rows) != len(self._cells):
            raise PolicyError("GridPolicy context cells must be distinct")
        matrix = np.asarray(base.probability_matrix(self._cells), dtype=float)
        if matrix.shape != (len(self._cells), len(self._decisions)):
            raise PolicyError(
                f"base policy produced a {matrix.shape} probability matrix; "
                f"expected {(len(self._cells), len(self._decisions))}"
            )
        matrix.setflags(write=False)
        self._matrix = matrix

    @property
    def cells(self) -> Tuple[ClientContext, ...]:
        """The context grid, in matrix row order."""
        return self._cells

    @property
    def matrix(self) -> np.ndarray:
        """The (read-only) ``(cells, decisions)`` probability snapshot."""
        return self._matrix

    def _row(self, context: ClientContext) -> int:
        try:
            return self._cell_rows[context]
        except KeyError:
            raise PolicyError(
                f"context {context!r} is not a cell of this GridPolicy's grid"
            ) from None

    def probabilities(self, context: ClientContext) -> Dict[Decision, float]:
        """The snapshot row for *context* as a decision → probability dict."""
        row = self._matrix[self._row(context)]
        return {
            decision: float(row[column])
            for column, decision in enumerate(self._decisions)
        }

    def propensity_batch(
        self,
        decisions: Sequence[Decision],
        contexts: Sequence[ClientContext],
    ) -> np.ndarray:
        """``mu(d_k | c_k)`` via one matrix gather where possible.

        Both branches read the same stored float64 entries, so they are
        bit-identical; only the addressing differs (codes vs hashed
        lookups).
        """
        if (
            isinstance(contexts, CodedSequence)
            and isinstance(decisions, CodedSequence)
            and contexts.vocabulary is self._cells
            and decisions.vocabulary is self._decisions
        ):
            return self._matrix[contexts.codes, decisions.codes]
        return super().propensity_batch(decisions, contexts)

    def probability_matrix(self, contexts: Sequence[ClientContext]) -> np.ndarray:
        """``mu(d | c_k)`` rows gathered from the snapshot."""
        if (
            isinstance(contexts, CodedSequence)
            and contexts.vocabulary is self._cells
        ):
            return self._matrix[contexts.codes]
        rows = np.fromiter(
            (self._row(context) for context in contexts),
            dtype=np.intp,
            count=len(contexts),
        )
        return self._matrix[rows]


def grid_cells(space: DecisionSpace) -> Tuple[Decision, ...]:
    """The decision vocabulary a :class:`GridPolicy` codes against.

    Thin alias for ``space.decisions`` so call sites spell out that
    vocabulary *identity* (not just equality) is what the coded fast
    path checks.
    """
    return space.decisions
