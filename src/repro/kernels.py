"""The estimator stack's hot-path arithmetic as plain numpy functions.

The per-record arithmetic — the ridge normal-equations solve, the kNN
distance/top-k selection, the CPT counts and bucket accumulations,
and the DR/SNDR gather-columns-reduce-once reductions — lives here once,
so an estimator that needs new arithmetic has one obvious place to add
it.

The float kernels are the historical inline expressions, moved
verbatim; none may be "optimised" in a way that changes rounding:
bucket sums accumulate in index order, CPT counts are whole numbers
(exact in any order), elementwise ufunc chains round after every
operation (no FMA), and the ridge solve keeps its exact
centring → gram → solve sequence.  The stream-vs-dense, parallel and
live equivalence suites compare estimates byte for byte and would catch
a last-ulp drift.  The integer :func:`first_seen_codes` answers to a
pure-Python dict oracle in ``tests/kernels/test_first_seen.py``.
"""

from __future__ import annotations

import sys
from typing import Tuple

import numpy as np

#: Implementation name, written as ``kernels_backend`` into bench provenance.
name = "numpy"


def get_backend():
    """This module (bench provenance reads ``get_backend().name``)."""
    return sys.modules[__name__]


def cpt_accumulate(
    counts: np.ndarray, rows: np.ndarray, codes: np.ndarray, weights=None
) -> None:
    """``counts[rows[i], codes[i]] += weights[i]`` (``1.0`` without
    *weights*), as one ``np.bincount`` over the flattened cell index."""
    cells = np.bincount(rows * counts.shape[1] + codes, weights, counts.size)
    counts += cells.reshape(counts.shape)


def bucket_accumulate(
    sums: np.ndarray, counts: np.ndarray, ids: np.ndarray, values: np.ndarray
) -> None:
    """Per-bucket running sums/counts, accumulated in record order.

    ``np.add.at`` applies its updates sequentially over the index
    array, so each bucket cell sees the same left-to-right addition
    sequence as the scalar ``sums[key] += value`` loop it replaces.
    Negative ids mark records outside every bucket and are skipped.
    """
    if ids.size and ids.min() < 0:
        keep = ids >= 0
        ids = ids[keep]
        values = values[keep]
    np.add.at(sums, ids, values)
    np.add.at(counts, ids, 1.0)


def first_seen_codes(*keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(codes, firsts)``: first-seen-order codes of the distinct rows of
    aligned integer key columns, and each code's first position.  Keys
    combine mixed-radix.  A column, or combined key, spanning more than
    ``n`` values (``id()`` keys, ``f8`` bit patterns) is densified by
    :func:`numpy.unique`; a narrower one is shifted by its minimum.
    ``np.minimum.at`` finds each row's first position; only the distinct
    first positions are sorted.
    """
    n = len(keys[0])
    if not n:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    row, width = 0, 1
    for key in keys:
        low, high = int(key.min()), int(key.max())
        if high - low < n:
            key, size = np.subtract(key, low, dtype=np.intp), high - low + 1
        else:
            _, key = np.unique(key, return_inverse=True)
            size = int(key.max()) + 1
        row, width = row * size + key, width * size
        if width > n:
            _, row = np.unique(row, return_inverse=True)
            width = int(row.max()) + 1
    first = np.full(width, n, dtype=np.intp)
    np.minimum.at(first, row, np.arange(n))
    firsts = np.sort(first[first < n])
    rank = np.empty(width, dtype=np.intp)
    rank[row[firsts]] = np.arange(firsts.size)
    return rank[row], firsts


def ask_distinct(call, codes, sequences, positions=None) -> np.ndarray:
    """``call(*sequences)``, asked once per distinct row of the aligned
    integer key columns *codes* and gathered back per row.

    *call* gets each of *sequences* at the distinct rows' first
    positions, in first-seen order, so it is exact whenever rows with
    equal codes have equal answers.  With *positions*, only those rows
    are answered, in that order.
    """
    if positions is not None:
        positions = np.asarray(positions, dtype=np.intp)
        codes = [key[positions] for key in codes]
    inverse, firsts = first_seen_codes(*codes)
    rows = (firsts if positions is None else positions[firsts]).tolist()
    return np.asarray(call(*([s[row] for row in rows] for s in sequences)))[inverse]


def importance_ratio(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """``mu_new / mu_old`` elementwise."""
    return new / old


def clip_weights(weights: np.ndarray, clip: float) -> np.ndarray:
    """``min(w, clip)`` elementwise."""
    return np.minimum(weights, clip)


def dr_contributions(
    dm_terms: np.ndarray, weights: np.ndarray, residuals: np.ndarray
) -> np.ndarray:
    """``dm + w * res`` elementwise (round after multiply, then add)."""
    return dm_terms + weights * residuals


def sndr_contributions(
    dm_terms: np.ndarray,
    weights: np.ndarray,
    residuals: np.ndarray,
    scale: float,
) -> np.ndarray:
    """``dm + (w * res) * scale`` elementwise, in that association."""
    return dm_terms + weights * residuals * scale


def ips_contributions(weights: np.ndarray, rewards: np.ndarray) -> np.ndarray:
    """``w * r`` elementwise."""
    return weights * rewards


def ridge_solve(
    design: np.ndarray, targets: np.ndarray, alpha: float
) -> Tuple[np.ndarray, float]:
    """Centred normal-equations ridge fit.

    Centre targets and columns so the intercept absorbs the means and
    escapes the ridge penalty; solve the regularised gram system.
    """
    column_means = design.mean(axis=0)
    target_mean = targets.mean()
    centered = design - column_means
    gram = centered.T @ centered + alpha * np.eye(design.shape[1])
    moment = centered.T @ (targets - target_mean)
    coefficients = np.linalg.solve(gram, moment)
    intercept = float(target_mean - column_means @ coefficients)
    return coefficients, intercept


def knn_distances(candidates: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Euclidean distance from *query* to every candidate row."""
    return np.linalg.norm(candidates - query, axis=1)


def topk_indices(distances: np.ndarray, k: int) -> np.ndarray:
    """Indices of the *k* smallest distances (argpartition order)."""
    return np.argpartition(distances, k - 1)[:k]
