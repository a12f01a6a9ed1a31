"""Learning Bayesian networks from data.

Two stages, as in WISE's pipeline:

* :func:`fit_parameters` — maximum-likelihood CPTs (with Laplace
  smoothing) for a *given* structure.
* :class:`StructureLearner` — score-based greedy hill-climbing over DAGs
  using the BIC score.  On small traces the BIC penalty prunes real
  dependencies, yielding the *incomplete* CBN of the paper's Fig 4
  ("Suppose the trace input was small and WISE infers an incomplete
  CBN...") — that failure mode is the point, not a bug.

BIC decomposes over families (a variable and its parent tuple), and one
edge move changes at most two families, so the hill-climb never builds a
network per candidate.  The learner integer-codes the dataset once
(``learn`` codes rows; ``learn_codes``, the one hill-climb, takes columns
a caller coded already, as the WISE model does from trace columns) and
keeps only its distinct rows and their counts.  It scores each family it
meets once (the counts-weighted log of its smoothed CPT minus its
parameter penalty, memoised for the duration of one call), and totals a
candidate as the sum of its family scores in declared variable order.
Acyclicity is a depth-first search over the parent lists.  Only the
winning structure is fitted into a
:class:`~repro.cbn.graph.BayesianNetwork`, once, at the end.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro import kernels
from repro.cbn.graph import BayesianNetwork, Value
from repro.errors import SimulationError

Row = Mapping[str, Value]


def _coded_rows(
    data: Sequence[Row],
    variables: Sequence[str],
    domains: Optional[Mapping[str, Sequence[Value]]] = None,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Tuple[Value, ...]]]:
    """Per-observation ``intp`` codes of a row dataset and their domains:
    inferred first-seen from the data, then overridden by any explicit
    *domains*."""
    found: Dict[str, Dict[Value, None]] = {v: {} for v in variables}
    for row in data:
        for variable in variables:
            if variable not in row:
                raise SimulationError(f"data row missing variable {variable!r}")
            found[variable][row[variable]] = None
    resolved = {v: tuple(values) for v, values in found.items()}
    resolved.update((v, tuple(domain)) for v, domain in (domains or {}).items())
    codes: Dict[str, np.ndarray] = {}
    for variable in variables:
        index = {value: i for i, value in enumerate(resolved[variable])}
        codes[variable] = np.fromiter(
            (index[row[variable]] for row in data), dtype=np.intp, count=len(data)
        )
    return codes, resolved


class _EncodedDataset:
    """The distinct rows of an integer-coded dataset, built once per
    learn/fit call: ``codes[v][j]`` indexes ``domains[v]`` for distinct
    row *j*, which ``weights[j]`` of the *n* observations equal (a WISE
    dataset has at most 16 distinct rows)."""

    __slots__ = ("n", "domains", "codes", "weights")

    def __init__(
        self,
        codes: Mapping[str, np.ndarray],
        domains: Mapping[str, Sequence[Value]],
    ):
        columns = list(codes.values())
        self.n = len(columns[0]) if columns else 0
        self.domains = {v: tuple(domain) for v, domain in domains.items()}
        rows = firsts = np.zeros(0, dtype=np.intp)
        if columns:
            rows, firsts = kernels.first_seen_codes(*columns)
        self.codes = {v: column[firsts] for v, column in codes.items()}
        self.weights = np.bincount(rows, minlength=len(firsts))


def _validated_order(structure: Mapping[str, Sequence[str]]) -> List[str]:
    """Topological order of *structure*, validating parents and acyclicity."""
    graph = nx.DiGraph()
    graph.add_nodes_from(structure.keys())
    for child, parents in structure.items():
        for parent in parents:
            if parent not in structure:
                raise SimulationError(
                    f"parent {parent!r} of {child!r} is not a declared variable"
                )
            graph.add_edge(parent, child)
    if not nx.is_directed_acyclic_graph(graph):
        raise SimulationError("structure has a directed cycle")
    return list(nx.topological_sort(graph))


def _family_cpt(
    encoded: _EncodedDataset,
    variable: str,
    parents: Sequence[str],
    smoothing: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Laplace-smoothed MLE CPT of *variable* given *parents*, plus the
    raw counts it was built from.

    Parent-value combinations map to flat row indices in row-major
    ``itertools.product`` order (first parent most significant), so one
    count over the distinct rows, weighted by their multiplicities, fills
    every cell; the smoothing is added once.
    """
    row_count = 1
    flat = np.zeros(len(encoded.weights), dtype=np.intp)
    for parent in parents:
        size = len(encoded.domains[parent])
        row_count *= size
        flat = flat * size + encoded.codes[parent]
    raw = np.zeros((row_count, len(encoded.domains[variable])))
    kernels.cpt_accumulate(raw, flat, encoded.codes[variable], encoded.weights)
    counts = raw + smoothing
    return counts / counts.sum(axis=1, keepdims=True), raw


def _fit_encoded(
    encoded: _EncodedDataset,
    structure: Mapping[str, Sequence[str]],
    order: Sequence[str],
    smoothing: float,
) -> BayesianNetwork:
    """A network with MLE CPTs for *structure* from pre-encoded data."""
    network = BayesianNetwork()
    for variable in order:
        parents = tuple(structure[variable])
        cpt, _ = _family_cpt(encoded, variable, parents, smoothing)
        keys = itertools.product(*(encoded.domains[p] for p in parents))
        network.add_variable(
            variable, encoded.domains[variable], parents, dict(zip(keys, cpt))
        )
    return network


def _family_score(
    encoded: _EncodedDataset,
    variable: str,
    parents: Tuple[str, ...],
    smoothing: float,
) -> float:
    """Local BIC of one family: Σ_cells count · log θ[cell] − ½ ·
    combinations · (|domain| − 1) · log n, with θ the CPT
    :func:`_fit_encoded` would build."""
    cpt, raw = _family_cpt(encoded, variable, parents, smoothing)
    rows, size = cpt.shape
    return float(raw.ravel() @ np.log(cpt).ravel()) - (
        0.5 * rows * (size - 1) * math.log(encoded.n)
    )


def _reaches(parents: Mapping[str, Sequence[str]], start: str, goal: str) -> bool:
    """Whether *start* reaches *goal* along directed edges, searched
    backwards from *goal* over the parent lists."""
    stack, seen = [goal], {goal}
    while stack:
        for parent in parents[stack.pop()]:
            if parent == start:
                return True
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return False


def fit_parameters(
    data: Sequence[Row],
    structure: Mapping[str, Sequence[str]],
    domains: Optional[Mapping[str, Sequence[Value]]] = None,
    smoothing: float = 1.0,
) -> BayesianNetwork:
    """Build a :class:`BayesianNetwork` with MLE (Laplace-smoothed) CPTs.

    Parameters
    ----------
    data:
        Sequence of complete assignments (dict per observation).
    structure:
        Mapping of variable -> parent list; must be acyclic.
    domains:
        Optional explicit domains (else inferred from the data).
    smoothing:
        Laplace pseudo-count per cell; keeps unseen combinations defined.
    """
    if not data:
        raise SimulationError("cannot fit CPTs on empty data")
    if smoothing <= 0:
        raise SimulationError(f"smoothing must be positive, got {smoothing}")
    order = _validated_order(structure)
    encoded = _EncodedDataset(*_coded_rows(data, list(structure.keys()), domains))
    return _fit_encoded(encoded, structure, order, smoothing)


def log_likelihood(
    data: Sequence[Row], network: BayesianNetwork
) -> float:
    """Total log-likelihood of *data* under *network*."""
    probabilities = network.joint_probability_batch(data)
    if np.any(probabilities <= 0):
        return -math.inf
    return float(np.log(probabilities).sum())


def bic_score(data: Sequence[Row], network: BayesianNetwork) -> float:
    """BIC = log-likelihood − (free parameters / 2) · log n (higher better)."""
    n = len(data)
    if n == 0:
        raise SimulationError("BIC of empty data is undefined")
    parameters = 0
    for variable in network.variables:
        rows = 1
        for parent in network.parents(variable):
            rows *= len(network.domain(parent))
        parameters += rows * (len(network.domain(variable)) - 1)
    return log_likelihood(data, network) - 0.5 * parameters * math.log(n)


class StructureLearner:
    """Greedy BIC hill-climbing over DAG structures.

    Starts from the empty graph and repeatedly applies the single edge
    addition/removal/reversal that most improves the BIC score, until no
    move improves it or ``max_iterations`` is hit.

    Parameters
    ----------
    max_parents:
        Cap on in-degree (keeps CPTs small, as WISE-scale data demands).
    max_iterations:
        Safety cap on hill-climbing moves.
    smoothing:
        CPT smoothing used when scoring candidates.
    """

    def __init__(
        self,
        max_parents: int = 3,
        max_iterations: int = 100,
        smoothing: float = 1.0,
    ):
        if max_parents < 1:
            raise SimulationError(f"max_parents must be >= 1, got {max_parents}")
        if max_iterations < 0:
            raise SimulationError(
                f"max_iterations must be >= 0, got {max_iterations}"
            )
        if smoothing <= 0:
            raise SimulationError(f"smoothing must be positive, got {smoothing}")
        self._max_parents = max_parents
        self._max_iterations = max_iterations
        self._smoothing = smoothing

    def learn(
        self,
        data: Sequence[Row],
        variables: Sequence[str],
        domains: Optional[Mapping[str, Sequence[Value]]] = None,
    ) -> BayesianNetwork:
        """Learn structure + parameters from *data*: integer-code the rows,
        then :meth:`learn_codes`."""
        if not data:
            raise SimulationError("cannot learn a structure from empty data")
        return self.learn_codes(*_coded_rows(data, list(variables), domains))

    def learn_codes(
        self,
        codes: Mapping[str, np.ndarray],
        domains: Mapping[str, Sequence[Value]],
    ) -> BayesianNetwork:
        """Learn structure + parameters from integer-coded columns.

        The variables are *codes*' keys, in order; ``codes[v][k]`` is the
        position of observation *k*'s value in ``domains[v]``.  This is
        the one hill-climb: :meth:`learn` codes its rows and calls it.
        """
        encoded = _EncodedDataset(codes, domains)
        if codes and not encoded.n:
            raise SimulationError("cannot learn a structure from empty data")
        variables = list(codes)
        memo: Dict[Tuple[str, Tuple[str, ...]], float] = {}

        def score(structure: Mapping[str, Sequence[str]]) -> float:
            total = 0.0
            for variable, parents in structure.items():
                key = (variable, tuple(parents))
                if key not in memo:
                    memo[key] = _family_score(encoded, *key, self._smoothing)
                total += memo[key]
            return total

        structure: Dict[str, List[str]] = {v: [] for v in variables}
        best_score = score(structure)
        for _ in range(self._max_iterations):
            current = structure
            for candidate in self._moves(current):
                total = score(candidate)
                if total > best_score + 1e-9:
                    best_score, structure = total, candidate
            if structure is current:
                break
        return _fit_encoded(
            encoded, structure, _validated_order(structure), self._smoothing
        )

    def _moves(
        self, structure: Dict[str, List[str]]
    ) -> Iterator[Dict[str, List[str]]]:
        """Every legal single-edge move from *structure*, in search order:
        ordered variable pairs, each tried as add, remove, then reverse.
        Candidates share the untouched parent lists with *structure*."""
        for source, target in itertools.permutations(structure, 2):
            parents = structure[target]
            if source not in parents:
                if len(parents) < self._max_parents and not _reaches(
                    structure, target, source
                ):
                    yield {**structure, target: parents + [source]}
                continue
            removed = {**structure, target: [p for p in parents if p != source]}
            yield removed
            if len(structure[source]) < self._max_parents and not _reaches(
                removed, source, target
            ):
                yield {**removed, source: structure[source] + [target]}
