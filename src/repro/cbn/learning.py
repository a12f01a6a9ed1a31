"""Learning Bayesian networks from data.

Two stages, as in WISE's pipeline:

* :func:`fit_parameters` — maximum-likelihood CPTs (with Laplace
  smoothing) for a *given* structure.
* :class:`StructureLearner` — score-based greedy hill-climbing over DAGs
  using the BIC score.  On small traces the BIC penalty prunes real
  dependencies, yielding the *incomplete* CBN of the paper's Fig 4
  ("Suppose the trace input was small and WISE infers an incomplete
  CBN...") — that failure mode is the point, not a bug.

Hill-climbing scores hundreds of candidate structures against the same
rows, so the learner integer-codes the dataset once up front: every
candidate then fits its CPTs with one ``np.add.at`` over code arrays and
scores its log-likelihood by dense CPT gathers, instead of re-walking the
rows in Python per candidate.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro import kernels
from repro.cbn.graph import BayesianNetwork, Value
from repro.errors import SimulationError

Row = Mapping[str, Value]


def _domains_from_data(
    data: Sequence[Row], variables: Sequence[str]
) -> Dict[str, Tuple[Value, ...]]:
    domains: Dict[str, List[Value]] = {v: [] for v in variables}
    seen: Dict[str, set] = {v: set() for v in variables}
    for row in data:
        for variable in variables:
            if variable not in row:
                raise SimulationError(f"data row missing variable {variable!r}")
            value = row[variable]
            if value not in seen[variable]:
                seen[variable].add(value)
                domains[variable].append(value)
    return {v: tuple(values) for v, values in domains.items()}


class _EncodedDataset:
    """Integer-coded columns of a row dataset.

    ``codes[v][k]`` is the position of row *k*'s value in ``domains[v]``
    (domains inferred first-seen from the data, then overridden by any
    explicit domains).  Built once per learn/fit call and shared across
    every candidate structure.
    """

    __slots__ = ("n", "domains", "codes")

    def __init__(
        self,
        data: Sequence[Row],
        variables: Sequence[str],
        domains: Optional[Mapping[str, Sequence[Value]]] = None,
    ):
        resolved = dict(_domains_from_data(data, variables))
        if domains is not None:
            for variable, domain in domains.items():
                resolved[variable] = tuple(domain)
        self.n = len(data)
        self.domains: Dict[str, Tuple[Value, ...]] = resolved
        self.codes: Dict[str, np.ndarray] = {}
        for variable in variables:
            index = {value: i for i, value in enumerate(resolved[variable])}
            self.codes[variable] = np.fromiter(
                (index[row[variable]] for row in data), dtype=np.intp, count=self.n
            )


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


def _fit_encoded(
    encoded: _EncodedDataset,
    structure: Mapping[str, Sequence[str]],
    order: Sequence[str],
    smoothing: float,
) -> BayesianNetwork:
    """MLE CPTs for *structure* from pre-encoded data.

    Parent-value combinations map to flat row indices in row-major
    ``itertools.product`` order (first parent most significant), so one
    ``np.add.at`` accumulates every count.
    """
    network = BayesianNetwork()
    for variable in order:
        parents = tuple(structure[variable])
        domain = encoded.domains[variable]
        parent_domains = [encoded.domains[parent] for parent in parents]
        row_count = 1
        for parent_domain in parent_domains:
            row_count *= len(parent_domain)
        counts = np.full((row_count, len(domain)), smoothing, dtype=float)
        flat = np.zeros(encoded.n, dtype=np.intp)
        for parent, parent_domain in zip(parents, parent_domains):
            flat = flat * len(parent_domain) + encoded.codes[parent]
        kernels.cpt_accumulate(counts, flat, encoded.codes[variable])
        probabilities = counts / counts.sum(axis=1, keepdims=True)
        rows = {
            key: probabilities[position]
            for position, key in enumerate(itertools.product(*parent_domains))
        }
        network.add_variable(variable, domain, parents, rows)
    return network


def _log_likelihood_encoded(
    encoded: _EncodedDataset, network: BayesianNetwork
) -> float:
    """Log-likelihood from pre-encoded data (network domains must be the
    encoded domains, as they are for networks built by :func:`_fit_encoded`)."""
    products = np.ones(encoded.n, dtype=float)
    for variable in network.variables:
        flat = np.zeros(encoded.n, dtype=np.intp)
        for parent in network.parents(variable):
            flat = flat * len(encoded.domains[parent]) + encoded.codes[parent]
        matrix = network.dense_rows(variable)
        products = products * matrix[flat, encoded.codes[variable]]
    if np.any(products <= 0):
        return -math.inf
    return float(np.log(products).sum())


def _bic_penalty(network: BayesianNetwork, n: int) -> float:
    parameters = 0
    for variable in network.variables:
        rows = 1
        for parent in network.parents(variable):
            rows *= len(network.domain(parent))
        parameters += rows * (len(network.domain(variable)) - 1)
    return 0.5 * parameters * math.log(n)


def _bic_encoded(encoded: _EncodedDataset, network: BayesianNetwork) -> float:
    return _log_likelihood_encoded(encoded, network) - _bic_penalty(
        network, encoded.n
    )


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
    encoded = _EncodedDataset(data, list(structure.keys()), domains)
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
    return log_likelihood(data, network) - _bic_penalty(network, n)


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
        self._max_parents = max_parents
        self._max_iterations = max_iterations
        self._smoothing = smoothing

    def learn(
        self,
        data: Sequence[Row],
        variables: Sequence[str],
        domains: Optional[Mapping[str, Sequence[Value]]] = None,
    ) -> BayesianNetwork:
        """Learn structure + parameters from *data*."""
        if not data:
            raise SimulationError("cannot learn a structure from empty data")
        encoded = _EncodedDataset(data, list(variables), domains)
        structure: Dict[str, List[str]] = {v: [] for v in variables}
        best_network = _fit_encoded(
            encoded, structure, _validated_order(structure), self._smoothing
        )
        best_score = _bic_encoded(encoded, best_network)
        for _ in range(self._max_iterations):
            candidate = self._best_move(encoded, structure, best_score)
            if candidate is None:
                break
            structure, best_network, best_score = candidate
        return best_network

    def _best_move(
        self,
        encoded: _EncodedDataset,
        structure: Dict[str, List[str]],
        current_score: float,
    ) -> Optional[Tuple[Dict[str, List[str]], BayesianNetwork, float]]:
        """The highest-scoring single-edge move, or ``None``."""
        variables = list(structure.keys())
        best: Optional[Tuple[Dict[str, List[str]], BayesianNetwork, float]] = None
        best_score = current_score
        for source, target in itertools.permutations(variables, 2):
            for move in ("add", "remove", "reverse"):
                applied = self._apply_move(structure, source, target, move)
                if applied is None:
                    continue
                candidate, order = applied
                try:
                    network = _fit_encoded(
                        encoded, candidate, order, self._smoothing
                    )
                except SimulationError:  # noqa: REP006 - unfittable candidate
                    # structures are legitimately pruned from the search,
                    # not failures to surface.
                    continue
                score = _bic_encoded(encoded, network)
                if score > best_score + 1e-9:
                    best_score = score
                    best = (candidate, network, score)
        return best

    def _apply_move(
        self,
        structure: Dict[str, List[str]],
        source: str,
        target: str,
        move: str,
    ) -> Optional[Tuple[Dict[str, List[str]], List[str]]]:
        """A copy of *structure* with the move applied (plus its topological
        order), or ``None`` if the move is inapplicable or would create a
        cycle / exceed max parents."""
        candidate = {v: list(ps) for v, ps in structure.items()}
        has_edge = source in candidate[target]
        if move == "add":
            if has_edge or len(candidate[target]) >= self._max_parents:
                return None
            candidate[target].append(source)
        elif move == "remove":
            if not has_edge:
                return None
            candidate[target].remove(source)
        elif move == "reverse":
            if not has_edge or len(candidate[source]) >= self._max_parents:
                return None
            candidate[target].remove(source)
            candidate[source].append(target)
        else:  # pragma: no cover - internal misuse
            raise SimulationError(f"unknown move {move!r}")
        graph = nx.DiGraph()
        graph.add_nodes_from(candidate)
        for child, parents in candidate.items():
            graph.add_edges_from((p, child) for p in parents)
        if not nx.is_directed_acyclic_graph(graph):
            return None
        return candidate, list(nx.topological_sort(graph))
