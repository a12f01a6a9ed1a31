"""Discrete Bayesian networks: structure + CPTs + exact inference.

The substrate behind the WISE scenario (paper Fig 4): WISE builds a
Causal Bayesian Network from network traces and answers what-if questions
by probabilistic inference.  We implement categorical networks with
tabular CPDs, ancestral sampling, and exact inference by enumeration
(fine at the handful-of-variables scale of CDN configuration models).
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.errors import SimulationError

Value = Hashable
Assignment = Dict[str, Value]


class ConditionalTable:
    """CPT of one variable given its parents.

    Rows are keyed by the tuple of parent values (in parent order); each
    row is a distribution over the variable's domain.
    """

    def __init__(
        self,
        variable: str,
        domain: Sequence[Value],
        parents: Sequence[str],
        rows: Mapping[Tuple[Value, ...], Sequence[float]],
    ):
        if not domain:
            raise SimulationError(f"variable {variable!r} has an empty domain")
        if len(set(domain)) != len(domain):
            raise SimulationError(f"variable {variable!r} has duplicate domain values")
        self.variable = variable
        self.domain: Tuple[Value, ...] = tuple(domain)
        self.parents: Tuple[str, ...] = tuple(parents)
        self._rows: Dict[Tuple[Value, ...], np.ndarray] = {}
        for key, probabilities in rows.items():
            array = np.asarray(probabilities, dtype=float)
            if array.shape != (len(self.domain),):
                raise SimulationError(
                    f"CPT row for {variable!r}{key!r} has {array.size} entries, "
                    f"expected {len(self.domain)}"
                )
            if (array < -1e-12).any():
                raise SimulationError(f"negative probability in CPT of {variable!r}")
            total = float(array.sum())
            # np.isclose(total, 1.0, atol=1e-6) as a scalar test; nan fails.
            if not abs(total - 1.0) <= 1e-6 + 1e-5:
                raise SimulationError(
                    f"CPT row for {variable!r}{key!r} sums to {total}"
                )
            self._rows[tuple(key)] = array / total

    def row(self, parent_values: Tuple[Value, ...]) -> np.ndarray:
        """The distribution over the domain for *parent_values*."""
        try:
            return self._rows[tuple(parent_values)]
        except KeyError:
            raise SimulationError(
                f"CPT of {self.variable!r} has no row for parents {parent_values!r}"
            ) from None

    def probability(self, value: Value, parent_values: Tuple[Value, ...]) -> float:
        """P(variable = value | parents = parent_values)."""
        try:
            index = self.domain.index(value)
        except ValueError:
            raise SimulationError(
                f"value {value!r} not in domain of {self.variable!r}"
            ) from None
        return float(self.row(parent_values)[index])

    def row_keys(self) -> Iterable[Tuple[Value, ...]]:
        """All parent-value tuples with a CPT row."""
        return self._rows.keys()


class BayesianNetwork:
    """A categorical Bayesian network.

    Construct with :meth:`add_variable` calls (parents must already be
    present, guaranteeing acyclicity by construction order) or from a
    learned structure via :mod:`repro.cbn.learning`.
    """

    def __init__(self) -> None:
        self._graph = nx.DiGraph()
        self._tables: Dict[str, ConditionalTable] = {}
        self._order: List[str] = []
        self._dense: Dict[str, np.ndarray] = {}

    @property
    def variables(self) -> Tuple[str, ...]:
        """Variables in insertion (topological) order."""
        return tuple(self._order)

    def domain(self, variable: str) -> Tuple[Value, ...]:
        """Domain of *variable*."""
        return self._table(variable).domain

    def parents(self, variable: str) -> Tuple[str, ...]:
        """Parents of *variable*."""
        return self._table(variable).parents

    def edges(self) -> List[Tuple[str, str]]:
        """All (parent, child) edges."""
        return list(self._graph.edges())

    def _table(self, variable: str) -> ConditionalTable:
        try:
            return self._tables[variable]
        except KeyError:
            raise SimulationError(f"unknown variable {variable!r}") from None

    def add_variable(
        self,
        variable: str,
        domain: Sequence[Value],
        parents: Sequence[str] = (),
        rows: Optional[Mapping[Tuple[Value, ...], Sequence[float]]] = None,
    ) -> None:
        """Add *variable* with its CPT.

        Parents must already exist in the network.  For a root variable
        pass a single row keyed by the empty tuple.
        """
        if variable in self._tables:
            raise SimulationError(f"variable {variable!r} already in network")
        for parent in parents:
            if parent not in self._tables:
                raise SimulationError(
                    f"parent {parent!r} of {variable!r} not yet in network"
                )
        if rows is None:
            raise SimulationError(f"variable {variable!r} needs CPT rows")
        table = ConditionalTable(variable, domain, parents, rows)
        expected_rows = 1
        for parent in parents:
            expected_rows *= len(self._tables[parent].domain)
        if len(list(table.row_keys())) != expected_rows:
            raise SimulationError(
                f"CPT of {variable!r} has {len(list(table.row_keys()))} rows, "
                f"expected {expected_rows} (one per parent combination)"
            )
        self._tables[variable] = table
        self._order.append(variable)
        self._graph.add_node(variable)
        for parent in parents:
            self._graph.add_edge(parent, variable)

    def dense_rows(self, variable: str) -> np.ndarray:
        """The CPT of *variable* as a (parent-combinations × domain) matrix.

        Rows follow row-major ``itertools.product`` order over the parent
        domains (first parent most significant).  Cached per variable —
        CPTs are immutable once added.
        """
        cached = self._dense.get(variable)
        if cached is None:
            table = self._table(variable)
            parent_domains = [self._tables[p].domain for p in table.parents]
            cached = np.asarray(
                [table.row(key) for key in itertools.product(*parent_domains)]
            )
            self._dense[variable] = cached
        return cached

    def joint_probability_batch(
        self, rows: Sequence[Mapping[str, Value]]
    ) -> np.ndarray:
        """P(full assignment) per row — vectorized :meth:`joint_probability`.

        Each element multiplies the same per-variable CPT entries in the
        same (insertion) order as the scalar call would.
        """
        count = len(rows)
        products = np.ones(count, dtype=float)
        if count == 0:
            return products
        codes: Dict[str, np.ndarray] = {}
        try:
            for variable in self._order:
                index = {
                    value: position
                    for position, value in enumerate(self._tables[variable].domain)
                }
                codes[variable] = np.fromiter(
                    (index[row[variable]] for row in rows),
                    dtype=np.intp,
                    count=count,
                )
        except KeyError:
            self._raise_unencodable(rows)
        for variable in self._order:
            table = self._tables[variable]
            flat = np.zeros(count, dtype=np.intp)
            for parent in table.parents:
                flat = flat * len(self._tables[parent].domain) + codes[parent]
            matrix = self.dense_rows(variable)
            products = products * matrix[flat, codes[variable]]
        return products

    def _raise_unencodable(self, rows: Sequence[Mapping[str, Value]]) -> None:
        """Re-raise an encoding failure with the scalar path's error, found
        by scanning rows in the order :meth:`joint_probability` would."""
        for row in rows:
            missing = set(self._order) - set(row)
            if missing:
                raise SimulationError(
                    f"assignment missing variables {sorted(missing)}"
                )
            for variable in self._order:
                if row[variable] not in self._tables[variable].domain:
                    raise SimulationError(
                        f"value {row[variable]!r} not in domain of {variable!r}"
                    )
        raise SimulationError(  # pragma: no cover - defensive
            "joint_probability_batch failed to encode the rows"
        )

    def joint_probability(self, assignment: Assignment) -> float:
        """P(full assignment) — every variable must be assigned."""
        missing = set(self._order) - set(assignment)
        if missing:
            raise SimulationError(f"assignment missing variables {sorted(missing)}")
        probability = 1.0
        for variable in self._order:
            table = self._tables[variable]
            parent_values = tuple(assignment[p] for p in table.parents)
            probability *= table.probability(assignment[variable], parent_values)
        return probability

    def sample(self, rng: np.random.Generator, evidence: Optional[Assignment] = None) -> Assignment:
        """Ancestral sampling; *evidence* variables are clamped.

        Clamping implements interventions (do-semantics) when the clamped
        variables are decision nodes whose parents we override — which is
        how what-if configuration questions are posed to the model.
        """
        assignment: Assignment = dict(evidence or {})
        for variable in self._order:
            if variable in assignment:
                continue
            table = self._tables[variable]
            parent_values = tuple(assignment[p] for p in table.parents)
            distribution = table.row(parent_values)
            index = rng.choice(len(table.domain), p=distribution)
            assignment[variable] = table.domain[int(index)]
        return assignment

    def intervene(self, interventions: Assignment) -> "BayesianNetwork":
        """The do-operator: return a network with *interventions* forced.

        Each intervened variable loses its parents and gets a point-mass
        CPT on the forced value.  Querying the result answers causal
        what-if questions ("what if every ISP-1 request used BE-2?") as
        opposed to observational conditioning — the distinction at the
        heart of WISE-style what-if analysis.
        """
        for variable, value in interventions.items():
            if value not in self.domain(variable):
                raise SimulationError(
                    f"intervention value {value!r} not in domain of {variable!r}"
                )
        network = BayesianNetwork()
        for variable in self._order:
            table = self._tables[variable]
            if variable in interventions:
                forced = interventions[variable]
                row = tuple(
                    1.0 if value == forced else 0.0 for value in table.domain
                )
                network.add_variable(variable, table.domain, (), {(): row})
            else:
                rows = {
                    key: tuple(table.row(key)) for key in table.row_keys()
                }
                network.add_variable(variable, table.domain, table.parents, rows)
        return network

    def query(
        self,
        target: str,
        evidence: Optional[Assignment] = None,
    ) -> Dict[Value, float]:
        """Exact P(target | evidence) by enumeration over hidden variables."""
        evidence = dict(evidence or {})
        for variable, value in evidence.items():
            if value not in self.domain(variable):
                raise SimulationError(
                    f"evidence value {value!r} not in domain of {variable!r}"
                )
        if target in evidence:
            return {value: 1.0 if value == evidence[target] else 0.0
                    for value in self.domain(target)}
        hidden = [v for v in self._order if v != target and v not in evidence]
        hidden_domains = [self.domain(v) for v in hidden]
        scores: Dict[Value, float] = {value: 0.0 for value in self.domain(target)}
        for target_value in self.domain(target):
            for hidden_values in itertools.product(*hidden_domains):
                assignment = dict(evidence)
                assignment[target] = target_value
                assignment.update(zip(hidden, hidden_values))
                scores[target_value] += self.joint_probability(assignment)
        total = sum(scores.values())
        if total <= 0:
            raise SimulationError(
                f"evidence {evidence!r} has zero probability under the network"
            )
        return {value: score / total for value, score in scores.items()}

    def expected_value(
        self,
        target: str,
        values: Mapping[Value, float],
        evidence: Optional[Assignment] = None,
    ) -> float:
        """E[f(target) | evidence] for a numeric mapping *values*."""
        posterior = self.query(target, evidence)
        missing = set(posterior) - set(values)
        if missing:
            raise SimulationError(
                f"no numeric value for target outcomes {sorted(missing, key=repr)}"
            )
        return float(sum(posterior[v] * values[v] for v in posterior))
