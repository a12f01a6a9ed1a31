"""The per-file OPE-correctness lint rules (REP001–REP009).

Each rule encodes one input-contract discipline the paper's estimators
depend on; the module docstring of :mod:`repro.analysis` maps every rule
id to its paper rationale.  REP003 lives here too although it is a
whole-program rule — it is the interface-parity contract the per-file
rules grew up around; the dataflow tier (REP010–REP013) lives in
:mod:`repro.analysis.dataflow`.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Set

from repro.analysis.graph import ModuleIndex, ProjectIndex, RNG_CONSTRUCTORS
from repro.analysis.linter import (
    LintRule,
    ModuleUnit,
    ProjectRule,
    Violation,
    dotted_name,
    register_rule,
    registered_rule_ids,
)

#: The abstract base every estimator derives from; REP003 keys off it.
ESTIMATOR_BASE = "OffPolicyEstimator"

#: Canonical constructor keyword vocabulary for ``core/estimators``
#: classes (REP003).  The vocabulary is closed: a var-keyword catch-all
#: is flagged too.
CONSTRUCTOR_VOCABULARY = {
    "self",
    "model",
    "clip",
    "fit_on_trace",
    "propensity_source",
    "rng",
}

#: Re-exported for backward compatibility (the allow-list moved to
#: :mod:`repro.analysis.graph` so the index extractor shares it).
_RNG_CONSTRUCTORS = RNG_CONSTRUCTORS


def _walk_calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register_rule
class NoUnseededRandomness(LintRule):
    """REP001 — determinism discipline for every stochastic component.

    Reproducible figures require every random draw to flow from an
    explicit ``np.random.Generator`` or seed.  Flags (a) zero-argument
    ``np.random.default_rng()`` calls, (b) draws from the legacy global
    state (``np.random.normal(...)``, ``np.random.seed(...)``, the
    ``RandomState`` singleton...), and (c) imports of the stdlib
    ``random`` module.
    """

    rule_id = "REP001"
    description = (
        "stochastic code must take an explicit np.random.Generator or seed; "
        "no unseeded default_rng(), global np.random draws, or stdlib random"
    )

    def check_module(self, unit: ModuleUnit) -> Iterable[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        violations.append(
                            self.violation(
                                unit,
                                node,
                                "stdlib `random` draws from hidden global state; "
                                "take an np.random.Generator instead",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "random":
                    violations.append(
                        self.violation(
                            unit,
                            node,
                            "stdlib `random` draws from hidden global state; "
                            "take an np.random.Generator instead",
                        )
                    )
        for call in _walk_calls(unit.tree):
            name = dotted_name(call.func)
            if name is None:
                continue
            parts = name.split(".")
            if len(parts) < 3 or parts[0] not in ("np", "numpy") or parts[1] != "random":
                continue
            member = parts[2]
            if member == "default_rng":
                if not call.args and not call.keywords:
                    violations.append(
                        self.violation(
                            unit,
                            call,
                            "np.random.default_rng() without a seed is "
                            "non-deterministic; pass an explicit seed or "
                            "SeedSequence",
                        )
                    )
            elif member not in RNG_CONSTRUCTORS:
                violations.append(
                    self.violation(
                        unit,
                        call,
                        f"np.random.{member}(...) uses the hidden global "
                        "RNG; draw from an explicit np.random.Generator",
                    )
                )
        return violations


@register_rule
class NoBareAssert(LintRule):
    """REP002 — no bare ``assert`` in library code.

    ``assert`` statements are stripped under ``python -O``, so a
    contract expressed as an assert silently disappears in optimised
    deployments.  Library code must raise :mod:`repro.errors` exceptions.
    """

    rule_id = "REP002"
    description = (
        "bare assert vanishes under python -O; raise a repro.errors "
        "exception instead"
    )

    def check_module(self, unit: ModuleUnit) -> Iterable[Violation]:
        return [
            self.violation(
                unit,
                node,
                "assert is stripped under python -O; raise a repro.errors "
                "exception so the contract survives in production",
            )
            for node in ast.walk(unit.tree)
            if isinstance(node, ast.Assert)
        ]


@register_rule
class EstimatorInterfaceComplete(ProjectRule):
    """REP003 — estimator subclasses honour the interface and are exported.

    A concrete :class:`OffPolicyEstimator` subclass must implement the
    estimation hook (``_estimate``, an ``estimate`` override, or the
    streaming ``_stream_chunk``/``_stream_finalize`` pair the base class
    assembles into a dense ``_estimate``) — an estimator that cannot
    estimate is a latent failure at call time — and, when it lives in
    the ``core/estimators`` package, must appear in that package's
    ``__all__`` so the public surface stays in sync with the
    implementations and must keep its ``__init__`` keywords inside the
    canonical vocabulary (:data:`CONSTRUCTOR_VOCABULARY`) the
    :mod:`repro.api` registry builds against — a divergent spelling such
    as ``max_weight=`` or ``tau=``, or a ``**kwargs`` catch-all that
    accepts any spelling, breaks the facade's uniform ``model=``/``clip=``
    contract.

    The same rule guards the wire-format side of the registry: any class
    named ``*Spec``/``*Config``/``*Ref`` that defines one of
    ``to_dict``/``from_dict`` must define both, so every spec payload
    the api emits can be rebuilt (``from_dict(to_dict())`` — the
    fingerprinting and serving contract).

    Implemented over the project symbol table rather than raw ASTs, so
    cached files participate without being re-parsed.
    """

    rule_id = "REP003"
    description = (
        "concrete OffPolicyEstimator subclasses must implement "
        "estimate/_estimate, be exported from core/estimators/__init__.py, "
        "and keep __init__ keywords in the canonical model=/clip= vocabulary; "
        "*Spec/*Config/*Ref classes must pair to_dict with from_dict"
    )

    def check_project(self, project: ProjectIndex) -> Iterable[Violation]:
        exported = {}
        for index in project.indexes:
            parts = index.path_parts
            if (
                len(parts) >= 2
                and parts[-1] == "__init__.py"
                and parts[-2] == "estimators"
            ):
                exported[parts[:-1]] = index.exports

        violations: List[Violation] = []
        seen: Set[str] = set()
        for index in project.indexes:
            for class_info in index.classes.values():
                name = class_info.name
                if name == ESTIMATOR_BASE or name in seen:
                    continue
                seen.add(name)
                if not project.descends_from(name, ESTIMATOR_BASE):
                    continue
                if any(
                    method.is_abstract
                    for method in class_info.methods.values()
                ):
                    continue  # abstract intermediate, not instantiable
                if not self._implements_estimate(project, name):
                    violations.append(
                        self.violation_at(
                            index.display,
                            class_info.line,
                            f"{name} subclasses {ESTIMATOR_BASE} but neither "
                            "it nor its bases implement estimate()/"
                            "_estimate() or the _stream_chunk()/"
                            "_stream_finalize() pair",
                        )
                    )
                package = index.path_parts[:-1]
                in_estimators_package = (
                    len(index.path_parts) >= 2
                    and index.path_parts[-2] == "estimators"
                )
                if in_estimators_package and package in exported:
                    names = exported[package]
                    if names is not None and name not in names:
                        violations.append(
                            self.violation_at(
                                index.display,
                                class_info.line,
                                f"{name} is a concrete estimator but is "
                                f"missing from "
                                f"{'/'.join(package)}/__init__.py __all__",
                            )
                        )
                if in_estimators_package:
                    violations.extend(
                        self._check_constructor_vocabulary(index, class_info)
                    )
        for index in project.indexes:
            for class_info in index.classes.values():
                violations.extend(
                    self._check_spec_round_trip(index, class_info)
                )
        return violations

    #: Name suffixes marking wire-format spec classes whose instances
    #: must survive a ``from_dict(to_dict())`` round trip (the
    #: :mod:`repro.api` fingerprinting contract).
    SPEC_SUFFIXES = ("Spec", "Config", "Ref")

    def _check_spec_round_trip(
        self, index: ModuleIndex, class_info
    ) -> Iterable[Violation]:
        """Spec classes must pair ``to_dict`` with ``from_dict``.

        A ``*Spec``/``*Config``/``*Ref`` class defining only one half of
        the pair cannot round-trip through JSON: a ``to_dict`` without a
        ``from_dict`` produces payloads nothing can rebuild, and a
        ``from_dict`` without a ``to_dict`` accepts payloads nothing can
        produce.  Classes defining neither are not wire formats and are
        left alone.
        """
        if not class_info.name.endswith(self.SPEC_SUFFIXES):
            return []
        has_to = "to_dict" in class_info.methods
        has_from = "from_dict" in class_info.methods
        if has_to == has_from:
            return []
        present, missing = (
            ("to_dict", "from_dict") if has_to else ("from_dict", "to_dict")
        )
        return [
            self.violation_at(
                index.display,
                class_info.methods[present].line,
                f"{class_info.name} defines {present}() without {missing}(); "
                "spec classes must round-trip through "
                "from_dict(to_dict()) so fingerprints and served payloads "
                "stay rebuildable",
            )
        ]

    def _check_constructor_vocabulary(
        self, index: ModuleIndex, class_info
    ) -> Iterable[Violation]:
        """Flag ``__init__`` parameters outside the canonical vocabulary."""
        init = class_info.methods.get("__init__")
        if init is None:
            return []
        allowed = ", ".join(sorted(CONSTRUCTOR_VOCABULARY - {"self"}))
        violations: List[Violation] = [
            self.violation_at(
                index.display,
                init.line,
                f"{class_info.name}.__init__ parameter {parameter!r} is "
                f"outside the canonical estimator constructor vocabulary "
                f"({allowed})",
            )
            for parameter in init.params
            if parameter not in CONSTRUCTOR_VOCABULARY
        ]
        if class_info.has_var_keyword:
            violations.append(
                self.violation_at(
                    index.display,
                    init.line,
                    f"{class_info.name}.__init__ takes a var-keyword "
                    f"catch-all; the canonical estimator constructor "
                    f"vocabulary ({allowed}) is closed",
                )
            )
        return violations

    def _implements_estimate(self, project: ProjectIndex, name: str) -> bool:
        # Either of the classic hooks suffices, as does the streaming
        # pair (the base class turns _stream_chunk/_stream_finalize into
        # a dense _estimate by treating the whole trace as one chunk).
        implemented: Set[str] = set()
        for _, ancestor in project.ancestry(name):
            if ancestor.name == ESTIMATOR_BASE:
                continue
            implemented |= set(ancestor.methods)
        if {"estimate", "_estimate"} & implemented:
            return True
        return {"_stream_chunk", "_stream_finalize"} <= implemented


@register_rule
class NoFloatEquality(LintRule):
    """REP004 — no float-literal equality in estimator/model code.

    ``x == 0.0`` on floating-point estimates is almost always a latent
    bug: importance weights, propensities, and model predictions arrive
    with rounding error, so equality silently mis-branches.  Use an
    inequality or an explicit tolerance.
    """

    rule_id = "REP004"
    description = (
        "float-literal ==/!= comparisons mis-branch under rounding; use an "
        "inequality or tolerance in estimator/model code"
    )

    #: Path components (directories or file stems) this rule covers.
    _SCOPES = {"estimators", "models"}

    def applies_to(self, unit: ModuleUnit) -> bool:
        parts = {part for part in unit.path.parts}
        parts.add(unit.path.stem)
        return bool(parts & self._SCOPES)

    def check_module(self, unit: ModuleUnit) -> Iterable[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for operand in (left, right):
                    if isinstance(operand, ast.Constant) and isinstance(
                        operand.value, float
                    ):
                        violations.append(
                            self.violation(
                                unit,
                                node,
                                f"equality comparison against float literal "
                                f"{operand.value!r}; use an inequality or an "
                                "explicit tolerance",
                            )
                        )
                        break
        return violations


@register_rule
class PublicDocstrings(LintRule):
    """REP005 — public functions/classes in ``repro.core`` have docstrings.

    The core package is the library's public contract surface; an
    undocumented public symbol is an undocumented contract.
    """

    rule_id = "REP005"
    description = (
        "public module-level functions and classes in repro.core must "
        "carry docstrings"
    )

    def applies_to(self, unit: ModuleUnit) -> bool:
        return "core" in unit.path.parts

    def check_module(self, unit: ModuleUnit) -> Iterable[Violation]:
        violations: List[Violation] = []
        for node in unit.tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if node.name.startswith("_"):
                continue
            if ast.get_docstring(node) is None:
                kind = "class" if isinstance(node, ast.ClassDef) else "function"
                violations.append(
                    self.violation(
                        unit,
                        node,
                        f"public {kind} {node.name} has no docstring; "
                        "repro.core is the documented contract surface",
                    )
                )
        return violations


#: Exception names considered over-broad to catch in library code.
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}

#: Call names whose presence in a handler counts as "the failure was at
#: least surfaced" (logging/reporting rather than swallowing).
_SURFACING_CALLS = {
    "log",
    "debug",
    "info",
    "warning",
    "warn",
    "error",
    "exception",
    "critical",
    "print",
}


def _handler_names(handler: ast.ExceptHandler) -> List[str]:
    """The exception class names a handler catches (empty for bare)."""
    if handler.type is None:
        return []
    nodes = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names = []
    for node in nodes:
        name = dotted_name(node)
        if name is not None:
            names.append(name.split(".")[-1])
    return names


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) for node in ast.walk(handler))


def _handler_surfaces(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and name.split(".")[-1] in _SURFACING_CALLS:
                return True
    return False


def _body_is_pure_swallow(handler: ast.ExceptHandler) -> bool:
    """``True`` when the handler body does nothing but discard the error
    (only ``pass``, ``...``/docstring expressions, or ``continue``)."""
    for statement in handler.body:
        if isinstance(statement, (ast.Pass, ast.Continue)):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue
        return False
    return True


@register_rule
class NoSilentExceptionSwallowing(LintRule):
    """REP006 — exception handlers must handle, not hide.

    The resilience layer's whole point is that failures are *recorded*
    (run records, fallback hops, quarantine counts) rather than
    discarded.  This rule enforces the discipline statically: a handler
    whose body only discards the error (``pass``/``...``/``continue``)
    swallows a failure silently regardless of the exception type, and a
    bare ``except:`` or over-broad ``except Exception/BaseException``
    must re-raise or at least surface the failure through a
    logging/reporting call — otherwise it also eats ``KeyboardInterrupt``
    lookalikes, bugs, and everything a narrow contract exception would
    have distinguished.
    """

    rule_id = "REP006"
    description = (
        "no silent exception swallowing: pass-only handlers, and bare or "
        "over-broad except clauses without re-raise or logging"
    )

    def check_module(self, unit: ModuleUnit) -> Iterable[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = _handler_names(node)
            bare = node.type is None
            broad = bare or any(name in _BROAD_EXCEPTIONS for name in names)
            if _body_is_pure_swallow(node):
                caught = "bare except" if bare else f"except {', '.join(names)}"
                violations.append(
                    self.violation(
                        unit,
                        node,
                        f"{caught} silently discards the failure; record it, "
                        "log it, or re-raise a repro.errors exception",
                    )
                )
            elif broad and not (_handler_reraises(node) or _handler_surfaces(node)):
                caught = "bare except" if bare else f"except {', '.join(names)}"
                violations.append(
                    self.violation(
                        unit,
                        node,
                        f"over-broad {caught} neither re-raises nor logs; "
                        "catch the narrow repro.errors type or surface the "
                        "failure",
                    )
                )
        return violations


#: Per-record evaluation methods that have batch counterparts on the
#: same objects (``propensity_batch`` / ``predict_batch``); REP007 flags
#: looped calls to them.
_BATCHABLE_METHODS = {"propensity", "predict"}

#: AST nodes that iterate: explicit loops plus every comprehension form.
_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


@register_rule
class NoPerRecordEvaluationLoops(LintRule):
    """REP007 — no per-record policy/model evaluation loops in estimators.

    Calling ``policy.propensity(...)`` or ``model.predict(...)`` once per
    trace record re-enters the Python interpreter N times for work the
    batch APIs (``propensity_batch``, ``predict_batch``, and the columnar
    :meth:`Trace.columns` cache) do in one vectorised pass — the exact
    hot-path pattern the perf rewrite removed from the IPS/DM/DR family.
    Scoped to ``core/estimators``; genuinely sequential algorithms (the
    history-dependent replay estimator) suppress with a ``# noqa``.
    """

    rule_id = "REP007"
    description = (
        "per-record propensity()/predict() calls inside estimator loops; "
        "use propensity_batch/predict_batch over Trace.columns() instead"
    )

    def applies_to(self, unit: ModuleUnit) -> bool:
        return "estimators" in unit.path.parts

    def check_module(self, unit: ModuleUnit) -> Iterable[Violation]:
        violations: List[Violation] = []
        self._visit(unit, unit.tree, False, violations)
        return violations

    def _visit(
        self,
        unit: ModuleUnit,
        node: ast.AST,
        in_loop: bool,
        violations: List[Violation],
    ) -> None:
        if (
            in_loop
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _BATCHABLE_METHODS
        ):
            batch = f"{node.func.attr}_batch"
            violations.append(
                self.violation(
                    unit,
                    node,
                    f"per-record .{node.func.attr}(...) inside a loop "
                    f"re-enters Python once per record; call {batch}(...) "
                    "on the whole trace (see Trace.columns())",
                )
            )
        entered_loop = in_loop or isinstance(node, _LOOP_NODES)
        for child in ast.iter_child_nodes(node):
            self._visit(unit, child, entered_loop, violations)


@register_rule
class NoqaHygiene(LintRule):
    """REP008 — noqa comments must name known rule ids.

    Historically ``# noqa: TYPO999`` failed to parse as a code list and
    silently suppressed *every* rule on the line — a suppression typo
    became a blanket waiver, which is precisely the silent-bias failure
    mode the linter exists to catch.  The engine now parses code lists
    strictly; this rule surfaces ``REP``-prefixed codes that do not name
    a registered rule as warnings (foreign codes such as ``F401`` are
    left to the tools that own them).
    """

    rule_id = "REP008"
    description = (
        "noqa code lists must name registered REP rules; unknown ids are "
        "reported instead of silently suppressing everything"
    )
    severity = "warning"

    def check_module(self, unit: ModuleUnit) -> Iterable[Violation]:
        known = set(registered_rule_ids())
        violations: List[Violation] = []
        for line_number, codes in sorted(unit.noqa.items()):
            if codes is None:
                continue
            unknown = [
                code.upper()
                for code in codes
                if code.upper().startswith("REP") and code.upper() not in known
            ]
            if unknown:
                violations.append(
                    Violation(
                        path=unit.display,
                        line=line_number,
                        rule_id=self.rule_id,
                        message=(
                            f"noqa names unknown rule id(s) "
                            f"{', '.join(unknown)}; they suppress nothing — "
                            "fix the id or drop it"
                        ),
                        severity=self.severity,
                        detail=",".join(unknown),
                    )
                )
        return violations


@register_rule
class NoMutableDefaultArgs(LintRule):
    """REP009 — no mutable default arguments.

    A ``def run(trace, seen=[])`` default is created once and shared by
    every call: state leaks across estimator runs and across forked
    workers, which is exactly the cross-run contamination the paper's
    reproducibility demands rule out.  Use ``None`` and materialise
    inside the body.
    """

    rule_id = "REP009"
    description = (
        "mutable default arguments share state across calls (and forked "
        "workers); default to None and build inside the body"
    )

    _MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "deque"}

    def check_module(self, unit: ModuleUnit) -> Iterable[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(unit.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = [
                *node.args.defaults,
                *[d for d in node.args.kw_defaults if d is not None],
            ]
            for default in defaults:
                if self._is_mutable(default):
                    violations.append(
                        self.violation(
                            unit,
                            default,
                            f"{node.name}() has a mutable default argument; "
                            "the object is created once and shared by every "
                            "call — default to None instead",
                        )
                    )
        return violations

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return (
                name is not None
                and name.split(".")[-1] in self._MUTABLE_CALLS
            )
        return False
