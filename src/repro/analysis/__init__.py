"""Static analysis for OPE correctness — the lint half of the contract layer.

Trace-driven evaluators go *silently* wrong: DM inherits model bias, IPS
explodes on tiny propensities, and DR is only doubly robust when its
inputs obey their contracts.  :mod:`repro.core.contracts` enforces those
contracts at runtime; this package enforces the coding disciplines that
keep them enforceable.  It is a whole-program analysis framework built
on stdlib ``ast`` only (no third-party dependencies): per-file rules run
over one AST at a time, while the dataflow tier reasons over a
project-wide symbol table and call graph (:mod:`repro.analysis.graph`).

Per-file rules (:mod:`repro.analysis.rules`):

========  ==============================================================
REP001    No unseeded ``np.random.default_rng()``, global ``np.random``
          draws, or stdlib ``random`` — every stochastic component takes
          an explicit ``np.random.Generator`` or seed, so every figure
          the harness regenerates is reproducible.
REP002    No bare ``assert`` in library code — asserts vanish under
          ``python -O``, turning contract violations into silent
          inf/nan estimates; raise :mod:`repro.errors` exceptions.
REP003    Every concrete :class:`OffPolicyEstimator` subclass implements
          the estimation hook, is exported from
          ``core/estimators/__init__.py``, and keeps its ``__init__``
          keywords inside the canonical ``model=``/``clip=`` vocabulary.
REP004    No float-literal equality in estimator/model code — weights
          and propensities carry rounding error, so ``== 0.0`` branches
          are latent bias bugs.
REP005    Public functions/classes in ``repro.core`` carry docstrings —
          the core package is the documented contract surface.
REP006    No silent exception swallowing — handlers whose body only
          discards the error, and bare/over-broad ``except`` clauses
          that neither re-raise nor surface the failure; degradation
          must be reported, never hidden (see :mod:`repro.runtime`).
REP007    No per-record ``policy.propensity(...)`` / ``model.predict(...)``
          calls inside loops in ``core/estimators`` — the batch APIs
          (``propensity_batch``, ``predict_batch``, ``Trace.columns()``)
          evaluate the whole trace in one vectorised pass.
REP008    noqa hygiene (warning severity) — suppression comments must
          name registered rules; unknown ``REP`` codes are reported
          rather than silently suppressing everything.
REP009    No mutable default arguments — a shared default leaks state
          across estimator runs and forked workers.
========  ==============================================================

Dataflow rules (:mod:`repro.analysis.dataflow`, whole-program):

========  ==============================================================
REP010    RNG taint — no unseeded RNG source reachable from estimator,
          bootstrap, or workload call paths (cross-module REP001).
REP011    Fork safety — no global rebinding or module-state mutation on
          process-pool worker paths, and no unpicklable lambdas handed
          to pool submissions; ``os.getpid()``-guarded re-init is the
          sanctioned idiom.
REP012    Batch/stream parity — a dense ``_estimate`` requires real
          ``_stream_chunk``/``_stream_finalize`` counterparts, and
          per-record ``propensity`` requires a ``propensity_batch``.
REP013    Contract coverage — per-record propensity consumption must sit
          behind a dominating ``check_propensities``/``check_trace``
          style validation on every call path.
========  ==============================================================

Run it via ``repro lint [--rules ...] [--format text|json|sarif]
[--cache [PATH]] [--jobs N] PATH`` or
programmatically through :func:`lint_paths`.  CI lints ``src/repro``
itself: the linter must pass on the codebase it ships in.
"""

from repro.analysis.cache import DEFAULT_CACHE_PATH, LintCache
from repro.analysis.dataflow import (
    BatchStreamParity,
    ContractCoverage,
    ForkSafety,
    RngTaint,
)
from repro.analysis.graph import (
    ModuleIndex,
    ProjectIndex,
    build_module_index,
)
from repro.analysis.linter import (
    LintReport,
    LintRule,
    ModuleUnit,
    ProjectRule,
    Violation,
    build_rules,
    collect_python_files,
    lint_paths,
    register_rule,
    registered_rule_ids,
)
from repro.analysis.reporting import (
    exit_code_for,
    render,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.rules import (
    EstimatorInterfaceComplete,
    NoBareAssert,
    NoFloatEquality,
    NoMutableDefaultArgs,
    NoPerRecordEvaluationLoops,
    NoqaHygiene,
    NoSilentExceptionSwallowing,
    NoUnseededRandomness,
    PublicDocstrings,
)

__all__ = [
    "DEFAULT_CACHE_PATH",
    "LintCache",
    "LintReport",
    "LintRule",
    "ModuleIndex",
    "ModuleUnit",
    "ProjectIndex",
    "ProjectRule",
    "Violation",
    "build_module_index",
    "build_rules",
    "collect_python_files",
    "exit_code_for",
    "lint_paths",
    "register_rule",
    "registered_rule_ids",
    "render",
    "render_json",
    "render_sarif",
    "render_text",
    "NoUnseededRandomness",
    "NoBareAssert",
    "EstimatorInterfaceComplete",
    "NoFloatEquality",
    "PublicDocstrings",
    "NoSilentExceptionSwallowing",
    "NoPerRecordEvaluationLoops",
    "NoqaHygiene",
    "NoMutableDefaultArgs",
    "RngTaint",
    "ForkSafety",
    "BatchStreamParity",
    "ContractCoverage",
]
