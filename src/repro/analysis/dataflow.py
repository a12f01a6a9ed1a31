"""The dataflow tier: whole-program rules REP010–REP013.

Where REP001–REP009 look at one AST at a time, these rules reason about
flows *between* modules over the :class:`~repro.analysis.graph.ProjectIndex`
call graph:

* **REP010 RNG taint** — an unseeded RNG source (the REP001 sins)
  anywhere in the transitive callee set of an estimator, bootstrap, or
  workload path.  REP001 catches the source in its own file; REP010
  catches the *consumer* a module away, where a helper's hidden global
  draw silently de-reproducibilises a published estimate.
* **REP011 fork safety** — module-level mutable state written by
  functions reachable from a process-pool worker root, or an unpicklable
  lambda/local-function handed to a pool submission.  Under ``fork``
  each worker mutates its own copy-on-write copy, so the parent's view
  silently diverges; under ``spawn`` the closure does not pickle at all.
  ``os.getpid()``-guarded re-initialisation (the sanctioned fork-reinit
  idiom in :mod:`repro.obs.spans`) is exempt.
* **REP012 batch/stream parity** — an estimator owning a dense
  ``_estimate`` must also expose real ``_stream_chunk``/
  ``_stream_finalize`` implementations (its own or inherited from a
  concrete ancestor), and the streaming pair must not be half-defined;
  a ``Policy``-like class implementing per-record ``propensity`` must
  have a ``propensity_batch`` counterpart in its ancestry.  Checked
  structurally — placeholder bodies that only ``raise`` do not count as
  implementations.
* **REP013 contract coverage** — a function in the estimator/streaming
  scope that consumes per-record propensities on a call path with no
  dominating ``check_propensities``/``check_weights``/``check_trace``
  style validation.  The paper's "broken propensities" bias enters
  exactly here: the numbers flow into a weighted estimate without any
  positivity/shape gate on the path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.graph import (
    CONTRACT_CHECKERS,
    POOL_FORK_FUNCTIONS,
    POOL_SUBMIT_METHODS,
    CallSite,
    FunctionInfo,
    ModuleIndex,
    ProjectIndex,
)
from repro.analysis.linter import ProjectRule, Violation, register_rule

#: Path components marking RNG-sensitive scopes for REP010.
RNG_SENSITIVE_PARTS = {"estimators", "workloads", "experiments"}

#: Call-receiver name fragments that identify a process/thread pool for
#: REP011 (``pool.submit``, ``executor.map``, ...).  Plain ``obj.map``
#: on arbitrary receivers is deliberately not treated as a pool.
POOL_RECEIVER_HINTS = ("pool", "executor", "client")

#: Path components / file stems in scope for REP013.
CONTRACT_SCOPE_PARTS = {"estimators", "stateaware"}
CONTRACT_SCOPE_STEMS = {"streaming", "propensity"}


def _stem(index: ModuleIndex) -> str:
    name = index.path_parts[-1] if index.path_parts else ""
    return name[:-3] if name.endswith(".py") else name


@register_rule
class RngTaint(ProjectRule):
    """REP010 — unseeded randomness reaching estimator/workload paths."""

    rule_id = "REP010"
    description = (
        "no unseeded RNG source may be reachable from estimator, "
        "bootstrap, or workload call paths (cross-module REP001)"
    )

    def check_project(self, project: ProjectIndex) -> Iterable[Violation]:
        tainted: Set[str] = set()
        for node, _, info in project.function_nodes():
            if info.rng_sources:
                tainted.add(node)
        if not tainted:
            return []

        # Every function from which a tainted function is reachable is a
        # carrier; sensitive carriers are violations.
        carriers = project.transitive_markers(tainted)
        violations: List[Violation] = []
        for node, index, info in project.function_nodes():
            if node not in carriers:
                continue
            if not self._sensitive(index, info):
                continue
            witness = self._witness(project, node, tainted)
            if witness is None:
                continue
            witness_index, witness_info, source_line, source_desc = witness
            if witness_index.display == index.display and (
                witness_info.qualname == info.qualname
            ):
                # Same-function source: REP001's per-file report covers it.
                continue
            violations.append(
                self.violation_at(
                    index.display,
                    info.line,
                    f"{info.qualname}() reaches an unseeded RNG source: "
                    f"{source_desc} at "
                    f"{witness_index.display}:{source_line} "
                    f"(via {witness_info.qualname}); thread an explicit "
                    "np.random.Generator through instead",
                    detail=f"{witness_index.display}:{source_line}",
                )
            )
        return violations

    def _sensitive(self, index: ModuleIndex, info: FunctionInfo) -> bool:
        if RNG_SENSITIVE_PARTS & set(index.path_parts):
            return True
        lowered = info.qualname.lower()
        return "bootstrap" in lowered or "bootstrap" in _stem(index)

    def _witness(
        self, project: ProjectIndex, node: str, tainted: Set[str]
    ) -> Optional[Tuple[ModuleIndex, FunctionInfo, int, str]]:
        """The first reachable tainted function (BFS order) with its
        source line and description — the evidence in the message."""
        edges = project.edges()
        seen: Set[str] = set()
        queue = [node]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            if current in tainted:
                resolved = project.lookup(current)
                if resolved is None:
                    return None
                index, info = resolved
                line, desc = info.rng_sources[0]
                return index, info, line, desc
            queue.extend(sorted(edges.get(current, ())))
        return None


@register_rule
class ForkSafety(ProjectRule):
    """REP011 — no fork-hostile state or closures on pool worker paths."""

    rule_id = "REP011"
    description = (
        "pool worker paths must not rebind globals, mutate module-level "
        "state, or receive unpicklable lambdas/local functions"
    )

    def check_project(self, project: ProjectIndex) -> Iterable[Violation]:
        violations: List[Violation] = []
        roots: Set[str] = set()
        for node, index, info in project.function_nodes():
            for call in info.calls:
                if not self._is_pool_submission(call):
                    continue
                if call.lambda_args:
                    violations.append(
                        self.violation_at(
                            index.display,
                            call.line,
                            f"{info.qualname}() passes a lambda or local "
                            f"function to {call.name}(...); it cannot be "
                            "pickled under spawn — pass a module-level "
                            "function instead",
                        )
                    )
                roots.update(self._worker_roots(project, index, info, call))

        if not roots:
            return violations

        for node in sorted(project.reachable_from(roots)):
            resolved = project.lookup(node)
            if resolved is None:
                continue
            index, info = resolved
            if info.pid_guarded:
                # os.getpid()-guarded re-initialisation: the sanctioned
                # fork-reinit idiom (each worker rebuilds its own state).
                continue
            for line, name in info.global_writes:
                violations.append(
                    self.violation_at(
                        index.display,
                        line,
                        f"{info.qualname}() rebinds global {name!r} on a "
                        "pool worker path; the write is invisible to the "
                        "parent and other workers — return the value or "
                        "guard re-initialisation with os.getpid()",
                    )
                )
            for line, name in info.module_mutations:
                violations.append(
                    self.violation_at(
                        index.display,
                        line,
                        f"{info.qualname}() mutates module-level {name!r} "
                        "on a pool worker path; each forked worker mutates "
                        "its own copy and the parent never sees it — pass "
                        "state explicitly or return it",
                    )
                )
        return violations

    def _is_pool_submission(self, call: CallSite) -> bool:
        parts = call.name.split(".")
        if parts[-1] in POOL_FORK_FUNCTIONS:
            return True
        if len(parts) < 2 or parts[-1] not in POOL_SUBMIT_METHODS:
            return False
        receiver = ".".join(parts[:-1]).lower()
        return any(hint in receiver for hint in POOL_RECEIVER_HINTS)

    def _worker_roots(
        self,
        project: ProjectIndex,
        index: ModuleIndex,
        caller: FunctionInfo,
        call: CallSite,
    ) -> Set[str]:
        """Resolve the submitted callable (first positional arg) to
        project call-graph nodes."""
        if not call.arg_names:
            return set()
        target = call.arg_names[0]
        if target is None:
            return set()
        synthetic = CallSite(name=target, line=call.line)
        return set(project.resolve_call(index, caller, synthetic))


#: The estimator base whose default ``_estimate`` assembles the dense
#: path from the streaming hooks (see ``core/estimators/base.py``).
_ESTIMATOR_BASE = "OffPolicyEstimator"
_STREAM_PAIR = ("_stream_chunk", "_stream_finalize")


@register_rule
class BatchStreamParity(ProjectRule):
    """REP012 — dense, streaming, and batch paths stay structurally paired."""

    rule_id = "REP012"
    description = (
        "estimators owning a dense _estimate need real _stream_chunk/"
        "_stream_finalize counterparts (and vice versa); per-record "
        "propensity() needs a propensity_batch in the ancestry"
    )

    def check_project(self, project: ProjectIndex) -> Iterable[Violation]:
        violations: List[Violation] = []
        seen: Set[str] = set()
        for index in project.indexes:
            for class_info in index.classes.values():
                name = class_info.name
                if name in seen:
                    continue
                seen.add(name)
                if name != _ESTIMATOR_BASE and project.descends_from(
                    name, _ESTIMATOR_BASE
                ):
                    violations.extend(
                        self._check_estimator(project, index, class_info)
                    )
                violations.extend(
                    self._check_policy(project, index, class_info)
                )
        return violations

    def _implemented(
        self, project: ProjectIndex, class_name: str
    ) -> Dict[str, str]:
        """Method name -> owning class for every *real* implementation in
        the ancestry, excluding the estimator base (whose stream hooks
        are raise-only placeholders and whose ``_estimate`` is the
        generic assembler, not a dense path)."""
        implemented: Dict[str, str] = {}
        for _, ancestor in project.ancestry(class_name):
            if ancestor.name == _ESTIMATOR_BASE:
                continue
            for method_name, method in ancestor.methods.items():
                if method.is_abstract or method.raises_only:
                    continue
                implemented.setdefault(method_name, ancestor.name)
        return implemented

    def _check_estimator(
        self, project: ProjectIndex, index: ModuleIndex, class_info
    ) -> Iterable[Violation]:
        if any(method.is_abstract for method in class_info.methods.values()):
            return []
        implemented = self._implemented(project, class_info.name)
        has_dense = "_estimate" in implemented
        has_chunk = _STREAM_PAIR[0] in implemented
        has_finalize = _STREAM_PAIR[1] in implemented
        violations: List[Violation] = []
        if has_dense and not (has_chunk and has_finalize):
            missing = [
                hook
                for hook, present in zip(_STREAM_PAIR, (has_chunk, has_finalize))
                if not present
            ]
            violations.append(
                self.violation_at(
                    index.display,
                    class_info.line,
                    f"{class_info.name} implements a dense _estimate but "
                    f"provides no real {'/'.join(missing)}; out-of-core "
                    "runs will silently fall back or diverge from the "
                    "dense path — implement the streaming pair",
                )
            )
        elif has_chunk != has_finalize:
            present, absent = (
                (_STREAM_PAIR[0], _STREAM_PAIR[1])
                if has_chunk
                else (_STREAM_PAIR[1], _STREAM_PAIR[0])
            )
            violations.append(
                self.violation_at(
                    index.display,
                    class_info.line,
                    f"{class_info.name} implements {present} without a real "
                    f"{absent}; the streaming protocol needs both hooks",
                )
            )
        return violations

    def _check_policy(
        self, project: ProjectIndex, index: ModuleIndex, class_info
    ) -> Iterable[Violation]:
        method = class_info.methods.get("propensity")
        if method is None or method.is_abstract or method.raises_only:
            return []
        if len(method.params) != 3:
            # Only the stationary (self, decision, context) shape has a
            # meaningful batch form; history-dependent signatures are
            # inherently sequential.
            return []
        # A batch counterpart anywhere in the ancestry suffices — the
        # Policy base's propensity_batch delegates per record, which is
        # consistent by construction.
        for _, ancestor in project.ancestry(class_info.name):
            batch = ancestor.methods.get("propensity_batch")
            if batch is not None and not batch.is_abstract:
                return []
        return [
            self.violation_at(
                index.display,
                class_info.line,
                f"{class_info.name} implements per-record propensity() "
                "with no propensity_batch in its ancestry; batched "
                "estimators will crash or silently skip it — subclass "
                "Policy or add the batch counterpart",
            )
        ]


@register_rule
class ContractCoverage(ProjectRule):
    """REP013 — propensity consumption behind a dominating contract check."""

    rule_id = "REP013"
    description = (
        "per-record propensity consumption in estimator/streaming scope "
        "must sit behind a check_propensities/check_weights/check_trace "
        "style validation on every call path"
    )

    def check_project(self, project: ProjectIndex) -> Iterable[Violation]:
        checking = {
            node
            for node, _, info in project.function_nodes()
            if self._calls_checker(info)
        }

        # Forward BFS from the public surface that does not expand out of
        # checking functions: anything still reached has at least one
        # entirely unchecked path from an entry point.
        edges = project.edges()
        unprotected: Set[str] = set()
        stack = [
            node for node in project.entry_points() if node not in checking
        ]
        while stack:
            node = stack.pop()
            if node in unprotected:
                continue
            unprotected.add(node)
            if node in checking:
                continue
            stack.extend(
                target for target in edges.get(node, ()) if target not in unprotected
            )

        violations: List[Violation] = []
        for node, index, info in project.function_nodes():
            if not info.propensity_reads:
                continue
            if not self._in_scope(index):
                continue
            if node in checking or node not in unprotected:
                continue
            line = min(info.propensity_reads)
            violations.append(
                self.violation_at(
                    index.display,
                    line,
                    f"{info.qualname}() consumes per-record propensities "
                    "with no dominating contract check on some call path; "
                    "call check_propensities/check_trace (or equivalent) "
                    "before weighting",
                )
            )
        return violations

    def _calls_checker(self, info: FunctionInfo) -> bool:
        return any(
            call.name.split(".")[-1] in CONTRACT_CHECKERS for call in info.calls
        )

    def _in_scope(self, index: ModuleIndex) -> bool:
        if CONTRACT_SCOPE_PARTS & set(index.path_parts):
            return True
        return _stem(index) in CONTRACT_SCOPE_STEMS
