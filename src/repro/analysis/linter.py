"""Whole-program lint engine for the OPE-correctness rules.

The engine grew from a per-file AST walker into a small analysis
framework; one lint invocation now runs in four stages:

1. **Collect + hash** — expand the requested paths into ``.py`` files
   and content-hash each one (SHA-256 of the raw bytes).
2. **Per-file analysis** — for files missing from the incremental cache
   (:mod:`repro.analysis.cache`), parse the AST, run every *module
   rule* (REP001–REP009), and extract the
   :class:`~repro.analysis.graph.ModuleIndex` facts.  Large file sets
   fan out over a fork-based process pool; results are deterministic
   regardless of pool size.  Cached files contribute their stored
   violations and index without being re-read beyond hashing.
3. **Project analysis** — assemble every index into a
   :class:`~repro.analysis.graph.ProjectIndex` (symbol table + call
   graph) and run the *project rules* (REP003 interface parity and the
   REP010–REP013 dataflow tier).  Project rules always re-run: they are
   whole-program properties, and they are cheap because they consume
   the index summaries, never raw ASTs.
4. **Report** — noqa filtering, then exit-code mapping and
   rendering through :mod:`repro.analysis.reporting`.

Suppression: ``# noqa: REP001`` on the offending line suppresses that
rule there; ``# noqa: REP001,REP004`` suppresses the listed rules; a
bare ``# noqa`` suppresses every rule on the line.  A code list that
names an unknown ``REP``-prefixed id is itself flagged (REP008) instead
of being silently widened — historically ``# noqa: TYPO123`` suppressed
*everything* on the line, which is exactly the silent-bias failure mode
this linter exists to prevent.  Foreign codes (``F401``, ``E501``) are
ignored so the file can be linted by other tools too.
"""

from __future__ import annotations

import ast
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.analysis.cache import (
    CacheEntry,
    LintCache,
    content_hash,
    ruleset_signature,
)
from repro.analysis.graph import ModuleIndex, ProjectIndex, build_module_index
from repro.errors import AnalysisError

_NOQA_COMMENT = re.compile(r"#\s*noqa(?P<rest>:[^#]*)?", re.IGNORECASE)
_NOQA_CODE = re.compile(r"^[A-Za-z]+[0-9]+$")

#: Files below this count are analyzed serially; the pool's fork+import
#: overhead only pays for itself on project-sized invocations.
PARALLEL_THRESHOLD = 64


def parse_noqa_codes(line: str) -> Optional[Tuple[bool, Optional[List[str]]]]:
    """Parse a source line's noqa comment.

    Returns ``None`` when the line carries no noqa comment; otherwise a
    ``(present, codes)`` tuple where *codes* is ``None`` for a bare
    ``# noqa`` and a list of syntactically valid codes for
    ``# noqa: REP001,REP004`` (comma or whitespace separated; a trailing
    rationale such as ``# noqa: REP006 - unfittable candidate`` is
    tolerated, and malformed tokens are dropped rather than silently
    widening the suppression to every rule).
    """
    match = _NOQA_COMMENT.search(line)
    if match is None:
        return None
    rest = match.group("rest")
    if rest is None:
        return (True, None)  # type: ignore[return-value]
    tokens = re.split(r"[,\s]+", rest.lstrip(":").strip())
    codes = [token for token in tokens if _NOQA_CODE.match(token)]
    return (True, codes)  # type: ignore[return-value]


def build_noqa_map(lines: Sequence[str]) -> Dict[int, Optional[List[str]]]:
    """``line -> codes`` (``None`` = bare noqa) for every noqa comment."""
    noqa: Dict[int, Optional[List[str]]] = {}
    for number, line in enumerate(lines, start=1):
        if "noqa" not in line.lower():
            continue
        parsed = parse_noqa_codes(line)
        if parsed is None:
            continue
        _, codes = parsed
        noqa[number] = codes
    return noqa


@dataclass(frozen=True, order=True)
class Violation:
    """One rule finding at a specific file and line.

    ``severity`` is ``"error"`` (fails the lint) or ``"warning"``
    (reported, surfaced in SARIF, but does not affect the exit code);
    ``detail`` carries machine-readable context (the unknown noqa codes,
    a dataflow finding's witness location).
    """

    path: str
    line: int
    rule_id: str
    message: str
    severity: str = "error"
    detail: str = ""

    @property
    def location(self) -> str:
        """``path:line`` — the clickable anchor used in reports."""
        return f"{self.path}:{self.line}"

    def to_json(self) -> Dict[str, object]:
        """JSON-serialisable representation."""
        payload: Dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "rule": self.rule_id,
            "message": self.message,
            "severity": self.severity,
        }
        if self.detail:
            payload["detail"] = self.detail
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "Violation":
        return cls(
            path=str(payload["path"]),
            line=int(payload["line"]),
            rule_id=str(payload["rule"]),
            message=str(payload["message"]),
            severity=str(payload.get("severity", "error")),
            detail=str(payload.get("detail", "")),
        )


class ModuleUnit:
    """One parsed Python file plus raw source lines and its noqa map."""

    def __init__(self, path: Path, display: str, source: str):
        self.path = path
        self.display = display
        self.lines = source.splitlines()
        self.noqa = build_noqa_map(self.lines)
        try:
            self.tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            raise AnalysisError(f"{display}:{exc.lineno}: does not parse: {exc.msg}")

    def suppressed(self, line: int, rule_id: str) -> bool:
        """``True`` when *line* carries a noqa comment covering *rule_id*."""
        if line not in self.noqa:
            return False
        codes = self.noqa[line]
        if codes is None:
            return True
        return rule_id.upper() in {code.upper() for code in codes}


class LintRule:
    """Base class for per-module lint rules.

    Subclasses set :attr:`rule_id`/:attr:`description` and implement
    :meth:`check_module`.  Whole-program rules subclass
    :class:`ProjectRule` instead.
    """

    #: Stable identifier, e.g. ``"REP001"``.
    rule_id: str = ""
    #: One-line human-readable rationale.
    description: str = ""
    #: ``"error"`` or ``"warning"`` — warnings do not fail the lint.
    severity: str = "error"

    def applies_to(self, unit: ModuleUnit) -> bool:
        """Whether this rule runs on *unit* (path-scoped rules override)."""
        return True

    def check_module(self, unit: ModuleUnit) -> Iterable[Violation]:
        """Per-file check; yields violations."""
        return ()

    def violation(
        self, unit: ModuleUnit, node: ast.AST, message: str, detail: str = ""
    ) -> Violation:
        """Build a violation anchored at *node* in *unit*."""
        return Violation(
            path=unit.display,
            line=getattr(node, "lineno", 1),
            rule_id=self.rule_id,
            message=message,
            severity=self.severity,
            detail=detail,
        )

    def violation_at(
        self, display: str, line: int, message: str, detail: str = ""
    ) -> Violation:
        """Build a violation at an explicit location (index-based rules)."""
        return Violation(
            path=display,
            line=line,
            rule_id=self.rule_id,
            message=message,
            severity=self.severity,
            detail=detail,
        )


class ProjectRule(LintRule):
    """Base class for whole-program rules (run once over the project)."""

    def check_project(self, project: ProjectIndex) -> Iterable[Violation]:
        """Project-wide check over the assembled module indexes."""
        return ()


_REGISTRY: Dict[str, Type[LintRule]] = {}


def register_rule(rule_class: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.rule_id:
        raise AnalysisError(f"{rule_class.__name__} has no rule_id")
    if rule_class.rule_id in _REGISTRY:
        raise AnalysisError(f"duplicate rule id {rule_class.rule_id}")
    _REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def _load_rules() -> None:
    """Import the rule modules, populating the registry on first use."""
    from repro.analysis import dataflow, rules  # noqa: F401


def registered_rule_ids() -> Tuple[str, ...]:
    """All registered rule ids, sorted."""
    _load_rules()
    return tuple(sorted(_REGISTRY))


def rule_class_for(rule_id: str) -> Type[LintRule]:
    """The registered rule class for *rule_id* (raises on unknown ids)."""
    _load_rules()
    try:
        return _REGISTRY[rule_id.upper()]
    except KeyError:
        raise AnalysisError(
            f"unknown rule id {rule_id}; known rules: "
            f"{', '.join(registered_rule_ids())}"
        )


def build_rules(rule_ids: Optional[Sequence[str]] = None) -> List[LintRule]:
    """Instantiate the requested rules (all registered rules by default)."""
    _load_rules()
    if rule_ids is None:
        selected = registered_rule_ids()
    else:
        selected = tuple(rule_id.upper() for rule_id in rule_ids)
        unknown = [rule_id for rule_id in selected if rule_id not in _REGISTRY]
        if unknown:
            raise AnalysisError(
                f"unknown rule id(s) {', '.join(unknown)}; "
                f"known rules: {', '.join(registered_rule_ids())}"
            )
    return [_REGISTRY[rule_id]() for rule_id in selected]


@dataclass(frozen=True)
class LintReport:
    """The outcome of one lint run.

    ``violations`` are error-severity findings (exit code 1);
    ``warnings`` are warning-severity findings (reported, exit 0);
    ``analyzed_files``/``cached_files`` expose the incremental split.
    """

    violations: Tuple[Violation, ...]
    checked_files: int
    rule_ids: Tuple[str, ...]
    warnings: Tuple[Violation, ...] = ()
    analyzed_files: int = 0
    cached_files: int = 0

    @property
    def ok(self) -> bool:
        """``True`` when no error-severity violations were found."""
        return not self.violations

    def to_json(self) -> Dict[str, object]:
        """JSON-serialisable representation of the whole report."""
        return {
            "ok": self.ok,
            "checked_files": self.checked_files,
            "analyzed_files": self.analyzed_files,
            "cached_files": self.cached_files,
            "rules": list(self.rule_ids),
            "violations": [violation.to_json() for violation in self.violations],
            "warnings": [violation.to_json() for violation in self.warnings],
        }


def collect_python_files(paths: Sequence) -> List[Path]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    collected: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            collected.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            collected.append(path)
        else:
            raise AnalysisError(f"no such file or directory: {raw}")
    return collected


def _analyze_source(
    source: str, path: Path, display: str, module_rule_ids: Sequence[str]
) -> Tuple[List[Violation], ModuleIndex]:
    """Parse one file, run the module rules, build the index."""
    unit = ModuleUnit(path=path, display=display, source=source)
    rules = build_rules(module_rule_ids)
    violations: List[Violation] = []
    for rule in rules:
        if not rule.applies_to(unit):
            continue
        for violation in rule.check_module(unit):
            if not unit.suppressed(violation.line, violation.rule_id):
                violations.append(violation)
    index = build_module_index(
        unit.tree, display, path.parts, noqa=unit.noqa
    )
    return violations, index


def _analyze_file_payload(
    path_str: str, display: str, module_rule_ids: Tuple[str, ...]
) -> Dict[str, object]:
    """Pool-friendly wrapper: returns a JSON payload for one file."""
    path = Path(path_str)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(f"cannot read {path}: {exc}")
    violations, index = _analyze_source(source, path, display, module_rule_ids)
    return {
        "display": display,
        "hash": content_hash(source.encode("utf-8")),
        "violations": [violation.to_json() for violation in violations],
        "index": index.to_json(),
    }


def _pool_size(jobs: Optional[int], pending: int) -> int:
    """Worker count: explicit ``jobs`` wins, else scale with the work."""
    import multiprocessing

    if pending < 2:
        return 1
    if jobs is not None:
        return max(1, min(jobs, pending))
    if pending < PARALLEL_THRESHOLD:
        return 1
    cpus = multiprocessing.cpu_count()
    return max(1, min(cpus - 1, 8, pending))


def _fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def lint_paths(
    paths: Sequence,
    rule_ids: Optional[Sequence[str]] = None,
    *,
    cache_path=None,
    jobs: Optional[int] = None,
) -> LintReport:
    """Lint *paths* with the selected rules and return a report.

    Parameters
    ----------
    rule_ids:
        Rule ids to run (default: every registered rule).
    cache_path:
        Path to the incremental cache file.  ``None`` disables caching;
        with a path, unchanged files (by content hash) reuse their
        per-file results and index, and only changed files are
        re-parsed — project rules always re-run over all indexes.
    jobs:
        Process-pool width for per-file analysis.  ``None`` picks
        automatically (serial below 64 pending files); ``1`` forces
        serial analysis.
    """
    rules = build_rules(rule_ids)
    module_rule_ids = tuple(
        rule.rule_id for rule in rules if not isinstance(rule, ProjectRule)
    )
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]
    all_rule_ids = tuple(rule.rule_id for rule in rules)

    files = collect_python_files(paths)
    displays = [str(path) for path in files]

    cache: Optional[LintCache] = None
    if cache_path is not None:
        cache = LintCache.load(cache_path, ruleset_signature(all_rule_ids))

    per_file: Dict[str, Tuple[List[Violation], ModuleIndex]] = {}
    pending: List[Tuple[Path, str, str, str]] = []
    for path, display in zip(files, displays):
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise AnalysisError(f"cannot read {path}: {exc}")
        file_hash = content_hash(data)
        if cache is not None:
            entry = cache.get(display, file_hash)
            if entry is not None:
                per_file[display] = (
                    [Violation.from_json(item) for item in entry.violations],
                    entry.index,
                )
                continue
        pending.append((path, display, file_hash, data.decode("utf-8")))

    workers = _pool_size(jobs, len(pending))
    if workers > 1 and _fork_available():
        import multiprocessing

        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            payloads = list(
                pool.map(
                    _analyze_file_payload,
                    [str(path) for path, _, _, _ in pending],
                    [display for _, display, _, _ in pending],
                    [module_rule_ids] * len(pending),
                    chunksize=8,
                )
            )
        for (path, display, file_hash, _), payload in zip(pending, payloads):
            violations = [
                Violation.from_json(item) for item in payload["violations"]
            ]
            index = ModuleIndex.from_json(payload["index"])
            per_file[display] = (violations, index)
            if cache is not None:
                cache.put(
                    display,
                    CacheEntry(file_hash, list(payload["violations"]), index),
                )
    else:
        for path, display, file_hash, source in pending:
            violations, index = _analyze_source(
                source, path, display, module_rule_ids
            )
            per_file[display] = (violations, index)
            if cache is not None:
                cache.put(
                    display,
                    CacheEntry(
                        file_hash,
                        [violation.to_json() for violation in violations],
                        index,
                    ),
                )

    project = ProjectIndex([per_file[display][1] for display in displays])

    collected: List[Violation] = []
    for display in displays:
        collected.extend(per_file[display][0])
    for rule in project_rules:
        for violation in rule.check_project(project):
            index = project.by_display.get(violation.path)
            if index is not None and index.suppressed(
                violation.line, violation.rule_id
            ):
                continue
            collected.append(violation)

    unique = sorted(set(collected))
    errors = tuple(v for v in unique if v.severity != "warning")
    warnings = tuple(v for v in unique if v.severity == "warning")

    if cache is not None:
        cache.prune(displays)
        cache.save()

    return LintReport(
        violations=errors,
        checked_files=len(files),
        rule_ids=all_rule_ids,
        warnings=warnings,
        analyzed_files=len(pending),
        cached_files=len(files) - len(pending),
    )


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render an attribute/name chain like ``np.random.default_rng``.

    Returns ``None`` for expressions that are not plain dotted names
    (calls, subscripts, ...), which rules treat as "not a match".
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None
