"""Project-wide symbol table and call graph for whole-program lint rules.

The per-file rules (REP001–REP009) see one AST at a time; the dataflow
tier (REP010–REP013, :mod:`repro.analysis.dataflow`) reasons about flows
*between* files — an unseeded RNG created in a helper module reaching an
estimator, a fork-unsafe global mutated from a pool worker, a
propensity-consuming path with no dominating contract check.  This module
extracts the facts those rules need into :class:`ModuleIndex`, a plain
JSON-serialisable summary of one file, and assembles the summaries into a
:class:`ProjectIndex` carrying the symbol table, the import graph, and a
best-effort static call graph.

Design constraints:

* **Cacheable.**  A :class:`ModuleIndex` round-trips through JSON
  (:meth:`ModuleIndex.to_json` / :meth:`ModuleIndex.from_json`), so the
  incremental engine (:mod:`repro.analysis.cache`) re-parses only files
  whose content hash changed; unchanged files contribute their cached
  index to the project graph at zero parse cost.
* **Best-effort resolution.**  Calls are resolved statically through
  local definitions, import aliases, ``self`` method dispatch (including
  virtual dispatch to subclass overrides), and ``ClassName()``
  constructors.  Unresolvable calls (getattr, callables in data
  structures, foreign libraries) become no edges — the dataflow rules
  are deliberately under-approximate, never speculative.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Bump when the index schema or extraction logic changes; cached
#: indexes with a different version are discarded.
INDEX_VERSION = 1

#: ``np.random.X`` members that construct generators/seeds rather than
#: draw from hidden global state (mirrors REP001's allow-list).
RNG_CONSTRUCTORS = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

#: Runtime-contract entry points (:mod:`repro.core.contracts` plus the
#: propensity-source validators that delegate to them).  A function that
#: transitively calls one of these is a *checking* function for REP013.
CONTRACT_CHECKERS = {
    "check_propensities",
    "check_weights",
    "check_trace",
    "check_trace_columns",
    "validate_positive",
    "validate_positive_batch",
}

#: Method names that mutate their receiver in place (REP011).
MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "appendleft",
    "extendleft",
}

#: Pool-submission methods and forking functions (``fork_blocks``) whose
#: callable argument runs in a worker process (REP011 roots).
POOL_SUBMIT_METHODS = {"submit", "map", "imap", "imap_unordered", "apply_async", "starmap"}
POOL_FORK_FUNCTIONS = {"fork_blocks"}


def dotted(node: ast.AST) -> Optional[str]:
    """Render an attribute/name chain (``np.random.default_rng``) or None."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


class CallSite:
    """One call expression inside a function body."""

    __slots__ = ("name", "line", "arg_names", "keyword_names", "lambda_args")

    def __init__(
        self,
        name: str,
        line: int,
        arg_names: Tuple[Optional[str], ...] = (),
        keyword_names: Tuple[str, ...] = (),
        lambda_args: Tuple[int, ...] = (),
    ):
        self.name = name
        self.line = line
        #: Dotted names of positional arguments (None for non-name args).
        self.arg_names = arg_names
        self.keyword_names = keyword_names
        #: Positions of arguments that are lambda/locally-defined callables.
        self.lambda_args = lambda_args

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "line": self.line,
            "args": list(self.arg_names),
            "kwargs": list(self.keyword_names),
            "lambdas": list(self.lambda_args),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "CallSite":
        return cls(
            name=str(payload["name"]),
            line=int(payload["line"]),
            arg_names=tuple(payload.get("args") or ()),
            keyword_names=tuple(payload.get("kwargs") or ()),
            lambda_args=tuple(int(i) for i in payload.get("lambdas") or ()),
        )


class FunctionInfo:
    """Static facts about one function or method body."""

    __slots__ = (
        "qualname",
        "line",
        "params",
        "calls",
        "rng_sources",
        "global_writes",
        "module_mutations",
        "propensity_reads",
        "pid_guarded",
        "is_method",
        "owner_class",
    )

    def __init__(
        self,
        qualname: str,
        line: int,
        params: Tuple[str, ...] = (),
        calls: Tuple[CallSite, ...] = (),
        rng_sources: Tuple[Tuple[int, str], ...] = (),
        global_writes: Tuple[Tuple[int, str], ...] = (),
        module_mutations: Tuple[Tuple[int, str], ...] = (),
        propensity_reads: Tuple[int, ...] = (),
        pid_guarded: bool = False,
        is_method: bool = False,
        owner_class: Optional[str] = None,
    ):
        self.qualname = qualname
        self.line = line
        self.params = params
        self.calls = calls
        #: ``(line, description)`` for every unseeded-RNG expression.
        self.rng_sources = rng_sources
        #: ``(line, name)`` for ``global X`` names rebound in the body.
        self.global_writes = global_writes
        #: ``(line, name)`` for in-place mutations of module-level names.
        self.module_mutations = module_mutations
        #: Lines reading per-record propensities (``.propensities`` or a
        #: ``propensity_batch`` call).
        self.propensity_reads = propensity_reads
        #: Whether the body consults ``os.getpid()`` — the sanctioned
        #: fork-reinitialisation idiom (see REP011).
        self.pid_guarded = pid_guarded
        self.is_method = is_method
        self.owner_class = owner_class

    def to_json(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "params": list(self.params),
            "calls": [call.to_json() for call in self.calls],
            "rng_sources": [list(item) for item in self.rng_sources],
            "global_writes": [list(item) for item in self.global_writes],
            "module_mutations": [list(item) for item in self.module_mutations],
            "propensity_reads": list(self.propensity_reads),
            "pid_guarded": self.pid_guarded,
            "is_method": self.is_method,
            "owner_class": self.owner_class,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "FunctionInfo":
        return cls(
            qualname=str(payload["qualname"]),
            line=int(payload["line"]),
            params=tuple(payload.get("params") or ()),
            calls=tuple(
                CallSite.from_json(item) for item in payload.get("calls") or ()
            ),
            rng_sources=tuple(
                (int(line), str(text))
                for line, text in payload.get("rng_sources") or ()
            ),
            global_writes=tuple(
                (int(line), str(name))
                for line, name in payload.get("global_writes") or ()
            ),
            module_mutations=tuple(
                (int(line), str(name))
                for line, name in payload.get("module_mutations") or ()
            ),
            propensity_reads=tuple(
                int(line) for line in payload.get("propensity_reads") or ()
            ),
            pid_guarded=bool(payload.get("pid_guarded")),
            is_method=bool(payload.get("is_method")),
            owner_class=payload.get("owner_class"),
        )


class MethodInfo:
    """Structural facts about one method needed for parity checks."""

    __slots__ = ("name", "line", "params", "is_abstract", "raises_only", "self_calls")

    def __init__(
        self,
        name: str,
        line: int,
        params: Tuple[str, ...] = (),
        is_abstract: bool = False,
        raises_only: bool = False,
        self_calls: Tuple[str, ...] = (),
    ):
        self.name = name
        self.line = line
        self.params = params
        self.is_abstract = is_abstract
        #: Body is nothing but (docstring +) ``raise`` — a "not
        #: implemented here" placeholder, not a real implementation.
        self.raises_only = raises_only
        #: Names called on ``self`` inside the body (for delegation checks).
        self.self_calls = self_calls

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "line": self.line,
            "params": list(self.params),
            "is_abstract": self.is_abstract,
            "raises_only": self.raises_only,
            "self_calls": list(self.self_calls),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "MethodInfo":
        return cls(
            name=str(payload["name"]),
            line=int(payload["line"]),
            params=tuple(payload.get("params") or ()),
            is_abstract=bool(payload.get("is_abstract")),
            raises_only=bool(payload.get("raises_only")),
            self_calls=tuple(payload.get("self_calls") or ()),
        )


class ClassInfo:
    """One class definition: bases, methods, constructor signature."""

    __slots__ = ("name", "line", "bases", "methods", "init_params", "has_var_keyword")

    def __init__(
        self,
        name: str,
        line: int,
        bases: Tuple[str, ...] = (),
        methods: Optional[Dict[str, MethodInfo]] = None,
        init_params: Tuple[str, ...] = (),
        has_var_keyword: bool = False,
    ):
        self.name = name
        self.line = line
        #: Base-class names as written (last dotted component kept too).
        self.bases = bases
        self.methods = methods or {}
        self.init_params = init_params
        self.has_var_keyword = has_var_keyword

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "line": self.line,
            "bases": list(self.bases),
            "methods": {
                name: method.to_json() for name, method in self.methods.items()
            },
            "init_params": list(self.init_params),
            "has_var_keyword": self.has_var_keyword,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "ClassInfo":
        return cls(
            name=str(payload["name"]),
            line=int(payload["line"]),
            bases=tuple(payload.get("bases") or ()),
            methods={
                name: MethodInfo.from_json(method)
                for name, method in (payload.get("methods") or {}).items()
            },
            init_params=tuple(payload.get("init_params") or ()),
            has_var_keyword=bool(payload.get("has_var_keyword")),
        )


class ModuleIndex:
    """JSON-serialisable static summary of one Python file."""

    __slots__ = (
        "display",
        "module",
        "path_parts",
        "imports",
        "functions",
        "classes",
        "module_state",
        "exports",
        "noqa",
    )

    def __init__(
        self,
        display: str,
        module: str,
        path_parts: Tuple[str, ...],
        imports: Optional[Dict[str, str]] = None,
        functions: Optional[Dict[str, FunctionInfo]] = None,
        classes: Optional[Dict[str, ClassInfo]] = None,
        module_state: Optional[Dict[str, int]] = None,
        exports: Optional[List[str]] = None,
        noqa: Optional[Dict[int, Optional[List[str]]]] = None,
    ):
        self.display = display
        #: Dotted module name (``repro.core.estimators.ips``), best-effort.
        self.module = module
        self.path_parts = path_parts
        #: Local alias -> dotted target for every import in the file.
        self.imports = imports or {}
        #: Qualname (``func`` or ``Class.method``) -> facts.
        self.functions = functions or {}
        self.classes = classes or {}
        #: Module-level *mutable* assignments: name -> line.
        self.module_state = module_state or {}
        #: ``__all__`` contents (None when absent or not a literal).
        self.exports = exports
        #: line -> None (bare noqa) or list of codes.
        self.noqa = noqa or {}

    def suppressed(self, line: int, rule_id: str) -> bool:
        """Whether *line* carries a noqa comment covering *rule_id*."""
        if line not in self.noqa:
            return False
        codes = self.noqa[line]
        if codes is None:
            return True
        return rule_id.upper() in {code.upper() for code in codes}

    def to_json(self) -> Dict[str, object]:
        return {
            "display": self.display,
            "module": self.module,
            "path_parts": list(self.path_parts),
            "imports": dict(self.imports),
            "functions": {
                name: info.to_json() for name, info in self.functions.items()
            },
            "classes": {name: info.to_json() for name, info in self.classes.items()},
            "module_state": dict(self.module_state),
            "exports": self.exports,
            "noqa": {
                str(line): codes for line, codes in self.noqa.items()
            },
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "ModuleIndex":
        return cls(
            display=str(payload["display"]),
            module=str(payload["module"]),
            path_parts=tuple(payload.get("path_parts") or ()),
            imports=dict(payload.get("imports") or {}),
            functions={
                name: FunctionInfo.from_json(info)
                for name, info in (payload.get("functions") or {}).items()
            },
            classes={
                name: ClassInfo.from_json(info)
                for name, info in (payload.get("classes") or {}).items()
            },
            module_state={
                name: int(line)
                for name, line in (payload.get("module_state") or {}).items()
            },
            exports=payload.get("exports"),
            noqa={
                int(line): codes
                for line, codes in (payload.get("noqa") or {}).items()
            },
        )


def module_name_for(parts: Sequence[str]) -> str:
    """Dotted module name from path parts, anchored at the package root.

    ``src/repro/core/ips.py`` -> ``repro.core.ips``; paths outside a
    recognisable package fall back to the stem-joined tail.
    """
    names = [part for part in parts]
    if names and names[-1].endswith(".py"):
        stem = names[-1][:-3]
        names = names[:-1] + ([] if stem == "__init__" else [stem])
    for anchor in ("repro", "src"):
        if anchor in names:
            index = names.index(anchor)
            if anchor == "src":
                index += 1
            names = names[index:]
            break
    else:
        names = names[-3:]
    return ".".join(names) if names else "<module>"


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted(node.func)
        if name in {"list", "dict", "set", "defaultdict", "collections.defaultdict", "deque", "collections.deque"}:
            return True
    return False


class _FunctionScanner(ast.NodeVisitor):
    """Collect :class:`FunctionInfo` facts from one function body."""

    def __init__(self, module_level_names: Set[str]):
        self.module_level_names = module_level_names
        self.calls: List[CallSite] = []
        self.rng_sources: List[Tuple[int, str]] = []
        self.global_names: Set[str] = set()
        self.global_writes: List[Tuple[int, str]] = []
        self.module_mutations: List[Tuple[int, str]] = []
        self.propensity_reads: List[int] = []
        self.pid_guarded = False
        self.local_callables: Set[str] = set()

    # -- nested scopes: record names, do not descend into bodies twice --

    def visit_Global(self, node: ast.Global) -> None:
        self.global_names.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_write_targets(node.targets, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_write_targets([node.target], node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_write_targets([node.target], node.lineno)
        self.generic_visit(node)

    def _record_write_targets(self, targets: Sequence[ast.AST], line: int) -> None:
        for target in targets:
            if isinstance(target, ast.Name) and target.id in self.global_names:
                self.global_writes.append((line, target.id))
            elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                name = target.value.id
                if name in self.module_level_names:
                    self.module_mutations.append((line, name))

    def visit_Delete(self, node: ast.Delete) -> None:
        self._record_write_targets(node.targets, node.lineno)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.local_callables.add(node.name)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "propensities" and isinstance(node.ctx, ast.Load):
            self.propensity_reads.append(node.lineno)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted(node.func)
        if name is not None:
            arg_names = tuple(dotted(arg) for arg in node.args)
            lambda_args = tuple(
                position
                for position, arg in enumerate(node.args)
                if isinstance(arg, ast.Lambda)
                or (isinstance(arg, ast.Name) and arg.id in self.local_callables)
            )
            self.calls.append(
                CallSite(
                    name=name,
                    line=node.lineno,
                    arg_names=arg_names,
                    keyword_names=tuple(
                        keyword.arg
                        for keyword in node.keywords
                        if keyword.arg is not None
                    ),
                    lambda_args=lambda_args,
                )
            )
            parts = name.split(".")
            if parts[-1] == "getpid":
                self.pid_guarded = True
            if parts[-1] == "propensity_batch":
                self.propensity_reads.append(node.lineno)
            self._record_rng_source(name, parts, node)
            self._record_mutation(parts, node)
        self.generic_visit(node)

    def _record_rng_source(
        self, name: str, parts: List[str], node: ast.Call
    ) -> None:
        if len(parts) >= 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            member = parts[2]
            if member == "default_rng":
                if not node.args and not node.keywords:
                    self.rng_sources.append(
                        (node.lineno, "np.random.default_rng() without a seed")
                    )
            elif member not in RNG_CONSTRUCTORS:
                self.rng_sources.append(
                    (node.lineno, f"np.random.{member}(...) global-state draw")
                )
        elif parts[0] == "random" and len(parts) == 2:
            self.rng_sources.append(
                (node.lineno, f"stdlib random.{parts[1]}(...) global-state draw")
            )

    def _record_mutation(self, parts: List[str], node: ast.Call) -> None:
        if (
            len(parts) == 2
            and parts[1] in MUTATOR_METHODS
            and parts[0] in self.module_level_names
        ):
            self.module_mutations.append((node.lineno, parts[0]))


def _params_of(args: ast.arguments) -> Tuple[str, ...]:
    named = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    if args.vararg is not None:
        named.append(args.vararg)
    return tuple(argument.arg for argument in named)


def _is_abstract(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        name = dotted(decorator)
        if name is not None and name.split(".")[-1] in (
            "abstractmethod",
            "abstractproperty",
        ):
            return True
    return False


def _raises_only(node: ast.AST) -> bool:
    body = list(getattr(node, "body", ()))
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return bool(body) and all(isinstance(item, ast.Raise) for item in body)


def _self_calls(node: ast.AST) -> Tuple[str, ...]:
    names: List[str] = []
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            name = dotted(child.func)
            if name is not None and name.startswith("self."):
                names.append(name.split(".", 1)[1].split(".")[0])
    return tuple(names)


def build_module_index(
    tree: ast.Module,
    display: str,
    path_parts: Sequence[str],
    noqa: Optional[Dict[int, Optional[List[str]]]] = None,
) -> ModuleIndex:
    """Extract the :class:`ModuleIndex` facts from a parsed module."""
    imports: Dict[str, str] = {}
    functions: Dict[str, FunctionInfo] = {}
    classes: Dict[str, ClassInfo] = {}
    module_state: Dict[str, int] = {}
    exports: Optional[List[str]] = None

    module = module_name_for(path_parts)
    module_level_names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    module_level_names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            module_level_names.add(node.target.id)

    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                imports[local] = alias.name
        elif isinstance(node, ast.ImportFrom):
            prefix = node.module or ""
            if node.level:
                # Relative import: anchor at the containing package.  In
                # ``pkg/mod.py`` level 1 means ``pkg``; in
                # ``pkg/__init__.py`` (module name ``pkg``) it means
                # ``pkg`` itself, so __init__ modules keep one more part.
                parts = module.split(".")
                keep = len(parts) - node.level
                if display.endswith("__init__.py"):
                    keep += 1
                base = ".".join(parts[:max(keep, 0)])
                prefix = f"{base}.{node.module}" if node.module else base
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = f"{prefix}.{alias.name}" if prefix else alias.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = _function_info(
                node, node.name, module_level_names, is_method=False, owner=None
            )
        elif isinstance(node, ast.ClassDef):
            class_info, method_infos = _class_info(node, module_level_names)
            classes[node.name] = class_info
            functions.update(method_infos)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            value = node.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "__all__" and value is not None:
                    try:
                        exports = [str(name) for name in ast.literal_eval(value)]
                    except (ValueError, TypeError):
                        exports = None
                elif value is not None and _is_mutable_literal(value):
                    module_state[target.id] = node.lineno

    return ModuleIndex(
        display=display,
        module=module,
        path_parts=tuple(path_parts),
        imports=imports,
        functions=functions,
        classes=classes,
        module_state=module_state,
        exports=exports,
        noqa=noqa or {},
    )


def _function_info(
    node: ast.AST,
    qualname: str,
    module_level_names: Set[str],
    is_method: bool,
    owner: Optional[str],
) -> FunctionInfo:
    scanner = _FunctionScanner(module_level_names)
    for child in node.body:
        scanner.visit(child)
    return FunctionInfo(
        qualname=qualname,
        line=node.lineno,
        params=_params_of(node.args),
        calls=tuple(scanner.calls),
        rng_sources=tuple(scanner.rng_sources),
        global_writes=tuple(scanner.global_writes),
        module_mutations=tuple(scanner.module_mutations),
        propensity_reads=tuple(scanner.propensity_reads),
        pid_guarded=scanner.pid_guarded,
        is_method=is_method,
        owner_class=owner,
    )


def _class_info(
    node: ast.ClassDef, module_level_names: Set[str]
) -> Tuple[ClassInfo, Dict[str, FunctionInfo]]:
    methods: Dict[str, MethodInfo] = {}
    functions: Dict[str, FunctionInfo] = {}
    init_params: Tuple[str, ...] = ()
    has_var_keyword = False
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        methods[item.name] = MethodInfo(
            name=item.name,
            line=item.lineno,
            params=_params_of(item.args),
            is_abstract=_is_abstract(item),
            raises_only=_raises_only(item),
            self_calls=_self_calls(item),
        )
        qualname = f"{node.name}.{item.name}"
        functions[qualname] = _function_info(
            item, qualname, module_level_names, is_method=True, owner=node.name
        )
        if item.name == "__init__":
            init_params = _params_of(item.args)
            has_var_keyword = item.args.kwarg is not None
    bases = tuple(
        name for name in (dotted(base) for base in node.bases) if name is not None
    )
    return (
        ClassInfo(
            name=node.name,
            line=node.lineno,
            bases=bases,
            methods=methods,
            init_params=init_params,
            has_var_keyword=has_var_keyword,
        ),
        functions,
    )


class ProjectIndex:
    """All module indexes of one lint invocation, plus the call graph.

    Node identity: ``"display::qualname"`` — the file's display path and
    the function qualname inside it.  The call graph is built lazily on
    first access and memoised.
    """

    def __init__(self, indexes: Sequence[ModuleIndex]):
        self.indexes = list(indexes)
        self.by_display: Dict[str, ModuleIndex] = {
            index.display: index for index in self.indexes
        }
        self.by_module: Dict[str, ModuleIndex] = {}
        for index in self.indexes:
            self.by_module.setdefault(index.module, index)
        self._edges: Optional[Dict[str, Set[str]]] = None
        self._class_owner: Dict[str, List[Tuple[ModuleIndex, ClassInfo]]] = {}
        for index in self.indexes:
            for class_info in index.classes.values():
                self._class_owner.setdefault(class_info.name, []).append(
                    (index, class_info)
                )

    # -- symbol table -----------------------------------------------------

    def node_id(self, index: ModuleIndex, qualname: str) -> str:
        """Stable call-graph node id for a function in a module."""
        return f"{index.display}::{qualname}"

    def function_nodes(self) -> Iterator[Tuple[str, ModuleIndex, FunctionInfo]]:
        """Every function in the project as ``(node_id, index, info)``."""
        for index in self.indexes:
            for qualname, info in index.functions.items():
                yield self.node_id(index, qualname), index, info

    def lookup(self, node_id: str) -> Optional[Tuple[ModuleIndex, FunctionInfo]]:
        """Resolve a node id back to its module index and function info."""
        display, _, qualname = node_id.partition("::")
        index = self.by_display.get(display)
        if index is None:
            return None
        info = index.functions.get(qualname)
        if info is None:
            return None
        return index, info

    def classes_named(self, name: str) -> List[Tuple[ModuleIndex, ClassInfo]]:
        """Every project class with this name (usually one)."""
        return self._class_owner.get(name, [])

    def ancestry(self, class_name: str) -> Iterator[Tuple[ModuleIndex, ClassInfo]]:
        """The class and its project-visible base classes, MRO-ish order."""
        seen: Set[str] = set()
        stack = [class_name]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            for index, class_info in self.classes_named(current):
                yield index, class_info
                stack.extend(base.split(".")[-1] for base in class_info.bases)

    def subclasses_of(self, class_name: str) -> List[str]:
        """Names of project classes that (transitively) subclass *class_name*."""
        children: Dict[str, Set[str]] = {}
        for index in self.indexes:
            for class_info in index.classes.values():
                for base in class_info.bases:
                    children.setdefault(base.split(".")[-1], set()).add(
                        class_info.name
                    )
        found: List[str] = []
        stack = [class_name]
        seen: Set[str] = set()
        while stack:
            current = stack.pop()
            for child in children.get(current, ()):  # pragma: no branch
                if child not in seen:
                    seen.add(child)
                    found.append(child)
                    stack.append(child)
        return found

    def descends_from(self, class_name: str, base_name: str) -> bool:
        """Whether *class_name* transitively subclasses *base_name*.

        The base is matched by name even when its defining module is not
        part of the linted file set (fixtures and partial lints import
        ``OffPolicyEstimator`` from outside the analyzed paths).
        """
        for _, class_info in self.ancestry(class_name):
            if class_info.name == base_name:
                return True
            if any(
                base.split(".")[-1] == base_name for base in class_info.bases
            ):
                return True
        return False

    # -- call resolution ---------------------------------------------------

    def resolve_call(
        self, index: ModuleIndex, caller: FunctionInfo, call: CallSite
    ) -> List[str]:
        """Resolve one call site to project call-graph node ids.

        Handles local functions, import aliases, ``self`` dispatch
        (including virtual dispatch to overrides in project subclasses),
        ``ClassName(...)`` constructors, and ``module.function`` access
        through ``import`` aliases.  Unresolvable calls yield ``[]``.
        """
        parts = call.name.split(".")
        head = parts[0]

        if head == "self" and caller.owner_class is not None and len(parts) >= 2:
            return self._resolve_method(index, caller.owner_class, parts[1])

        if len(parts) == 1:
            return self._resolve_bare_name(index, head)

        # module.attr / alias.attr through imports
        if head in index.imports:
            target = index.imports[head]
            return self._resolve_dotted(target, parts[1:])
        # ClassName.method on a local class
        if head in index.classes and len(parts) == 2:
            return self._resolve_method(index, head, parts[1], virtual=False)
        return []

    def _resolve_bare_name(self, index: ModuleIndex, name: str) -> List[str]:
        if name in index.functions:
            return [self.node_id(index, name)]
        if name in index.classes:
            return self._resolve_method(index, name, "__init__", virtual=False)
        if name in index.imports:
            return self._resolve_dotted(index.imports[name], [])
        return []

    def _resolve_dotted(self, target: str, rest: List[str]) -> List[str]:
        full = ".".join([target, *rest]) if rest else target
        parts = full.split(".")
        # Try to split into module prefix + symbol suffix.
        for split in range(len(parts), 0, -1):
            module = ".".join(parts[:split])
            index = self.by_module.get(module)
            if index is None:
                continue
            suffix = parts[split:]
            if not suffix:
                return []
            if len(suffix) == 1:
                return self._resolve_bare_name(index, suffix[0])
            if suffix[0] in index.classes and len(suffix) == 2:
                return self._resolve_method(index, suffix[0], suffix[1], virtual=False)
            return []
        # ``from m import f`` style: target may name the symbol directly.
        module, _, symbol = full.rpartition(".")
        index = self.by_module.get(module)
        if index is not None and symbol:
            return self._resolve_bare_name(index, symbol)
        return []

    def _resolve_method(
        self,
        index: ModuleIndex,
        class_name: str,
        method: str,
        virtual: bool = True,
    ) -> List[str]:
        """Resolve ``Class.method`` through the MRO, plus virtual dispatch
        to every project subclass override when *virtual* (``self.m()``
        on a base class may execute any override at runtime)."""
        resolved: List[str] = []
        for owner_index, class_info in self.ancestry(class_name):
            if method in class_info.methods:
                qualname = f"{class_info.name}.{method}"
                if qualname in owner_index.functions:
                    resolved.append(self.node_id(owner_index, qualname))
                break
        if virtual:
            for subclass in self.subclasses_of(class_name):
                for owner_index, class_info in self.classes_named(subclass):
                    if method in class_info.methods:
                        qualname = f"{class_info.name}.{method}"
                        if qualname in owner_index.functions:
                            node = self.node_id(owner_index, qualname)
                            if node not in resolved:
                                resolved.append(node)
        return resolved

    # -- graph queries ------------------------------------------------------

    def edges(self) -> Dict[str, Set[str]]:
        """The memoised call graph: node id -> callee node ids."""
        if self._edges is None:
            edges: Dict[str, Set[str]] = {}
            for node, index, info in self.function_nodes():
                targets: Set[str] = set()
                for call in info.calls:
                    targets.update(self.resolve_call(index, info, call))
                edges[node] = targets
            self._edges = edges
        return self._edges

    def reachable_from(self, roots: Set[str]) -> Set[str]:
        """Every node reachable from *roots* through call edges."""
        edges = self.edges()
        seen: Set[str] = set()
        stack = [root for root in roots if root in edges]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(edges.get(node, ()))
        return seen

    def transitive_markers(self, marked: Set[str]) -> Set[str]:
        """Every node from which some node in *marked* is reachable.

        (Reverse reachability: used to propagate RNG taint up the call
        graph and contract-checker status across helpers.)
        """
        reverse: Dict[str, Set[str]] = {}
        for node, targets in self.edges().items():
            for target in targets:
                reverse.setdefault(target, set()).add(node)
        seen = set(marked)
        stack = list(marked)
        while stack:
            node = stack.pop()
            for caller in reverse.get(node, ()):  # pragma: no branch
                if caller not in seen:
                    seen.add(caller)
                    stack.append(caller)
        return seen

    def entry_points(self) -> Set[str]:
        """Nodes with no project-internal callers (the public surface)."""
        edges = self.edges()
        called: Set[str] = set()
        for targets in edges.values():
            called.update(targets)
        return {node for node in edges if node not in called}
