"""The project model every rule reads.

:class:`ProjectModel` parses every ``.py`` file under one root exactly
once.  A file-local rule reads one :class:`ModuleInfo` at a time (its
tree, its root-relative path, its pragmas); a whole-program rule reads
the cross-module facts: the module graph (resolved imports), the
class/attribute table (dataclass field order per class), the function
table (one level of the call graph), and the string-literal tables
(module-level string constants, resolvable through imports).  Rules
locate the modules they care about by *root-relative path* — a scope
prefix such as ``strategies`` or a suffix such as
``protocol/messages.py`` — so the same rule runs unchanged over the
shipped tree, over a copy of it, and over the miniature fixture trees
in ``tests/analysis/fixtures/``.

Resolution is deliberately best-effort: a name that cannot be resolved
statically (computed imports, ``*`` imports, attribute chains) resolves
to ``None`` and rules decide whether that is a finding or a shrug.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterator, List,
                    Optional, Set, Tuple, Union)

from .pragmas import collect_pragmas

if TYPE_CHECKING:  # import cycle: concurrency builds on this module
    from .concurrency import ConcurrencyModel

#: Either def flavor — most model code treats them uniformly.
AnyFunctionDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


class AnalysisError(Exception):
    """Unrecoverable analysis failure (unreadable or unparsable input)."""


@dataclass
class ClassInfo:
    """One class definition and its annotated-field order."""

    name: str
    node: ast.ClassDef
    #: Annotated class-level fields in declaration order — for the
    #: frozen protocol dataclasses this *is* the dataclass field order.
    fields: Tuple[str, ...]


@dataclass
class FunctionInfo:
    """One function or method, with its concurrency-relevant facts.

    Collected for *every* def in a module — module level, methods,
    nested — unlike :attr:`ModuleInfo.functions`, which keeps only the
    module-level sync defs the original resolvers were built around.
    """

    #: Dotted position in the module (``AlarmDaemon.aclose``,
    #: ``outer.inner`` for nested defs).
    qualname: str
    name: str
    node: AnyFunctionDef
    #: Immediately-enclosing class name, ``None`` outside class bodies.
    class_name: Optional[str]
    is_async: bool


def own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk ``func``'s own body, not descending into nested defs.

    The concurrency analyses ask "what does *this* function do when
    called"; statements inside a nested ``def``/``lambda`` only run
    when the nested callable is invoked, so they belong to the nested
    function's own entry in the model.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class ModuleInfo:
    """Everything the model knows about one parsed module."""

    display_path: str
    rel_path: str
    #: Dotted module name relative to the analysis root (``""`` for the
    #: root package's ``__init__``).
    name: str
    source: str
    tree: ast.Module
    #: ``# lint: allow=`` pragmas by line (used for suppression).
    allowed: Dict[int, FrozenSet[str]]
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Module-level functions by name.
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: Every def in the module (methods and nested defs included),
    #: keyed by qualname — the concurrency model's function table.
    all_functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Module-level ``NAME = "literal"`` string constants.
    constants: Dict[str, str] = field(default_factory=dict)
    #: ``from X import a as b`` edges: local name -> (dotted source
    #: module, original name).  Plain ``import X`` edges are omitted —
    #: no rule needs them.
    imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: Module-level names bound to mutable containers (lists, dicts,
    #: sets and their factory calls) — the state PA003 guards.
    mutables: FrozenSet[str] = frozenset()


@dataclass
class ResolvedStrings:
    """Outcome of resolving one expression to string values.

    ``full`` holds completely-resolved values; ``prefixes`` holds the
    literal head of a concatenation with a dynamic tail
    (``"downlink_messages_" + kind`` yields one prefix).  ``unresolved``
    is set when some branch produced no literal at all.
    """

    full: List[str] = field(default_factory=list)
    prefixes: List[str] = field(default_factory=list)
    unresolved: bool = False

    @property
    def empty(self) -> bool:
        return not (self.full or self.prefixes)


def _class_info(node: ast.ClassDef) -> ClassInfo:
    fields_: List[str] = []
    for stmt in node.body:
        if (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            fields_.append(stmt.target.id)
    return ClassInfo(name=node.name, node=node, fields=tuple(fields_))


#: Method names that mutate a list/dict/set/deque in place.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
    "appendleft", "extendleft",
})
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "defaultdict", "OrderedDict", "Counter",
    "deque",
})


def module_level_mutables(tree: ast.Module) -> Set[str]:
    """Module-level names bound to mutable containers."""
    mutables: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: ast.expr
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            mutable = True
        elif (isinstance(value, ast.Call)
              and isinstance(value.func, ast.Name)
              and value.func.id in _MUTABLE_FACTORIES):
            mutable = True
        else:
            mutable = False
        if mutable:
            mutables.update(t.id for t in targets
                            if isinstance(t, ast.Name))
    return mutables


def local_bindings(func: AnyFunctionDef) -> Set[str]:
    """Names bound locally in ``func`` (params, assignments, loop and
    ``with`` targets) — these shadow module globals, so writes to them
    are not global writes."""
    local: Set[str] = set()
    globals_declared: Set[str] = set()
    args = func.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        local.add(arg.arg)
    if args.vararg is not None:
        local.add(args.vararg.arg)
    if args.kwarg is not None:
        local.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            globals_declared.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    local.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                local.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for name_node in ast.walk(node.target):
                if isinstance(name_node, ast.Name):
                    local.add(name_node.id)
        elif isinstance(node, ast.withitem):
            if node.optional_vars is not None:
                for name_node in ast.walk(node.optional_vars):
                    if isinstance(name_node, ast.Name):
                        local.add(name_node.id)
        elif isinstance(node, ast.comprehension):
            for name_node in ast.walk(node.target):
                if isinstance(name_node, ast.Name):
                    local.add(name_node.id)
    return local - globals_declared


class ProjectModel:
    """All modules under one root, parsed once, with resolved imports."""

    def __init__(self, root: Path,
                 modules: Dict[str, ModuleInfo]) -> None:
        self.root = root
        #: Modules keyed by root-relative POSIX path.
        self.modules = modules
        #: The pragma-debt ledger PA004 reads (``--debt``); ``None``
        #: searches for ``lint_debt.json`` from the root upward.
        self.debt_path: Optional[Path] = None
        self._by_name: Dict[str, ModuleInfo] = {
            info.name: info for info in modules.values()}
        self._concurrency: Optional["ConcurrencyModel"] = None

    # -- construction --------------------------------------------------
    @classmethod
    def build(cls, root: Path) -> "ProjectModel":
        """Parse every ``.py`` file under ``root`` into a model.

        Raises :class:`AnalysisError` when the root is missing, is not
        a directory, holds no Python file, or any file fails to read or
        parse — a run refuses to report "clean" over a tree it could
        not see.
        """
        root = Path(root)
        if not root.is_dir():
            raise AnalysisError("no such directory: %s" % root)
        modules: Dict[str, ModuleInfo] = {}
        for path in sorted(root.rglob("*.py")):
            rel_path = path.relative_to(root).as_posix()
            try:
                source = path.read_text(encoding="utf-8")
            except OSError as exc:
                raise AnalysisError("cannot read %s: %s"
                                    % (path, exc)) from exc
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                raise AnalysisError("cannot parse %s: %s"
                                    % (path, exc)) from exc
            modules[rel_path] = cls._module_info(root, path, rel_path,
                                                 source, tree)
        if not modules:
            # "0 files checked, 0 problems" on a typo'd path is a silent
            # false green in CI; an empty tree is an input error.
            raise AnalysisError("no Python files to check under: %s"
                                % root)
        return cls(root, modules)

    @classmethod
    def _module_info(cls, root: Path, path: Path, rel_path: str,
                     source: str, tree: ast.Module) -> ModuleInfo:
        parts = rel_path[:-len(".py")].split("/")
        if parts[-1] == "__init__":
            parts = parts[:-1]
        info = ModuleInfo(display_path=str(path), rel_path=rel_path,
                          name=".".join(parts), source=source, tree=tree,
                          allowed=collect_pragmas(source),
                          mutables=frozenset(
                              module_level_mutables(tree)))
        package = rel_path.split("/")[:-1]
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                info.classes[stmt.name] = _class_info(stmt)
            elif isinstance(stmt, ast.FunctionDef):
                info.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign):
                cls._record_constant(info, stmt)
            elif isinstance(stmt, ast.ImportFrom):
                cls._record_import(info, stmt, package, root.name)
        cls._collect_functions(info, tree.body, prefix="",
                               class_name=None)
        return info

    @classmethod
    def _collect_functions(cls, info: ModuleInfo,
                           body: List[ast.stmt], prefix: str,
                           class_name: Optional[str]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + stmt.name
                info.all_functions[qualname] = FunctionInfo(
                    qualname=qualname, name=stmt.name, node=stmt,
                    class_name=class_name,
                    is_async=isinstance(stmt, ast.AsyncFunctionDef))
                # Nested defs are plain closures, not methods.
                cls._collect_functions(info, stmt.body,
                                       prefix=qualname + ".",
                                       class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                cls._collect_functions(info, stmt.body,
                                       prefix=prefix + stmt.name + ".",
                                       class_name=stmt.name)

    @staticmethod
    def _record_constant(info: ModuleInfo, stmt: ast.Assign) -> None:
        if (len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)):
            info.constants[stmt.targets[0].id] = stmt.value.value

    @staticmethod
    def _record_import(info: ModuleInfo, stmt: ast.ImportFrom,
                       package: List[str], root_name: str) -> None:
        if stmt.level > 0:
            if stmt.level - 1 > len(package):
                return  # escapes the analysis root
            base = package[:len(package) - (stmt.level - 1)]
        else:
            base = []
        module = stmt.module or ""
        # Absolute imports of the root package itself resolve as if
        # relative to the root (``repro.geometry`` -> ``geometry``).
        if stmt.level == 0:
            if module == root_name:
                module = ""
            elif module.startswith(root_name + "."):
                module = module[len(root_name) + 1:]
        dotted = ".".join(base + (module.split(".") if module else []))
        for alias in stmt.names:
            local = alias.asname or alias.name
            info.imports[local] = (dotted, alias.name)

    # -- lookup --------------------------------------------------------
    def find(self, suffix: str) -> Optional[ModuleInfo]:
        """The module whose rel path is ``suffix`` or ends with it."""
        exact = self.modules.get(suffix)
        if exact is not None:
            return exact
        for rel_path in sorted(self.modules):
            if rel_path.endswith("/" + suffix):
                return self.modules[rel_path]
        return None

    def module_by_name(self, dotted: str) -> Optional[ModuleInfo]:
        """The module with this root-relative dotted name, if parsed."""
        return self._by_name.get(dotted)

    def iter_modules(self) -> Iterator[ModuleInfo]:
        for rel_path in sorted(self.modules):
            yield self.modules[rel_path]

    def concurrency(self) -> "ConcurrencyModel":
        """The (cached) concurrency view: call graph and loop code.

        Built lazily so trees analyzed only by the structural rules
        never pay for it.
        """
        if self._concurrency is None:
            from .concurrency import ConcurrencyModel
            self._concurrency = ConcurrencyModel.build(self)
        return self._concurrency

    # -- cross-module resolution ---------------------------------------
    def resolve_function(self, module: ModuleInfo, name: str
                         ) -> Optional[Tuple[ModuleInfo, ast.FunctionDef]]:
        """Resolve a called name to its defining module and def node."""
        if name in module.functions:
            return module, module.functions[name]
        imported = module.imports.get(name)
        if imported is None:
            return None
        source_module = self.module_by_name(imported[0])
        if source_module is None:
            return None
        func = source_module.functions.get(imported[1])
        if func is None:
            return None
        return source_module, func

    def resolve_constant(self, module: ModuleInfo,
                         name: str) -> Optional[str]:
        """Resolve a name to a module-level string constant's value."""
        if name in module.constants:
            return module.constants[name]
        imported = module.imports.get(name)
        if imported is None:
            return None
        source_module = self.module_by_name(imported[0])
        if source_module is None:
            return None
        return source_module.constants.get(imported[1])

    def resolve_strings(self, module: ModuleInfo,
                        node: ast.expr) -> ResolvedStrings:
        """Resolve an expression to the string values it can take.

        Handles literals, module-level constants (through one import
        hop), conditional expressions (both branches) and binary
        concatenation with a dynamic right side (recorded as a
        prefix).  Anything else marks the result ``unresolved``.
        """
        result = ResolvedStrings()
        self._resolve_into(module, node, result)
        return result

    def _resolve_into(self, module: ModuleInfo, node: ast.expr,
                      result: ResolvedStrings) -> None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            result.full.append(node.value)
            return
        if isinstance(node, ast.Name):
            value = self.resolve_constant(module, node.id)
            if value is None:
                result.unresolved = True
            else:
                result.full.append(value)
            return
        if isinstance(node, ast.IfExp):
            self._resolve_into(module, node.body, result)
            self._resolve_into(module, node.orelse, result)
            return
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left = self.resolve_strings(module, node.left)
            right = self.resolve_strings(module, node.right)
            if left.full and right.full and not left.unresolved \
                    and not right.unresolved:
                result.full.extend(lhs + rhs for lhs in left.full
                                   for rhs in right.full)
            elif left.full and not left.unresolved:
                result.prefixes.extend(left.full)
            else:
                result.unresolved = True
            return
        result.unresolved = True
