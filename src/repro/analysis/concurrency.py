"""Concurrency view of the project model: call graph and loop code.

:class:`ConcurrencyModel` is PA005's substrate.  Built once per
:class:`~repro.analysis.model.ProjectModel` (cached via
:meth:`ProjectModel.concurrency`), it derives from the function table:

* a **call graph**.  Each edge records how the callee was resolved
  (``via``): a plain name, a ``self`` method, a constructor-typed
  attribute or local, or a constructor call;
* **constructor typing** of attributes and locals, so a call on
  ``self._jobs`` can be told apart as ``queue.Queue.get`` (blocking)
  or ``asyncio.Queue.get`` (awaitable);
* the **loop code**: every coroutine, every sync callback handed to
  ``create_task``/``ensure_future``, ``call_soon*``, ``call_later``/
  ``call_at`` or the ``lambda: asyncio.run(...)`` trampoline of a
  ``threading.Thread`` (the ``DaemonThread`` shape), and every sync
  function transitively called from those by name or via ``self``.
  Executor submissions and plain thread targets are never loop code.

Propagation is deliberately narrow: loop membership flows only along
``name`` and ``self`` call edges.  Attribute-typed calls cross object
boundaries where *which instance* matters (the daemon's transport vs
the client's), so those edges serve only PA005's reachability walk.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .model import FunctionInfo, ModuleInfo, ProjectModel, own_nodes

#: A function's identity: (module rel path, qualname).
FuncKey = Tuple[str, str]

#: Library modules whose constructors are typed (queues, locks, pools).
_TYPED_LIBRARIES = frozenset(
    {"queue", "asyncio", "threading", "multiprocessing",
     "concurrent.futures"})


@dataclass(frozen=True)
class TypeRef:
    """Best-effort type of a constructed value.

    Either an in-model class (``rel_path`` set) or an external library
    class (``library`` set, e.g. ``("queue", None, "Queue")``).
    """

    library: Optional[str]
    rel_path: Optional[str]
    class_name: str


@dataclass
class CallEdge:
    """One resolved call site's callee."""

    callee: FuncKey
    #: Resolution route: ``name`` | ``self`` | ``attr`` | ``local``
    #: | ``constructor``.
    via: str


def _terminal_name(node: ast.expr) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@dataclass
class ConcurrencyModel:
    """Call graph, constructor typing and loop code for one model."""

    model: ProjectModel
    functions: Dict[FuncKey, FunctionInfo] = field(default_factory=dict)
    module_of: Dict[FuncKey, ModuleInfo] = field(default_factory=dict)
    #: Methods grouped by (module rel path, class name).
    methods: Dict[Tuple[str, str], List[FunctionInfo]] = field(
        default_factory=dict)
    calls: Dict[FuncKey, List[CallEdge]] = field(default_factory=dict)
    #: Every function that runs on an event loop.
    on_loop: Set[FuncKey] = field(default_factory=set)
    #: Constructor-derived attribute types per (rel, class, attr).
    attr_types: Dict[Tuple[str, str, str], TypeRef] = field(
        default_factory=dict)
    #: Constructor-derived local types per function.
    local_types: Dict[FuncKey, Dict[str, TypeRef]] = field(
        default_factory=dict)

    # -- construction --------------------------------------------------
    @classmethod
    def build(cls, model: ProjectModel) -> "ConcurrencyModel":
        conc = cls(model=model)
        for module in model.iter_modules():
            for info in module.all_functions.values():
                key = (module.rel_path, info.qualname)
                conc.functions[key] = info
                conc.module_of[key] = module
                if info.class_name is not None:
                    conc.methods.setdefault(
                        (module.rel_path, info.class_name),
                        []).append(info)
        conc._infer_attribute_types()
        entries: List[FuncKey] = []
        for key in sorted(conc.functions):
            conc.local_types[key] = conc._infer_local_types(key)
        for key in sorted(conc.functions):
            conc._extract_calls_and_roots(key, entries)
        conc._propagate_loop(entries)
        return conc

    # -- type inference ------------------------------------------------
    def constructed_type(self, module: ModuleInfo,
                         node: ast.expr) -> Optional[TypeRef]:
        """Type of ``ClassName(...)`` / ``lib.ClassName(...)``, if a
        class this model (or a known library) declares."""
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in module.classes:
                return TypeRef(None, module.rel_path, func.id)
            imported = module.imports.get(func.id)
            if imported is None:
                return None
            dotted, original = imported
            source = self.model.module_by_name(dotted)
            if source is not None and original in source.classes:
                return TypeRef(None, source.rel_path, original)
            if dotted in _TYPED_LIBRARIES:
                return TypeRef(dotted, None, original)
            return None
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in _TYPED_LIBRARIES):
            return TypeRef(func.value.id, None, func.attr)
        return None

    def _infer_attribute_types(self) -> None:
        ambiguous: Set[Tuple[str, str, str]] = set()
        for (rel_path, class_name), infos in self.methods.items():
            module = self.module_of[(rel_path, infos[0].qualname)]
            for info in infos:
                for node in own_nodes(info.node):
                    if not (isinstance(node, ast.Assign)
                            and len(node.targets) == 1):
                        continue
                    target = node.targets[0]
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    ref = self.constructed_type(module, node.value)
                    if ref is None:
                        continue
                    slot = (rel_path, class_name, target.attr)
                    known = self.attr_types.get(slot)
                    if known is not None and known != ref:
                        ambiguous.add(slot)
                        continue
                    self.attr_types[slot] = ref
        for slot in ambiguous:
            self.attr_types.pop(slot, None)

    def _infer_local_types(self, key: FuncKey) -> Dict[str, TypeRef]:
        module = self.module_of[key]
        func = self.functions[key].node
        types: Dict[str, TypeRef] = {}
        for node in own_nodes(func):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                ref = self.constructed_type(module, node.value)
                if ref is not None:
                    types[node.targets[0].id] = ref
            elif (isinstance(node, ast.withitem)
                  and isinstance(node.optional_vars, ast.Name)):
                ref = self.constructed_type(module, node.context_expr)
                if ref is not None:
                    types[node.optional_vars.id] = ref
        return types

    def receiver_type(self, key: FuncKey,
                      node: ast.expr) -> Optional[TypeRef]:
        """Type of a call receiver expression inside function ``key``:
        a constructor-typed local or ``self`` attribute."""
        if isinstance(node, ast.Name):
            return self.local_types.get(key, {}).get(node.id)
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            info = self.functions[key]
            if info.class_name is not None:
                return self.attr_types.get(
                    (key[0], info.class_name, node.attr))
        return None

    # -- call graph + roots --------------------------------------------
    def _resolve_named_function(self, module: ModuleInfo,
                                name: str) -> Optional[FuncKey]:
        """A top-level function ``name`` here or one import hop away."""
        info = module.all_functions.get(name)
        if info is not None and info.class_name is None \
                and "." not in info.qualname:
            return (module.rel_path, name)
        imported = module.imports.get(name)
        if imported is None:
            return None
        source = self.model.module_by_name(imported[0])
        if source is None:
            return None
        target = source.all_functions.get(imported[1])
        if target is None or target.class_name is not None:
            return None
        return (source.rel_path, imported[1])

    def _callable_ref(self, key: FuncKey,
                      node: ast.expr) -> Optional[FuncKey]:
        """Resolve a callable *reference* (not a call): a named
        function or a ``self`` method handed to a spawn API."""
        module = self.module_of[key]
        if isinstance(node, ast.Name):
            return self._resolve_named_function(module, node.id)
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            info = self.functions[key]
            if info.class_name is None:
                return None
            qualname = "%s.%s" % (info.class_name, node.attr)
            if qualname in module.all_functions:
                return (key[0], qualname)
        return None

    def _resolve_call(self, key: FuncKey,
                      node: ast.Call) -> Optional[Tuple[FuncKey, str]]:
        module = self.module_of[key]
        func = node.func
        if isinstance(func, ast.Name):
            ctor = self.constructed_type(module, node)
            if ctor is not None and ctor.rel_path is not None:
                owner = self.model.modules[ctor.rel_path]
                init = "%s.__init__" % ctor.class_name
                if init in owner.all_functions:
                    return (ctor.rel_path, init), "constructor"
                return None
            named = self._resolve_named_function(module, func.id)
            if named is not None:
                return named, "name"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        info = self.functions[key]
        if (isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and info.class_name is not None):
            qualname = "%s.%s" % (info.class_name, func.attr)
            if qualname in module.all_functions:
                return (key[0], qualname), "self"
            return None
        ref = self.receiver_type(key, func.value)
        if ref is not None and ref.rel_path is not None:
            owner = self.model.modules[ref.rel_path]
            qualname = "%s.%s" % (ref.class_name, func.attr)
            if qualname in owner.all_functions:
                via = ("local" if isinstance(func.value, ast.Name)
                       else "attr")
                return (ref.rel_path, qualname), via
        return None

    def _extract_calls_and_roots(self, key: FuncKey,
                                 entries: List[FuncKey]) -> None:
        module = self.module_of[key]
        edges: List[CallEdge] = []
        for node in own_nodes(self.functions[key].node):
            if not isinstance(node, ast.Call):
                continue
            resolved = self._resolve_call(key, node)
            if resolved is not None:
                edges.append(CallEdge(*resolved))
            self._extract_roots(key, module, node, entries)
        if edges:
            self.calls[key] = edges

    def _extract_roots(self, key: FuncKey, module: ModuleInfo,
                       node: ast.Call, entries: List[FuncKey]) -> None:
        """Note the callables this call schedules onto an event loop."""
        name = _terminal_name(node.func)
        if name in ("create_task", "ensure_future", "call_soon",
                    "call_soon_threadsafe"):
            self._note_entry(key, node.args[:1], entries)
        elif name in ("call_later", "call_at"):
            self._note_entry(key, node.args[1:2], entries)
        elif name == "Thread" and self._is_threading_thread(module,
                                                            node):
            # The loop-hosting trampoline: ``lambda:
            # asyncio.run(self._main())`` runs ``_main`` on a fresh
            # event loop inside the new thread.
            for keyword in node.keywords:
                if (keyword.arg == "target"
                        and isinstance(keyword.value, ast.Lambda)):
                    for call in ast.walk(keyword.value.body):
                        if (isinstance(call, ast.Call) and call.args
                                and _terminal_name(call.func) == "run"):
                            self._note_entry(key, call.args[:1],
                                             entries)

    @staticmethod
    def _is_threading_thread(module: ModuleInfo,
                             node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Attribute):
            return (isinstance(func.value, ast.Name)
                    and func.value.id == "threading")
        if isinstance(func, ast.Name):
            return module.imports.get(func.id, ("", ""))[0] \
                == "threading"
        return False

    def _note_entry(self, key: FuncKey, args: Iterable[ast.expr],
                    entries: List[FuncKey]) -> None:
        for arg in args:
            # ``create_task(coro())`` hands over the *call*'s function.
            target = arg.func if isinstance(arg, ast.Call) else arg
            ref = self._callable_ref(key, target)
            if ref is not None:
                entries.append(ref)

    # -- loop propagation ----------------------------------------------
    def _propagate_loop(self, entries: List[FuncKey]) -> None:
        on_loop = {key for key, info in self.functions.items()
                   if info.is_async}
        on_loop.update(entries)
        queue = deque(sorted(on_loop))
        while queue:
            key = queue.popleft()
            for edge in self.calls.get(key, []):
                if (edge.via in ("name", "self")
                        and edge.callee in self.functions
                        and edge.callee not in on_loop):
                    on_loop.add(edge.callee)
                    queue.append(edge.callee)
        self.on_loop = on_loop
