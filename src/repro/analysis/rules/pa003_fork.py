"""PA003: shard workers must not mutate parent-scope module state.

Flow-based escalation of RL004.  RL004 flags module-global
writes *anywhere* in worker-reachable packages, one file at a time; it
cannot see that ``from .config import CACHE; CACHE.append(...)`` inside
a worker mutates another module's global, nor which functions actually
run inside a forked worker.  PA003 starts from the worker entry points
— callables handed to ``pool.submit(...)`` or passed as an
``initializer=`` keyword — and scans each entry's body plus one level
of statically-resolvable callees for:

* in-place mutation (mutator method call or subscript write) of a name
  that is a module-level mutable container in its *defining* module,
  whether defined locally or reached through an import;
* ``global NAME`` rebinding inside worker-reachable code (the parent's
  fork handshake is parent-side only, so no whitelist applies here).

Fork children snapshot the parent heap copy-on-write; any such write
silently diverges between shards (and disappears entirely under the
spawn start method), breaking the merge contract the differential
suite asserts.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..model import (MUTATOR_METHODS, ModuleInfo, ProjectModel,
                     local_bindings)

#: A worker entry: (module using it, call-site node, callable name).
_WorkerRef = Tuple[ModuleInfo, ast.AST, str]


def _worker_refs(model: ProjectModel) -> List[_WorkerRef]:
    """Callables handed to ``pool.submit`` or ``initializer=``."""
    refs: List[_WorkerRef] = []
    for module in model.iter_modules():
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "submit" and node.args
                    and isinstance(node.args[0], ast.Name)):
                refs.append((module, node, node.args[0].id))
            for keyword in node.keywords:
                if (keyword.arg == "initializer"
                        and isinstance(keyword.value, ast.Name)):
                    refs.append((module, node, keyword.value.id))
    return refs


@rule
class CrossModuleForkSafetyChecker(Rule):
    """Worker-executed code never writes parent-scope module state."""

    rule_id = "PA003"
    title = ("fork-safety: no parent-state mutation reachable from "
             "shard worker entry points")

    def check(self, model: ProjectModel) -> Iterator[Diagnostic]:
        scanned: Set[Tuple[str, str]] = set()
        for module, _, name in _worker_refs(model):
            resolved = model.resolve_function(module, name)
            if resolved is None:
                continue
            worker_module, worker = resolved
            key = (worker_module.rel_path, worker.name)
            if key in scanned:
                continue
            scanned.add(key)
            yield from self._scan_function(model, worker_module, worker,
                                           worker.name, depth=0)

    def _scan_function(self, model: ProjectModel, module: ModuleInfo,
                       func: ast.FunctionDef, entry: str,
                       depth: int) -> Iterator[Diagnostic]:
        local_names = local_bindings(func)
        callees: List[str] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                for name in node.names:
                    yield self.diagnostic(
                        module, node,
                        "worker %r rebinds module global %r; forked "
                        "shards each see a divergent copy" % (entry,
                                                              name))
            elif isinstance(node, ast.Call):
                yield from self._check_mutation_call(
                    model, module, node, local_names, entry)
                if isinstance(node.func, ast.Name):
                    callees.append(node.func.id)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                yield from self._check_subscript_write(
                    model, module, node, local_names, entry)
        if depth > 0:
            return
        seen: Set[Tuple[str, str]] = {(module.rel_path, func.name)}
        for name in callees:
            resolved = model.resolve_function(module, name)
            if resolved is None:
                continue
            callee_module, callee = resolved
            key = (callee_module.rel_path, callee.name)
            if key in seen:
                continue
            seen.add(key)
            yield from self._scan_function(model, callee_module, callee,
                                           entry, depth=1)

    def _container_module(self, model: ProjectModel, module: ModuleInfo,
                          name: str, local_names: Set[str]
                          ) -> Optional[str]:
        """Defining module's rel path when ``name`` is a module-level
        mutable container visible here (``None`` otherwise)."""
        if name in local_names:
            return None
        if name in module.mutables:
            return module.rel_path
        imported = module.imports.get(name)
        if imported is None:
            return None
        source = model.module_by_name(imported[0])
        if source is not None and imported[1] in source.mutables:
            return source.rel_path
        return None

    def _check_mutation_call(self, model: ProjectModel,
                             module: ModuleInfo, node: ast.Call,
                             local_names: Set[str], entry: str
                             ) -> Iterator[Diagnostic]:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.attr in MUTATOR_METHODS):
            return
        owner = self._container_module(model, module, func.value.id,
                                       local_names)
        if owner is not None:
            yield self.diagnostic(
                module, node,
                "worker %r mutates module-level container %r of %s "
                "(.%s()); shard state must live on instances"
                % (entry, func.value.id, owner, func.attr))

    def _check_subscript_write(self, model: ProjectModel,
                               module: ModuleInfo, node: ast.stmt,
                               local_names: Set[str], entry: str
                               ) -> Iterator[Diagnostic]:
        targets = (list(node.targets) if isinstance(node, ast.Assign)
                   else [node.target]
                   if isinstance(node, ast.AugAssign) else [])
        for target in targets:
            if not (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)):
                continue
            owner = self._container_module(model, module,
                                           target.value.id, local_names)
            if owner is not None:
                yield self.diagnostic(
                    module, target,
                    "worker %r writes module-level container %r of %s "
                    "by subscript; shard state must live on instances"
                    % (entry, target.value.id, owner))
