"""RL004: worker-reachable code must not write module-level state.

The sharded engine (:mod:`repro.engine.parallel`) forks workers that
share the parent's heap copy-on-write and assumes shard replays are
independent: results are merged by the ``Metrics.merged`` contract, and
the differential suite asserts bit-equality with the serial engine.  A
function that writes a module-level global breaks both properties —
state written in the parent between submits leaks into later-forked
children, state written in a child silently diverges from its siblings,
and under the spawn start method it simply disappears.

Two shapes are flagged in every worker-reachable package:

* rebinding a module global from inside a function (``global NAME`` +
  assignment), except the documented ``_INHERITED`` fork handshake in
  ``engine/parallel.py`` itself, which is set and cleared only in the
  parent around pool creation;
* in-place mutation of a module-level mutable container (append/update/
  subscript-assignment on a module-level list/dict/set).

Per-instance state (attributes of servers, strategies, metrics) is the
sanctioned alternative: every worker builds its own instances.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..model import (MUTATOR_METHODS, AnyFunctionDef, ModuleInfo,
                     local_bindings)

#: (rel_path, global name) pairs exempt from the rebind check.
_WHITELIST: Tuple[Tuple[str, str], ...] = (
    ("engine/parallel.py", "_INHERITED"),
)


class _FunctionScanner:
    """Collects violations inside one function body."""

    def __init__(self, rule_obj: "ForkSafetyRule",
                 module: ModuleInfo) -> None:
        self.rule = rule_obj
        self.module = module
        self.mutables = module.mutables

    def scan(self, func: AnyFunctionDef) -> Iterator[Diagnostic]:
        """Scan one function body, excluding nested defs (scanned on
        their own with their own local-binding sets)."""
        local_names = local_bindings(func)
        assigned = self._assigned_names(func)
        for node in self._walk_shallow(func):
            if isinstance(node, ast.Global):
                for name in node.names:
                    if self._whitelisted(name) or name not in assigned:
                        continue
                    yield self.rule.diagnostic(
                        self.module, node,
                        "function rebinds module global %r; fork workers "
                        "each see a divergent copy — keep run state on "
                        "instances" % name)
            elif isinstance(node, ast.Call):
                yield from self._check_mutation_call(node, local_names)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                yield from self._check_subscript_write(node, local_names)

    @staticmethod
    def _walk_shallow(func: ast.AST) -> Iterator[ast.AST]:
        """Walk ``func``'s tree without entering nested def/class."""
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _assigned_names(func: ast.AST) -> Set[str]:
        """Plain names the function assigns anywhere in its body."""
        assigned: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.add(target.id)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name):
                    assigned.add(node.target.id)
        return assigned

    def _whitelisted(self, name: str) -> bool:
        return (self.module.rel_path, name) in _WHITELIST

    def _check_mutation_call(self, node: ast.Call, local_names: Set[str]
                             ) -> Iterator[Diagnostic]:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.attr in MUTATOR_METHODS):
            name = func.value.id
            if (name in self.mutables and name not in local_names
                    and not self._whitelisted(name)):
                yield self.rule.diagnostic(
                    self.module, node,
                    "in-place mutation of module-level container %r "
                    "(.%s()); shard workers must not share writable "
                    "module state" % (name, func.attr))

    def _check_subscript_write(self, node: ast.stmt,
                               local_names: Set[str]
                               ) -> Iterator[Diagnostic]:
        targets = (list(node.targets) if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)):
                name = target.value.id
                if (name in self.mutables and name not in local_names
                        and not self._whitelisted(name)):
                    yield self.rule.diagnostic(
                        self.module, target,
                        "subscript write to module-level container %r; "
                        "shard workers must not share writable module "
                        "state" % name)


@rule
class ForkSafetyRule(Rule):
    """No writes to module-level state in worker-reachable packages."""

    rule_id = "RL004"
    title = "fork-safety: no module-global writes in worker-reachable code"
    # Everything a parallel-engine worker can reach: the engine itself,
    # strategies it constructs, and the packages those call into.  The
    # protocol and net packages ride along: the daemon multiplexes
    # connections over one event loop, where module-global serving
    # state would alias across connections exactly as it would across
    # forked shards.
    scopes = ("engine", "strategies", "saferegion", "index", "alarms",
              "geometry", "mobility", "telemetry", "protocol", "net")

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        scanner = _FunctionScanner(self, module)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from scanner.scan(node)
