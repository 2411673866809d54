"""RL005: SafeRegion subclasses implement the probe contract, pure.

A client-monitorable safe region (paper Section 2.1) must answer two
questions: *is this position inside?* (``probe_xy``, on the raw
coordinates of a fix, which also reports the comparison count the energy
model charges; ``probe`` of a ``Point`` is derived from it) and *how
many bits does it cost to ship?* (``size_bits``, the unit of the
bandwidth model).  A subclass missing either silently inherits
``NotImplementedError`` and dies mid-replay — or worse, inherits a wrong
default added later.

The second half of the contract is purity: safe-region code computes
*from* alarms, it never writes *to* them.  Alarm regions are shared
between the registry, the R*-tree and every concurrent shard, so a
method of a ``SafeRegion`` subclass or a ``*Computer`` in this package
mutating one of its (non-``self``) arguments — attribute assignment,
``.append()``-style calls, subscript writes — corrupts state far from
the call site.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..model import MUTATOR_METHODS, ModuleInfo

_REQUIRED_METHODS = ("probe_xy", "size_bits")
_MUTATOR_METHODS = MUTATOR_METHODS | {"sort", "reverse"}


def _base_names(node: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


@rule
class SafeRegionContractRule(Rule):
    """SafeRegion subclasses define probe_xy/size_bits and stay pure."""

    rule_id = "RL005"
    title = ("saferegion-contract: probe_xy/size_bits defined, "
             "arguments pure")
    scopes = ("saferegion",)

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = _base_names(node)
            is_region = "SafeRegion" in bases
            is_computer = node.name.endswith("Computer")
            if is_region:
                yield from self._check_required_methods(module, node)
            if is_region or is_computer:
                yield from self._check_argument_purity(module, node)

    def _check_required_methods(self, module: ModuleInfo,
                                node: ast.ClassDef) -> Iterator[Diagnostic]:
        defined = {stmt.name for stmt in node.body
                   if isinstance(stmt, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))}
        for required in _REQUIRED_METHODS:
            if required not in defined:
                yield self.diagnostic(
                    module, node,
                    "SafeRegion subclass %r does not define %r; clients "
                    "monitor through probe_xy() and the bandwidth model "
                    "charges size_bits()" % (node.name, required))

    def _check_argument_purity(self, module: ModuleInfo,
                               node: ast.ClassDef) -> Iterator[Diagnostic]:
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            args = stmt.args
            params = {arg.arg
                      for arg in (args.posonlyargs + args.args
                                  + args.kwonlyargs)} - {"self", "cls"}
            if not params:
                continue
            yield from self._flag_param_mutations(module, node.name, stmt,
                                                  params)

    def _flag_param_mutations(self, module: ModuleInfo, class_name: str,
                              func: ast.AST,
                              params: Set[str]) -> Iterator[Diagnostic]:
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (list(node.targets)
                           if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, (ast.Attribute, ast.Subscript))
                            and isinstance(target.value, ast.Name)
                            and target.value.id in params):
                        yield self.diagnostic(
                            module, target,
                            "%s.%s mutates its argument %r; safe-region "
                            "code must treat alarm inputs as read-only"
                            % (class_name, getattr(func, "name", "?"),
                               target.value.id))
            elif isinstance(node, ast.Call):
                func_expr = node.func
                if (isinstance(func_expr, ast.Attribute)
                        and isinstance(func_expr.value, ast.Name)
                        and func_expr.value.id in params
                        and func_expr.attr in _MUTATOR_METHODS):
                    yield self.diagnostic(
                        module, node,
                        "%s.%s calls %s.%s(); safe-region code must "
                        "treat alarm inputs as read-only"
                        % (class_name, getattr(func, "name", "?"),
                           func_expr.value.id, func_expr.attr))
