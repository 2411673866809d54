"""RL001: geometry values are immutable.

``Point``, ``Rect`` and ``RectilinearRegion`` instances are shared
freely — between alarms, safe regions, index nodes, worker shards —
precisely because nothing ever mutates them.  ``Point`` and ``Rect``
are frozen dataclasses (mutation raises at runtime); this rule catches
the attempt statically, including on ``RectilinearRegion``, whose
``__slots__`` would happily accept a reassignment.

Detection is name-based: a local name counts as geometry-typed when it
is annotated with a geometry type, bound to a geometry constructor call
(``Rect(...)``, ``Rect.from_corners(...)``), or is ``self`` inside a
geometry class body.  Attribute assignment (plain or augmented) to such
a name is a violation anywhere except ``__init__``/``__post_init__``,
where the dataclass machinery itself runs.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..model import ModuleInfo

GEOMETRY_TYPES = frozenset({"Point", "Rect", "RectilinearRegion",
                            "Polygon"})
_CONSTRUCTOR_EXEMPT = frozenset({"__init__", "__post_init__"})


def _annotation_geometry_type(annotation: Optional[ast.expr]
                              ) -> Optional[str]:
    """The geometry type named by ``annotation``, if any.

    Handles plain names, ``Optional[Rect]``-style subscripts and string
    annotations by scanning every identifier in the expression.
    """
    if annotation is None:
        return None
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id in GEOMETRY_TYPES:
            return node.id
        if (isinstance(node, ast.Attribute)
                and node.attr in GEOMETRY_TYPES):
            return node.attr
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in GEOMETRY_TYPES):
            return node.value
    return None


def _call_geometry_type(value: ast.expr) -> Optional[str]:
    """Geometry type produced by ``value`` when it is a constructor call."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Name) and func.id in GEOMETRY_TYPES:
        return func.id
    if (isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in GEOMETRY_TYPES):
        return func.value.id  # classmethod constructor: Rect.from_center
    return None


@rule
class FrozenGeometryRule(Rule):
    """No attribute assignment to geometry instances outside ``__init__``."""

    rule_id = "RL001"
    title = "frozen-geometry: geometry instances are never mutated"
    scopes = None  # geometry flows through every package

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        yield from self._scan(module, module.tree.body, {}, in_exempt=False)

    def _scan(self, module: ModuleInfo, body: list, bindings: Dict[str, str],
              in_exempt: bool) -> Iterator[Diagnostic]:
        """Walk one scope's statements, tracking geometry-typed names.

        ``bindings`` maps names to geometry type names; child scopes
        inherit a copy of the parent's bindings (close enough to real
        scoping for a linter: rebinding in the child shadows locally).
        """
        for stmt in body:
            for diag in self._scan_statement(module, stmt, bindings,
                                             in_exempt):
                yield diag

    def _scan_statement(self, module: ModuleInfo, stmt: ast.stmt,
                        bindings: Dict[str, str],
                        in_exempt: bool) -> Iterator[Diagnostic]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            child = dict(bindings)
            for arg in (stmt.args.posonlyargs + stmt.args.args
                        + stmt.args.kwonlyargs):
                geom = _annotation_geometry_type(arg.annotation)
                if geom is not None:
                    child[arg.arg] = geom
                elif arg.arg in child and arg.arg not in ("self",):
                    del child[arg.arg]  # parameter shadows outer binding
            exempt = in_exempt or stmt.name in _CONSTRUCTOR_EXEMPT
            yield from self._scan(module, stmt.body, child, exempt)
            return
        if isinstance(stmt, ast.ClassDef):
            child = dict(bindings)
            if stmt.name in GEOMETRY_TYPES:
                child["self"] = stmt.name
            else:
                child.pop("self", None)
            yield from self._scan(module, stmt.body, child, in_exempt)
            return

        # Record geometry bindings from assignments before flagging, so
        # `p = Point(...)` on one line arms `p.x = ...` on the next.
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                          ast.Name):
            geom = _annotation_geometry_type(stmt.annotation)
            if geom is not None:
                bindings[stmt.target.id] = geom
        elif isinstance(stmt, ast.Assign):
            geom = _call_geometry_type(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if geom is not None:
                        bindings[target.id] = geom
                    else:
                        bindings.pop(target.id, None)  # rebound elsewhere

        if not in_exempt:
            yield from self._flag_mutations(module, stmt, bindings)

        for child_node in ast.iter_child_nodes(stmt):
            if isinstance(child_node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef,
                                       ast.ClassDef)):
                continue  # handled above via statement recursion
            if isinstance(child_node, ast.stmt):
                yield from self._scan_statement(module, child_node, bindings,
                                                in_exempt)

    def _flag_mutations(self, module: ModuleInfo, stmt: ast.stmt,
                        bindings: Dict[str, str]) -> Iterator[Diagnostic]:
        targets: list = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.AugAssign):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in bindings):
                yield self.diagnostic(
                    module, target,
                    "attribute assignment to frozen geometry value "
                    "%r (a %s); construct a new instance instead"
                    % (target.value.id, bindings[target.value.id]))
