"""Reading the literal tables of ``protocol/spec.py`` from a model.

PA008 and PA010 both consume the declared session contract — but from
the *analyzed tree*, not from the import system, so miniature fixture
trees can carry their own (deliberately wrong) spec.  The spec module
keeps its tables literal for exactly this reason; :func:`literal_table`
is the one place that contract is enforced.
"""

from __future__ import annotations

import ast
from typing import Optional, Tuple

from ..model import ModuleInfo


def literal_table(module: ModuleInfo, name: str
                  ) -> Optional[Tuple[ast.stmt, Optional[object]]]:
    """The literal value assigned to ``name`` at module top level.

    Returns ``None`` when ``name`` is never assigned; ``(stmt, None)``
    when it is assigned something ``ast.literal_eval`` rejects (the
    caller diagnoses that — a computed spec table defeats the static
    checkers); ``(stmt, value)`` otherwise.
    """
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign):
            if not (len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == name):
                continue
            value_node: Optional[ast.expr] = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if not (isinstance(stmt.target, ast.Name)
                    and stmt.target.id == name):
                continue
            value_node = stmt.value
        else:
            continue
        if value_node is None:
            return stmt, None
        try:
            return stmt, ast.literal_eval(value_node)
        except ValueError:
            return stmt, None
    return None
