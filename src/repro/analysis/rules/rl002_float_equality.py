"""RL002: no exact float equality in numeric geometry code.

Safe regions, motion models and geometry predicates reconstruct
coordinates through arithmetic (ratio splits, modular angle wrapping,
distance sums), so two semantically equal floats routinely differ in
their last bits.  ``==``/``!=`` between float expressions silently
encodes "bit-identical", which is almost never the intended predicate.
Use :func:`repro.geometry.eps.feq` / :func:`~repro.geometry.eps.fzero`
instead, or — where exact comparison is semantically intended, e.g.
the degenerate-rect check — :func:`~repro.geometry.eps.feq_exact` /
:func:`~repro.geometry.eps.fzero_exact`, which name the intent and
live in the one exempt module.  There is no other way out: a finding
cannot be suppressed.

Detection is conservative (no false positives on int comparisons): a
comparison is flagged only when one operand is a float *literal*, or
when both operands are names annotated ``float`` in the enclosing
function, or one such name is compared against any numeric literal.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..model import ModuleInfo


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.UAdd, ast.USub)):
        node = node.operand
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, float))


def _is_numeric_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.UAdd, ast.USub)):
        node = node.operand
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def _annotates_float(annotation: ast.expr) -> bool:
    return ((isinstance(annotation, ast.Name)
             and annotation.id == "float")
            or (isinstance(annotation, ast.Constant)
                and annotation.value == "float"))


class _FloatNames(ast.NodeVisitor):
    """Names annotated ``float`` anywhere in the file.

    Collected per-file rather than per-scope: annotated names are
    overwhelmingly parameters, and a name annotated float in one scope
    and reused as non-float elsewhere would be its own code smell.
    """

    def __init__(self) -> None:
        self.names: Set[str] = set()

    def visit_arg(self, node: ast.arg) -> None:
        if node.annotation is not None and _annotates_float(node.annotation):
            self.names.add(node.arg)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (isinstance(node.target, ast.Name)
                and _annotates_float(node.annotation)):
            self.names.add(node.target.id)
        self.generic_visit(node)


@rule
class FloatEqualityRule(Rule):
    """No ``==``/``!=`` between float expressions in numeric packages."""

    rule_id = "RL002"
    title = "float-equality: use geometry.eps.feq/fzero, not ==/!="
    scopes = ("geometry", "saferegion", "mobility")
    # eps.py is the sanctioned home of tolerant comparison itself.
    exempt_files = ("geometry/eps.py",)

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        collector = _FloatNames()
        collector.visit(module.tree)
        float_names = collector.names
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if self._is_float_comparison(left, right, float_names):
                    yield self.diagnostic(
                        module, node,
                        "exact float %s comparison; use feq/fzero from "
                        "repro.geometry.eps (or feq_exact/fzero_exact "
                        "where bit-identity is the contract)"
                        % ("==" if isinstance(op, ast.Eq) else "!="))

    @staticmethod
    def _is_float_comparison(left: ast.expr, right: ast.expr,
                             float_names: Set[str]) -> bool:
        if _is_float_literal(left) or _is_float_literal(right):
            return True
        left_float = (isinstance(left, ast.Name)
                      and left.id in float_names)
        right_float = (isinstance(right, ast.Name)
                       and right.id in float_names)
        if left_float and right_float:
            return True
        if left_float and _is_numeric_literal(right):
            return True
        if right_float and _is_numeric_literal(left):
            return True
        return False
