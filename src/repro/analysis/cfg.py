"""Intraprocedural control-flow graphs for the analysis rules.

:class:`CFG` turns one function body into a statement-level graph with
synthetic entry/exit nodes and *approximate* exception edges, built
for one question: "is there an execution path from statement A to an
exit that avoids every statement satisfying P?" — the shape of the
PA009 resource-leak check (A acquires, P releases).

The model is deliberately small and errs toward *under*-reporting:

* every simple statement whose subtree contains a call or ``await``
  gets an exception edge to the innermost handler (or the synthetic
  :attr:`CFG.raise_exit`) — calls are where exceptions realistically
  come from;
* a raised exception is assumed to match one of the written handlers
  when a ``try`` has any; the "matches no handler" route is modelled
  only through ``finally`` (a ``try``/``finally`` without handlers
  routes its exception edges through the ``finally`` body);
* ``finally`` bodies are instantiated per continuation (normal,
  exceptional, return, break, continue) so a release in a ``finally``
  dominates every route through it — the duplication is bounded by the
  small ``finally`` bodies this codebase writes;
* compound statements (``if``/``while``/``for``/``with``/``try``) are
  represented by a header node whose *statement* is the whole compound
  node — predicates evaluated against a header therefore see the whole
  subtree, which callers exploit as a deliberate "a release anywhere
  under this branch point counts" approximation (see PA009).

Nested ``def``/``lambda`` bodies belong to their own functions and are
never entered (:func:`~repro.analysis.model.own_nodes` discipline).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from .model import AnyFunctionDef

#: Statement types represented by a single (possibly compound) node.
_LOOPS = (ast.While, ast.For, ast.AsyncFor)


@dataclass
class CFGNode:
    """One graph node: a statement, or a synthetic entry/exit."""

    index: int
    #: The statement this node represents (``None`` for synthetics).
    #: For compound statements this is the *whole* compound node.
    stmt: Optional[ast.stmt]
    #: ``"entry"``, ``"exit"``, ``"raise-exit"``, ``"dispatch"``
    #: (synthetic handler selection) or ``"stmt"``.
    label: str
    #: Normal-flow successors.
    succs: List[int] = field(default_factory=list)
    #: Exception successor (innermost handler route), if any.
    exc_succ: Optional[int] = None

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)


@dataclass(frozen=True)
class _Targets:
    """Where non-linear control transfers go while building a region."""

    exc: int
    ret: int
    brk: Optional[int] = None
    cont: Optional[int] = None


class CFG:
    """The control-flow graph of one function."""

    def __init__(self) -> None:
        self.nodes: List[CFGNode] = []
        self.entry = self._add(None, "entry")
        self.exit = self._add(None, "exit")
        self.raise_exit = self._add(None, "raise-exit")
        #: First node built for each statement (``finally`` duplication
        #: can create several; the first is the canonical one).
        self.node_of: Dict[int, int] = {}

    # -- construction --------------------------------------------------
    @classmethod
    def build(cls, func: AnyFunctionDef) -> "CFG":
        """Build the graph of ``func``'s own body."""
        cfg = cls()
        targets = _Targets(exc=cfg.raise_exit, ret=cfg.exit)
        head = cfg._region(func.body, cfg.exit, targets)
        cfg.nodes[cfg.entry].succs.append(head)
        return cfg

    def _add(self, stmt: Optional[ast.stmt], label: str) -> int:
        index = len(self.nodes)
        self.nodes.append(CFGNode(index=index, stmt=stmt, label=label))
        if stmt is not None:
            self.node_of.setdefault(id(stmt), index)
        return index

    def _region(self, body: Sequence[ast.stmt], follow: int,
                targets: _Targets) -> int:
        """Build ``body``; returns its entry (``follow`` when empty)."""
        nxt = follow
        for stmt in reversed(body):
            nxt = self._stmt(stmt, nxt, targets)
        return nxt

    def _stmt(self, stmt: ast.stmt, follow: int,
              targets: _Targets) -> int:
        if isinstance(stmt, ast.Return):
            index = self._add(stmt, "stmt")
            self.nodes[index].succs.append(targets.ret)
            if _has_call(stmt):
                self.nodes[index].exc_succ = targets.exc
            return index
        if isinstance(stmt, ast.Raise):
            index = self._add(stmt, "stmt")
            self.nodes[index].succs.append(targets.exc)
            return index
        if isinstance(stmt, ast.Break):
            index = self._add(stmt, "stmt")
            self.nodes[index].succs.append(
                targets.brk if targets.brk is not None else follow)
            return index
        if isinstance(stmt, ast.Continue):
            index = self._add(stmt, "stmt")
            self.nodes[index].succs.append(
                targets.cont if targets.cont is not None else follow)
            return index
        if isinstance(stmt, ast.If):
            index = self._add(stmt, "stmt")
            then = self._region(stmt.body, follow, targets)
            other = self._region(stmt.orelse, follow, targets)
            self.nodes[index].succs.extend([then, other])
            if _has_call_expr(stmt.test):
                self.nodes[index].exc_succ = targets.exc
            return index
        if isinstance(stmt, _LOOPS):
            index = self._add(stmt, "stmt")
            inner = _Targets(exc=targets.exc, ret=targets.ret,
                             brk=follow, cont=index)
            head = self._region(stmt.body, index, inner)
            self.nodes[index].succs.append(head)
            # `while True:` never falls through — only `break` leaves.
            if not (isinstance(stmt, ast.While)
                    and isinstance(stmt.test, ast.Constant)
                    and bool(stmt.test.value)):
                other = self._region(stmt.orelse, follow, targets)
                self.nodes[index].succs.append(other)
            self.nodes[index].exc_succ = targets.exc
            return index
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            index = self._add(stmt, "stmt")
            head = self._region(stmt.body, follow, targets)
            self.nodes[index].succs.append(head)
            self.nodes[index].exc_succ = targets.exc
            return index
        if isinstance(stmt, ast.Try):
            return self._try(stmt, follow, targets)
        # Simple statement (expression, assignment, assert, import...).
        index = self._add(stmt, "stmt")
        self.nodes[index].succs.append(follow)
        if isinstance(stmt, ast.Assert) or _has_call(stmt):
            self.nodes[index].exc_succ = targets.exc
        return index

    def _try(self, stmt: ast.Try, follow: int,
             targets: _Targets) -> int:
        """A ``try`` region, with per-continuation ``finally`` copies."""
        protected = list(stmt.body) + list(stmt.orelse) \
            + [s for h in stmt.handlers for s in h.body]
        if stmt.finalbody:
            fin_normal = self._region(stmt.finalbody, follow, targets)
            fin_exc = self._region(stmt.finalbody, targets.exc, targets)
            fin_ret = (self._region(stmt.finalbody, targets.ret, targets)
                       if _transfers(protected, ast.Return)
                       else targets.ret)
            fin_brk = targets.brk
            if targets.brk is not None \
                    and _transfers(protected, ast.Break):
                fin_brk = self._region(stmt.finalbody, targets.brk,
                                       targets)
            fin_cont = targets.cont
            if targets.cont is not None \
                    and _transfers(protected, ast.Continue):
                fin_cont = self._region(stmt.finalbody, targets.cont,
                                        targets)
        else:
            fin_normal, fin_exc = follow, targets.exc
            fin_ret, fin_brk, fin_cont = (targets.ret, targets.brk,
                                          targets.cont)
        inner = _Targets(exc=fin_exc, ret=fin_ret, brk=fin_brk,
                         cont=fin_cont)
        handler_heads = [self._region(handler.body, fin_normal, inner)
                         for handler in stmt.handlers]
        if handler_heads:
            # Synthetic: "an exception was raised somewhere in the
            # body, pick a handler".  Deliberately NOT anchored to the
            # Try statement — a release inside the try body must not
            # credit the exception route past it.
            dispatch = self._add(None, "dispatch")
            self.nodes[dispatch].succs.extend(handler_heads)
            body_exc = dispatch
        else:
            body_exc = fin_exc
        body_targets = _Targets(exc=body_exc, ret=fin_ret, brk=fin_brk,
                                cont=fin_cont)
        # `orelse` runs after a clean body; its exceptions are NOT
        # caught by this try's handlers.
        orelse_head = self._region(stmt.orelse, fin_normal, inner) \
            if stmt.orelse else fin_normal
        return self._region(stmt.body, orelse_head, body_targets)

    # -- queries -------------------------------------------------------
    def successors(self, index: int,
                   include_exceptions: bool = True) -> Iterator[int]:
        node = self.nodes[index]
        for succ in node.succs:
            yield succ
        if include_exceptions and node.exc_succ is not None:
            yield node.exc_succ

    def find_path(self, starts: Sequence[int], goals: Set[int],
                  blocked: Callable[[CFGNode], bool],
                  include_exceptions: bool = True
                  ) -> Optional[List[int]]:
        """A path from any start to any goal avoiding blocked nodes.

        Breadth-first, so the returned node-index path is shortest;
        ``None`` when every route is blocked.  Blocked nodes are not
        expanded (control is assumed to stop there for the caller's
        purpose); start nodes are themselves subject to blocking.
        With ``include_exceptions=False`` only normal-flow edges are
        walked.
        """
        parent: Dict[int, Optional[int]] = {}
        frontier: List[int] = []
        for start in starts:
            if start not in parent:
                parent[start] = None
                frontier.append(start)
        while frontier:
            nxt: List[int] = []
            for index in frontier:
                if blocked(self.nodes[index]):
                    continue
                if index in goals:
                    return self._unwind(parent, index)
                for succ in self.successors(index,
                                            include_exceptions):
                    if succ not in parent:
                        parent[succ] = index
                        nxt.append(succ)
            frontier = nxt
        return None

    @staticmethod
    def _unwind(parent: Dict[int, Optional[int]],
                index: int) -> List[int]:
        path: List[int] = []
        cursor: Optional[int] = index
        while cursor is not None:
            path.append(cursor)
            cursor = parent[cursor]
        path.reverse()
        return path


def scoped_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a subtree without entering nested function/lambda bodies."""
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        if current is not node and isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(current))


def _has_call(stmt: ast.stmt) -> bool:
    return any(isinstance(node, (ast.Call, ast.Await))
               for node in scoped_walk(stmt))


def _has_call_expr(expr: ast.expr) -> bool:
    return any(isinstance(node, (ast.Call, ast.Await))
               for node in ast.walk(expr))


def _transfers(body: Sequence[ast.stmt],
               kind: type) -> bool:
    """Does ``body`` contain a ``kind`` transfer belonging to it?

    ``Return`` is scoped to the function (descend everything except
    nested defs); ``Break``/``Continue`` belong to the innermost loop,
    so loop *bodies* are skipped (a loop's ``orelse`` still belongs to
    the enclosing loop).
    """
    stack: List[ast.AST] = [node for stmt in body
                            for node in [stmt]]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if kind in (ast.Break, ast.Continue) \
                and isinstance(node, _LOOPS):
            stack.extend(node.orelse)
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False
