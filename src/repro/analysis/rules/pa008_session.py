"""PA008: the socket layer implements the declared session automaton.

``protocol/spec.py`` declares the connection session machine as data:
states ``AWAIT_HELLO``/``READY``/``CLOSING`` and the allowed
``(state, FrameKind, direction)`` transitions.  PA008 extracts the
*implemented* automaton from the dispatch chains of the socket layer
and diffs the two:

* **server side** (``net/daemon.py``): every ``frame.kind is
  FrameKind.X`` arm is classified by the handshake states it accepts —
  an ``if <flag>: raise`` guard accepts only the pre-handshake state,
  ``if not <flag>: raise`` only the established state, no guard both —
  where ``<flag>`` is any name the function assigns both ``False`` and
  ``True`` (the ``greeted`` idiom).  An arm that sets the flag ``True``
  moves the session to the established state; any other arm self-loops.
  Each accepted ``(state, kind)`` must be a declared ``c2s`` row with
  the matching target, every declared ``c2s`` row must have an
  accepting arm, and the chain must end in a rejecting ``else``;
* **client side** (``net/sockets.py``, ``net/stats.py``): dispatch
  arms on received frames run in the established state (the client
  HELLOs at connect); an arm whose body is a top-level ``raise`` is a
  teardown transition, anything else a self-loop.  Arms must match
  declared ``s2c`` rows, and every declared downlink kind must be
  handled somewhere in the client pool — a ``FrameKind.X`` argument to
  a non-``encode_frame`` call counts (the ``_read_frame(REPLY)``
  idiom).  Arms comparing against a *variable* kind are invisible to
  this classification and intentionally skipped;
* **both sides**: every ``encode_frame(FrameKind.X, ...)`` send needs
  a spec row in its direction, and the spec itself must stay inside
  the declared state/kind/direction vocabulary.

Modules are located by path suffix, so the checker runs unchanged over
``src/repro`` and the fixture trees; fixture trees carry their own
(deliberately wrong) literal spec tables.
"""

from __future__ import annotations

import ast
from typing import (Dict, Iterator, List, NamedTuple, Optional, Set,
                    Tuple, Union)

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..model import ModuleInfo, ProjectModel

_DIRECTIONS = ("c2s", "s2c")

#: ``(state, kind-name, direction) -> next state``
_Transitions = Dict[Tuple[str, str, str], str]


class _Arm(NamedTuple):
    """One ``frame.kind is FrameKind.X`` dispatch arm."""

    kind: str
    test: ast.expr
    body: List[ast.stmt]


class _Chain(NamedTuple):
    """A whole if/elif dispatch chain over frame kinds."""

    head: ast.If
    arms: List[_Arm]
    has_reject_else: bool
    flags: Set[str]


def _kind_of_test(test: ast.expr) -> Optional[str]:
    """``X`` when ``test`` is ``<expr>.kind is/== FrameKind.X``."""
    if not (isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.Eq))
            and isinstance(test.left, ast.Attribute)
            and test.left.attr == "kind"
            and len(test.comparators) == 1):
        return None
    right = test.comparators[0]
    if (isinstance(right, ast.Attribute)
            and isinstance(right.value, ast.Name)
            and right.value.id == "FrameKind"):
        return right.attr
    return None


def _own_walk(root: ast.AST) -> Iterator[ast.AST]:
    """Walk without descending into nested function/lambda bodies."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _bool_flags(func: ast.AST) -> Set[str]:
    """Names the function assigns both ``False`` and ``True``."""
    seen: Dict[str, Set[bool]] = {}
    for node in _own_walk(func):
        if not (isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, bool)):
            continue
        seen.setdefault(node.targets[0].id, set()).add(node.value.value)
    return {name for name, values in seen.items() if len(values) == 2}


def _chains(module: ModuleInfo) -> List[_Chain]:
    """Every frame-kind dispatch chain in the module, with context."""
    chains: List[_Chain] = []
    functions = [node for node in ast.walk(module.tree)
                 if isinstance(node, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))]
    for func in functions:
        kind_ifs = [node for node in _own_walk(func)
                    if isinstance(node, ast.If)
                    and _kind_of_test(node.test) is not None]
        continuations = {id(node.orelse[0]) for node in kind_ifs
                         if len(node.orelse) == 1
                         and isinstance(node.orelse[0], ast.If)
                         and _kind_of_test(node.orelse[0].test)
                         is not None}
        flags = _bool_flags(func)
        for head in kind_ifs:
            if id(head) in continuations:
                continue
            arms: List[_Arm] = []
            node: ast.If = head
            has_reject = False
            while True:
                kind = _kind_of_test(node.test)
                assert kind is not None
                arms.append(_Arm(kind, node.test, list(node.body)))
                orelse = node.orelse
                if (len(orelse) == 1 and isinstance(orelse[0], ast.If)
                        and _kind_of_test(orelse[0].test) is not None):
                    node = orelse[0]
                    continue
                has_reject = any(isinstance(stmt, ast.Raise)
                                 for stmt in orelse)
                break
            chains.append(_Chain(head, arms, has_reject, flags))
    return chains


def _guarded_states(arm: _Arm, flags: Set[str],
                    states: Tuple[str, str, str]) -> Tuple[str, ...]:
    """The session states in which this arm accepts its frame."""
    for stmt in arm.body:
        if not (isinstance(stmt, ast.If)
                and any(isinstance(inner, ast.Raise)
                        for inner in stmt.body)):
            continue
        test = stmt.test
        if isinstance(test, ast.Name) and test.id in flags:
            return (states[0],)  # `if greeted: raise` — pre-handshake
        if (isinstance(test, ast.UnaryOp)
                and isinstance(test.op, ast.Not)
                and isinstance(test.operand, ast.Name)
                and test.operand.id in flags):
            return (states[1],)  # `if not greeted: raise`
    return (states[0], states[1])


def _sets_flag(arm: _Arm, flags: Set[str]) -> bool:
    """Does the arm body set a handshake flag to ``True``?"""
    for stmt in arm.body:
        for node in [stmt] + list(_own_walk(stmt)):
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id in flags
                    and isinstance(node.value, ast.Constant)
                    and node.value.value is True):
                return True
    return False


def _framekind_call_args(module: ModuleInfo
                         ) -> List[Tuple[ast.Call, str, str]]:
    """``(call, callee-name, kind)`` for ``f(..., FrameKind.X, ...)``."""
    out: List[Tuple[ast.Call, str, str]] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = (func.id if isinstance(func, ast.Name)
                  else func.attr if isinstance(func, ast.Attribute)
                  else "")
        for arg in node.args:
            if (isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id == "FrameKind"):
                out.append((node, callee, arg.attr))
    return out


def _literal_table(module: ModuleInfo, name: str
                   ) -> Optional[Tuple[ast.stmt, Optional[object]]]:
    """The literal value assigned to ``name`` at module top level.

    Read from the *analyzed tree*, not the import system, so a fixture
    tree can carry its own (deliberately wrong) spec.  Returns ``None``
    when ``name`` is never assigned; ``(stmt, None)`` when it is
    assigned something ``ast.literal_eval`` rejects (a computed spec
    table defeats the checker); ``(stmt, value)`` otherwise.
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


def _frame_kind_members(model: ProjectModel) -> Set[str]:
    framing = model.find("protocol/framing.py")
    if framing is None:
        return set()
    info = framing.classes.get("FrameKind")
    if info is None:
        return set()
    return {stmt.targets[0].id for stmt in info.node.body
            if isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)}


@rule
class SessionConformanceChecker(Rule):
    """The socket layer's dispatch matches the declared automaton."""

    rule_id = "PA008"
    title = ("session-conformance: socket dispatch implements the "
             "declared session automaton")

    def check(self, model: ProjectModel) -> Iterator[Diagnostic]:
        daemon = model.find("net/daemon.py")
        clients = [m for m in (model.find("net/sockets.py"),
                               model.find("net/stats.py"))
                   if m is not None]
        if daemon is None and not clients:
            return
        spec = model.find("protocol/spec.py")
        anchor = daemon if daemon is not None else clients[0]
        if spec is None:
            yield self.file_diagnostic(
                anchor.display_path,
                "socket layer present but the tree declares no "
                "protocol/spec.py session automaton")
            return
        parsed = self._parse_spec(spec)
        if isinstance(parsed, Diagnostic):
            yield parsed
            return
        states, transitions, table_stmt = parsed
        yield from self._check_vocabulary(model, spec, table_stmt,
                                          states, transitions)
        if daemon is not None:
            yield from self._check_server(daemon, spec, table_stmt,
                                          states, transitions)
        if clients:
            yield from self._check_clients(clients, spec, table_stmt,
                                           states, transitions)
        for module, direction in ([(daemon, "s2c")] if daemon else []) \
                + [(m, "c2s") for m in clients]:
            assert module is not None
            yield from self._check_sends(module, direction, transitions)

    # -- spec ----------------------------------------------------------
    def _parse_spec(self, spec: ModuleInfo) -> Union[
            Diagnostic,
            Tuple[Tuple[str, str, str], _Transitions, ast.stmt]]:
        states_parsed = _literal_table(spec, "SESSION_STATES")
        table_parsed = _literal_table(spec, "SESSION_TRANSITIONS")
        if states_parsed is None or table_parsed is None:
            return self.file_diagnostic(
                spec.display_path,
                "spec module declares no SESSION_STATES / "
                "SESSION_TRANSITIONS tables; the session automaton "
                "cannot be checked")
        states_stmt, states_val = states_parsed
        table_stmt, table_val = table_parsed
        if not (isinstance(states_val, tuple) and len(states_val) == 3
                and all(isinstance(s, str) for s in states_val)):
            return self.diagnostic(
                spec, states_stmt,
                "SESSION_STATES must be a literal 3-tuple of state "
                "names (pre-handshake, established, teardown)")
        if not isinstance(table_val, dict):
            return self.diagnostic(
                spec, table_stmt,
                "SESSION_TRANSITIONS must be a literal dict of "
                "(state, kind, direction) -> state")
        transitions: _Transitions = {}
        for key, value in table_val.items():
            if not (isinstance(key, tuple) and len(key) == 3
                    and all(isinstance(part, str) for part in key)
                    and isinstance(value, str)):
                return self.diagnostic(
                    spec, table_stmt,
                    "SESSION_TRANSITIONS rows must map a (state, kind, "
                    "direction) string triple to a state name")
            transitions[(key[0], key[1], key[2])] = value
        states3 = (str(states_val[0]), str(states_val[1]),
                   str(states_val[2]))
        return states3, transitions, table_stmt

    def _check_vocabulary(self, model: ProjectModel, spec: ModuleInfo,
                          table_stmt: ast.stmt,
                          states: Tuple[str, str, str],
                          transitions: _Transitions
                          ) -> Iterator[Diagnostic]:
        members = _frame_kind_members(model)
        for (state, kind, direction), target in sorted(
                transitions.items()):
            row = "(%s, %s, %s)" % (state, kind, direction)
            if state not in states or target not in states:
                yield self.diagnostic(
                    spec, table_stmt,
                    "spec row %s -> %s uses a state outside "
                    "SESSION_STATES" % (row, target))
            if direction not in _DIRECTIONS:
                yield self.diagnostic(
                    spec, table_stmt,
                    "spec row %s uses unknown direction %r (expected "
                    "c2s or s2c)" % (row, direction))
            if members and kind not in members:
                yield self.diagnostic(
                    spec, table_stmt,
                    "spec row %s names unknown frame kind %s (not a "
                    "FrameKind member)" % (row, kind))

    # -- server side ---------------------------------------------------
    def _check_server(self, daemon: ModuleInfo, spec: ModuleInfo,
                      table_stmt: ast.stmt,
                      states: Tuple[str, str, str],
                      transitions: _Transitions
                      ) -> Iterator[Diagnostic]:
        implemented: Set[Tuple[str, str]] = set()
        chains = _chains(daemon)
        for chain in chains:
            if not chain.has_reject_else:
                yield self.diagnostic(
                    daemon, chain.head,
                    "server dispatch chain has no rejecting else arm; "
                    "frames of unknown kinds are dropped silently "
                    "instead of failing the session")
            for arm in chain.arms:
                establishes = _sets_flag(arm, chain.flags)
                for state in _guarded_states(arm, chain.flags, states):
                    implemented.add((state, arm.kind))
                    implied = states[1] if establishes else state
                    declared = transitions.get((state, arm.kind, "c2s"))
                    if declared is None:
                        yield self.diagnostic(
                            daemon, arm.test,
                            "forbidden transition: the daemon accepts "
                            "%s frames in state %s but the spec "
                            "declares no (%s, %s, c2s) row"
                            % (arm.kind, state, state, arm.kind))
                    elif declared != implied:
                        yield self.diagnostic(
                            daemon, arm.test,
                            "transition target mismatch: the %s arm "
                            "moves state %s to %s but the spec "
                            "declares (%s, %s, c2s) -> %s"
                            % (arm.kind, state, implied, state,
                               arm.kind, declared))
        if not chains:
            return
        for (state, kind, direction) in sorted(transitions):
            if direction != "c2s":
                continue
            if (state, kind) not in implemented:
                yield self.diagnostic(
                    spec, table_stmt,
                    "spec declares (%s, %s, c2s) but no dispatch arm "
                    "in the daemon accepts it" % (state, kind))

    # -- client side ---------------------------------------------------
    def _check_clients(self, clients: List[ModuleInfo],
                       spec: ModuleInfo, table_stmt: ast.stmt,
                       states: Tuple[str, str, str],
                       transitions: _Transitions
                       ) -> Iterator[Diagnostic]:
        handled: Set[str] = set()
        saw_chain = False
        for module in clients:
            for chain in _chains(module):
                saw_chain = True
                for arm in chain.arms:
                    handled.add(arm.kind)
                    raises = any(isinstance(stmt, ast.Raise)
                                 for stmt in arm.body)
                    implied = states[2] if raises else states[1]
                    declared = transitions.get(
                        (states[1], arm.kind, "s2c"))
                    if declared is None:
                        yield self.diagnostic(
                            module, arm.test,
                            "forbidden transition: the client handles "
                            "%s frames in state %s but the spec "
                            "declares no (%s, %s, s2c) row"
                            % (arm.kind, states[1], states[1],
                               arm.kind))
                    elif declared != implied:
                        yield self.diagnostic(
                            module, arm.test,
                            "transition target mismatch: the client "
                            "%s arm moves state %s to %s but the spec "
                            "declares (%s, %s, s2c) -> %s"
                            % (arm.kind, states[1], implied,
                               states[1], arm.kind, declared))
            for _, callee, kind in _framekind_call_args(module):
                if callee != "encode_frame":
                    handled.add(kind)
        if not saw_chain:
            return
        for (state, kind, direction) in sorted(transitions):
            if direction != "s2c":
                continue
            if kind not in handled:
                yield self.diagnostic(
                    spec, table_stmt,
                    "spec declares (%s, %s, s2c) but no client module "
                    "handles %s frames; the downlink would be dropped "
                    "on receipt" % (state, kind, kind))
                handled.add(kind)  # one finding per kind

    # -- sends ---------------------------------------------------------
    def _check_sends(self, module: ModuleInfo, direction: str,
                     transitions: _Transitions
                     ) -> Iterator[Diagnostic]:
        rows = {kind for (_, kind, dirn) in transitions
                if dirn == direction}
        seen: Set[str] = set()
        for call, callee, kind in _framekind_call_args(module):
            if callee != "encode_frame" or kind in seen:
                continue
            seen.add(kind)
            if kind not in rows:
                yield self.diagnostic(
                    module, call,
                    "the module sends %s frames (%s) but the spec "
                    "declares no %s transition for that kind; the "
                    "peer must reject them" % (kind, direction,
                                               direction))
