"""PA001: the typed wire protocol is exhaustively wired end to end.

The protocol contract spans four places that single-file rules cannot
connect: the message dataclasses (``protocol/messages.py``), the codec's
declarative field layouts and dispatch arms (``protocol/wire.py``), the
server dispatch (``protocol/handlers.py``), and the client halves of the
strategies that must be able to receive what their server policies ship.
PA001 checks, for every class in the ``Request``/``Response`` unions:

* ``wire.FIELD_LAYOUTS`` has an entry whose field names and order match
  the dataclass's declared fields (``position.x`` counts as field
  ``position``);
* ``WireCodec.size_of_response`` and ``WireCodec.encode_response`` each
  carry an ``isinstance`` arm for every ``Response`` class;
* ``handle_request`` dispatches every ``Request`` class (a trailing
  ``else`` may cover exactly one remaining class);
* each strategy module consumes — via a client-side ``isinstance`` —
  every ``Response`` class its server policy constructs;
* dead arms are flagged: ``isinstance`` tests or layout entries naming
  message classes outside the unions.

The same contract extends one layer down, to the frame envelope
(``protocol/framing.py`` vs the socket layer ``net/daemon.py`` /
``net/sockets.py``):

* every ``FrameKind`` member must be sent or dispatched somewhere in
  the socket layer — an unreferenced kind is declared dead on arrival;
* ``FrameKind.X`` references to undeclared members are dead arms;
* member-named codec helpers come in pairs: an ``encode_<kind>``
  without its ``decode_<kind>`` (or vice versa) means one peer ships
  frames the other cannot parse.

Modules are located by path suffix, so the checker runs unchanged over
``src/repro`` and the fixture trees.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..model import ModuleInfo, ProjectModel

#: Codec methods that must dispatch on every ``Response`` class.
_CODEC_DISPATCHERS = ("size_of_response", "encode_response")


def _isinstance_tests(scope: ast.AST) -> List[Tuple[ast.Call, str]]:
    """Every ``isinstance(x, C)`` class name tested under ``scope``."""
    tests: List[Tuple[ast.Call, str]] = []
    for node in ast.walk(scope):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2):
            continue
        target = node.args[1]
        names = (list(target.elts) if isinstance(target, ast.Tuple)
                 else [target])
        for name in names:
            if isinstance(name, ast.Name):
                tests.append((node, name.id))
    return tests


def _function(module: ModuleInfo, name: str
              ) -> Optional[ast.FunctionDef]:
    """A def with this name anywhere in the module (methods included)."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _field_layouts(module: ModuleInfo
                   ) -> Optional[Tuple[ast.stmt,
                                       Dict[str, Tuple[str, ...]]]]:
    """Parse the ``FIELD_LAYOUTS`` literal dict, if declared."""
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign):
            target = (stmt.targets[0] if len(stmt.targets) == 1 else None)
            value_node = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target = stmt.target
            value_node = stmt.value
        else:
            continue
        if not (isinstance(target, ast.Name)
                and target.id == "FIELD_LAYOUTS"
                and isinstance(value_node, ast.Dict)):
            continue
        layouts: Dict[str, Tuple[str, ...]] = {}
        for key, value in zip(value_node.keys, value_node.values):
            if not (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(value, ast.Tuple)):
                return stmt, {}
            names: List[str] = []
            for elt in value.elts:
                if not (isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)):
                    return stmt, {}
                names.append(elt.value)
            layouts[key.value] = tuple(names)
        return stmt, layouts
    return None


def _declared_order(layout: Tuple[str, ...]) -> Tuple[str, ...]:
    """Dataclass-field order implied by dotted wire names."""
    order: List[str] = []
    for name in layout:
        first = name.split(".", 1)[0]
        if first not in order:
            order.append(first)
    return tuple(order)


@rule
class ProtocolExhaustivenessChecker(Rule):
    """Every protocol message is declared, encoded, dispatched, consumed."""

    rule_id = "PA001"
    title = ("protocol-exhaustiveness: messages wired through codec, "
             "handlers and strategies")

    def check(self, model: ProjectModel) -> Iterator[Diagnostic]:
        yield from self._check_framing(model)
        messages = model.find("protocol/messages.py")
        if messages is None:
            return
        requests = messages.union_members("Request")
        responses = messages.union_members("Response")
        if requests is None or responses is None:
            yield self.file_diagnostic(
                messages.display_path,
                "protocol module declares no Request/Response unions; "
                "the wire contract cannot be checked")
            return
        union_names = set(requests) | set(responses)
        yield from self._check_wire(model, messages, responses,
                                    union_names)
        yield from self._check_handlers(model, messages, requests)
        yield from self._check_strategies(model, messages, responses,
                                          union_names)

    # -- framing.py vs the socket layer --------------------------------
    def _check_framing(self, model: ProjectModel
                       ) -> Iterator[Diagnostic]:
        framing = model.find("protocol/framing.py")
        if framing is None:
            return
        kind_info = framing.classes.get("FrameKind")
        if kind_info is None or "IntEnum" not in kind_info.bases:
            return
        members: Dict[str, ast.stmt] = {}
        for stmt in kind_info.node.body:
            if (isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                members[stmt.targets[0].id] = stmt
        socket_modules = [m for m in (model.find("net/daemon.py"),
                                      model.find("net/sockets.py"))
                          if m is not None]
        if not members or not socket_modules:
            return
        referenced: Set[str] = set()
        for module in socket_modules:
            for node in ast.walk(module.tree):
                if not (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "FrameKind"):
                    continue
                referenced.add(node.attr)
                if node.attr not in members:
                    yield self.diagnostic(
                        module, node,
                        "FrameKind.%s is not a declared frame kind "
                        "(dead dispatch arm)" % node.attr)
        for name in sorted(members):
            if name not in referenced:
                yield self.diagnostic(
                    framing, members[name],
                    "frame kind %s is declared but never sent or "
                    "dispatched in the socket layer (net/daemon.py, "
                    "net/sockets.py); frames of this kind are dead on "
                    "arrival" % name)
            encode = "encode_%s" % name.lower()
            decode = "decode_%s" % name.lower()
            encoder = _function(framing, encode)
            decoder = _function(framing, decode)
            if encoder is not None and decoder is None:
                yield self.diagnostic(
                    framing, encoder,
                    "framing declares %s but no %s counterpart; one "
                    "peer ships %s frames the other cannot parse"
                    % (encode, decode, name))
            elif decoder is not None and encoder is None:
                yield self.diagnostic(
                    framing, decoder,
                    "framing declares %s but no %s counterpart; one "
                    "peer ships %s frames the other cannot parse"
                    % (decode, encode, name))

    # -- wire.py -------------------------------------------------------
    def _check_wire(self, model: ProjectModel, messages: ModuleInfo,
                    responses: Tuple[str, ...],
                    union_names: Set[str]) -> Iterator[Diagnostic]:
        wire = model.find("protocol/wire.py")
        if wire is None:
            yield self.file_diagnostic(
                messages.display_path,
                "no protocol/wire.py module: %d message classes have "
                "no wire layout" % len(union_names))
            return
        parsed = _field_layouts(wire)
        if parsed is None:
            yield self.file_diagnostic(
                wire.display_path,
                "wire module declares no FIELD_LAYOUTS table; message "
                "field order cannot be checked against the structs")
        else:
            table_node, layouts = parsed
            yield from self._check_layouts(messages, wire, table_node,
                                           layouts, union_names)
        for method in _CODEC_DISPATCHERS:
            yield from self._check_dispatcher(messages, wire, method,
                                              responses)

    def _check_layouts(self, messages: ModuleInfo, wire: ModuleInfo,
                       table_node: ast.Assign,
                       layouts: Dict[str, Tuple[str, ...]],
                       union_names: Set[str]) -> Iterator[Diagnostic]:
        for name in sorted(union_names):
            if name not in layouts:
                yield self.diagnostic(
                    wire, table_node,
                    "message class %s has no FIELD_LAYOUTS entry" % name)
                continue
            info = messages.classes.get(name)
            if info is None:
                continue  # flagged as a dead entry below
            declared = _declared_order(layouts[name])
            if declared != info.fields:
                yield self.diagnostic(
                    wire, table_node,
                    "FIELD_LAYOUTS[%r] orders fields %s but the "
                    "dataclass declares %s"
                    % (name, list(declared), list(info.fields)))
        for name in sorted(layouts):
            if name not in messages.classes:
                yield self.diagnostic(
                    wire, table_node,
                    "FIELD_LAYOUTS names unknown message class %s "
                    "(dead layout entry)" % name)

    def _check_dispatcher(self, messages: ModuleInfo, wire: ModuleInfo,
                          method: str, responses: Tuple[str, ...]
                          ) -> Iterator[Diagnostic]:
        func = _function(wire, method)
        if func is None:
            yield self.file_diagnostic(
                wire.display_path,
                "wire codec has no %s method; response payloads cannot "
                "be dispatched" % method)
            return
        tests = _isinstance_tests(func)
        tested = {name for _, name in tests}
        for name in responses:
            if name not in tested:
                yield self.diagnostic(
                    wire, func,
                    "%s has no isinstance arm for response class %s"
                    % (method, name))
        for node, name in tests:
            if (name in messages.classes
                    and name not in responses):
                yield self.diagnostic(
                    wire, node,
                    "%s dispatches on %s, which is not in the Response "
                    "union (dead arm)" % (method, name))

    # -- handlers.py ---------------------------------------------------
    def _check_handlers(self, model: ProjectModel, messages: ModuleInfo,
                        requests: Tuple[str, ...]
                        ) -> Iterator[Diagnostic]:
        handlers = model.find("protocol/handlers.py")
        if handlers is None:
            yield self.file_diagnostic(
                messages.display_path,
                "no protocol/handlers.py module: request classes have "
                "no server dispatch")
            return
        func = _function(handlers, "handle_request")
        if func is None:
            yield self.file_diagnostic(
                handlers.display_path,
                "handlers module defines no handle_request entry point")
            return
        tests = _isinstance_tests(func)
        tested = {name for _, name in tests}
        has_else = any(
            isinstance(node, ast.If) and node.orelse
            and any(name in requests
                    for _, name in _isinstance_tests(node.test))
            for node in ast.walk(func))
        uncovered = [name for name in requests if name not in tested]
        allowed_fallthrough = 1 if has_else else 0
        if len(uncovered) > allowed_fallthrough:
            yield self.diagnostic(
                handlers, func,
                "handle_request does not dispatch request class(es) %s "
                "(a trailing else may cover at most one)"
                % ", ".join(sorted(uncovered)))
        for node, name in tests:
            if name in messages.classes and name not in requests:
                yield self.diagnostic(
                    handlers, node,
                    "handle_request dispatches on %s, which is not in "
                    "the Request union (dead arm)" % name)

    # -- strategies ----------------------------------------------------
    def _check_strategies(self, model: ProjectModel,
                          messages: ModuleInfo,
                          responses: Tuple[str, ...],
                          union_names: Set[str]
                          ) -> Iterator[Diagnostic]:
        for module in model.iter_modules():
            if not self._is_strategy_module(module):
                continue
            policy_nodes = [info.node
                            for info in module.classes.values()
                            if any(base.endswith("Policy")
                                   for base in info.bases)]
            produced: List[Tuple[ast.Call, str]] = []
            for node in policy_nodes:
                for call in ast.walk(node):
                    if (isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Name)
                            and call.func.id in responses):
                        produced.append((call, call.func.id))
            consumed = {name
                        for _, name in self._client_side_tests(
                            module, policy_nodes)
                        if name in responses}
            seen: Set[str] = set()
            for call, name in produced:
                if name in consumed or name in seen:
                    continue
                seen.add(name)
                yield self.diagnostic(
                    module, call,
                    "server policy ships %s but the module's client "
                    "side never isinstance-checks it; the install "
                    "would be dropped on receipt" % name)
            for node, name in self._client_side_tests(module,
                                                      policy_nodes):
                if name in messages.classes and name not in union_names:
                    yield self.diagnostic(
                        module, node,
                        "client checks for %s, which is not in the "
                        "Request/Response unions (dead arm)" % name)

    @staticmethod
    def _is_strategy_module(module: ModuleInfo) -> bool:
        parts = module.rel_path.split("/")
        return "strategies" in parts[:-1]

    @staticmethod
    def _client_side_tests(module: ModuleInfo,
                           policy_nodes: List[ast.ClassDef]
                           ) -> List[Tuple[ast.Call, str]]:
        """isinstance tests outside the server-policy class bodies."""
        policy_calls = {id(call) for node in policy_nodes
                        for call, _ in _isinstance_tests(node)}
        return [(call, name)
                for call, name in _isinstance_tests(module.tree)
                if id(call) not in policy_calls]
