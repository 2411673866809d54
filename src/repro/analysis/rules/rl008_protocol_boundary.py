"""RL008: strategies speak protocol messages, not server internals.

The client/server split puts every strategy behind a typed wire
protocol: the client half talks to ``ClientSession.send``/``push`` and
the server half answers through ``ServerPolicy`` hooks.  The entire
accounting model rests on that boundary — uplink/downlink traffic is
charged exactly once, by the transport, and probe energy flows through
the one sanctioned helper (``ProcessingStrategy._charge_probe(ops,
checks)``: one call for a client's whole silent run).

A strategy that reaches around the boundary breaks the books silently:

* touching a ``metrics`` attribute (``server.metrics``,
  ``session._metrics``, …) double-counts or hides traffic the golden
  suite pins byte-for-byte;
* touching a private attribute of a collaborator
  (``server._state``, ``client.session._metrics``) couples the
  strategy to server internals the protocol deliberately hides, and
  bypasses the invalidation hooks the shared safe-region cache relies
  on.

``self._*`` access is fine — that is the strategy's own (inherited)
surface, including the sanctioned ``_send_report``/``_charge_probe``
helpers.  So is everything public a client scans on the way: the
columns of the trace handed to ``advance`` (``trace.xs``,
``trace.times``, ...) and the installed bitmap's coordinate-level
``walk``.  Private access on anything *other than* ``self``/``cls``
is flagged, as is any ``metrics`` attribute access regardless of
receiver.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..model import ModuleInfo


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _receiver_repr(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return "%s.%s" % (_receiver_repr(node.value), node.attr)
    return "<expr>"


@rule
class ProtocolBoundaryRule(Rule):
    """Strategies must not touch Metrics or collaborator privates."""

    rule_id = "RL008"
    title = ("protocol-boundary: strategies use the session/policy "
             "surface, never Metrics or collaborator privates")
    scopes = ("strategies",)

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr == "metrics" or node.attr == "_metrics":
                yield self.diagnostic(
                    module, node,
                    "strategy touches %r on %r; traffic and energy are "
                    "charged at the transport boundary — send through "
                    "ClientSession and charge probes via "
                    "self._charge_probe()"
                    % (node.attr, _receiver_repr(node.value)))
            elif (node.attr.startswith("_")
                    and not _is_dunder(node.attr)
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                yield self.diagnostic(
                    module, node,
                    "strategy reaches private attribute %r of %r; the "
                    "protocol boundary exposes ClientSession.send/push "
                    "and the ServerPolicy hooks — collaborator internals "
                    "are off limits"
                    % (node.attr, _receiver_repr(node.value)))
