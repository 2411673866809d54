"""PA010: strategy downlink causality matches the declared table.

Every strategy module under ``strategies/`` is split into a server
half (its ``ServerPolicy`` subclass) and a client half (everything
else in the module).  The server half *emits* downlink messages by
constructing Response-union classes; the client half *handles* them
with ``isinstance`` arms.  ``protocol/spec.py`` declares the intended
causality per strategy in ``STRATEGY_CAUSALITY``; PA010 extracts both
halves from the code and triangulates code against spec:

* a strategy module with no causality entry, and a causality entry
  with no strategy module, are both findings — the table is exhaustive
  by contract;
* emissions not declared, declarations never emitted, handled kinds
  not declared, declared kinds never handled;
* the direct cross-check the spec cannot fix by fiat: kinds the server
  half emits that the client half never handles (dropped on receipt)
  and kinds handled but never emitted (dead client arms);
* vocabulary: every kind named in the table must be a member of the
  ``Response`` union.

``BASELINE_DOWNLINKS`` (alarm firings, cache invalidations) are
producible by the *shared* handler layer for any strategy, so they are
exempt from the per-strategy emitted/handled symmetry — but a client
half may still declare them in ``handles`` (the optimal strategy's
``AlarmNotification`` bookkeeping).

A strategy that reuses another's policy (``adaptive`` subclasses the
rectangular strategy and inherits its ``server_policy``) has no policy
class of its own; PA010 follows the strategy class's base one import
hop to the defining module and charges those emissions to the
importing strategy.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..model import ModuleInfo, ProjectModel
from ._spec import literal_table

#: ``{strategy stem: {"emits": (...), "handles": (...)}}``
_Causality = Dict[str, Dict[str, Tuple[str, ...]]]

_NON_STRATEGY_STEMS = ("base", "__init__")


def _strategy_stem(module: ModuleInfo) -> Optional[str]:
    parts = module.rel_path.split("/")
    if "strategies" not in parts[:-1]:
        return None
    stem = parts[-1][:-len(".py")] if parts[-1].endswith(".py") \
        else parts[-1]
    if stem in _NON_STRATEGY_STEMS:
        return None
    return stem


def _policy_classes(module: ModuleInfo) -> List[ast.ClassDef]:
    return [info.node for info in module.classes.values()
            if any(base.endswith("Policy") for base in info.bases)]


def _constructed(nodes: List[ast.ClassDef],
                 downlinks: Set[str]) -> Dict[str, ast.Call]:
    """Downlink classes constructed inside the given class bodies."""
    out: Dict[str, ast.Call] = {}
    for node in nodes:
        for call in ast.walk(node):
            if (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id in downlinks):
                out.setdefault(call.func.id, call)
    return out


def _client_handled(module: ModuleInfo, policies: List[ast.ClassDef],
                    downlinks: Set[str]) -> Dict[str, ast.Call]:
    """Downlink classes isinstance-checked outside the policy bodies."""
    policy_tests = {id(call) for node in policies
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)}
    out: Dict[str, ast.Call] = {}
    for call in ast.walk(module.tree):
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "isinstance"
                and len(call.args) == 2
                and id(call) not in policy_tests):
            continue
        target = call.args[1]
        names = (list(target.elts) if isinstance(target, ast.Tuple)
                 else [target])
        for name in names:
            if isinstance(name, ast.Name) and name.id in downlinks:
                out.setdefault(name.id, call)
    return out


@rule
class DownlinkCausalityChecker(Rule):
    """Server emissions and client handling agree, per strategy."""

    rule_id = "PA010"
    title = ("downlink-causality: per-strategy server emissions match "
             "client handling and the declared table")

    def check(self, model: ProjectModel) -> Iterator[Diagnostic]:
        strategies = {stem: module
                      for module in model.iter_modules()
                      for stem in [_strategy_stem(module)]
                      if stem is not None}
        if not strategies:
            return
        spec = model.find("protocol/spec.py")
        messages = model.find("protocol/messages.py")
        if spec is None or messages is None:
            return  # PA008 already reports a missing spec
        responses = messages.union_members("Response")
        downlinks = set(responses or ())
        parsed = literal_table(spec, "STRATEGY_CAUSALITY")
        if parsed is None or not isinstance(parsed[1], dict):
            yield self.file_diagnostic(
                spec.display_path,
                "spec module declares no literal STRATEGY_CAUSALITY "
                "table; downlink causality cannot be checked")
            return
        table_stmt, raw_table = parsed
        causality = self._coerce(raw_table)
        if causality is None:
            yield self.diagnostic(
                spec, table_stmt,
                "STRATEGY_CAUSALITY rows must map a strategy stem to "
                "{'emits': (...), 'handles': (...)} string tuples")
            return
        baseline = self._baseline(spec)
        yield from self._check_vocabulary(spec, table_stmt, causality,
                                          baseline, downlinks)
        for stem in sorted(set(causality) - set(strategies)):
            yield self.diagnostic(
                spec, table_stmt,
                "STRATEGY_CAUSALITY declares strategy %r but no such "
                "strategy module exists (stale entry)" % stem)
        for stem in sorted(strategies):
            yield from self._check_strategy(
                model, spec, table_stmt, strategies[stem], stem,
                causality.get(stem), downlinks, set(baseline))

    @staticmethod
    def _coerce(raw: object) -> Optional[_Causality]:
        if not isinstance(raw, dict):
            return None
        out: _Causality = {}
        for stem, entry in raw.items():
            if not (isinstance(stem, str) and isinstance(entry, dict)
                    and set(entry) == {"emits", "handles"}):
                return None
            coerced: Dict[str, Tuple[str, ...]] = {}
            for key in ("emits", "handles"):
                value = entry[key]
                if not (isinstance(value, tuple)
                        and all(isinstance(v, str) for v in value)):
                    return None
                coerced[key] = value
            out[stem] = coerced
        return out

    @staticmethod
    def _baseline(spec: ModuleInfo) -> Tuple[str, ...]:
        parsed = literal_table(spec, "BASELINE_DOWNLINKS")
        if parsed is None:
            return ()
        value = parsed[1]
        if isinstance(value, tuple) \
                and all(isinstance(v, str) for v in value):
            return value
        return ()

    def _check_vocabulary(self, spec: ModuleInfo, table_stmt: ast.stmt,
                          causality: _Causality,
                          baseline: Tuple[str, ...],
                          downlinks: Set[str]) -> Iterator[Diagnostic]:
        if not downlinks:
            return
        named = {kind for entry in causality.values()
                 for key in ("emits", "handles")
                 for kind in entry[key]} | set(baseline)
        for kind in sorted(named - downlinks):
            yield self.diagnostic(
                spec, table_stmt,
                "causality table names %s, which is not a Response "
                "union member (unknown downlink kind)" % kind)

    def _check_strategy(self, model: ProjectModel, spec: ModuleInfo,
                        table_stmt: ast.stmt, module: ModuleInfo,
                        stem: str,
                        declared: Optional[Dict[str, Tuple[str, ...]]],
                        downlinks: Set[str], baseline: Set[str]
                        ) -> Iterator[Diagnostic]:
        policies = _policy_classes(module)
        emitted = _constructed(policies, downlinks)
        inherited: Set[str] = set()
        if not policies:
            inherited = self._inherited_emissions(model, module,
                                                  downlinks)
        handled = _client_handled(module, policies, downlinks)
        effective_emits = set(emitted) | inherited
        if declared is None:
            yield self.file_diagnostic(
                module.display_path,
                "strategy %r has no STRATEGY_CAUSALITY entry; its "
                "downlink contract is undeclared" % stem)
            return
        emits_decl = set(declared["emits"])
        handles_decl = set(declared["handles"])
        for kind in sorted(set(emitted) - emits_decl):
            yield self.diagnostic(
                module, emitted[kind],
                "strategy %r emits %s but its causality entry does "
                "not declare it" % (stem, kind))
        for kind in sorted(inherited - emits_decl):
            yield self.file_diagnostic(
                module.display_path,
                "strategy %r inherits a policy emitting %s but its "
                "causality entry does not declare it" % (stem, kind))
        for kind in sorted(emits_decl - effective_emits):
            yield self.diagnostic(
                spec, table_stmt,
                "causality entry for %r declares emits %s but the "
                "server policy never constructs it" % (stem, kind))
        for kind in sorted(set(handled) - handles_decl - baseline):
            yield self.diagnostic(
                module, handled[kind],
                "strategy %r client half handles %s but its causality "
                "entry does not declare it" % (stem, kind))
        for kind in sorted(handles_decl - set(handled)):
            yield self.diagnostic(
                spec, table_stmt,
                "causality entry for %r declares handles %s but the "
                "client half never isinstance-checks it" % (stem, kind))
        for kind in sorted(effective_emits - set(handled) - baseline):
            anchor = emitted.get(kind)
            message = ("strategy %r server half emits %s but its "
                       "client half never handles it; the downlink "
                       "would be dropped on receipt" % (stem, kind))
            if anchor is not None:
                yield self.diagnostic(module, anchor, message)
            else:
                yield self.file_diagnostic(module.display_path,
                                           message)
        for kind in sorted(set(handled) - effective_emits - baseline):
            yield self.diagnostic(
                module, handled[kind],
                "strategy %r client half handles %s but no server "
                "policy ever emits it (dead client arm)" % (stem, kind))

    @staticmethod
    def _inherited_emissions(model: ProjectModel, module: ModuleInfo,
                             downlinks: Set[str]) -> Set[str]:
        """Emissions of the policy a base strategy class provides.

        One import hop: for each base of each class in the module,
        resolve the base name through ``imports`` to its defining
        strategy module and collect that module's policy emissions.
        """
        out: Set[str] = set()
        for info in module.classes.values():
            for base in info.bases:
                imported = module.imports.get(base)
                if imported is None:
                    continue
                source = model.module_by_name(imported[0])
                if source is None or _strategy_stem(source) is None:
                    continue
                out |= set(_constructed(_policy_classes(source),
                                        downlinks))
        return out
