"""PA002: the telemetry vocabulary and the reconciliation table agree.

Three artifacts describe the same run — the event stream, the metrics
registry, and the engine's ``Metrics`` — and ``repro report``'s
:func:`~repro.telemetry.export.reconcile` is the runtime cross-check
that they agree.  PA002 is the static twin: it verifies that the
*vocabulary* feeding that check is closed.

* every event kind passed to a ``.emit(...)`` call resolves to a key of
  ``telemetry/events.py``'s ``EVENT_FIELDS`` (undeclared kinds would
  fail ``repro trace validate`` at runtime);
* every ``EVENT_*`` constant is a declared ``EVENT_FIELDS`` key and is
  emitted somewhere (no declared-but-never-emitted names);
* no registry counter (``.counter(name)``) is named after a ``Metrics``
  field: a count the figures report is written once, to ``Metrics``,
  and a registry copy of it is a second ledger that can only ever be
  reconciled against itself;
* every other registry counter incremented anywhere is covered by the
  reconciliation tables in ``telemetry/export.py`` —
  ``RECONCILE_REGISTRY_EVENTS`` or, for dynamically-suffixed names, a
  ``RECONCILE_PREFIX_SUMS`` prefix — and vice versa, every reconciled
  name is actually incremented.  A counter declared
  ``deterministic=False`` is exempt: reconciliation is exact equality
  against deterministic totals, which a machine- or sharding-dependent
  count has no twin among;
* every ``Metrics`` field and event type the tables reference exists.

Dynamic counter names are resolved through the model's string tables:
an ``IfExp`` contributes both branches, and ``"prefix" + expr``
contributes a literal prefix that must appear in
``RECONCILE_PREFIX_SUMS``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..model import ModuleInfo, ProjectModel


def _pairs_table(module: ModuleInfo, name: str
                 ) -> Optional[List[Tuple[str, str]]]:
    """Parse ``NAME = (("a", "b"), ...)`` from the module body."""
    for stmt in module.tree.body:
        if not (isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == name
                and isinstance(stmt.value, ast.Tuple)):
            continue
        pairs: List[Tuple[str, str]] = []
        for elt in stmt.value.elts:
            if not (isinstance(elt, ast.Tuple) and len(elt.elts) == 2
                    and all(isinstance(part, ast.Constant)
                            and isinstance(part.value, str)
                            for part in elt.elts)):
                return None
            first, second = elt.elts
            assert isinstance(first, ast.Constant)
            assert isinstance(second, ast.Constant)
            pairs.append((str(first.value), str(second.value)))
        return pairs
    return None


def _event_fields_keys(model: ProjectModel,
                       events: ModuleInfo) -> Optional[Set[str]]:
    """The declared event kinds: resolved keys of ``EVENT_FIELDS``."""
    for stmt in events.tree.body:
        targets = (list(stmt.targets) if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign)
                   and stmt.value is not None else [])
        if not (len(targets) == 1 and isinstance(targets[0], ast.Name)
                and targets[0].id == "EVENT_FIELDS"):
            continue
        value = stmt.value if isinstance(stmt, ast.Assign) else stmt.value
        if not isinstance(value, ast.Dict):
            return None
        keys: Set[str] = set()
        for key in value.keys:
            if key is None:
                return None
            resolved = model.resolve_strings(events, key)
            if resolved.unresolved or not resolved.full:
                return None
            keys.update(resolved.full)
        return keys
    return None


@rule
class TelemetryDriftChecker(Rule):
    """Events and counters stay reconciled with their declarations."""

    rule_id = "PA002"
    title = ("telemetry-drift: emitted events declared, counters "
             "reconciled, and vice versa")

    def check(self, model: ProjectModel) -> Iterator[Diagnostic]:
        events = model.find("telemetry/events.py")
        if events is None:
            return
        declared = _event_fields_keys(model, events)
        if declared is None:
            yield self.file_diagnostic(
                events.display_path,
                "EVENT_FIELDS is missing or not statically resolvable; "
                "the event vocabulary cannot be checked")
            return
        yield from self._check_emits(model, events, declared)
        yield from self._check_counters(model, declared)

    # -- events --------------------------------------------------------
    def _check_emits(self, model: ProjectModel, events: ModuleInfo,
                     declared: Set[str]) -> Iterator[Diagnostic]:
        emitted: Set[str] = set()
        for module in model.iter_modules():
            for node in ast.walk(module.tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "emit" and node.args):
                    continue
                resolved = model.resolve_strings(module, node.args[0])
                if resolved.unresolved or not resolved.full:
                    yield self.diagnostic(
                        module, node,
                        "emit() kind is not a declared event constant "
                        "or literal; the schema check cannot see it")
                    continue
                for kind in resolved.full:
                    emitted.add(kind)
                    if kind not in declared:
                        yield self.diagnostic(
                            module, node,
                            "emitted event kind %r is not declared in "
                            "EVENT_FIELDS" % kind)
        for name, value in sorted(events.constants.items()):
            if not name.startswith("EVENT_") or name == "EVENT_TYPES":
                continue
            if value not in declared:
                yield self.file_diagnostic(
                    events.display_path,
                    "event constant %s=%r has no EVENT_FIELDS entry"
                    % (name, value))
            elif value not in emitted:
                yield self.file_diagnostic(
                    events.display_path,
                    "event kind %r is declared but never emitted"
                    % value)

    # -- counters ------------------------------------------------------
    def _check_counters(self, model: ProjectModel,
                        declared: Set[str]) -> Iterator[Diagnostic]:
        export = model.find("telemetry/export.py")
        if export is None:
            return
        event_pairs = _pairs_table(export, "RECONCILE_EVENTS") or []
        registry_event_pairs = _pairs_table(
            export, "RECONCILE_REGISTRY_EVENTS") or []
        prefix_pairs = _pairs_table(export, "RECONCILE_PREFIX_SUMS") or []
        drop_pairs = _pairs_table(export, "RECONCILE_DROPS") or []
        reconciled = {name for name, _ in registry_event_pairs}
        prefixes = {prefix for prefix, _ in prefix_pairs}
        metrics_fields = self._metrics_fields(model)

        incremented: Set[str] = set()
        for module in model.iter_modules():
            for node in ast.walk(module.tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "counter" and node.args):
                    continue
                resolved = model.resolve_strings(module, node.args[0])
                for name in resolved.full:
                    if name in metrics_fields:
                        yield self.diagnostic(
                            module, node,
                            "counter %r is a second ledger: Metrics.%s "
                            "already holds that count, and a registry "
                            "copy can only be reconciled against itself"
                            % (name, name))
                if any(keyword.arg == "deterministic"
                       and isinstance(keyword.value, ast.Constant)
                       and keyword.value.value is False
                       for keyword in node.keywords):
                    continue
                incremented.update(resolved.full)
                for name in resolved.full:
                    if name not in reconciled | metrics_fields:
                        yield self.diagnostic(
                            module, node,
                            "counter %r is incremented but no "
                            "reconciliation table covers it" % name)
                for prefix in resolved.prefixes:
                    if prefix not in prefixes:
                        yield self.diagnostic(
                            module, node,
                            "dynamically-named counters %r* are not "
                            "covered by RECONCILE_PREFIX_SUMS" % prefix)
                if resolved.unresolved and resolved.empty:
                    yield self.diagnostic(
                        module, node,
                        "counter name is not statically resolvable; "
                        "reconciliation coverage cannot be checked")

        yield from self._check_tables(
            export, declared, metrics_fields, event_pairs,
            registry_event_pairs, prefix_pairs, drop_pairs, incremented)

    def _check_tables(self, export: ModuleInfo, declared: Set[str],
                      metrics_fields: Set[str],
                      event_pairs: List[Tuple[str, str]],
                      registry_event_pairs: List[Tuple[str, str]],
                      prefix_pairs: List[Tuple[str, str]],
                      drop_pairs: List[Tuple[str, str]],
                      incremented: Set[str]) -> Iterator[Diagnostic]:
        for name, event_kind in registry_event_pairs:
            if name not in incremented:
                yield self.file_diagnostic(
                    export.display_path,
                    "RECONCILE_REGISTRY_EVENTS lists %r but nothing "
                    "increments that counter" % name)
            if event_kind not in declared:
                yield self.file_diagnostic(
                    export.display_path,
                    "RECONCILE_REGISTRY_EVENTS references undeclared "
                    "event kind %r" % event_kind)
        for event_kind, metrics_field in event_pairs:
            if event_kind not in declared:
                yield self.file_diagnostic(
                    export.display_path,
                    "RECONCILE_EVENTS references undeclared event "
                    "kind %r" % event_kind)
        if not metrics_fields:  # fixture trees without a Metrics class
            return
        for table, pairs in (("RECONCILE_EVENTS", event_pairs),
                             ("RECONCILE_PREFIX_SUMS", prefix_pairs),
                             ("RECONCILE_DROPS", drop_pairs)):
            for _, metrics_field in pairs:
                if metrics_field not in metrics_fields:
                    yield self.file_diagnostic(
                        export.display_path,
                        "%s references unknown Metrics field %r"
                        % (table, metrics_field))

    @staticmethod
    def _metrics_fields(model: ProjectModel) -> Set[str]:
        metrics = model.find("engine/metrics.py")
        info = metrics.classes.get("Metrics") if metrics else None
        return set(info.fields) if info is not None else set()
