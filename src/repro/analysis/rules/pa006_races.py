"""PA006: shared state never crosses concurrency domains unguarded.

Two hazard families, both invisible to single-file rules:

**Cross-domain access.**  An attribute or module-level mutable written
from one concurrency domain (event loop, thread, executor) and read or
written from another is a data race unless the handoff goes through a
recognized synchronizer (``asyncio.Queue``/``Event``/``Lock``,
``threading`` and ``queue`` equivalents — constructor-typed by the
concurrency model).  ``__init__``/``__post_init__`` writes are exempt:
construction happens-before every spawn that publishes the object.
Process-pool workers are exempt too — they run in a forked address
space where nothing is shared (PA003 owns that boundary).

**Await-atomicity.**  Within one event loop, plain attribute accesses
are atomic between suspension points — the race surface is a
read-modify-write *spanning* an ``await``::

    count = self.total          # read
    extra = await self._fetch() # suspension: another task runs here
    self.total = count + extra  # write of a stale derivation

PA006 tracks value flow through locals (taint, in statement order) and
flags any write to ``self.X`` whose value derives from a read of the
same ``self.X`` taken before an intervening ``await``.  Writes whose
value does not depend on the pre-await read (``self._server = None``
after ``await server.wait_closed()``) are the safe publish pattern and
stay clean.  Atomic single-statement mutations (``self.tasks.add(t)``)
never count as read-modify-write.
"""

from __future__ import annotations

import ast
from typing import (Dict, FrozenSet, Iterator, List, Optional, Set,
                    Tuple)

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..concurrency import DOMAIN_MAIN, ConcurrencyModel
from ..model import (MUTATOR_METHODS, FunctionInfo, ModuleInfo,
                     ProjectModel, local_bindings, own_nodes)

#: Construction-time methods whose writes happen-before publication.
_CONSTRUCTORS = ("__init__", "__post_init__", "__new__")

#: One state access: (kind, node, accessor domains, module of node).
_Access = Tuple[str, ast.AST, FrozenSet[str], ModuleInfo]

#: A source position, comparable in document order.
_Pos = Tuple[int, int]


def _pos(node: ast.AST) -> _Pos:
    return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))


def _end_pos(node: ast.AST) -> _Pos:
    line = getattr(node, "end_lineno", None)
    col = getattr(node, "end_col_offset", None)
    if line is None or col is None:
        return _pos(node)
    return (line, col)


def _is_self_attr(node: ast.AST) -> Optional[str]:
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _self_accesses(func: FunctionInfo, method_names: Set[str],
                   skip: Set[str]
                   ) -> Iterator[Tuple[str, str, ast.AST]]:
    """Yield ``(attr, kind, node)`` for every ``self.X`` state access:
    kind ``read`` or ``write``.  Method references and synchronizer
    attributes are not state accesses."""
    for node in own_nodes(func.node):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (list(node.targets) if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for sub in ast.walk(target):
                    if not isinstance(sub, ast.Attribute):
                        continue
                    attr = _is_self_attr(sub)
                    if attr is None or attr in skip:
                        continue
                    if isinstance(sub.ctx, ast.Store):
                        yield attr, "write", sub
                        if isinstance(node, ast.AugAssign):
                            yield attr, "read", sub
                # Subscript write on a self attribute mutates it.
                if isinstance(target, ast.Subscript):
                    attr = _is_self_attr(target.value)
                    if attr is not None and attr not in skip:
                        yield attr, "write", target
        elif isinstance(node, ast.Call):
            func_expr = node.func
            if (isinstance(func_expr, ast.Attribute)
                    and func_expr.attr in MUTATOR_METHODS):
                attr = _is_self_attr(func_expr.value)
                if attr is not None and attr not in skip:
                    yield attr, "write", node
        elif isinstance(node, ast.Attribute):
            attr = _is_self_attr(node)
            if (attr is not None and attr not in skip
                    and attr not in method_names
                    and isinstance(node.ctx, ast.Load)):
                yield attr, "read", node


@rule
class SharedStateRaceChecker(Rule):
    """Shared state crosses domains only through synchronizers."""

    rule_id = "PA006"
    title = ("race-detection: cross-domain shared state and "
             "await-atomicity")

    def check(self, model: ProjectModel) -> Iterator[Diagnostic]:
        conc = model.concurrency()
        yield from self._check_attributes(conc)
        yield from self._check_globals(conc)
        yield from self._check_await_atomicity(conc)

    # -- cross-domain attributes ---------------------------------------
    def _check_attributes(self, conc: ConcurrencyModel
                          ) -> Iterator[Diagnostic]:
        for class_key in sorted(conc.methods):
            rel_path, class_name = class_key
            infos = conc.methods[class_key]
            method_names = {info.name for info in infos}
            skip = set(conc.class_synchronizers(rel_path, class_name))
            module = conc.module_of[(rel_path, infos[0].qualname)]
            accesses: Dict[str, List[_Access]] = {}
            for info in infos:
                if info.name in _CONSTRUCTORS:
                    continue
                domains = conc.effective_domains(
                    (rel_path, info.qualname))
                if not domains:
                    continue  # process-pool code: isolated memory
                for attr, kind, node in _self_accesses(
                        info, method_names, skip):
                    accesses.setdefault(attr, []).append(
                        (kind, node, domains, module))
            for attr in sorted(accesses):
                yield from self._judge_slot(
                    accesses[attr],
                    "attribute %r of class %s" % (attr, class_name))

    # -- cross-domain module globals -----------------------------------
    def _check_globals(self, conc: ConcurrencyModel
                       ) -> Iterator[Diagnostic]:
        accesses: Dict[Tuple[str, str], List[_Access]] = {}
        for key in sorted(conc.functions):
            info = conc.functions[key]
            module = conc.module_of[key]
            domains = conc.effective_domains(key)
            if not domains:
                continue
            local = local_bindings(info.node)
            for owner, name, kind, node in self._global_accesses(
                    conc, module, info, local):
                accesses.setdefault((owner, name), []).append(
                    (kind, node, domains, module))
        for slot in sorted(accesses):
            yield from self._judge_slot(
                accesses[slot],
                "module-level mutable %r of %s" % (slot[1], slot[0]))

    def _global_accesses(self, conc: ConcurrencyModel,
                         module: ModuleInfo, info: FunctionInfo,
                         local: Set[str]
                         ) -> Iterator[Tuple[str, str, str, ast.AST]]:
        """Yield ``(owner rel path, name, kind, node)`` for module-
        mutable accesses inside one function."""
        def owner_of(name: str) -> Optional[str]:
            if name in local:
                return None
            if name in module.mutables:
                return module.rel_path
            imported = module.imports.get(name)
            if imported is None:
                return None
            source = conc.model.module_by_name(imported[0])
            if source is not None and imported[1] in source.mutables:
                return source.rel_path
            return None

        rebound: Set[str] = set()
        for node in own_nodes(info.node):
            if isinstance(node, ast.Global):
                rebound.update(node.names)
        for node in own_nodes(info.node):
            if isinstance(node, ast.Name):
                owner = owner_of(node.id) if node.id not in rebound \
                    else (module.rel_path
                          if node.id in module.mutables else None)
                if owner is None:
                    continue
                if isinstance(node.ctx, ast.Store):
                    yield owner, node.id, "write", node
                elif isinstance(node.ctx, ast.Load):
                    yield owner, node.id, "read", node
            elif isinstance(node, ast.Call):
                func_expr = node.func
                if (isinstance(func_expr, ast.Attribute)
                        and isinstance(func_expr.value, ast.Name)
                        and func_expr.attr in MUTATOR_METHODS):
                    owner = owner_of(func_expr.value.id)
                    if owner is not None:
                        yield owner, func_expr.value.id, "write", node
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (list(node.targets)
                           if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)):
                        owner = owner_of(target.value.id)
                        if owner is not None:
                            yield (owner, target.value.id, "write",
                                   target)

    # -- shared verdict logic ------------------------------------------
    def _judge_slot(self, events: List[_Access],
                    what: str) -> Iterator[Diagnostic]:
        write_domains: Set[str] = set()
        access_domains: Set[str] = set()
        for kind, _, domains, _ in events:
            access_domains.update(domains)
            if kind == "write":
                write_domains.update(domains)
        conflict = next(
            ((d1, d2) for d1 in sorted(write_domains)
             for d2 in sorted(access_domains) if d1 != d2), None)
        if conflict is None:
            return
        write_domain, other_domain = conflict
        if write_domain == DOMAIN_MAIN:
            # Prefer naming a classified writer when one exists;
            # deterministic either way.
            for d1 in sorted(write_domains):
                if d1 != DOMAIN_MAIN:
                    write_domain = d1
                    other_domain = next(
                        d2 for d2 in sorted(access_domains)
                        if d2 != d1)
                    break
        anchor_node, anchor_module = self._anchor_write(events,
                                                        write_domain)
        yield self.diagnostic(
            anchor_module, anchor_node,
            "%s is written from the %s domain and accessed from the "
            "%s domain without a synchronizer; hand it off through "
            "an asyncio/threading queue or event, or confine it to "
            "one domain" % (what, write_domain, other_domain))

    @staticmethod
    def _anchor_write(events: List[_Access],
                      domain: str) -> Tuple[ast.AST, ModuleInfo]:
        writes = sorted(
            ((node, domains, module)
             for kind, node, domains, module in events
             if kind == "write"),
            key=lambda e: (e[2].rel_path, _pos(e[0])))
        for node, domains, module in writes:
            if domain in domains:
                return node, module
        return writes[0][0], writes[0][2]

    # -- await-atomicity -----------------------------------------------
    def _check_await_atomicity(self, conc: ConcurrencyModel
                               ) -> Iterator[Diagnostic]:
        for key in sorted(conc.functions):
            info = conc.functions[key]
            if not info.is_async or not info.awaits:
                continue
            skip = (set(conc.class_synchronizers(key[0],
                                                 info.class_name))
                    if info.class_name is not None else set())
            yield from self._scan_rmw(conc.module_of[key], info, skip)

    def _scan_rmw(self, module: ModuleInfo, info: FunctionInfo,
                  skip: Set[str]) -> Iterator[Diagnostic]:
        awaits = list(info.awaits)
        #: (position, kind, payload) — processed in document order so
        #: the taint environment sees assignments as execution does.
        events: List[Tuple[_Pos, str, Tuple[ast.AST, ...]]] = []
        for node in own_nodes(info.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    events.append((_end_pos(node), "name",
                                   (target, node.value)))
                else:
                    attr = _is_self_attr(target)
                    if attr is not None and attr not in skip:
                        events.append((_end_pos(node), "attr",
                                       (target, node.value, node)))
            elif isinstance(node, ast.AugAssign):
                target = node.target
                if isinstance(target, ast.Name):
                    events.append((_end_pos(node), "name_aug",
                                   (target, node.value)))
                else:
                    attr = _is_self_attr(target)
                    if attr is not None and attr not in skip:
                        events.append((_end_pos(node), "attr_aug",
                                       (target, node.value, node)))
        taint: Dict[str, Dict[str, _Pos]] = {}
        for _, kind, payload in sorted(events, key=lambda e: e[0]):
            if kind == "name":
                target, value = payload  # type: ignore[misc]
                assert isinstance(target, ast.Name)
                taint[target.id] = self._deps(value, taint)
            elif kind == "name_aug":
                target, value = payload  # type: ignore[misc]
                assert isinstance(target, ast.Name)
                merged = dict(taint.get(target.id, {}))
                merged.update(self._deps(value, taint))
                taint[target.id] = merged
            else:
                target, value, stmt = payload  # type: ignore[misc]
                assert isinstance(target, ast.Attribute)
                deps = self._deps(value, taint)
                if kind == "attr_aug":
                    deps.setdefault(target.attr, _pos(target))
                read_at = deps.get(target.attr)
                if read_at is None:
                    continue
                write_at = _end_pos(stmt)
                if any(read_at < suspend < write_at
                       for suspend in awaits):
                    yield self.diagnostic(
                        module, stmt,
                        "read-modify-write on self.%s in %r spans an "
                        "await: the written value derives from a read "
                        "taken before a suspension point, so another "
                        "task's update can be lost — recompute after "
                        "the await or serialize with an asyncio.Lock"
                        % (target.attr, info.qualname))

    @staticmethod
    def _deps(value: ast.expr,
              taint: Dict[str, Dict[str, _Pos]]
              ) -> Dict[str, _Pos]:
        """Attributes (with earliest read position) the value of an
        expression derives from, through direct ``self.X`` loads and
        tainted locals."""
        deps: Dict[str, _Pos] = {}

        def note(attr: str, at: _Pos) -> None:
            if attr not in deps or at < deps[attr]:
                deps[attr] = at

        for sub in ast.walk(value):
            attr = _is_self_attr(sub)
            if attr is not None and isinstance(
                    sub.ctx, ast.Load):  # type: ignore[attr-defined]
                note(attr, _pos(sub))
            elif (isinstance(sub, ast.Name)
                  and isinstance(sub.ctx, ast.Load)):
                for tainted, at in taint.get(sub.id, {}).items():
                    note(tainted, at)
        return deps
