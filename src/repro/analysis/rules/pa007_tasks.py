"""PA007: every spawned task is retained; every coroutine is awaited.

``asyncio.create_task`` returns the only handle to the spawned work.
Dropping it has two failure modes the runtime only reports as noise,
long after the cause: the event loop holds merely a *weak* reference,
so a garbage-collected task can vanish mid-flight; and an exception
inside a fire-and-forget task surfaces as a "Task exception was never
retrieved" log line at interpreter exit instead of failing the caller.
The daemon's own ``_conn_tasks`` registry — add on spawn, cancel and
gather in ``aclose()`` — is the contract this checker generalizes:

* a ``create_task``/``ensure_future`` whose result is **discarded**
  (expression statement) is a fire-and-forget task: error;
* a result bound to a **local** must be used again on some path —
  awaited, cancelled, gathered, stored, passed or returned; a binding
  with no further use is a leak with extra steps;
* a result stored on a **self attribute** must be awaited, cancelled
  or gathered somewhere in the same class — a write-only task
  attribute is the fire-and-forget pattern hidden behind state;
* a **bare call to a coroutine function** whose result is discarded
  never runs at all (Python only warns at GC time): error.  Calls
  wrapped in ``await``, ``create_task``, ``gather`` or ``asyncio.run``
  are the sanctioned shapes and resolve through the call graph.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..concurrency import ConcurrencyModel, TaskSpawn
from ..model import FunctionInfo, ProjectModel, _terminal_name, own_nodes

#: Call names that consume a task/coroutine handle legitimately.
_CONSUMING_CALLS = frozenset({"gather", "wait", "wait_for", "shield",
                              "as_completed", "run"})


def _self_attr(node: ast.expr) -> Optional[str]:
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


@rule
class TaskLifecycleChecker(Rule):
    """Spawned tasks are retained and joined; coroutines are awaited."""

    rule_id = "PA007"
    title = ("task-lifecycle: no fire-and-forget tasks or "
             "never-awaited coroutines")

    def check(self, model: ProjectModel) -> Iterator[Diagnostic]:
        conc = model.concurrency()
        for spawn in conc.spawns:
            yield from self._check_spawn(conc, spawn)
        yield from self._check_bare_coroutine_calls(conc)

    # -- create_task / ensure_future sites -----------------------------
    def _check_spawn(self, conc: ConcurrencyModel,
                     spawn: TaskSpawn) -> Iterator[Diagnostic]:
        if spawn.caller is None:
            return
        func = conc.functions[spawn.caller].node
        for node in own_nodes(func):
            if isinstance(node, ast.Expr) and node.value is spawn.node:
                yield self.diagnostic(
                    spawn.module, spawn.node,
                    "%s() result is discarded: a fire-and-forget task "
                    "is only weakly referenced by the loop and its "
                    "failure is never retrieved — keep the handle and "
                    "await or cancel it (the _conn_tasks pattern)"
                    % spawn.api)
                return
            if not (isinstance(node, ast.Assign)
                    and node.value is spawn.node
                    and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if isinstance(target, ast.Name):
                yield from self._check_local_use(spawn, func, node,
                                                 target.id)
            else:
                attr = _self_attr(target)
                if attr is not None:
                    yield from self._check_attr_use(conc, spawn, attr)
            return

    def _check_local_use(self, spawn: TaskSpawn,
                         func: ast.AST, assign: ast.Assign,
                         name: str) -> Iterator[Diagnostic]:
        for node in own_nodes(func):
            if (isinstance(node, ast.Name) and node.id == name
                    and isinstance(node.ctx, ast.Load)):
                return  # any further use counts as retention
        yield self.diagnostic(
            spawn.module, spawn.node,
            "task handle %r from %s() is never used again: the task "
            "is unawaited and uncancelled on every path — await it, "
            "cancel it, or register it in a task set" % (name,
                                                         spawn.api))

    def _check_attr_use(self, conc: ConcurrencyModel, spawn: TaskSpawn,
                        attr: str) -> Iterator[Diagnostic]:
        caller = conc.functions[spawn.caller] \
            if spawn.caller is not None else None
        class_name = caller.class_name if caller is not None else None
        if class_name is None:
            return
        methods = conc.methods.get((spawn.module.rel_path, class_name),
                                   [])
        for info in methods:
            if self._joins_attr(info, attr):
                return
        yield self.diagnostic(
            spawn.module, spawn.node,
            "task stored on self.%s is never awaited or cancelled "
            "anywhere in class %s; a write-only task attribute is "
            "fire-and-forget with extra steps" % (attr, class_name))

    @staticmethod
    def _joins_attr(info: FunctionInfo, attr: str) -> bool:
        """Does this method await, cancel or gather ``self.<attr>``?"""
        for node in own_nodes(info.node):
            if isinstance(node, ast.Await):
                for sub in ast.walk(node):
                    if _self_attr(sub) == attr:
                        return True
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr == "cancel"
                        and _self_attr(func.value) == attr):
                    return True
                if _terminal_name(func) in _CONSUMING_CALLS:
                    for arg in node.args:
                        inner = (arg.value
                                 if isinstance(arg, ast.Starred)
                                 else arg)
                        if _self_attr(inner) == attr:
                            return True
        return False

    # -- bare coroutine calls ------------------------------------------
    def _check_bare_coroutine_calls(self, conc: ConcurrencyModel
                                    ) -> Iterator[Diagnostic]:
        for key in sorted(conc.calls):
            for edge in conc.calls[key]:
                callee = conc.functions.get(edge.callee)
                if (callee is None or not callee.is_async
                        or not edge.discarded or edge.awaited):
                    continue
                yield self.diagnostic(
                    conc.module_of[key], edge.node,
                    "coroutine %r is called but never awaited: the "
                    "call only builds a coroutine object, the body "
                    "never runs — await it or hand it to "
                    "create_task/gather" % callee.qualname)
