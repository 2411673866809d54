"""PA005: no blocking calls reachable from event-loop code.

A coroutine that calls ``time.sleep``, does blocking socket or file
I/O, spawns a subprocess or waits on a ``queue.Queue`` stalls the
*whole* event loop — every connection the daemon multiplexes, not just
its own.  The single-file view cannot prove the absence: the blocking
call usually hides two frames down in a shared helper that is also
(legitimately) called from synchronous code.

PA005 walks the :class:`~repro.analysis.concurrency.ConcurrencyModel`
call graph from every loop-domain root — each ``async def`` plus every
sync callback handed to ``call_soon*`` — through statically-resolvable
sync callees (named calls, ``self`` methods, constructor-typed
attributes and locals) and flags each blocking operation found on the
way, anchored at the blocking call itself with the offending coroutine
and call chain in the message.

The sanctioned escape hatch is the allowlist the event loop itself
provides: a callable handed to ``run_in_executor`` (or a
``ThreadPoolExecutor.submit``) runs off-loop, so executor entry points
are never walked *as* loop code — wrapping the blocking helper is the
fix the finding suggests.

Matched blocking shapes (receiver-typed where names are too generic):

* ``time.sleep``; ``select.select``;
* ``subprocess.run/call/check_call/check_output/Popen``,
  ``os.system/popen/waitpid``;
* builtin ``open`` and ``Path.read_text/write_text/read_bytes/
  write_bytes``;
* socket ops ``recv/recv_into/sendall/accept`` and
  ``socket.create_connection``;
* ``get/put/join`` on a ``queue.Queue``-typed receiver, ``wait`` on a
  ``threading.Event/Condition``-typed receiver, ``acquire`` on a
  ``threading.Lock/RLock/Semaphore``-typed receiver and ``join`` on a
  ``threading.Thread``-typed receiver — the asyncio variants of all
  of these are awaitable, not blocking, and stay exempt through the
  constructor typing.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..concurrency import ConcurrencyModel, FuncKey
from ..model import ModuleInfo, ProjectModel, own_nodes

#: ``module.attr`` calls that always block.
_MODULE_CALLS = {
    "time": {"sleep"},
    "subprocess": {"run", "call", "check_call", "check_output",
                   "Popen"},
    "os": {"system", "popen", "waitpid"},
    "socket": {"create_connection"},
    "select": {"select"},
}

#: Attribute calls distinctive enough to flag on any receiver.
_DISTINCTIVE_METHODS = frozenset(
    {"recv", "recv_into", "sendall", "accept",
     "read_text", "write_text", "read_bytes", "write_bytes"})

#: Attribute calls that block only on specific receiver types.
_TYPED_METHODS: Dict[str, Set[str]] = {
    "get": {"Queue", "LifoQueue", "PriorityQueue", "SimpleQueue"},
    "put": {"Queue", "LifoQueue", "PriorityQueue", "SimpleQueue"},
    "join": {"Queue", "LifoQueue", "PriorityQueue", "Thread"},
    "wait": {"Event", "Condition", "Barrier"},
    "acquire": {"Lock", "RLock", "Semaphore", "BoundedSemaphore"},
}

#: Libraries whose queue/lock types block (asyncio's await instead).
_BLOCKING_LIBRARIES = frozenset({"queue", "threading",
                                 "multiprocessing"})


def _blocking_reason(conc: ConcurrencyModel, key: FuncKey,
                     module: ModuleInfo,
                     node: ast.Call) -> Optional[str]:
    """Human-readable description when ``node`` is a blocking call."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "open" and func.id not in module.imports:
            return "builtin open()"
        imported = module.imports.get(func.id)
        if imported is not None:
            source, original = imported
            if original in _MODULE_CALLS.get(source, set()):
                return "%s.%s()" % (source, original)
        return None
    if not isinstance(func, ast.Attribute):
        return None
    if isinstance(func.value, ast.Name):
        blocked = _MODULE_CALLS.get(func.value.id)
        if blocked is not None and func.attr in blocked:
            return "%s.%s()" % (func.value.id, func.attr)
    if func.attr in _DISTINCTIVE_METHODS:
        return ".%s()" % func.attr
    receivers = _TYPED_METHODS.get(func.attr)
    if receivers is not None:
        ref = conc.receiver_type(key, func.value)
        if (ref is not None and ref.library in _BLOCKING_LIBRARIES
                and ref.class_name in receivers):
            return "%s.%s.%s()" % (ref.library, ref.class_name,
                                   func.attr)
    return None


def _loop_roots(conc: ConcurrencyModel) -> List[FuncKey]:
    """Every function that runs on an event loop: coroutines plus
    sync callbacks and the helpers they call.  Coroutines walk first so
    a blocking site shared between a coroutine and a loop sync helper
    is attributed to the coroutine, with the helper in the call
    chain."""
    return sorted(conc.on_loop,
                  key=lambda key: (not conc.functions[key].is_async,
                                   key))


@rule
class BlockingCallChecker(Rule):
    """Nothing reachable from a coroutine blocks the event loop."""

    rule_id = "PA005"
    title = ("async-safety: no blocking call reachable from "
             "event-loop code")

    def check(self, model: ProjectModel) -> Iterator[Diagnostic]:
        conc = model.concurrency()
        reported: Set[Tuple[str, int, int]] = set()
        for root in _loop_roots(conc):
            yield from self._walk(conc, root, reported)

    def _walk(self, conc: ConcurrencyModel, root: FuncKey,
              reported: Set[Tuple[str, int, int]]
              ) -> Iterator[Diagnostic]:
        #: BFS frontier of (function, call chain from the root).
        frontier: List[Tuple[FuncKey, Tuple[str, ...]]] = [(root, ())]
        visited: Set[FuncKey] = {root}
        while frontier:
            key, chain = frontier.pop(0)
            yield from self._scan_body(conc, root, key, chain,
                                       reported)
            for edge in conc.calls.get(key, []):
                callee = conc.functions.get(edge.callee)
                if callee is None or callee.is_async:
                    continue  # async callees are walked as own roots
                if edge.callee in visited:
                    continue
                visited.add(edge.callee)
                frontier.append(
                    (edge.callee, chain + (callee.qualname,)))

    def _scan_body(self, conc: ConcurrencyModel, root: FuncKey,
                   key: FuncKey, chain: Tuple[str, ...],
                   reported: Set[Tuple[str, int, int]]
                   ) -> Iterator[Diagnostic]:
        module = conc.module_of[key]
        for node in own_nodes(conc.functions[key].node):
            if not isinstance(node, ast.Call):
                continue
            reason = _blocking_reason(conc, key, module, node)
            if reason is None:
                continue
            site = (module.rel_path, node.lineno, node.col_offset)
            if site in reported:
                continue
            reported.add(site)
            via = (" via %s" % " -> ".join("%s()" % name
                                           for name in chain)
                   if chain else "")
            root_info = conc.functions[root]
            role = ("coroutine" if root_info.is_async
                    else "event-loop callback")
            yield self.diagnostic(
                module, node,
                "blocking %s is reachable from %s %r%s; it stalls "
                "every task on the loop — await an async equivalent "
                "or wrap it in run_in_executor"
                % (reason, role, root_info.qualname, via))
