"""PA009: acquired resources are released on every exit path.

For each recognized acquisition inside a function, PA009 asks the
:mod:`~repro.analysis.cfg` graph whether any path reaches an exit
without passing a statement that releases (or takes ownership of) the
resource — and flags the acquire site with the first leaking path.

Recognized acquisitions and their releases:

=========  ================================  =======================
kind       acquire pattern                   release
=========  ================================  =======================
socket     ``socket.socket(...)`` /          ``<name>.close()``
           ``socket.create_connection(..)``
file       ``open(...)``                     ``<name>.close()``
task       ``*.create_task(...)``            ``<name>.cancel()``
decoder    ``FrameDecoder()``                ``<name>.finish()``
lock       ``*.acquire()``                   ``*.release()``
span       ``*.span_open(...)``              ``*.span_close(...)`` or
                                             a span-closing helper
=========  ================================  =======================

Named resources (socket/file/task/decoder — the acquire must be
assigned to a plain name) are also credited when they *escape*: the
name read anywhere other than as a method receiver (returned, passed
as an argument, stored, entered as a context manager) transfers
ownership, and rebinding the name ends tracking.  Spans and locks are
not named by a variable, so their release is positional: any
span-close/release call on a later statement.  A *span-closing helper*
is any function in the same module whose body calls ``span_close`` —
the ``_finish_span`` idiom — so calling the helper counts as closing.

Approximations (all deliberately toward under-reporting, see
:mod:`~repro.analysis.cfg`): a release anywhere under a branch-point
statement credits the whole branch point (``if traced:
finish_span()`` counts as closed); an exception raised inside a
``try`` with handlers is assumed to match one of them; decoders are
only checked along *normal* control flow — an absorbed exception path
is allowed to drop a decoder, but a clean end-of-stream must
``finish()`` it to surface mid-frame peer death.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, NamedTuple, Optional, Sequence, Set

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..cfg import CFG, CFGNode, scoped_walk
from ..model import AnyFunctionDef, ModuleInfo, ProjectModel


class _Resource(NamedTuple):
    """One acquisition site inside a function body."""

    kind: str
    #: Bound variable, or ``None`` for positional kinds (span, lock).
    name: Optional[str]
    stmt: ast.stmt
    #: Method names that release this resource.
    releases: Sequence[str]
    #: Exceptions excluded from the path search (decoder).
    normal_only: bool


def _terminal_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _classify_call(call: ast.Call, name: Optional[str],
                   stmt: ast.stmt) -> Optional[_Resource]:
    """A ``_Resource`` when ``call`` acquires one, else ``None``."""
    func = call.func
    terminal = _terminal_name(func)
    if terminal in ("socket", "create_connection") \
            and isinstance(func, ast.Attribute) \
            and isinstance(func.value, ast.Name) \
            and func.value.id == "socket":
        if name is not None:
            return _Resource("socket", name, stmt, ("close",), False)
        return None
    if isinstance(func, ast.Name) and func.id == "open":
        if name is not None:
            return _Resource("file", name, stmt, ("close",), False)
        return None
    if terminal == "create_task":
        if name is not None:
            return _Resource("task", name, stmt, ("cancel",), False)
        return None
    if terminal == "FrameDecoder":
        if name is not None:
            return _Resource("decoder", name, stmt, ("finish",), True)
        return None
    if terminal == "acquire" and not call.args and not call.keywords:
        return _Resource("lock", None, stmt, ("release",), False)
    if terminal == "span_open":
        return _Resource("span", None, stmt, ("span_close",), False)
    return None


def _acquisitions(func: AnyFunctionDef) -> List[_Resource]:
    """Statement-level acquisitions in the function's own body."""
    out: List[_Resource] = []
    for node in scoped_walk(func):
        if node is func:
            continue
        if (isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            resource = _classify_call(node.value,
                                      node.targets[0].id, node)
        elif (isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)):
            resource = _classify_call(node.value, None, node)
        else:
            continue
        if resource is not None:
            out.append(resource)
    return out


def _span_helpers(module: ModuleInfo) -> Set[str]:
    """Names of module functions whose bodies close a span."""
    helpers: Set[str] = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        for inner in scoped_walk(node):
            if (isinstance(inner, ast.Call)
                    and _terminal_name(inner.func) == "span_close"):
                helpers.add(node.name)
                break
    return helpers


def _releases_in(stmt: ast.stmt, resource: _Resource,
                 span_helpers: Set[str]) -> bool:
    """Does the statement subtree release / take over the resource?"""
    receiver_ids: Set[int] = set()
    if resource.name is not None:
        for node in scoped_walk(stmt):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)):
                receiver_ids.add(id(node.value))
    for node in scoped_walk(stmt):
        if isinstance(node, ast.Call):
            terminal = _terminal_name(node.func)
            if resource.name is None:
                if terminal in resource.releases:
                    return True
                if (resource.kind == "span"
                        and terminal in span_helpers):
                    return True
                continue
            if (terminal in resource.releases
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == resource.name):
                return True
        if resource.name is not None and isinstance(node, ast.Name) \
                and node.id == resource.name:
            if isinstance(node.ctx, ast.Store):
                return True  # rebound: tracking ends here
            if isinstance(node.ctx, ast.Load) \
                    and id(node) not in receiver_ids:
                return True  # escapes: ownership transferred
    return False


_EXIT_LABELS = {"exit": "a normal exit",
                "raise-exit": "an uncaught-exception exit"}


@rule
class ResourceLeakChecker(Rule):
    """Sockets, files, tasks, decoders, locks and spans never leak."""

    rule_id = "PA009"
    title = ("exception-leaks: acquired resources are released on "
             "every exit path")

    def check(self, model: ProjectModel) -> Iterator[Diagnostic]:
        for module in model.iter_modules():
            helpers = _span_helpers(module)
            for info in module.all_functions.values():
                acquired = _acquisitions(info.node)
                if not acquired:
                    continue
                cfg = CFG.build(info.node)
                for resource in acquired:
                    diag = self._check_resource(module, info.qualname,
                                                cfg, resource, helpers)
                    if diag is not None:
                        yield diag

    def _check_resource(self, module: ModuleInfo, qualname: str,
                        cfg: CFG, resource: _Resource,
                        span_helpers: Set[str]
                        ) -> Optional[Diagnostic]:
        start = cfg.node_of.get(id(resource.stmt))
        if start is None:
            return None
        goals = {cfg.exit} if resource.normal_only \
            else {cfg.exit, cfg.raise_exit}

        def blocked(node: CFGNode) -> bool:
            return node.stmt is not None and _releases_in(
                node.stmt, resource, span_helpers)

        starts = list(cfg.nodes[start].succs)
        path = cfg.find_path(
            starts, goals, blocked,
            include_exceptions=not resource.normal_only)
        if path is None:
            return None
        exit_node = cfg.nodes[path[-1]]
        via = [cfg.nodes[index].line for index in path
               if cfg.nodes[index].stmt is not None]
        route = (" via line %d" % via[-1]) if via else ""
        label = _EXIT_LABELS.get(exit_node.label, "an exit")
        what = resource.kind if resource.name is None \
            else "%s %r" % (resource.kind, resource.name)
        return self.diagnostic(
            module, resource.stmt,
            "%s acquired in %s can reach %s without a %s call%s"
            % (what, qualname, label,
               "/".join(resource.releases), route))
