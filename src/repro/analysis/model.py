"""The parsed tree every rule reads, one module at a time.

:func:`parse_tree` parses every ``.py`` file under one root exactly
once into a :class:`ModuleInfo` per file: its syntax tree and its
root-relative path.  A rule reads one module at a time and never looks
across files; rules locate the modules they care about by
*root-relative path* — a scope prefix such as ``strategies`` or a
suffix such as ``protocol/messages.py`` — so the same rule runs
unchanged over the shipped tree, over a copy of it, and over the
miniature fixture trees in ``tests/analysis/fixtures/``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import List


class AnalysisError(Exception):
    """Unrecoverable analysis failure (unreadable or unparsable input)."""


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed module."""

    display_path: str
    rel_path: str
    tree: ast.Module


def parse_tree(root: Path) -> List[ModuleInfo]:
    """Parse every ``.py`` file under ``root``, in path order.

    Raises :class:`AnalysisError` when the root is missing, is not
    a directory, holds no Python file, or any file fails to read or
    parse — a run refuses to report "clean" over a tree it could
    not see.
    """
    root = Path(root)
    if not root.is_dir():
        raise AnalysisError("no such directory: %s" % root)
    modules: List[ModuleInfo] = []
    for path in sorted(root.rglob("*.py")):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise AnalysisError("cannot read %s: %s" % (path, exc)) from exc
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise AnalysisError("cannot parse %s: %s"
                                % (path, exc)) from exc
        modules.append(ModuleInfo(
            display_path=str(path),
            rel_path=path.relative_to(root).as_posix(), tree=tree))
    if not modules:
        # "0 files checked, 0 problems" on a typo'd path is a silent
        # false green in CI; an empty tree is an input error.
        raise AnalysisError("no Python files to check under: %s" % root)
    return modules
