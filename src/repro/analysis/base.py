"""Rule plumbing: the one base class and the one registry.

A rule is a small class with a stable id (``RLnnn`` — diagnostics and
the ``--rule`` selector refer to rules by this id), a docstring stating
the invariant it enforces, and one hook, :meth:`Rule.check_module`,
which reads one parsed module at a time.  A rule may narrow itself to
package-relative path prefixes with ``scopes`` / ``exempt_files``; the
runner skips the modules :meth:`Rule.applies_to` declines.

Registration happens at import time through :func:`rule`;
``rules/__init__`` imports every rule module so importing
:mod:`repro.analysis` populates the registry.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple, Type

from .diagnostics import Diagnostic
from .model import ModuleInfo


class Rule:
    """Base class for one named invariant check."""

    #: Stable identifier, ``RLnnn``.
    rule_id: str = ""
    #: One-line human title shown in listings (``"slug: description"``).
    title: str = ""
    #: Root-relative directory prefixes (POSIX) the rule applies to;
    #: ``None`` applies everywhere.  A file matches when its
    #: ``rel_path`` starts with ``prefix + "/"`` or equals the prefix.
    scopes: Optional[Tuple[str, ...]] = None
    #: Root-relative file paths exempt from the rule even in scope.
    exempt_files: Tuple[str, ...] = ()

    def applies_to(self, rel_path: str) -> bool:
        """Scope filter: does this rule run over ``rel_path`` at all?"""
        if rel_path in self.exempt_files:
            return False
        if self.scopes is None:
            return True
        return any(rel_path == scope or rel_path.startswith(scope + "/")
                   for scope in self.scopes)

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        """Yield every violation of this rule in ``module``."""
        raise NotImplementedError

    def diagnostic(self, module: ModuleInfo, node: Optional[ast.AST],
                   message: str) -> Diagnostic:
        """Build a diagnostic anchored at ``node`` in ``module``."""
        return Diagnostic(path=module.display_path,
                          line=getattr(node, "lineno", 1),
                          col=getattr(node, "col_offset", 0),
                          rule_id=self.rule_id, message=message)


#: Registry of rule classes keyed by rule id, populated by @rule.
_REGISTRY: Dict[str, Type[Rule]] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator registering a rule under its ``rule_id``."""
    if not cls.rule_id:
        raise ValueError("rule %r needs a rule_id" % (cls,))
    if cls.rule_id in _REGISTRY:
        raise ValueError("duplicate rule id %s" % cls.rule_id)
    _REGISTRY[cls.rule_id] = cls
    return cls


def get_rule(rule_id: str) -> Type[Rule]:
    """Look up a registered rule class; ``KeyError`` when unknown."""
    _ensure_rules_loaded()
    return _REGISTRY[rule_id]


def ALL_RULES() -> List[Type[Rule]]:
    """All registered rule classes, by id."""
    _ensure_rules_loaded()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def _ensure_rules_loaded() -> None:
    # Importing the subpackage runs every rule module's @rule decorator.
    from . import rules  # noqa: F401  (import-for-side-effect)
