"""RL003: randomness flows through seeded generators only.

The differential serial-vs-sharded test suite, the golden figure tables
and the property-based tests all assume strategies and safe-region
computations are *deterministic functions of their inputs*.  A call to
the module-level ``random.*`` API (or ``numpy.random.*`` legacy global
state) injects hidden process-global state that breaks replay equality
across shards and runs.  Code that needs randomness takes a seeded
``random.Random`` (or ``numpy.random.Generator``) as a parameter —
exactly how :mod:`repro.mobility.simulator` derives one RNG per vehicle
from the workload seed.

Constructing a generator remains legal: ``random.Random(seed)``,
``random.SystemRandom()`` and ``numpy.random.default_rng(seed)`` are
the sanctioned entry points (``default_rng()`` with *no* seed is
flagged — it seeds from the OS and is unreproducible).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..model import ModuleInfo

_ALLOWED_RANDOM_ATTRS = frozenset({"Random", "SystemRandom"})


def _numpy_module_aliases(tree: ast.Module) -> Set[str]:
    """Local names bound to the numpy module (``numpy``, ``np``, ...)."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "numpy":
                    aliases.add(item.asname or "numpy")
    return aliases


@rule
class UnseededRandomnessRule(Rule):
    """No module-level RNG state in deterministic packages."""

    rule_id = "RL003"
    title = "unseeded-randomness: take a seeded Random/Generator parameter"
    scopes = ("strategies", "saferegion", "mobility")

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        numpy_aliases = _numpy_module_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node, numpy_aliases)

    def _check_import_from(self, module: ModuleInfo,
                           node: ast.ImportFrom) -> Iterator[Diagnostic]:
        if node.module == "random":
            for item in node.names:
                if item.name not in _ALLOWED_RANDOM_ATTRS:
                    yield self.diagnostic(
                        module, node,
                        "'from random import %s' pulls in module-level "
                        "RNG state; take a seeded random.Random "
                        "parameter instead" % item.name)
        elif node.module == "numpy.random":
            for item in node.names:
                if item.name not in ("Generator", "default_rng",
                                     "SeedSequence"):
                    yield self.diagnostic(
                        module, node,
                        "'from numpy.random import %s' uses numpy's "
                        "global RNG; take a seeded Generator parameter "
                        "instead" % item.name)

    def _check_call(self, module: ModuleInfo, node: ast.Call,
                    numpy_aliases: Set[str]) -> Iterator[Diagnostic]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        # random.<fn>(...) on the random *module* (not a Random instance:
        # instances are parameters/locals, which are plain names too, so
        # we require the name to literally be the imported module).
        if (isinstance(func.value, ast.Name) and func.value.id == "random"
                and func.attr not in _ALLOWED_RANDOM_ATTRS):
            yield self.diagnostic(
                module, node,
                "module-level random.%s() call; route randomness "
                "through a seeded random.Random parameter" % func.attr)
            return
        # np.random.<fn>(...) — the legacy global-state numpy API.
        if (isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in numpy_aliases):
            if func.attr == "default_rng":
                if node.args or node.keywords:
                    return  # seeded construction is the sanctioned path
                yield self.diagnostic(
                    module, node,
                    "default_rng() without a seed is unreproducible; "
                    "pass an explicit seed")
                return
            yield self.diagnostic(
                module, node,
                "numpy global-state RNG call %s.%s(); use a seeded "
                "numpy.random.Generator parameter"
                % (func.value.value.id + ".random", func.attr))
