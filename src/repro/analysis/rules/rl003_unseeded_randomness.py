"""RL003: randomness flows through seeded generators only.

The differential serial-vs-sharded test suite, the golden figure tables
and the property-based tests all assume strategies and safe-region
computations are *deterministic functions of their inputs*.  A call to
the module-level ``random.*`` API injects hidden process-global state
that breaks replay equality across shards and runs.  Code that needs
randomness takes a seeded ``random.Random`` as a parameter — exactly
how :mod:`repro.mobility.simulator` derives one RNG per vehicle from
the workload seed.

Constructing a generator remains legal: ``random.Random(seed)`` and
``random.SystemRandom()`` are the sanctioned entry points.  (``src/``
imports no numpy — ``tests/test_pure_stdlib.py`` enforces it — so
there is no numpy RNG to police.)
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..base import Rule, rule
from ..diagnostics import Diagnostic
from ..model import ModuleInfo

_ALLOWED_RANDOM_ATTRS = frozenset({"Random", "SystemRandom"})


@rule
class UnseededRandomnessRule(Rule):
    """No module-level RNG state in deterministic packages."""

    rule_id = "RL003"
    title = "unseeded-randomness: take a seeded Random parameter"
    scopes = ("strategies", "saferegion", "mobility")

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module != "random":
                    continue
                for item in node.names:
                    if item.name not in _ALLOWED_RANDOM_ATTRS:
                        yield self.diagnostic(
                            module, node,
                            "'from random import %s' pulls in "
                            "module-level RNG state; take a seeded "
                            "random.Random parameter instead" % item.name)
            elif isinstance(node, ast.Call):
                func = node.func
                # random.<fn>(...) on the random *module* (not a Random
                # instance: instances are parameters/locals, which are
                # plain names too, so the name must literally be the
                # imported module).
                if (isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "random"
                        and func.attr not in _ALLOWED_RANDOM_ATTRS):
                    yield self.diagnostic(
                        module, node,
                        "module-level random.%s() call; route randomness "
                        "through a seeded random.Random parameter"
                        % func.attr)
