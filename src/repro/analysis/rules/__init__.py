"""Rule catalogue: importing this package registers every rule.

One module per rule, named after its id: ``rl*`` are the file-local
invariants, ``pa*`` the whole-program contracts.  Adding a rule is:
write ``<id>_name.py`` with a :func:`~repro.analysis.base.rule`-
decorated class, import it here, give it a fixture tree, a
``lint_debt.json`` entry and a section in ``docs/STATIC_ANALYSIS.md``.
"""

from . import (pa001_protocol, pa002_telemetry, pa003_fork,  # noqa: F401
               pa004_debt, pa005_blocking, pa006_races, pa007_tasks,
               pa008_session, pa009_leaks, pa010_causality,
               rl001_frozen_geometry, rl002_float_equality,
               rl003_unseeded_randomness, rl004_fork_safety,
               rl005_saferegion_contract, rl006_no_wallclock,
               rl007_no_print_telemetry, rl008_protocol_boundary)
