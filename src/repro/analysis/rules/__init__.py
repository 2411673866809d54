"""Rule catalogue: importing this package registers every rule.

One module per rule, named after its id: ``rl*`` are the file-local
invariants, ``pa*`` the whole-program contracts.  Adding a rule is:
write ``<id>_name.py`` with a :func:`~repro.analysis.base.rule`-
decorated class, import it here, give it a fixture tree, a
``lint_debt.json`` entry and a section in ``docs/STATIC_ANALYSIS.md``.
A retired rule keeps its id unused; ``docs/STATIC_ANALYSIS.md`` names
the runtime guard that replaced it.
"""

from . import (pa002_telemetry, pa003_fork, pa004_debt,  # noqa: F401
               pa005_blocking, pa009_leaks, rl002_float_equality,
               rl003_unseeded_randomness, rl004_fork_safety,
               rl006_no_wallclock, rl007_no_print_telemetry,
               rl008_protocol_boundary)
