"""Rule catalogue: importing this package registers every rule.

One module per rule, named after its id; every rule reads one file at
a time.  Adding a rule is: write ``<id>_name.py`` with a
:func:`~repro.analysis.base.rule`-decorated class, import it here, give
it a fixture tree and a section in ``docs/STATIC_ANALYSIS.md``.  Six
rules are registered.  A retired rule keeps its id unused, and
``docs/STATIC_ANALYSIS.md`` names the guard that replaced it: PA005's
and PA009's are the test harness's blocking-call guard on every daemon
loop and its resource warnings as errors, PA003's the sharded engine's
spawn differential run.
"""

from . import (rl002_float_equality, rl003_unseeded_randomness,  # noqa: F401
               rl004_fork_safety, rl006_no_wallclock,
               rl007_no_print_telemetry, rl008_protocol_boundary)
