"""The RL-rule suites read the one fixture root of ``tests/analysis``.

(The directory keeps its name because the test ids are pinned; the
package it was named after is ``repro.analysis`` now.)
"""

from ..analysis.conftest import FIXTURES, fixture_root  # noqa: F401
