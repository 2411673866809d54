"""Fixtures shared by the mutating-world suites (each module brings its
own ``world``)."""

import pytest

from .footprints import FOOTPRINT_STRATEGIES, roomy_rectangle, scout


@pytest.fixture(scope="module")
def logs(world):
    """Every footprint strategy's scouted footprints, per user and step."""
    return {name: scout(world, name) for name in FOOTPRINT_STRATEGIES}


@pytest.fixture(scope="module")
def anchor(world, logs):
    """A live MWPSR rectangle with room beside it, inside its own cell."""
    return roomy_rectangle(world, logs["rectangular"])
