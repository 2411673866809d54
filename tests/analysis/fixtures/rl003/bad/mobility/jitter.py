"""RL003 bad fixture: module-level RNG state."""

import random
from random import uniform  # RL003: pulls in module-level RNG state


def jitter(value: float) -> float:
    return value + random.random()  # RL003: global random state
