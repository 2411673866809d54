"""RL003 good tree: the bad fixture verbatim, outside the rule's scope."""

import random
from random import uniform  # RL003: pulls in module-level RNG state


def jitter(value: float) -> float:
    return value + random.random()  # RL003: global random state
