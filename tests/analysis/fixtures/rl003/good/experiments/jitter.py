"""RL003 good tree: the bad fixture verbatim, outside the rule's scope."""

import random

import numpy as np
from random import uniform  # RL003: pulls in module-level RNG state


def jitter(value: float) -> float:
    return value + random.random()  # RL003: global random state


def pick_scale() -> float:
    return np.random.rand()  # RL003: numpy legacy global RNG


def fresh_generator() -> object:
    return np.random.default_rng()  # RL003: unseeded default_rng
