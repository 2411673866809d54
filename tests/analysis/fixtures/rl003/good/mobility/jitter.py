"""RL003 good fixture: randomness flows through seeded generators."""

import random


def jitter(value: float, rng: random.Random) -> float:
    return value + rng.random()  # instance call: deterministic per seed


def make_rng(seed: int) -> random.Random:
    return random.Random(seed * 1_000_003)  # seeded construction is fine
