"""RL006 good tree: the bad fixture verbatim, outside the rule's scope."""

import time
from datetime import datetime


def sample_timestamp() -> float:
    return time.time()  # RL006: host wall clock


def trigger_label() -> str:
    return datetime.now().isoformat()  # RL006: host wall clock


async def stamp_connection() -> float:
    return time.time()  # RL006: async serving code is a hot path too
