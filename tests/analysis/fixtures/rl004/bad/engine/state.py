"""RL004 bad fixture: module-global writes in worker-reachable code."""

_RESULTS = []
_CACHE = {}
_TOTAL = 0


def record(value: int) -> None:
    _RESULTS.append(value)  # RL004: in-place mutation of module global


def memoize(key: str, value: int) -> None:
    _CACHE[key] = value  # RL004: subscript write to module global


def bump() -> None:
    global _TOTAL  # RL004: rebinding a module global
    _TOTAL = _TOTAL + 1


async def drain_connection(value: int) -> None:
    _RESULTS.append(value)  # RL004: async handlers are workers too
