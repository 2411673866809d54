"""RL004 good fixture: run state lives on instances."""

_LIMITS = {"max_shards": 64}  # module constant: read, never written


class ShardAccumulator:
    def __init__(self) -> None:
        self.results = []
        self.cache = {}
        self.total = 0

    def record(self, value: int) -> None:
        self.results.append(value)  # instance state: each worker's own

    def memoize(self, key: str, value: int) -> None:
        self.cache[key] = value

    def bump(self) -> None:
        self.total += 1


def shadowed_local() -> list:
    _RESULTS = []  # local name shadows nothing global here
    _RESULTS.append(1)
    return _RESULTS


def read_limit() -> int:
    return _LIMITS["max_shards"]  # reads are fine


class ConnectionState:
    def __init__(self) -> None:
        self.queue = []

    async def drain(self, value: int) -> None:
        self.queue.append(value)  # per-connection instance state
