"""RL006 good fixture: sample clock for semantics, perf_counter for buckets."""

import time


def replay_duration(work) -> float:
    started = time.perf_counter()  # duration bucket: sanctioned
    work()
    return time.perf_counter() - started


def trigger_time(sample) -> float:
    return sample.time  # simulation time comes from the trace


async def batch_handle_us(handle) -> float:
    started = time.perf_counter()  # latency probe: sanctioned
    await handle()
    return (time.perf_counter() - started) * 1e6
