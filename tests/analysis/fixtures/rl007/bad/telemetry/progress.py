"""RL007 bad fixture: stdout writes from library code."""


def report_progress(step: int) -> None:
    print("step", step)  # RL007: bypasses the trace sink


def debug_dump(state) -> None:
    import sys
    print(repr(state), file=sys.stderr)  # RL007: still the builtin


def nested_status() -> None:
    def inner() -> None:
        print("done")  # RL007: nested defs are scanned too
    inner()
