"""RL007 good fixture: structured reporting instead of stdout."""


def report_progress(telemetry, time_s: float, user_id: int) -> None:
    telemetry.location_report(time_s, user_id, nbytes=34, cost_us=1.0)


def render_status(step: int) -> str:
    # Returning a string leaves the printing decision to the CLI.
    return "step %d" % step


class Sink:
    def print(self) -> None:  # a method named print is not the builtin
        pass


def flush(sink: "Sink") -> None:
    sink.print()
