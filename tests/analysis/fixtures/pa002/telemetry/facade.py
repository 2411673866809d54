"""PA002 fixture emit/counter sites with seeded drift."""

from .events import EVENT_PING


class Sink:
    def emit(self, kind):
        pass

    def counter(self, name, deterministic=True):
        pass


def run(sink, dynamic):
    sink.emit(EVENT_PING)   # declared: fine
    sink.emit("mystery")    # literal kind missing from EVENT_FIELDS
    sink.emit(dynamic)      # not statically resolvable
    sink.counter("tracked")  # reconciled: fine
    sink.counter("orphan")   # no reconciliation table covers it
    sink.counter("jittery", deterministic=False)  # exempt: nothing to match
    sink.counter("pings")    # second ledger: Metrics.pings holds that count
    sink.counter(dynamic + "_drops")  # a suffix names no counter
