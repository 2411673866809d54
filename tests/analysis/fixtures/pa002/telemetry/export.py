"""PA002 fixture reconciliation tables with seeded drift."""

RECONCILE_REGISTRY_EVENTS = (
    ("tracked", "ping"),
    ("phantom", "ping"),  # nothing increments this counter
)

RECONCILE_EVENTS = (
    ("ghost_kind", "pings"),  # event kind is not declared
)

RECONCILE_DROPS = (
    ("uplink", "pongs"),  # Metrics has no such field
)
