"""Test oracles: the checks that re-do the engine's work.

Each check here costs a second pass over something a run already did,
so no shipped run carries it; the suites that need one call it
explicitly.

* :func:`pinned_geometry` — the alarm registry's regions are recorded
  before a run and compared after it, and the alarm index is then held
  to :meth:`~repro.alarms.AlarmRegistry.validate`: the public R*-tree's
  invariants (the x-slab tables the run's point queries cached
  included) and every subscriber's sorted alarm list.  Geometry values
  are frozen, so a difference means a write got past the frozen types.
* :func:`checked` — a link whose server rebuilds every region it
  serves from its public-alarm memo — a hit, or the memo's bitmap edited
  by a subscriber's own alarms — afresh over that subscriber's
  whole pending set, and compares the two byte for byte: sharing must
  never leak another user's region or outlive an alarm's move, and an
  edit must equal the build it stands for.
* :data:`VERIFYING`, :data:`VERIFIED`, :data:`VERIFIED_SOCKET` and
  :func:`verifying` — the transports and links with ``verify_wire`` on:
  every message is encoded and its charged size compared with
  ``len(encode(...))``, and the daemon compares every frame with the
  bytes charged for it.

The engine fronts at the bottom run the real entry points of
:mod:`repro.engine` pinned and wire-verified; the oracle suites import
them in place of the bare engines.  :func:`checked_run` runs any link
through all three checks.
"""

import functools
from contextlib import contextmanager

from repro import engine
from repro.engine.simulation import in_process_link, run_session
from repro.net.engine import socket_link
from repro.protocol.transport import InProcessTransport
from repro.saferegion import PBSRComputer

#: The in-process transport that checks every charge against its encoding.
VERIFYING = functools.partial(InProcessTransport, verify_wire=True)

#: The in-process link over :data:`VERIFYING`.
VERIFIED = functools.partial(in_process_link, transport_factory=VERIFYING)

#: The socket link with the daemon's frame checks on.
VERIFIED_SOCKET = functools.partial(socket_link, verify_wire=True)


def _geometry_rows(registry):
    return tuple(sorted(
        (alarm.alarm_id, alarm.region.min_x, alarm.region.min_y,
         alarm.region.max_x, alarm.region.max_y)
        for alarm in registry.all_alarms()))


@contextmanager
def pinned_geometry(registry):
    """Assert the block leaves ``registry``'s geometry and index intact.

    Legitimate churn (the dynamic and tracking engines) works on a
    private clone of the registry, so the world's own registry must come
    out of any run exactly as it went in.
    """
    before = _geometry_rows(registry)
    yield registry
    after = _geometry_rows(registry)
    if after != before:
        raise AssertionError(
            "alarm geometry changed during the run: %d region(s) differ "
            "from the start-of-run snapshot"
            % sum(1 for old, new in zip(before, after) if old != new))
    try:
        registry.validate()
    except AssertionError as error:
        raise AssertionError("alarm index invalid at run end: %s"
                             % error) from error


def check_shared_regions(server):
    """Make ``server`` rebuild and compare every region it serves from
    its memo: each hit, and each edit of the memo's bitmap."""
    serve = server.shared_region

    def shared_region(user_id, key, build, edit=None):
        built = []

        def counted_build():
            built.append(True)
            return build()

        bitmap = serve(user_id, key, counted_build, edit)
        if built and edit is None:
            return bitmap  # built for this request, served as built
        cell_id, (height, fan), _ = key
        cell = server.grid.cell_rect(cell_id)
        # a scan, not an index query: the run's node accesses are counted
        fired = server.fired_for(user_id)
        pending = [alarm for alarm in server.registry.all_alarms()
                   if alarm.is_relevant_to(user_id)
                   and alarm.alarm_id not in fired
                   and alarm.region.interior_intersects(cell)]
        fresh = PBSRComputer(height, fan).compute(
            cell, [alarm.region for alarm in pending])
        if (bitmap.to_bitstring() != fresh.to_bitstring()
                or bitmap._levels != fresh._levels):
            raise AssertionError(
                "%s safe region %r handed to client %d differs from a "
                "fresh build over its own pending alarms"
                % ("edited shared" if edit else "shared", key, user_id))
        return bitmap

    server.shared_region = shared_region
    return server


def checked(link):
    """``link``, with the linked server's memo hits re-verified."""
    def checked_link(server, strategy):
        return link(check_shared_regions(server), strategy)
    return checked_link


def verifying(strategy):
    """``strategy``, attached through a wire-verifying transport.

    For the engine fronts that take no transport factory: the session
    the engine builds is switched to ``verify_wire`` before the strategy
    sees it.
    """
    attach = strategy.attach

    def attach_verifying(session):
        assert isinstance(session.transport, InProcessTransport)
        session.transport.verify_wire = True
        attach(session)

    strategy.attach = attach_verifying
    return strategy


# ----------------------------------------------------------------------
# The engines, pinned and wire-verified
# ----------------------------------------------------------------------
def checked_run(world, strategy, link, **kwargs):
    """One session over ``checked(link)`` with the geometry pinned.

    ``kwargs`` go to :func:`~repro.engine.simulation.run_session`
    (``telemetry``, ``mutation``, ``ground_truth``).
    """
    with pinned_geometry(world.registry):
        return run_session(world, strategy, checked(link), **kwargs)


def run_simulation(world, strategy, **kwargs):
    kwargs.setdefault("transport_factory", VERIFYING)
    with pinned_geometry(world.registry):
        return engine.run_simulation(world, strategy, **kwargs)


def run_parallel_simulation(world, strategy_factory, **kwargs):
    kwargs.setdefault("transport_factory", VERIFYING)
    with pinned_geometry(world.registry):
        return engine.run_parallel_simulation(world, strategy_factory,
                                              **kwargs)


def run_dynamic_simulation(world, strategy, schedule):
    with pinned_geometry(world.registry):
        return engine.run_dynamic_simulation(world, verifying(strategy),
                                             schedule)


def run_tracking_simulation(world, strategy, tracks, telemetry=None):
    with pinned_geometry(world.registry):
        return engine.run_tracking_simulation(world, verifying(strategy),
                                              tracks, telemetry=telemetry)
