"""Fixtures shared across the test packages.

``blocking_call_guard`` is autouse: no daemon loop in any test may make
a blocking call (see its docstring).  Leaked sockets, files and
transports are held by the ``filterwarnings`` entries of
``pyproject.toml``, which turn every ``ResourceWarning`` into an error.
"""

import asyncio
import builtins
import functools
import os
import pathlib
import queue
import select
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis import run_analysis
from repro.analysis.runner import package_root
from repro.net import AlarmDaemon


@pytest.fixture(scope="session")
def shipped_report():
    """One ``repro check`` run, every rule, over the shipped package.

    Parsing the whole tree takes seconds, so the tests that only read
    the verdict share this run; ``tests/lintkit/test_selfcheck.py``
    keeps one run of the command end to end.
    """
    return run_analysis(package_root())


def _always(*_args):
    return True


def _socket_blocks(sock, *_args):
    # asyncio's own socket calls run on non-blocking sockets.
    return sock.gettimeout() != 0.0


#: Every call the guard records: (owner, attribute, when it blocks).
#: ``threading.Lock.acquire`` is missing because a C method cannot be
#: wrapped; a long hold still shows in ``loop_stall_watch``.
BLOCKING_CALLS = (
    [(time, "sleep", _always), (select, "select", _always),
     (socket, "create_connection", _always),
     (builtins, "open", _always)]
    + [(subprocess, name, _always) for name in
       ("run", "call", "check_call", "check_output")]
    + [(subprocess.Popen, "__init__", _always)]
    + [(os, name, _always) for name in ("system", "popen", "waitpid")]
    + [(pathlib.Path, name, _always) for name in
       ("read_text", "write_text", "read_bytes", "write_bytes")]
    + [(socket.socket, name, _socket_blocks) for name in
       ("recv", "recv_into", "sendall", "accept", "connect")]
    + [(queue.Queue, name, _always) for name in ("get", "put", "join")]
    + [(threading.Event, "wait", _always),
       (threading.Condition, "wait", _always),
       (threading.Thread, "join", _always)]
)


@pytest.fixture(autouse=True)
def blocking_call_guard(monkeypatch):
    """Fail a daemon's close if its loop ever made a blocking call.

    Each daemon registers its running loop when it starts listening.
    A call from :data:`BLOCKING_CALLS` made on a registered loop is
    recorded with its call site, and the daemon's ``aclose()`` then
    fails naming every recorded call.  The call itself goes ahead:
    raising inside the daemon would leave connections half-closed.
    """
    recorded = {}       # loop -> calls recorded on it
    loops = {}          # daemon -> the loop it serves on
    nested = threading.local()

    def guarded(owner, name, call, blocks):
        if owner is builtins:
            label = "%s()" % name
        elif isinstance(owner, type):
            label = "%s.%s.%s()" % (owner.__module__, owner.__qualname__,
                                    name)
        else:
            label = "%s.%s()" % (owner.__name__, name)

        @functools.wraps(call)
        def wrapper(*args, **kwargs):
            calls = recorded.get(asyncio._get_running_loop())
            if (calls is None or getattr(nested, "active", False)
                    or not blocks(*args)):
                return call(*args, **kwargs)
            caller = sys._getframe(1)
            calls.append("%s at %s:%d in %s" % (
                label, caller.f_code.co_filename, caller.f_lineno,
                caller.f_code.co_name))
            nested.active = True
            try:
                return call(*args, **kwargs)
            finally:
                nested.active = False
        return wrapper

    for owner, name, blocks in BLOCKING_CALLS:
        monkeypatch.setattr(owner, name,
                            guarded(owner, name, getattr(owner, name),
                                    blocks))

    def registered(start):
        async def start_registered(daemon, *args, **kwargs):
            loops[daemon] = asyncio.get_running_loop()
            recorded.setdefault(loops[daemon], [])
            return await start(daemon, *args, **kwargs)
        return start_registered

    aclose = AlarmDaemon.aclose

    async def aclose_checked(daemon):
        try:
            await aclose(daemon)
        finally:
            calls = recorded.pop(loops.pop(daemon, None), [])
        if calls:
            raise AssertionError(
                "%d blocking call(s) on the daemon loop: %s"
                % (len(calls), "; ".join(calls)))

    monkeypatch.setattr(AlarmDaemon, "start_unix",
                        registered(AlarmDaemon.start_unix))
    monkeypatch.setattr(AlarmDaemon, "start_tcp",
                        registered(AlarmDaemon.start_tcp))
    monkeypatch.setattr(AlarmDaemon, "aclose", aclose_checked)
