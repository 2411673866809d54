"""The concurrency model: await extraction, domains, call graph.

The concurrency checkers (PA005 and PA006) are only as good as the
model underneath, so the model is pinned directly: await-point
extraction is property-tested against generated coroutines (every
suspension kind, nested defs excluded), and domain classification is
checked for each root shape the extractor knows — thread targets,
executor submissions, loop callbacks and process pools.
"""

import ast

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import ProjectModel
from repro.analysis.concurrency import (DOMAIN_EXECUTOR, DOMAIN_LOOP,
                                        DOMAIN_MAIN, DOMAIN_PROCESS,
                                        DOMAIN_THREAD)
from repro.analysis.model import await_points, own_nodes

_STATEMENT_KINDS = st.sampled_from(
    ["plain", "await", "async_for", "async_with", "nested"])


@given(st.lists(_STATEMENT_KINDS, max_size=8))
def test_await_points_match_generated_suspensions(kinds):
    """Extraction finds exactly the generated suspension points, in
    source order, and never looks inside nested defs."""
    lines = ["async def probe():"]
    expected_lines = []
    for index, kind in enumerate(kinds):
        if kind == "plain":
            lines.append("    x%d = %d" % (index, index))
        elif kind == "await":
            lines.append("    await helper(%d)" % index)
            expected_lines.append(len(lines))
        elif kind == "async_for":
            lines.append("    async for v%d in source():" % index)
            expected_lines.append(len(lines))
            lines.append("        pass")
        elif kind == "async_with":
            lines.append("    async with guard() as g%d:" % index)
            expected_lines.append(len(lines))
            lines.append("        pass")
        else:  # a nested coroutine suspends itself, not ``probe``
            lines.append("    async def inner%d():" % index)
            lines.append("        await helper(%d)" % index)
    if not kinds:
        lines.append("    pass")
    func = ast.parse("\n".join(lines) + "\n").body[0]
    points = await_points(func)
    assert [line for line, _col in points] == expected_lines
    assert list(points) == sorted(points)


@given(st.integers(min_value=0, max_value=30))
def test_own_nodes_skips_nested_function_bodies(depth):
    """However deeply defs nest, only the outermost body is yielded."""
    source = "def f0():\n    x = 0\n"
    for level in range(1, depth + 1):
        pad = "    " * level
        source += "%sdef f%d():\n%s    x = %d\n" % (pad, level, pad,
                                                    level)
    func = ast.parse(source).body[0]
    constants = [node.value for node in own_nodes(func)
                 if isinstance(node, ast.Constant)]
    assert constants == [0]
    nested = [node for node in own_nodes(func)
              if isinstance(node, ast.FunctionDef)]
    assert len(nested) == (1 if depth else 0)


def _concurrency(tmp_path, source):
    (tmp_path / "mod.py").write_text(source, encoding="utf-8")
    return ProjectModel.build(tmp_path).concurrency()


class TestDomains:
    def test_coroutines_seed_the_loop_domain(self, tmp_path):
        conc = _concurrency(tmp_path, (
            "async def serve():\n"
            "    helper()\n"
            "def helper():\n"
            "    return 1\n"))
        assert DOMAIN_LOOP in conc.domains[("mod.py", "helper")]

    def test_thread_target_is_thread_domain(self, tmp_path):
        conc = _concurrency(tmp_path, (
            "import threading\n"
            "class Host:\n"
            "    def start(self):\n"
            "        t = threading.Thread(target=self._work)\n"
            "        t.start()\n"
            "    def _work(self):\n"
            "        return 1\n"))
        assert conc.domains[("mod.py", "Host._work")] == (
            frozenset({DOMAIN_THREAD}))

    def test_run_in_executor_is_executor_domain(self, tmp_path):
        conc = _concurrency(tmp_path, (
            "async def offload(loop):\n"
            "    await loop.run_in_executor(None, grind)\n"
            "def grind():\n"
            "    return 1\n"))
        assert conc.domains[("mod.py", "grind")] == (
            frozenset({DOMAIN_EXECUTOR}))

    def test_call_soon_callback_is_loop_domain(self, tmp_path):
        conc = _concurrency(tmp_path, (
            "def schedule(loop):\n"
            "    loop.call_soon(tick)\n"
            "def tick():\n"
            "    return 1\n"))
        assert conc.domains[("mod.py", "tick")] == (
            frozenset({DOMAIN_LOOP}))

    def test_process_pool_target_is_exempt_from_races(self, tmp_path):
        conc = _concurrency(tmp_path, (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run_all(shards):\n"
            "    with ProcessPoolExecutor(max_workers=2) as pool:\n"
            "        return [pool.submit(crunch, s) for s in shards]\n"
            "def crunch(shard):\n"
            "    return shard\n"))
        key = ("mod.py", "crunch")
        assert conc.domains[key] == frozenset({DOMAIN_PROCESS})
        # Separate address space: no shared-memory race analysis.
        assert conc.effective_domains(key) == frozenset()

    def test_unclassified_functions_default_to_main(self, tmp_path):
        conc = _concurrency(tmp_path, "def plain():\n    return 1\n")
        assert conc.effective_domains(("mod.py", "plain")) == (
            frozenset({DOMAIN_MAIN}))


class TestModelStructure:
    def test_synchronizer_attributes_are_recognized(self, tmp_path):
        conc = _concurrency(tmp_path, (
            "import asyncio\n"
            "import queue\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._inbox = asyncio.Queue()\n"
            "        self._jobs = queue.Queue()\n"
            "        self._name = 'box'\n"))
        synchronized = conc.class_synchronizers("mod.py", "Box")
        assert synchronized == {"_inbox", "_jobs"}

    def test_call_edges_record_awaitedness(self, tmp_path):
        conc = _concurrency(tmp_path, (
            "async def outer():\n"
            "    await inner()\n"
            "    inner()\n"
            "async def inner():\n"
            "    return 1\n"))
        edges = conc.calls[("mod.py", "outer")]
        flags = sorted(edge.awaited for edge in edges
                       if edge.callee == ("mod.py", "inner"))
        assert flags == [False, True]

    def test_function_info_awaits_are_positions(self, tmp_path):
        conc = _concurrency(tmp_path, (
            "async def two_steps():\n"
            "    await step()\n"
            "    await step()\n"
            "async def step():\n"
            "    return 1\n"))
        info = conc.functions[("mod.py", "two_steps")]
        assert info.is_async
        assert [line for line, _col in info.awaits] == [2, 3]
