"""The concurrency model: which functions run on the event loop.

PA005 is only as good as the model underneath, so the model is pinned
directly: the function walk never looks inside nested defs
(property-tested), and loop membership is checked for each root shape
the extractor knows — coroutines, loop callbacks and the
``asyncio.run`` trampoline are loop code; executor submissions and
plain thread targets never are.
"""

import ast

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import ProjectModel
from repro.analysis.model import own_nodes


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
        assert ("mod.py", "serve") in conc.on_loop
        assert ("mod.py", "helper") in conc.on_loop

    def test_call_soon_callback_is_loop_domain(self, tmp_path):
        conc = _concurrency(tmp_path, (
            "def schedule(loop):\n"
            "    loop.call_soon(tick)\n"
            "    loop.call_later(1.0, tock)\n"
            "def tick():\n"
            "    return 1\n"
            "def tock():\n"
            "    return 2\n"))
        assert conc.on_loop == {("mod.py", "tick"), ("mod.py", "tock")}

    def test_asyncio_run_trampoline_target_is_loop_code(self, tmp_path):
        conc = _concurrency(tmp_path, (
            "import asyncio\n"
            "import threading\n"
            "class Host:\n"
            "    def start(self):\n"
            "        threading.Thread(\n"
            "            target=lambda: asyncio.run(self._main())).start()\n"
            "    async def _main(self):\n"
            "        self._bind()\n"
            "    def _bind(self):\n"
            "        return 1\n"))
        assert ("mod.py", "Host._bind") in conc.on_loop
        assert ("mod.py", "Host.start") not in conc.on_loop

    def test_thread_target_is_not_loop_code(self, tmp_path):
        conc = _concurrency(tmp_path, (
            "import threading\n"
            "class Host:\n"
            "    def start(self):\n"
            "        t = threading.Thread(target=self._work)\n"
            "        t.start()\n"
            "    def _work(self):\n"
            "        return 1\n"))
        assert conc.on_loop == set()

    def test_run_in_executor_target_is_not_loop_code(self, tmp_path):
        conc = _concurrency(tmp_path, (
            "async def offload(loop):\n"
            "    await loop.run_in_executor(None, grind)\n"
            "def grind():\n"
            "    return 1\n"))
        assert conc.on_loop == {("mod.py", "offload")}

    def test_pool_submit_target_is_not_loop_code(self, tmp_path):
        conc = _concurrency(tmp_path, (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run_all(shards):\n"
            "    with ProcessPoolExecutor(max_workers=2) as pool:\n"
            "        return [pool.submit(crunch, s) for s in shards]\n"
            "def crunch(shard):\n"
            "    return shard\n"))
        assert conc.on_loop == set()
