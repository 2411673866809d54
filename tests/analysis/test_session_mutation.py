"""Mutation tests: every rule catches real damage to the shipped code.

Fixture trees prove a rule fires on *synthetic* drift; these tests
prove it guards the *real* tree, and that it does so on a *copy* —
scopes match the path relative to the root that was given.  Each case
copies the shipped file its rule reads into a temporary tree, verifies
the copy is clean, then applies one surgical mutation — the kind a
refactor could plausibly introduce — and asserts the rule reports it,
by id and message fragment.  Every rule reads one file, so a case
copies that file alone.  A rule with no case here has not earned its
place; a rule whose seed a runtime guard already catches has been
retired, and ``test_retired_rules.py`` pins that the guard still does.
"""

import shutil
from typing import NamedTuple

import pytest

from repro.analysis import ALL_RULES, get_rule, run_analysis
from repro.analysis.cli import main
from repro.analysis.runner import package_root


class Seed(NamedTuple):
    """One seeded defect: the files copied, the edit, the finding."""

    rule_id: str
    #: The shipped file that is edited (root-relative).
    target: str
    old: str
    new: str
    #: Must appear in a finding of ``rule_id`` after the edit.
    fragment: str


SEEDS = (
    Seed("RL002", "saferegion/mwpsr.py",
         "if fzero(length):", "if length == 0.0:  # lint: allow=RL002",
         "exact float == comparison"),
    Seed("RL003", "mobility/simulator.py",
         "pick = vehicle.rng.random() * total",
         "pick = random.random() * total",
         "module-level random.random() call"),
    Seed("RL004", "protocol/wire.py",
         "fixed = _LAYOUT_STRUCTS.get(name)",
         "fixed = _LAYOUT_STRUCTS.setdefault(\n"
         "            name, struct.Struct(\"<%dd\" % len(layout)))",
         "in-place mutation of module-level container '_LAYOUT_STRUCTS'"),
    Seed("RL006", "engine/server.py",
         "telemetry.index_lookup((time.perf_counter() - started) * 1e6,\n",
         "telemetry.index_lookup((time.time() - started) * 1e6,\n",
         "wall-clock read time.time()"),
    Seed("RL007", "telemetry/sinks.py",
         "    def close(self) -> None:  # noqa: B027",
         "    def debug(self, record: object) -> None:\n"
         "        print(record)\n\n"
         "    def close(self) -> None:  # noqa: B027",
         "print() in library code"),
    Seed("RL008", "strategies/periodic.py",
         "        return stop\n",
         "        return stop\n\n\n"
         "def _leak(server):\n"
         "    return server.metrics\n",
         "strategy touches 'metrics' on 'server'"),
)


def _copy_shipped(root, rel_path):
    target = root / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(package_root() / rel_path, target)
    return root


def _mutate(root, rel_path, old, new):
    path = root / rel_path
    source = path.read_text(encoding="utf-8")
    assert source.count(old) == 1, "mutation anchor moved: %r" % old
    path.write_text(source.replace(old, new), encoding="utf-8")


def _check(root, rule_id):
    return run_analysis(root=root, rule_classes=[get_rule(rule_id)])


def test_every_rule_has_a_seeded_defect():
    assert [seed.rule_id for seed in SEEDS] \
        == [cls.rule_id for cls in ALL_RULES()]


@pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: seed.rule_id)
def test_seeded_defect_in_a_shipped_copy_is_caught(tmp_path, seed):
    root = _copy_shipped(tmp_path, seed.target)
    clean = _check(root, seed.rule_id)
    assert clean.ok, "\n" + clean.render_text()
    _mutate(root, seed.target, seed.old, seed.new)
    report = _check(root, seed.rule_id)
    messages = [d.message for d in report.diagnostics]
    assert any(seed.fragment in message for message in messages), \
        "\n".join(messages) or "no finding"
    assert all(d.rule_id == seed.rule_id for d in report.diagnostics)


@pytest.mark.parametrize("rule_id", ["RL008", "RL004"])
def test_seeded_defect_fails_the_gate(tmp_path, rule_id, capsys):
    """The CI spelling: ``repro check <copy> --rule ID`` exits 1."""
    seed = next(seed for seed in SEEDS if seed.rule_id == rule_id)
    root = _copy_shipped(tmp_path, seed.target)
    assert main([str(root), "--rule", rule_id]) == 0
    _mutate(root, seed.target, seed.old, seed.new)
    assert main([str(root), "--rule", rule_id]) == 1
    assert " %s " % rule_id in capsys.readouterr().out
