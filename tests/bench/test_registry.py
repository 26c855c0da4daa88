"""Tests for the fleet registry and entry selection."""

import ast
import os

import pytest

from repro.bench.registry import (
    DEFAULT_ENTRIES,
    TIERS,
    BenchEntry,
    select_entries,
)

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")


def _names(entries):
    return [e.name for e in entries]


def _test_marks(script):
    """``{test name: marker names}`` of a bench script, read statically
    (no pytest collection) from the decorators of its top-level
    ``test_*`` functions; ``perf = pytest.mark.perf`` aliases resolve."""
    with open(os.path.join(BENCH_DIR, script)) as handle:
        tree = ast.parse(handle.read())
    aliases = {node.targets[0].id: node.value.attr for node in tree.body
               if isinstance(node, ast.Assign)
               and ast.unparse(node.value).startswith("pytest.mark.")}
    marks = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) \
                and node.name.startswith("test_"):
            found = set()
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):
                    decorator = decorator.func
                name = (decorator.attr if isinstance(decorator, ast.Attribute)
                        else decorator.id)
                found.add(aliases.get(name, name))
            marks[node.name] = found
    return marks


def _selected(entry, marks):
    """The tests of ``{test name: marker names}`` that the entry's
    ``-m`` expression keeps."""
    keep = {None: lambda found: True,
            "perf": lambda found: "perf" in found,
            "not perf": lambda found: "perf" not in found}[entry.marker]
    return [name for name, found in marks.items() if keep(found)]


class TestDefaultEntries:
    def test_scripts_exist_on_disk(self):
        for entry in DEFAULT_ENTRIES:
            assert os.path.exists(os.path.join(BENCH_DIR, entry.script)), \
                entry.name

    def test_every_bench_script_is_registered(self):
        registered = {e.script for e in DEFAULT_ENTRIES}
        on_disk = {name for name in os.listdir(BENCH_DIR)
                   if name.startswith("bench_") and name.endswith(".py")}
        assert on_disk == registered

    def test_names_and_tiers(self):
        assert len({e.name for e in DEFAULT_ENTRIES}) == len(DEFAULT_ENTRIES)
        assert {e.tier for e in DEFAULT_ENTRIES} <= set(TIERS)
        gating = [e for e in DEFAULT_ENTRIES if e.tier == "gating"]
        # the blocking CI tier is the numeric parity gates only
        assert _names(gating) == ["table1.parity", "solver.parity",
                                  "inference.parity", "serving.parity",
                                  "ingest.parity", "serving.selfheal"]
        assert all(e.kind == "parity" for e in gating)

    def test_bad_tier_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            BenchEntry(name="x", bench="x", script="x.py",
                       tier="blocking", kind="perf")


class TestRegistryDrift:
    """Every entry still selects tests in its script.  The runner maps
    pytest exit 5 (nothing collected) to ``no-tests``, so a stale entry
    would otherwise pass silently."""

    def test_every_entry_selects_a_test(self):
        # `perf` entries need an @perf test, `not perf` entries an
        # unmarked one, whole-file entries any test at all
        for entry in DEFAULT_ENTRIES:
            marks = _test_marks(entry.script)
            assert _selected(entry, marks), \
                f"{entry.name}: -m {entry.marker!r} selects no test " \
                f"in {entry.script} ({sorted(marks)})"


class TestSelectEntries:
    def test_full_fleet_in_dependency_order(self):
        ordered = _names(select_entries(DEFAULT_ENTRIES))
        assert len(ordered) == len(DEFAULT_ENTRIES)
        for entry in DEFAULT_ENTRIES:
            for dep in entry.depends:
                assert ordered.index(dep) < ordered.index(entry.name)

    def test_tier_filter(self):
        gating = select_entries(DEFAULT_ENTRIES, tier="gating")
        assert all(e.tier == "gating" for e in gating)
        perf = select_entries(DEFAULT_ENTRIES, tier="perf")
        assert all(e.tier == "perf" for e in perf)
        assert len(gating) + len(perf) == len(DEFAULT_ENTRIES)

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            select_entries(DEFAULT_ENTRIES, tier="fast")

    def test_only_pulls_transitive_dependencies(self):
        ordered = _names(select_entries(DEFAULT_ENTRIES,
                                        only=["table3.parity"]))
        assert ordered == ["table1.parity", "table2.parity", "table3.parity"]

    def test_only_accepts_bench_names(self):
        ordered = _names(select_entries(DEFAULT_ENTRIES,
                                        only=["solver_scaling"]))
        assert ordered == ["solver.parity", "solver.perf"]

    def test_only_accepts_script_names(self):
        expected = ["inference.parity", "serving.parity"]
        for alias in ("bench_serving", "bench_serving.py"):
            ordered = _names(select_entries(DEFAULT_ENTRIES, only=[alias]))
            assert ordered == expected, alias

    def test_tier_applied_after_dependency_closure(self):
        for only, expected in (("inference", "inference.perf"),
                               ("perfbench", "perfbench")):
            ordered = _names(select_entries(DEFAULT_ENTRIES, tier="perf",
                                            only=[only]))
            assert ordered == [expected], only

    def test_unknown_only_rejected(self):
        with pytest.raises(ValueError, match="matched no entry"):
            select_entries(DEFAULT_ENTRIES, only=["bench_everything"])

    def test_duplicate_names_rejected(self):
        entry = DEFAULT_ENTRIES[0]
        with pytest.raises(ValueError, match="duplicate"):
            select_entries([entry, entry])

    def test_unknown_dependency_rejected(self):
        bad = BenchEntry(name="a", bench="a", script="a.py", tier="perf",
                         kind="perf", depends=("ghost",))
        with pytest.raises(ValueError, match="unknown"):
            select_entries([bad])

    def test_cycle_detected(self):
        a = BenchEntry(name="a", bench="a", script="a.py", tier="perf",
                       kind="perf", depends=("b",))
        b = BenchEntry(name="b", bench="b", script="b.py", tier="perf",
                       kind="perf", depends=("a",))
        with pytest.raises(ValueError, match="cycle"):
            select_entries([a, b])

    def test_dependency_outside_tier_does_not_block(self):
        # perf entries depend on gating parity entries; a perf-only run
        # must still order and run them
        perf = _names(select_entries(DEFAULT_ENTRIES, tier="perf"))
        assert "solver.perf" in perf and "solver.parity" not in perf
