"""The benchmark fleet registry: every bench script, its tier, and the
dependencies that order parity gates before the perf tiers they protect.

An *entry* is one orchestrated pytest invocation — a script, optionally
restricted by a ``-m`` marker expression.  One script can contribute
several entries (e.g. ``solver.parity`` runs the unmarked parity tests
gating CI, ``solver.perf`` runs the ``perf``-marked wall-clock floors);
both write into the same :class:`~repro.bench.schema.BenchResult` via
the script's recorder, which is exactly how the standalone
``python -m pytest benchmarks/bench_solver_scaling.py`` invocation works
— the orchestrator drives the same functions, not a parallel copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["BenchEntry", "TIERS", "DEFAULT_ENTRIES", "select_entries"]

TIERS = ("gating", "perf")


@dataclass(frozen=True)
class BenchEntry:
    """One orchestrated pytest invocation of a bench script."""

    name: str                       # registry key, e.g. "solver.perf"
    bench: str                      # BenchResult name the script records
    script: str                     # file under benchmarks/
    tier: str                       # "gating" (blocking) or "perf"
    kind: str                       # result kind: "perf" or "parity"
    marker: Optional[str] = None    # pytest -m expression, None = whole file
    depends: Tuple[str, ...] = ()   # entry names that must run first

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise ValueError(f"entry {self.name!r}: tier {self.tier!r} "
                             f"not in {TIERS}")


#: The fleet.  Gating entries are the blocking CI tier (fast, numeric
#: parity only); everything wall-clock or training-budget-sized runs in
#: the perf tier (continue-on-error on shared runners).  Serving and
#: ingest speed come from one place, the ``perfbench`` entry, which runs
#: the end-to-end workloads of ``BENCHMARK.json``.  Dependencies encode
#: "parity gates before the perf tiers they protect" plus the registry
#: sanity check (table1) ahead of the expensive table/figure
#: reproductions.
DEFAULT_ENTRIES: Tuple[BenchEntry, ...] = (
    BenchEntry(name="table1.parity", bench="table1_capabilities",
               script="bench_table1_capabilities.py",
               tier="gating", kind="parity"),
    BenchEntry(name="solver.parity", bench="solver_scaling",
               script="bench_solver_scaling.py",
               tier="gating", kind="parity", marker="not perf"),
    BenchEntry(name="inference.parity", bench="inference",
               script="bench_inference.py",
               tier="gating", kind="parity", marker="not perf"),
    BenchEntry(name="serving.parity", bench="serving",
               script="bench_serving.py",
               tier="gating", kind="parity", marker="not perf",
               depends=("inference.parity",)),
    BenchEntry(name="ingest.parity", bench="ingestion",
               script="bench_ingestion.py",
               tier="gating", kind="parity", marker="not perf",
               depends=("solver.parity",)),
    BenchEntry(name="serving.selfheal", bench="selfheal",
               script="bench_selfheal.py",
               tier="gating", kind="parity",
               depends=("serving.parity",)),
    BenchEntry(name="serving.chaos", bench="chaos",
               script="bench_chaos.py",
               tier="perf", kind="parity",
               depends=("serving.parity",)),
    BenchEntry(name="solver.perf", bench="solver_scaling",
               script="bench_solver_scaling.py",
               tier="perf", kind="perf", marker="perf",
               depends=("solver.parity",)),
    BenchEntry(name="inference.perf", bench="inference",
               script="bench_inference.py",
               tier="perf", kind="perf", marker="perf",
               depends=("inference.parity",)),
    BenchEntry(name="suite_synthesis.perf", bench="suite_synthesis",
               script="bench_suite_synthesis.py",
               tier="perf", kind="perf", depends=("solver.parity",)),
    BenchEntry(name="train_throughput.perf", bench="train_throughput",
               script="bench_train_throughput.py",
               tier="perf", kind="perf"),
    BenchEntry(name="perfbench", bench="perfbench",
               script="bench_perfbench.py",
               tier="perf", kind="perf",
               depends=("serving.parity", "ingest.parity")),
    BenchEntry(name="table2.parity", bench="table2_testcases",
               script="bench_table2_testcases.py",
               tier="perf", kind="parity", depends=("table1.parity",)),
    BenchEntry(name="table3.parity", bench="table3_comparison",
               script="bench_table3_comparison.py",
               tier="perf", kind="parity",
               depends=("table1.parity", "table2.parity")),
    BenchEntry(name="fig4.parity", bench="fig4_ablation",
               script="bench_fig4_ablation.py",
               tier="perf", kind="parity", depends=("table1.parity",)),
    BenchEntry(name="fig5.parity", bench="fig5_visualization",
               script="bench_fig5_visualization.py",
               tier="perf", kind="parity", depends=("table1.parity",)),
)


def _validate(entries: Sequence[BenchEntry]) -> Dict[str, BenchEntry]:
    by_name: Dict[str, BenchEntry] = {}
    for entry in entries:
        if entry.name in by_name:
            raise ValueError(f"duplicate entry name {entry.name!r}")
        by_name[entry.name] = entry
    for entry in entries:
        for dep in entry.depends:
            if dep not in by_name:
                raise ValueError(
                    f"entry {entry.name!r} depends on unknown {dep!r}")
    return by_name


def select_entries(entries: Sequence[BenchEntry] = DEFAULT_ENTRIES,
                   tier: Optional[str] = None,
                   only: Optional[Iterable[str]] = None) -> List[BenchEntry]:
    """Pick and dependency-order the entries to run.

    ``tier`` restricts to one tier; ``only`` picks entries by entry
    name, bench name, or script name (``bench_serving`` /
    ``bench_serving.py`` both work) and pulls in their transitive
    dependencies (a perf entry never runs without its parity gate).  When both are given the
    tier filter is applied *after* dependency closure, so
    ``--tier perf --only inference`` runs ``inference.perf`` alone.
    Returns a deterministic topological order (registry order among
    ready entries); raises on dependency cycles.
    """
    if tier is not None and tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r} (choose from {TIERS})")
    by_name = _validate(entries)

    if only is not None:
        wanted = set(only)

        def _aliases(entry: BenchEntry) -> Tuple[str, ...]:
            stem = (entry.script[:-3] if entry.script.endswith(".py")
                    else entry.script)
            return (entry.name, entry.bench, entry.script, stem)

        matched = [e for e in entries
                   if wanted.intersection(_aliases(e))]
        known = {alias for e in matched for alias in _aliases(e)}
        unknown = wanted - known
        if unknown:
            raise ValueError(
                f"--only matched no entry: {sorted(unknown)} "
                f"(known: {sorted(by_name)})")
        selected = set()
        stack = [e.name for e in matched]
        while stack:
            name = stack.pop()
            if name in selected:
                continue
            selected.add(name)
            stack.extend(by_name[name].depends)
    else:
        selected = set(by_name)

    if tier is not None:
        selected = {name for name in selected
                    if by_name[name].tier == tier}

    # Kahn's algorithm, deterministic: registry order among ready entries.
    remaining = [e for e in entries if e.name in selected]
    ordered: List[BenchEntry] = []
    done: set = set()
    while remaining:
        progressed = False
        for entry in list(remaining):
            deps_in_selection = [d for d in entry.depends if d in selected]
            if all(d in done for d in deps_in_selection):
                ordered.append(entry)
                done.add(entry.name)
                remaining.remove(entry)
                progressed = True
        if not progressed:
            names = sorted(e.name for e in remaining)
            raise ValueError(f"dependency cycle among {names}")
    return ordered
