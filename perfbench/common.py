"""Shared pieces of the benchmark: the outcome record, percentiles,
memory, set-up timing, and the span tracer used by the traced replays.

The tracer records spans from *outside* the program: for the length of
one replay, :func:`instrumented` swaps the names a layer exposes (a
module-level function in the namespace that calls it, or a method on its
class) for timing wrappers, and restores them afterwards.  Each span
keeps its name, start, duration, parent and the replay item it belongs
to; a layer's self time is its duration minus its children's.  Spans
opened on any thread other than the replay's are not recorded, so a
stray service thread can never leak into a breakdown.
"""

from __future__ import annotations

import functools
import gc
import resource
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.measure import median, timed

#: How often a run repeats its whole set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3


@dataclass
class Outcome:
    """What one workload run saw: work attempted, failures (each with a
    one-line reason), metrics by name, and structural check failures."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def problem(self, reason: str) -> None:
        """A check on the run itself (not on one operation) failed."""
        self.problems.append(reason)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return not self.failures and not self.problems


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(build: Callable[[], object],
                discard: Callable[[object], None] = lambda _: None,
                repeats: int = SETUP_REPEATS) -> Tuple[object, float]:
    """Run the whole set-up ``repeats`` times; keep the last product and
    return it with the median set-up seconds (the first, cold repeat pays
    one-time costs such as lazy imports; the median leaves it out).
    Earlier products go to ``discard`` (stop a service) and are freed
    before the next repeat starts, so repeats never overlap."""
    seconds = []
    for index in range(repeats):
        product, elapsed = timed(build)
        seconds.append(elapsed)
        if index + 1 < repeats:
            discard(product)
            product = None  # freed before the next repeat allocates
            gc.collect()
    return product, median(seconds)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
@dataclass
class Span:
    name: str
    item: str
    parent: Optional[int]
    start: float
    duration: float = 0.0
    children: float = 0.0

    @property
    def self_time(self) -> float:
        return self.duration - self.children


class Tracer:
    """In-memory span recorder for one replay (single thread)."""

    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._item = ""
        self._thread = threading.get_ident()

    @contextmanager
    def item(self, name: str):
        """Tag every span opened inside with one replay item id."""
        previous, self._item = self._item, name
        try:
            yield
        finally:
            self._item = previous

    @contextmanager
    def span(self, name: str):
        if threading.get_ident() != self._thread:
            yield
            return
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, self._item, parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record.duration = time.perf_counter() - record.start
            self._open.pop()
            if parent is not None:
                self.spans[parent].children += record.duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> Dict[str, float]:
        """Summed self seconds per span name."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.self_time
        return totals

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)


#: (owner, attribute, span name): ``owner`` is a module (patch the name
#: where the caller looks it up) or a class (patch the method).
Target = Tuple[object, str, str]


@contextmanager
def instrumented(tracer: Tracer, targets: Sequence[Target]):
    """Wrap every target in a span for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def reconcile(outcome: Outcome, tracer: Tracer, wall_s: float, items: int,
              layers: Sequence[str], prefix: str = "") -> None:
    """Report each layer's self time per item plus the unattributed
    remainder, which together add up to the replay wall (``prefix`` tells
    apart the replay-wide metrics of a second replay in one run).

    The sum is exact only if every recorded span is reported (so no self
    time is dropped) and the spans fit inside the wall (so the remainder
    is not negative); both are checked."""
    totals = tracer.self_times()
    unknown = sorted(set(totals) - set(layers))
    if unknown:
        outcome.problem(f"replay recorded unreported spans {unknown}")
    attributed = sum(totals.values())
    unattributed = wall_s - attributed
    if unattributed < 0:
        outcome.problem(f"replay spans cover {attributed:.6f}s, more than "
                        f"the {wall_s:.6f}s replay wall")
    scale = 1e3 / max(items, 1)
    for name in layers:
        outcome.metric(f"{name}_ms", totals.get(name, 0.0) * scale, "ms")
    outcome.metric(f"{prefix}replay.unattributed_ms", unattributed * scale,
                   "ms")
    outcome.metric(f"{prefix}replay.wall_ms", wall_s * scale, "ms")
