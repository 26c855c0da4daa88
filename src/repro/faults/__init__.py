"""Deterministic fault injection + the robustness machinery it exercises.

The layers (PR 8 tentpole):

* :mod:`repro.faults.plan` — seeded, replayable fault schedules
  (:class:`FaultPlan` / :class:`FaultRule`) and the single-bit payload
  corruptors;
* :mod:`repro.faults.points` — named injection points threaded through
  the store, registry, serving, solver and case-I/O paths; zero overhead
  disarmed, scoped arming via :func:`inject`;
* :mod:`repro.faults.deadline` — :class:`Deadline` budgets and the typed
  :class:`DeadlineExceededError` every layer fails with;
* :mod:`repro.faults.backoff` — :class:`BackoffPolicy` (deterministic
  jitter) and :func:`retry_with_backoff`, the one retry loop the stack
  shares;
* :mod:`repro.faults.degrade` — the process-wide
  :class:`DegradationLog` that makes every fallback chain observable.

``benchmarks/bench_chaos.py`` (registry entry ``serving.chaos``) drives
the serving daemon under a seeded plan and asserts the contracts:
successful responses stay bit-identical, failures are typed and
deadline-bounded, nothing leaks, and the same seed replays the same
faults.
"""

from repro.faults.backoff import BackoffPolicy, retry_with_backoff
from repro.faults.deadline import Deadline, DeadlineExceededError
from repro.faults.degrade import (
    DegradationEvent,
    DegradationLog,
    default_log,
    reset_default_log,
)
from repro.faults.plan import (
    FAULT_ACTIONS,
    FaultEvent,
    FaultPlan,
    FaultRule,
    InjectedFaultError,
    corrupt_array,
    corrupt_bytes,
)
from repro.faults.points import (
    active_plan,
    arm,
    disarm,
    fault_point,
    inject,
    maybe_corrupt,
    maybe_corrupt_bytes,
)

__all__ = [
    "FaultPlan", "FaultRule", "FaultEvent", "InjectedFaultError",
    "FAULT_ACTIONS", "corrupt_array", "corrupt_bytes",
    "fault_point", "maybe_corrupt", "maybe_corrupt_bytes",
    "arm", "disarm", "inject", "active_plan",
    "Deadline", "DeadlineExceededError",
    "BackoffPolicy", "retry_with_backoff",
    "DegradationEvent", "DegradationLog",
    "default_log", "reset_default_log",
]
