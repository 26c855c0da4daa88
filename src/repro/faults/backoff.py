"""Shared retry policy: exponential backoff, deterministic jitter, caps.

Two faces of one policy:

* :class:`BackoffPolicy` — the pure arithmetic (``delay(attempt, key)``).
  Jitter is *deterministic*: a seeded hash of ``(key, attempt)`` spreads
  retriers apart without making any individual schedule unreproducible —
  the property every chaos replay depends on.  Event-driven retry sites
  (the process worker pool's death re-dispatch) consume the policy
  directly as a not-before timestamp.
* :func:`retry_with_backoff` — the loop form for callable work: run,
  catch retryable errors, sleep the policy's delay, try again, give up
  loudly after ``retries`` with the *original* error re-raised.  It is
  deadline-aware (never sleeps past a :class:`~repro.faults.deadline
  .Deadline`; raises :class:`DeadlineExceededError` instead of burning
  the budget on doomed sleeps) and fault-aware (injected faults from an
  armed :class:`~repro.faults.plan.FaultPlan` are always considered
  retryable — chaos must never be *less* recoverable than reality).

The default policy (50 ms base, 2 s cap) is fixed in code; a call site
that needs another schedule passes its own :class:`BackoffPolicy`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

from repro.faults.deadline import Deadline, DeadlineExceededError
from repro.faults.plan import InjectedFaultError

__all__ = ["BackoffPolicy", "retry_with_backoff"]

T = TypeVar("T")


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delay(attempt, key)`` for attempt 1, 2, 3... is
    ``min(base * 2**(attempt-1), cap)`` scaled by a jitter factor in
    ``[1 - jitter, 1 + jitter]`` drawn from a hash of
    ``(seed, key, attempt)`` — same inputs, same delay, forever.
    """

    base_s: float = 0.05
    cap_s: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_s < 0:
            raise ValueError(f"base_s must be >= 0, got {self.base_s}")
        if self.cap_s < self.base_s:
            raise ValueError(
                f"cap_s ({self.cap_s}) must be >= base_s ({self.base_s})")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay(self, attempt: int, key: object = 0) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        raw = min(self.base_s * (2.0 ** (attempt - 1)), self.cap_s)
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * unit)


def retry_with_backoff(
    fn: Callable[[], T],
    retries: int = 3,
    policy: Optional[BackoffPolicy] = None,
    retry_on: Tuple[Type[BaseException], ...] = (OSError,),
    deadline: Optional[Deadline] = None,
    key: object = 0,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
) -> T:
    """Run ``fn`` with up to ``retries`` backed-off retries.

    Retryable errors are ``retry_on`` plus — always —
    :class:`InjectedFaultError`, so an armed fault plan can exercise any
    call site wrapped here.  Non-retryable errors propagate immediately.
    When retries run out the *last* error is re-raised unchanged (the
    caller sees the real failure, not a wrapper).  A ``deadline`` bounds
    the whole dance: if the next sleep would outlive it, the deadline
    error is raised now instead of sleeping toward certain failure.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    policy = policy if policy is not None else BackoffPolicy()
    retryable = tuple(retry_on) + (InjectedFaultError,)
    attempt = 0
    while True:
        if deadline is not None:
            deadline.check("retried operation")
        try:
            return fn()
        except retryable as error:
            attempt += 1
            if attempt > retries:
                raise
            pause = policy.delay(attempt, key=key)
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining is not None and pause >= remaining:
                    raise DeadlineExceededError(
                        f"retry backoff ({pause:.3f}s) would outlive the "
                        f"deadline ({remaining:.3f}s left) after "
                        f"{attempt} attempt(s)") from error
            if on_retry is not None:
                on_retry(attempt, error)
            if pause > 0:
                sleep(pause)
