"""Sliding-window circuit breaker for the serving daemon.

When the pool starts failing most of what it touches — a crash-looping
spec, poisoned weights, a dependency melting down — queueing more
work just converts every new request into a slow failure.  The breaker
watches a sliding window of per-request outcomes and, once the failure
rate over at least ``min_requests`` observations reaches
:data:`THRESHOLD`, *trips open*: new submits are shed immediately with a
typed :class:`CircuitOpenError` instead of being admitted to a doomed
queue.

After ``cooldown_s`` the breaker *half-opens* and lets up to
:data:`PROBES` requests through; one probe success closes it (window
cleared — old failures don't instantly re-trip), one probe failure
re-opens it for another cooldown.  A probe admission that resolves through a
breaker-exempt path (shed at the queue, deadline-expired before
dispatch, shutdown) never records an outcome — callers give the slot
back via :meth:`CircuitBreaker.release`, and a probe-timeout
backstop re-arms slots whose outcome never landed at all, so the
breaker can never wedge in half-open with every probe "in flight"
forever.  Every transition is recorded on the process-wide
:class:`~repro.faults.degrade.DegradationLog` under component
:data:`COMPONENT`, so chaos soaks and operators see the same ledger.

:meth:`CircuitBreaker.trip` force-opens regardless of the window — the
online output audit uses it when a served prediction diverges from the
golden solver, because at that point *correctness*, not error rate, says
the service must stop fulfilling.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, Optional

from repro.faults.degrade import record as record_degradation
from repro.serve.queue import ServeError

__all__ = ["BREAKER_STATES", "CircuitOpenError", "CircuitBreaker"]

BREAKER_STATES = ("closed", "open", "half_open")

#: failure rate over the window that opens the circuit
THRESHOLD = 0.5
#: concurrent half-open probes
PROBES = 1
#: floor of the leaked-probe backstop, seconds: generous, because a real
#: probe resolves within a request lifetime, so only a slot whose
#: outcome was lost ever ages this long (see ``release()``)
PROBE_TIMEOUT_S = 30.0
#: degradation-ledger component of every breaker transition
COMPONENT = "serve.breaker"


class CircuitOpenError(ServeError):
    """The circuit breaker is open; the request was shed, not queued."""

    def __init__(self, failure_rate: float, window: int,
                 retry_after_s: float):
        self.failure_rate = float(failure_rate)
        self.window = int(window)
        self.retry_after_s = max(0.0, float(retry_after_s))
        super().__init__(
            f"request shed: circuit breaker open "
            f"(failure rate {self.failure_rate:.0%} over the last "
            f"{self.window} requests); retry in {self.retry_after_s:.2f}s")


class CircuitBreaker:
    """Thread-safe closed / open / half-open failure-rate breaker."""

    def __init__(self, window: int = 32, min_requests: int = 8,
                 cooldown_s: float = 1.0):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if min_requests < 1:
            raise ValueError(
                f"min_requests must be >= 1, got {min_requests}")
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.window = int(window)
        self.min_requests = int(min_requests)
        self.cooldown_s = float(cooldown_s)
        self.probe_timeout_s = max(PROBE_TIMEOUT_S, 4.0 * self.cooldown_s)
        self._lock = threading.Lock()
        self._outcomes: Deque[bool] = deque(maxlen=self.window)
        self._state = "closed"
        self._open_until = 0.0
        self._probes_inflight = 0
        self._probe_granted_at = 0.0
        self._trips = 0
        self._shed = 0

    # -- observation ---------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            self._advance_locked(time.perf_counter())
            return self._state

    def failure_rate(self) -> float:
        with self._lock:
            return self._rate_locked()

    def stats(self) -> Dict[str, object]:
        with self._lock:
            self._advance_locked(time.perf_counter())
            return {
                "state": self._state,
                "failure_rate": self._rate_locked(),
                "window": len(self._outcomes),
                "trips": self._trips,
                "shed": self._shed,
                "probes_inflight": self._probes_inflight,
            }

    def _rate_locked(self) -> float:
        if not self._outcomes:
            return 0.0
        failures = sum(1 for ok in self._outcomes if not ok)
        return failures / len(self._outcomes)

    # -- admission -----------------------------------------------------
    def allow(self) -> None:
        """Gate one admission; raises :class:`CircuitOpenError` when
        open (or half-open with all probe slots taken)."""
        now = time.perf_counter()
        with self._lock:
            self._advance_locked(now)
            if self._state == "closed":
                return
            if self._state == "half_open" \
                    and self._probes_inflight < PROBES:
                self._probes_inflight += 1
                self._probe_granted_at = now
                return
            self._shed += 1
            raise CircuitOpenError(self._rate_locked(), len(self._outcomes),
                                   self._open_until - now)

    # -- outcomes ------------------------------------------------------
    def record_success(self) -> None:
        with self._lock:
            self._advance_locked(time.perf_counter())
            self._outcomes.append(True)
            if self._state == "half_open":
                self._close_locked("probe request succeeded")

    def record_failure(self, error: Optional[BaseException] = None) -> None:
        with self._lock:
            self._advance_locked(time.perf_counter())
            self._outcomes.append(False)
            why = (f"{type(error).__name__}: {error}" if error is not None
                   else "failure recorded")
            if self._state == "half_open":
                self._open_locked(f"probe request failed ({why})")
                return
            if self._state == "closed" \
                    and len(self._outcomes) >= self.min_requests \
                    and self._rate_locked() >= THRESHOLD:
                self._open_locked(
                    f"failure rate {self._rate_locked():.0%} >= "
                    f"{THRESHOLD:.0%} over {len(self._outcomes)} "
                    f"requests (last: {why})")

    def release(self) -> None:
        """Return an admission slot whose request will never record an
        outcome on the breaker.

        An admission granted by :meth:`allow` in half-open consumes a
        probe slot that is normally returned by :meth:`record_success` /
        :meth:`record_failure` (via the close/re-open transitions).  A
        request that instead resolves through a breaker-exempt path —
        rejected by the queue right after admission, deadline-expired
        before dispatch, failed by shutdown — records neither, and
        without this hook the breaker would sit half-open with every
        probe slot consumed forever, shedding all traffic while no
        admitted request can ever report back.  Safe to call for
        non-probe admissions: only a half-open breaker with slots in
        flight is affected.
        """
        with self._lock:
            if self._state == "half_open" and self._probes_inflight > 0:
                self._probes_inflight -= 1

    def trip(self, reason: str) -> None:
        """Force the breaker open regardless of the window (used by the
        online audit when served output diverges from the golden
        solver)."""
        with self._lock:
            if self._state != "open":
                self._open_locked(f"forced open: {reason}")

    # -- transitions (lock held) ---------------------------------------
    def _advance_locked(self, now: float) -> None:
        if self._state == "open" and now >= self._open_until:
            self._transition_locked("half_open",
                                    f"cooldown {self.cooldown_s:g}s "
                                    f"elapsed; admitting probe(s)")
            self._probes_inflight = 0
        if self._state == "half_open" and self._probes_inflight > 0 \
                and now - self._probe_granted_at > self.probe_timeout_s:
            # backstop against a leaked slot that escaped release():
            # without it a lost probe outcome wedges the breaker in
            # half-open permanently, with no admission left to recover it
            record_degradation(
                COMPONENT, "half_open", "half_open",
                f"no probe outcome recorded within "
                f"{self.probe_timeout_s:g}s; re-arming "
                f"{self._probes_inflight} probe slot(s)")
            self._probes_inflight = 0
            self._probe_granted_at = now

    def _open_locked(self, reason: str) -> None:
        self._transition_locked("open", reason)
        self._open_until = time.perf_counter() + self.cooldown_s
        self._probes_inflight = 0
        self._trips += 1

    def _close_locked(self, reason: str) -> None:
        self._transition_locked("closed", reason)
        self._outcomes.clear()
        self._probes_inflight = 0

    def _transition_locked(self, to_state: str, reason: str) -> None:
        record_degradation(COMPONENT, self._state, to_state, reason)
        self._state = to_state
