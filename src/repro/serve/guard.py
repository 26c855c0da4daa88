"""Served-output integrity: refuse a bad map, never fulfil one.

CFIRSTNET and PowerNet frame IR-drop prediction as a signoff-loop
service where a wrong-but-plausible map is *worse* than a refused
request — a silent NaN or a bit-flipped hotspot sends a designer off
fixing the wrong rail.  So every prediction passes two gates before its
ticket is fulfilled:

* :class:`OutputGuard` — synchronous, on the resolution path.  A sha256
  digest computed in the worker immediately after the forward is
  re-verified at fulfilment (catching transport/IPC corruption — this is
  what the ``serve.guard`` corruption fault point exercises), then the
  map is checked for NaN/Inf, expected shape, and physical range (static
  IR drop is clamped non-negative by the predictor and bounded by the
  rail voltage).  Any violation fails the ticket with a typed
  :class:`IntegrityError`; nothing questionable is ever fulfilled.

* :class:`OnlineAuditor` — asynchronous, sampled.  Roughly one in
  ``every`` *fulfilled* results is re-solved against the golden
  :class:`~repro.solver.factorized.FactorizedPDN` on a background
  thread; a worst-pixel divergence beyond :data:`DIVERGENCE_V` means the
  model itself has gone wrong (bad checkpoint, poisoned weights), and the
  auditor records the degradation and trips the service's circuit
  breaker via its callback.  The audit is detection, not protection —
  the guarded result was already served — which is exactly the breaker's
  job: stop fulfilling *future* requests.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple

import numpy as np

from repro.data.case import CaseBundle
from repro.faults.degrade import record as record_degradation
from repro.serve.queue import ServeError

__all__ = ["INTEGRITY_CODES", "IntegrityError", "prediction_digest",
           "OutputGuard", "AuditRecord", "OnlineAuditor"]

#: The closed set of refusal reasons an :class:`IntegrityError` carries.
INTEGRITY_CODES = ("checksum", "shape", "nan", "inf", "range")

#: physically plausible served IR drop, volts: the predictor clamps its
#: output non-negative, and a static drop cannot exceed the rail it is
#: measured against, so the bounds are generous — the guard exists to
#: catch *impossible* maps, not to second-guess marginal ones
V_MIN, V_MAX = 0.0, 10.0
#: worst-pixel served-vs-golden gap, volts, that trips the breaker
DIVERGENCE_V = 0.5
#: audit samples waiting for the solver; the oldest drops past this
AUDIT_QUEUE_CAP = 8


class IntegrityError(ServeError):
    """A served prediction failed an integrity check and was refused."""

    def __init__(self, code: str, message: str):
        if code not in INTEGRITY_CODES:
            raise ValueError(
                f"unknown integrity code {code!r} "
                f"(choose from {INTEGRITY_CODES})")
        self.code = code
        super().__init__(f"prediction refused ({code}): {message}")


def prediction_digest(prediction: np.ndarray) -> str:
    """Content digest of a prediction (dtype + shape + bytes).

    Computed in the worker immediately after the forward and re-verified
    at fulfilment, so anything that mutates the array in between — IPC
    pickling, a buggy resolution path, an armed ``serve.guard``
    corruption rule — turns into a deterministic ``checksum`` refusal
    instead of a silently different map.
    """
    array = np.ascontiguousarray(prediction)
    hasher = hashlib.sha256()
    hasher.update(str(array.dtype).encode())
    hasher.update(str(array.shape).encode())
    hasher.update(array.tobytes())
    return hasher.hexdigest()


class OutputGuard:
    """Synchronous pre-fulfilment checks on every served prediction,
    the range check against [:data:`V_MIN`, :data:`V_MAX`]."""

    def __init__(self):
        self._lock = threading.Lock()
        self._checked = 0
        self._refused: Dict[str, int] = {code: 0 for code in INTEGRITY_CODES}

    def check(self, prediction: np.ndarray,
              case_shape: Optional[Tuple[int, ...]] = None,
              digest: Optional[str] = None,
              context: str = "") -> None:
        """Raise :class:`IntegrityError` on any violation; silent pass
        otherwise.  ``digest`` is the worker-side checksum; ``context``
        labels the refusal (request id, worker)."""
        with self._lock:
            self._checked += 1
        suffix = f" [{context}]" if context else ""
        if digest is not None:
            actual = prediction_digest(prediction)
            if actual != digest:
                self._refuse("checksum",
                             f"prediction bytes changed between worker and "
                             f"fulfilment (expected {digest[:12]}..., got "
                             f"{actual[:12]}...){suffix}")
        if not isinstance(prediction, np.ndarray):
            self._refuse("shape",
                         f"prediction is {type(prediction).__name__}, "
                         f"not an ndarray{suffix}")
        if case_shape is not None and tuple(prediction.shape) != \
                tuple(case_shape):
            self._refuse("shape",
                         f"prediction shape {tuple(prediction.shape)} != "
                         f"case shape {tuple(case_shape)}{suffix}")
        with np.errstate(invalid="ignore"):
            if np.isnan(prediction).any():
                self._refuse("nan",
                             f"prediction contains NaN{suffix}")
            if np.isinf(prediction).any():
                self._refuse("inf",
                             f"prediction contains Inf{suffix}")
            lo = float(prediction.min()) if prediction.size else 0.0
            hi = float(prediction.max()) if prediction.size else 0.0
        if lo < V_MIN or hi > V_MAX:
            self._refuse("range",
                         f"prediction range [{lo:.6g}, {hi:.6g}] V outside "
                         f"physical bounds [{V_MIN:g}, {V_MAX:g}] "
                         f"V{suffix}")

    def _refuse(self, code: str, message: str) -> None:
        with self._lock:
            self._refused[code] += 1
        raise IntegrityError(code, message)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            refused = dict(self._refused)
            return {"checked": self._checked,
                    "refused": sum(refused.values()),
                    "refused_by_code": refused}


@dataclass(frozen=True)
class AuditRecord:
    """One golden re-solve of a served case."""

    case_name: str
    divergence_v: float       # worst-pixel |served - golden|
    threshold_v: float
    diverged: bool


class OnlineAuditor:
    """Sampled background audit of fulfilled predictions against the
    golden solver.

    ``observe`` is called on the resolution path for every fulfilled
    result and must stay cheap: it counts, and every ``every``-th result
    is copied onto a bounded queue for the audit thread (oldest dropped
    and counted when the solver cannot keep up — sampling degrades,
    serving never blocks).  ``on_divergence`` receives the
    :class:`AuditRecord`; the service wires it to ``breaker.trip``.
    """

    def __init__(self, every: int,
                 on_divergence: Optional[Callable[[AuditRecord], None]] = None):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = int(every)
        self.on_divergence = on_divergence
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queue: Deque[Tuple[CaseBundle, np.ndarray]] = deque(
            maxlen=AUDIT_QUEUE_CAP)
        self._observed = 0
        self._sampled = 0
        self._dropped = 0
        self._audited = 0
        self._divergent = 0
        self._errors = 0
        self._worst_v = 0.0
        self._stopping = False
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._audit_loop, name="repro-serve-audit", daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        with self._lock:
            self._stopping = True
            self._wake.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    # -- resolution-path side ------------------------------------------
    def observe(self, case: CaseBundle, prediction: np.ndarray) -> None:
        with self._lock:
            self._observed += 1
            if self._observed % self.every:
                return
            self._sampled += 1
            if len(self._queue) == self._queue.maxlen:
                self._dropped += 1  # deque drops the oldest on append
            self._queue.append((case, np.array(prediction, copy=True)))
            self._wake.notify()

    # -- audit thread --------------------------------------------------
    def _audit_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._stopping:
                    self._wake.wait(0.1)
                if not self._queue and self._stopping:
                    return
                case, prediction = self._queue.popleft()
            try:
                self._audit_one(case, prediction)
            except Exception as error:
                # the audit must never take the service down with it —
                # an un-solvable case is counted and recorded, not fatal
                with self._lock:
                    self._errors += 1
                record_degradation(
                    "serve.audit", "sampling", "audit-error",
                    f"golden re-solve of {case.name!r} failed: "
                    f"{type(error).__name__}: {error}")

    def _audit_one(self, case: CaseBundle, prediction: np.ndarray) -> None:
        # imported here so the serving fast path never pays for the
        # solver stack unless auditing is actually enabled
        from repro.solver.factorized import FactorizedPDN
        from repro.solver.rasterize import rasterize_ir_map

        solve = FactorizedPDN(case.netlist).solve()
        golden = rasterize_ir_map(case.netlist, solve, shape=case.shape)
        divergence = float(np.max(np.abs(
            np.asarray(prediction, dtype=np.float64) -
            np.asarray(golden, dtype=np.float64))))
        record = AuditRecord(
            case_name=case.name, divergence_v=divergence,
            threshold_v=DIVERGENCE_V, diverged=divergence > DIVERGENCE_V)
        with self._lock:
            self._audited += 1
            self._worst_v = max(self._worst_v, divergence)
            if record.diverged:
                self._divergent += 1
        if record.diverged:
            record_degradation(
                "serve.audit", "serving", "diverged",
                f"served map for {case.name!r} off golden by "
                f"{divergence:.3e} V (> {DIVERGENCE_V:g} V)")
            if self.on_divergence is not None:
                self.on_divergence(record)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "observed": self._observed,
                "sampled": self._sampled,
                "dropped": self._dropped,
                "audited": self._audited,
                "divergent": self._divergent,
                "errors": self._errors,
                "worst_divergence_v": self._worst_v,
            }
