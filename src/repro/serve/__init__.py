"""Always-on IR-drop prediction serving (PR 7 tentpole, self-healing
since PR 10).

The layers, bottom to top:

* :mod:`repro.serve.config` — :class:`ServeConfig` + ``REPRO_SERVE_*``;
* :mod:`repro.serve.queue` — bounded admission, tickets, loud errors;
* :mod:`repro.serve.health` — worker heartbeats, the versioned
  healthy/degraded/unhealthy model, and the transition timeline;
* :mod:`repro.serve.breaker` — sliding-window circuit breaker shedding
  doomed work with :class:`CircuitOpenError`;
* :mod:`repro.serve.guard` — served-output integrity (checksum /
  NaN / Inf / shape / physical range) plus the sampled online audit
  against the golden solver;
* :mod:`repro.serve.worker` — one worker supervisor over thread or
  process transports, each worker owning a private predictor (engine
  plans, workspace slabs, prep cache), with heartbeats and a hung-worker
  watchdog;
* :mod:`repro.serve.service` — micro-batching scheduler + façade;
* :mod:`repro.serve.registry` — content-addressed checkpoint registry
  feeding hot-swaps;
* :mod:`repro.serve.loadgen` — synthetic open-loop load generator.

``python -m repro.serve`` runs a self-contained demo daemon under
synthetic load with graceful SIGTERM/SIGINT drain (see ``__main__.py``).
"""

from repro.serve.breaker import BREAKER_STATES, CircuitBreaker, CircuitOpenError
from repro.serve.config import ServeConfig, WORKER_KINDS
from repro.serve.guard import (
    INTEGRITY_CODES,
    AuditRecord,
    IntegrityError,
    OnlineAuditor,
    OutputGuard,
    prediction_digest,
)
from repro.serve.health import (
    HEALTH_TIMELINE_FORMAT,
    HealthMonitor,
    HealthSnapshot,
    WorkerHealth,
)
from repro.serve.loadgen import LoadReport, open_loop_load
from repro.serve.queue import (
    BackpressureError,
    DeadlineExceededError,
    PredictionFailedError,
    PredictionRequest,
    PredictionTicket,
    RequestQueue,
    ServeError,
    ServeResult,
    ServiceClosedError,
    TicketStateError,
    WorkerDiedError,
    WorkerStalledError,
)
from repro.serve.registry import SERVE_CHECKPOINT_FORMAT, ModelRegistry
from repro.serve.service import PredictionService
from repro.serve.worker import PredictorSpec

__all__ = [
    "ServeConfig", "WORKER_KINDS",
    "RequestQueue", "PredictionRequest", "PredictionTicket", "ServeResult",
    "ServeError", "BackpressureError", "ServiceClosedError",
    "WorkerDiedError", "WorkerStalledError", "PredictionFailedError",
    "TicketStateError", "DeadlineExceededError",
    "BREAKER_STATES", "CircuitBreaker", "CircuitOpenError",
    "INTEGRITY_CODES", "IntegrityError", "OutputGuard", "AuditRecord",
    "OnlineAuditor", "prediction_digest",
    "HEALTH_TIMELINE_FORMAT", "HealthMonitor", "HealthSnapshot",
    "WorkerHealth",
    "PredictorSpec",
    "PredictionService",
    "ModelRegistry", "SERVE_CHECKPOINT_FORMAT",
    "LoadReport", "open_loop_load",
]
