"""Serving-daemon knobs (:class:`ServeConfig`) and their environment
surface.

Every knob has a ``REPRO_SERVE_*`` environment variable so a deployed
daemon is tuned without code changes (the table lives in EXPERIMENTS.md
"Serving"):

=========================  ============================================
variable                   meaning
=========================  ============================================
REPRO_SERVE_WORKERS        worker count (default 1 — the measured
                           reference box is single-core; raise on real
                           multi-core hardware)
REPRO_SERVE_WORKER_KIND    ``thread`` (default) or ``process``
REPRO_SERVE_QUEUE          admission-queue bound (requests)
REPRO_SERVE_MAX_BATCH      micro-batch size ceiling
REPRO_SERVE_WINDOW_MS      micro-batch latency budget, milliseconds
REPRO_SERVE_RETRIES        re-dispatch attempts after a worker death
REPRO_SERVE_MP_CONTEXT     multiprocessing start method for process
                           workers (default ``spawn``: never forks a
                           threaded parent)
REPRO_SERVE_DEADLINE_MS    per-request deadline, milliseconds (unset/
                           empty/0 = none); expired requests fail fast
                           with ``DeadlineExceededError`` before
                           occupying a micro-batch slot
REPRO_SERVE_BACKOFF_BASE_MS  first re-dispatch delay after a worker
                             death (exponential from here)
REPRO_SERVE_BACKOFF_CAP_MS   re-dispatch delay ceiling
REPRO_SERVE_MAX_RESPAWNS   worker respawn ceiling before the pool
                           declares itself failed (crash-loop
                           backstop)
REPRO_SERVE_WATCHDOG_MS    hung-worker budget: a batch outstanding
                           longer than this marks the worker stalled
                           (process workers are force-killed and the
                           batch re-dispatched; thread workers are
                           flagged and the batch failed with
                           ``WorkerStalledError``).  Unset/empty/0 =
                           watchdog off
REPRO_SERVE_HEARTBEAT_MS   worker heartbeat cadence (idle-poll period
                           of the worker main loops)
REPRO_SERVE_STALE_MS       heartbeat freshness budget: a live worker
                           quiet longer than this reports ``degraded``
                           on the health model
REPRO_SERVE_BREAKER        circuit breaker on/off (default on; ``0`` /
                           ``false`` / ``no`` disables)
REPRO_SERVE_BREAKER_WINDOW       breaker sliding window (requests)
REPRO_SERVE_BREAKER_THRESHOLD    failure rate in (0, 1] that trips open
REPRO_SERVE_BREAKER_MIN          observations required before tripping
REPRO_SERVE_BREAKER_COOLDOWN_MS  open -> half-open cooldown
REPRO_SERVE_BREAKER_PROBES       half-open probe admissions
REPRO_SERVE_GUARD_MIN_V    lowest physically plausible served IR drop
REPRO_SERVE_GUARD_MAX_V    highest physically plausible served IR drop
REPRO_SERVE_AUDIT_EVERY    online audit sampling: golden re-solve ~1/N
                           fulfilled results (unset/empty/0 = off)
REPRO_SERVE_AUDIT_DIVERGENCE_V   worst-pixel served-vs-golden gap that
                                 trips the breaker
REPRO_SERVE_DRAIN_MS       drain deadline of the SIGTERM/SIGINT
                           graceful-shutdown handlers
=========================  ============================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["ServeConfig", "WORKER_KINDS"]

WORKER_KINDS = ("thread", "process")


def _env_deadline(name: str) -> "float | None":
    """Milliseconds from the environment; unset, empty, or 0 mean no
    deadline."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    value_ms = float(raw)
    if value_ms == 0:
        return None
    return value_ms / 1000.0


def _env_flag(name: str, default: bool) -> bool:
    """Boolean knob: ``0`` / ``false`` / ``no`` / ``off`` disable."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off")


@dataclass
class ServeConfig:
    """Knobs of one :class:`~repro.serve.service.PredictionService`.

    ``batch_window_s`` is the *latency budget* of the micro-batcher: once
    the first request of a batch is picked up, the scheduler waits at
    most this long for companions before dispatching, so an idle service
    adds no more than the window to a lone request's latency while a
    loaded one coalesces up to ``max_batch`` cases into one forward
    (the continuous form of ``predict_many``'s same-shape grouping).
    ``queue_capacity`` bounds admission: a submit against a full queue is
    rejected loudly (:class:`~repro.serve.queue.BackpressureError`),
    never silently dropped.
    """

    workers: int = 1
    worker_kind: str = "thread"
    queue_capacity: int = 64
    max_batch: int = 8
    batch_window_s: float = 0.002
    retries: int = 1
    mp_context: str = "spawn"
    deadline_s: "float | None" = None
    backoff_base_s: float = 0.02
    backoff_cap_s: float = 0.5
    max_respawns: int = 8
    watchdog_s: "float | None" = None
    heartbeat_s: float = 0.2
    stale_after_s: float = 1.0
    breaker_enabled: bool = True
    breaker_window: int = 32
    breaker_threshold: float = 0.5
    breaker_min_requests: int = 8
    breaker_cooldown_s: float = 1.0
    breaker_probes: int = 1
    guard_min_v: float = 0.0
    guard_max_v: float = 10.0
    audit_every: int = 0
    audit_divergence_v: float = 0.5
    drain_s: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.worker_kind not in WORKER_KINDS:
            raise ValueError(
                f"worker_kind must be one of {WORKER_KINDS}, "
                f"got {self.worker_kind!r}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.batch_window_s < 0:
            raise ValueError(
                f"batch_window_s must be >= 0, got {self.batch_window_s}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive or None, got {self.deadline_s}")
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ValueError(
                f"backoff_cap_s must be >= backoff_base_s, "
                f"got {self.backoff_cap_s} < {self.backoff_base_s}")
        if self.max_respawns < 0:
            raise ValueError(
                f"max_respawns must be >= 0, got {self.max_respawns}")
        if self.watchdog_s is not None and self.watchdog_s <= 0:
            raise ValueError(
                f"watchdog_s must be positive or None, got {self.watchdog_s}")
        if self.heartbeat_s <= 0:
            raise ValueError(
                f"heartbeat_s must be > 0, got {self.heartbeat_s}")
        if self.stale_after_s <= 0:
            raise ValueError(
                f"stale_after_s must be > 0, got {self.stale_after_s}")
        if self.breaker_window < 1:
            raise ValueError(
                f"breaker_window must be >= 1, got {self.breaker_window}")
        if not 0.0 < self.breaker_threshold <= 1.0:
            raise ValueError(
                f"breaker_threshold must be in (0, 1], "
                f"got {self.breaker_threshold}")
        if self.breaker_min_requests < 1:
            raise ValueError(
                f"breaker_min_requests must be >= 1, "
                f"got {self.breaker_min_requests}")
        if self.breaker_cooldown_s < 0:
            raise ValueError(
                f"breaker_cooldown_s must be >= 0, "
                f"got {self.breaker_cooldown_s}")
        if self.breaker_probes < 1:
            raise ValueError(
                f"breaker_probes must be >= 1, got {self.breaker_probes}")
        if not self.guard_max_v > self.guard_min_v:
            raise ValueError(
                f"guard_max_v must be > guard_min_v, "
                f"got {self.guard_min_v} .. {self.guard_max_v}")
        if self.audit_every < 0:
            raise ValueError(
                f"audit_every must be >= 0 (0 = off), "
                f"got {self.audit_every}")
        if self.audit_divergence_v <= 0:
            raise ValueError(
                f"audit_divergence_v must be > 0, "
                f"got {self.audit_divergence_v}")
        if self.drain_s <= 0:
            raise ValueError(
                f"drain_s must be > 0, got {self.drain_s}")

    @classmethod
    def from_env(cls, **overrides) -> "ServeConfig":
        """Build a config honouring ``REPRO_SERVE_*`` variables; explicit
        keyword overrides win over the environment."""
        def env_int(name: str, default: int) -> int:
            return int(os.environ.get(name, default))

        config = cls(
            workers=env_int("REPRO_SERVE_WORKERS", cls.workers),
            worker_kind=os.environ.get("REPRO_SERVE_WORKER_KIND",
                                       cls.worker_kind).strip().lower(),
            queue_capacity=env_int("REPRO_SERVE_QUEUE", cls.queue_capacity),
            max_batch=env_int("REPRO_SERVE_MAX_BATCH", cls.max_batch),
            batch_window_s=float(os.environ.get(
                "REPRO_SERVE_WINDOW_MS",
                cls.batch_window_s * 1000.0)) / 1000.0,
            retries=env_int("REPRO_SERVE_RETRIES", cls.retries),
            mp_context=os.environ.get("REPRO_SERVE_MP_CONTEXT",
                                      cls.mp_context).strip().lower(),
            deadline_s=_env_deadline("REPRO_SERVE_DEADLINE_MS"),
            backoff_base_s=float(os.environ.get(
                "REPRO_SERVE_BACKOFF_BASE_MS",
                cls.backoff_base_s * 1000.0)) / 1000.0,
            backoff_cap_s=float(os.environ.get(
                "REPRO_SERVE_BACKOFF_CAP_MS",
                cls.backoff_cap_s * 1000.0)) / 1000.0,
            max_respawns=env_int("REPRO_SERVE_MAX_RESPAWNS",
                                 cls.max_respawns),
            watchdog_s=_env_deadline("REPRO_SERVE_WATCHDOG_MS"),
            heartbeat_s=float(os.environ.get(
                "REPRO_SERVE_HEARTBEAT_MS",
                cls.heartbeat_s * 1000.0)) / 1000.0,
            stale_after_s=float(os.environ.get(
                "REPRO_SERVE_STALE_MS",
                cls.stale_after_s * 1000.0)) / 1000.0,
            breaker_enabled=_env_flag("REPRO_SERVE_BREAKER",
                                      cls.breaker_enabled),
            breaker_window=env_int("REPRO_SERVE_BREAKER_WINDOW",
                                   cls.breaker_window),
            breaker_threshold=float(os.environ.get(
                "REPRO_SERVE_BREAKER_THRESHOLD", cls.breaker_threshold)),
            breaker_min_requests=env_int("REPRO_SERVE_BREAKER_MIN",
                                         cls.breaker_min_requests),
            breaker_cooldown_s=float(os.environ.get(
                "REPRO_SERVE_BREAKER_COOLDOWN_MS",
                cls.breaker_cooldown_s * 1000.0)) / 1000.0,
            breaker_probes=env_int("REPRO_SERVE_BREAKER_PROBES",
                                   cls.breaker_probes),
            guard_min_v=float(os.environ.get("REPRO_SERVE_GUARD_MIN_V",
                                             cls.guard_min_v)),
            guard_max_v=float(os.environ.get("REPRO_SERVE_GUARD_MAX_V",
                                             cls.guard_max_v)),
            audit_every=env_int("REPRO_SERVE_AUDIT_EVERY", cls.audit_every),
            audit_divergence_v=float(os.environ.get(
                "REPRO_SERVE_AUDIT_DIVERGENCE_V", cls.audit_divergence_v)),
            drain_s=float(os.environ.get(
                "REPRO_SERVE_DRAIN_MS", cls.drain_s * 1000.0)) / 1000.0,
        )
        for key, value in overrides.items():
            if not hasattr(config, key):
                raise TypeError(f"unknown ServeConfig field {key!r}")
            setattr(config, key, value)
        config.__post_init__()
        return config
