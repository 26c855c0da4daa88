"""Serving-daemon knobs: :class:`ServeConfig`.

Every field has a ``REPRO_SERVE_*`` environment variable, declared with
its default in :mod:`repro.knobs` (EXPERIMENTS.md "Knobs" lists them), so
a deployed daemon is tuned without code changes;
:meth:`ServeConfig.from_env` reads them.  Policies nothing tunes are
module constants of the layer that applies them: the guard's volt
bounds and the audit's divergence threshold (:mod:`repro.serve.guard`),
the breaker's trip threshold and probe count
(:mod:`repro.serve.breaker`), the respawn budget
(:mod:`repro.serve.worker`) and the shutdown drain deadline
(:mod:`repro.serve.__main__`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import knobs

__all__ = ["ServeConfig", "WORKER_KINDS"]

WORKER_KINDS = knobs.KNOBS["REPRO_SERVE_WORKER_KIND"].choices


@dataclass
class ServeConfig:
    """Knobs of one :class:`~repro.serve.service.PredictionService`.

    ``batch_window_s`` is the *latency budget* of the micro-batcher
    while the pool is busy: once the first request of a batch is picked
    up and no worker could start it anyway, the scheduler waits at most
    this long for companions, so a loaded service coalesces up to
    ``max_batch`` cases into one forward (the continuous form of
    ``predict_many``'s same-shape grouping).  An idle pool waits for
    nothing: the request is dispatched at once with whatever has already
    queued behind it.
    ``queue_capacity`` bounds admission: a submit against a full queue is
    rejected loudly (:class:`~repro.serve.queue.BackpressureError`),
    never silently dropped.
    """

    workers: int = knobs.field("REPRO_SERVE_WORKERS")
    worker_kind: str = knobs.field("REPRO_SERVE_WORKER_KIND")
    queue_capacity: int = knobs.field("REPRO_SERVE_QUEUE")
    max_batch: int = knobs.field("REPRO_SERVE_MAX_BATCH")
    batch_window_s: float = knobs.field("REPRO_SERVE_WINDOW_MS")
    retries: int = knobs.field("REPRO_SERVE_RETRIES")
    deadline_s: "float | None" = knobs.field("REPRO_SERVE_DEADLINE_MS")
    backoff_base_s: float = knobs.field("REPRO_SERVE_BACKOFF_BASE_MS")
    backoff_cap_s: float = knobs.field("REPRO_SERVE_BACKOFF_CAP_MS")
    watchdog_s: "float | None" = knobs.field("REPRO_SERVE_WATCHDOG_MS")
    heartbeat_s: float = knobs.field("REPRO_SERVE_HEARTBEAT_MS")
    stale_after_s: float = knobs.field("REPRO_SERVE_STALE_MS")
    breaker_enabled: bool = knobs.field("REPRO_SERVE_BREAKER")
    breaker_window: int = knobs.field("REPRO_SERVE_BREAKER_WINDOW")
    breaker_min_requests: int = knobs.field("REPRO_SERVE_BREAKER_MIN")
    breaker_cooldown_s: float = knobs.field("REPRO_SERVE_BREAKER_COOLDOWN_MS")
    audit_every: int = knobs.field("REPRO_SERVE_AUDIT_EVERY")

    def __post_init__(self) -> None:
        knobs.check(self)
        if self.backoff_cap_s < self.backoff_base_s:
            raise ValueError(
                f"backoff_cap_s must be >= backoff_base_s, "
                f"got {self.backoff_cap_s} < {self.backoff_base_s}")

    @classmethod
    def from_env(cls, **overrides) -> "ServeConfig":
        """Build a config honouring ``REPRO_SERVE_*`` variables; explicit
        keyword overrides win over the environment."""
        return knobs.build(cls, overrides)
