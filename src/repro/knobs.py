"""Every ``REPRO_*`` environment knob, declared once.

:data:`KNOBS` gives each variable a parse rule, a default (written as a
user would set it, parsed by the same rule) and a one-line doc;
:func:`read` is the only reader of ``os.environ`` for knobs, and the
EXPERIMENTS.md "Knobs" table is :func:`render` (a test keeps the two
equal).  Unset and blank both mean the default; a value that does not
parse, or is out of the knob's range, raises ``ValueError`` naming the
variable.  Knobs are read at call time, never at import.  A config
dataclass declares a knob-backed field with :func:`field` (its default
is the knob's), reads the environment in ``from_env`` through
:func:`build`, and may hold explicit values to the same ranges with
:func:`check`.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict, Mapping, NamedTuple, Tuple

__all__ = ["Knob", "KNOBS", "read", "field", "check", "build", "render"]

_FLAGS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _flag(text: str, allowed: Tuple[str, ...] = ()):
    if text.lower() in allowed:
        return text.lower()
    if text.lower() not in _FLAGS:
        raise ValueError(f"expected one of {allowed + tuple(_FLAGS)}")
    return _FLAGS[text.lower()]


#: parse rules by name: the first word of a knob's ``rule``
RULES = {
    "int": int,
    "float": float,
    "ms": lambda text: float(text) / 1000.0,
    "ms/off": lambda text: float(text) / 1000.0 or None,
    "flag": _flag,
    "auto/flag": lambda text: _flag(text, ("auto",)),
    "choice": str.lower,
    "path": str,
}

#: value ranges: the rest of a knob's ``rule``
BOUNDS = {
    ">= 0": lambda value: value >= 0,
    ">= 1": lambda value: value >= 1,
    "> 0": lambda value: value > 0,
    "in (0, 1]": lambda value: 0 < value <= 1,
}


class Knob(NamedTuple):
    """One environment variable: ``rule`` (a :data:`RULES` name, then
    optionally a :data:`BOUNDS` range), default and doc."""

    name: str
    rule: str
    default: str
    doc: str
    choices: Tuple[str, ...] = ()

    def parse(self, raw: str, source: str = "") -> Any:
        """The value of ``raw`` (stripped, non-empty); errors name
        ``source`` (default: the variable)."""
        source = source or self.name
        try:
            value = RULES[self.rule.split(" ")[0]](raw)
        except ValueError as error:
            raise ValueError(f"{source}={raw!r}: {error}") from None
        self.check(value, source)
        return value

    def check(self, value: Any, source: str) -> None:
        """Raise ``ValueError`` naming ``source`` when ``value`` is not
        one of the choices or is out of range; ``None`` is valid only
        for a knob without a default."""
        if value is None and not self.default:
            return
        bound = self.rule.partition(" ")[2]
        if self.choices and value not in self.choices:
            raise ValueError(f"{source} must be one of {self.choices}, "
                             f"got {value!r}")
        if bound and not BOUNDS[bound](value):
            raise ValueError(f"{source} must be {bound}, got {value!r}")

    @property
    def value(self) -> Any:
        """The parsed default (``None`` when there is none)."""
        return self.parse(self.default) if self.default else None


_SUITE = ("; no table default: `benchmarks/` {}, `python -m repro.serve` "
          "{}, `python -m repro.ingest` {}")

KNOBS: Dict[str, Knob] = {knob.name: knob for knob in (
    # solver
    Knob("REPRO_SOLVER_DIRECT_LIMIT", "int >= 1", "",
         "`method=\"auto\"` switches to CG above this many nodes; unset: "
         "400 000"),
    Knob("REPRO_SOLVER_MAX_ITERS", "int >= 1", "",
         "CG iteration cap (an explicit `cg_maxiter` wins)"),
    Knob("REPRO_SOLVER_BUDGET_S", "float > 0", "",
         "wall-clock budget per CG solve, seconds"),
    # evaluation and inference (EvalConfig)
    Knob("REPRO_EVAL_EDGE", "int", "48",
         "training/inference edge, px (`python -m repro.ingest` 32)"),
    Knob("REPRO_EVAL_POINTS", "int", "192",
         "LNT point-cloud token budget (`python -m repro.ingest` 64)"),
    Knob("REPRO_EVAL_EPOCHS", "int", "40",
         "fine-tune epochs per model (`python -m repro.ingest` 2)"),
    Knob("REPRO_EVAL_PRETRAIN", "int", "3",
         "pre-train epochs on fake cases (`python -m repro.ingest` 0)"),
    Knob("REPRO_EVAL_BATCH", "int", "4", "training batch size"),
    Knob("REPRO_EVAL_LR", "float", "1e-3", "learning rate"),
    Knob("REPRO_EVAL_FAKE_OVERSAMPLE", "int", "1",
         "fake-case oversampling per epoch"),
    Knob("REPRO_EVAL_REAL_OVERSAMPLE", "int", "3",
         "real-case oversampling per epoch"),
    Knob("REPRO_EVAL_HOTSPOT_WEIGHT", "float", "6.0",
         "loss weight of hotspot pixels"),
    Knob("REPRO_EVAL_SEED", "int", "0", "training RNG seed"),
    Knob("REPRO_EVAL_CHECKPOINT_DIR", "path", "",
         "directory of persisted trained weights (unset: always train)"),
    Knob("REPRO_EVAL_RETRAIN", "flag", "off",
         "train even when a matching checkpoint exists"),
    Knob("REPRO_INFER_ENGINE", "auto/flag", "auto",
         "`auto` compiles the inference engine and falls back to "
         "autograd; on requires it; off forces autograd"),
    Knob("REPRO_INFER_DTYPE", "choice", "",
         "engine precision; unset: float64, bit-exact against autograd",
         ("float64", "float32")),
    # suite size
    Knob("REPRO_BENCH_FAKE", "int", "",
         "unique fake training cases" + _SUITE.format(12, 4, 3)),
    Knob("REPRO_BENCH_REAL", "int", "",
         "unique real training cases" + _SUITE.format(6, 2, 2)),
    Knob("REPRO_BENCH_HIDDEN", "int", "",
         "hidden testcases" + _SUITE.format(10, 6, 1)),
    Knob("REPRO_BENCH_SEED", "int", "",
         "suite RNG seed" + _SUITE.format(3, 3, 0)),
    Knob("REPRO_BENCH_INFER_ROUNDS", "int", "7",
         "timed rounds of `benchmarks/bench_inference.py`"),
    # serving (ServeConfig)
    Knob("REPRO_SERVE_WORKERS", "int >= 1", "1",
         "worker count (threads or processes)"),
    Knob("REPRO_SERVE_WORKER_KIND", "choice", "thread",
         "shared-model threads, or isolated processes that survive a "
         "worker death", ("thread", "process")),
    Knob("REPRO_SERVE_QUEUE", "int >= 1", "64",
         "admission bound; submits beyond it raise `BackpressureError`"),
    Knob("REPRO_SERVE_MAX_BATCH", "int >= 1", "8",
         "micro-batch ceiling handed to one worker"),
    Knob("REPRO_SERVE_WINDOW_MS", "ms >= 0", "2",
         "wait for companions after the first request of a batch"),
    Knob("REPRO_SERVE_RETRIES", "int >= 0", "1",
         "re-dispatches after a worker death before `WorkerDiedError`"),
    # faults and deadlines
    Knob("REPRO_SERVE_DEADLINE_MS", "ms/off > 0", "",
         "default per-request deadline; expired requests fail fast"),
    Knob("REPRO_SERVE_BACKOFF_BASE_MS", "ms >= 0", "20",
         "first re-dispatch delay after a worker death"),
    Knob("REPRO_SERVE_BACKOFF_CAP_MS", "ms", "500",
         "re-dispatch delay ceiling"),
    Knob("REPRO_SERVE_MAX_RESPAWNS", "int >= 0", "8",
         "worker respawns before the pool declares itself failed"),
    Knob("REPRO_BACKOFF_BASE_MS", "ms >= 0", "50",
         "`BackoffPolicy.from_env` base delay"),
    Knob("REPRO_BACKOFF_MAX_MS", "ms", "2000",
         "`BackoffPolicy.from_env` delay cap"),
    Knob("REPRO_CHAOS_SEED", "int", "1337",
         "pinned `FaultPlan` seed of the chaos and self-heal benches"),
    # self-healing
    Knob("REPRO_SERVE_WATCHDOG_MS", "ms/off > 0", "",
         "hung-batch budget: process workers are killed, threads flagged"),
    Knob("REPRO_SERVE_HEARTBEAT_MS", "ms > 0", "200",
         "idle-poll beat interval of worker main loops"),
    Knob("REPRO_SERVE_STALE_MS", "ms > 0", "1000",
         "beat age past which a live worker reports `degraded`"),
    Knob("REPRO_SERVE_BREAKER", "flag", "on", "circuit breaker on/off"),
    Knob("REPRO_SERVE_BREAKER_WINDOW", "int >= 1", "32",
         "sliding outcome window, requests"),
    Knob("REPRO_SERVE_BREAKER_THRESHOLD", "float in (0, 1]", "0.5",
         "failure rate in (0, 1] that opens the circuit"),
    Knob("REPRO_SERVE_BREAKER_MIN", "int >= 1", "8",
         "outcomes in the window before the breaker may trip"),
    Knob("REPRO_SERVE_BREAKER_COOLDOWN_MS", "ms >= 0", "1000",
         "open -> half-open delay"),
    Knob("REPRO_SERVE_BREAKER_PROBES", "int >= 1", "1",
         "concurrent half-open probes"),
    Knob("REPRO_SERVE_GUARD_MIN_V", "float", "0.0",
         "lowest plausible served IR drop, V"),
    Knob("REPRO_SERVE_GUARD_MAX_V", "float", "10.0",
         "highest plausible served IR drop, V"),
    Knob("REPRO_SERVE_AUDIT_EVERY", "int >= 0", "0",
         "golden re-solve of ~1/N fulfilled results; 0 = off"),
    Knob("REPRO_SERVE_AUDIT_DIVERGENCE_V", "float > 0", "0.5",
         "worst-pixel served-vs-golden gap, V, that trips the breaker"),
    Knob("REPRO_SERVE_DRAIN_MS", "ms > 0", "30000",
         "drain deadline of the SIGTERM/SIGINT shutdown handlers"),
)}

_TABLE_DEFAULT = object()


def read(name: str, default: Any = _TABLE_DEFAULT) -> Any:
    """Knob ``name`` from the environment; when unset or blank, the
    caller's ``default`` (an entrypoint's own) or else the table's."""
    knob = KNOBS[name]
    raw = os.environ.get(name, "").strip()
    if raw:
        return knob.parse(raw)
    return knob.value if default is _TABLE_DEFAULT else default


def field(name: str):
    """A config dataclass field backed by knob ``name``: its default is
    the knob's, and :func:`build` reads it from the environment."""
    return dataclasses.field(default=KNOBS[name].value,
                             metadata={"knob": name})


def check(config) -> None:
    """Raise ``ValueError`` when a knob-backed field of ``config`` breaks
    its knob's choices or range (explicit values get the same rule as
    the environment)."""
    for item in dataclasses.fields(config):
        if "knob" in item.metadata:
            KNOBS[item.metadata["knob"]].check(getattr(config, item.name),
                                               item.name)


def build(cls, overrides: Mapping[str, Any]):
    """``cls(...)`` with each knob-backed field read from the environment;
    ``overrides`` win (their knobs are not read), and one that is not a
    field of ``cls`` raises ``TypeError``."""
    fields = dataclasses.fields(cls)
    unknown = sorted(set(overrides) - {item.name for item in fields})
    if unknown:
        raise TypeError(f"unknown {cls.__name__} field(s) {unknown}")
    values = {item.name: read(item.metadata["knob"]) for item in fields
              if "knob" in item.metadata and item.name not in overrides}
    return cls(**values, **overrides)


def render() -> str:
    """The Markdown knob table of EXPERIMENTS.md."""
    lines = ["| variable | type | default | meaning |", "|---|---|---|---|"]
    for knob in KNOBS.values():
        kind = " / ".join(f"`{c}`" for c in knob.choices) or knob.rule
        lines.append(f"| `{knob.name}` | {kind} | {knob.default or '—'} "
                     f"| {knob.doc} |")
    return "\n".join(lines)
