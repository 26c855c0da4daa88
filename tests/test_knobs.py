"""The knob table: one parsing policy, and no drift between the table,
the code that reads it, the config dataclasses and EXPERIMENTS.md."""

import dataclasses
import os
import re

import pytest

from repro import knobs
from repro.eval.harness import EvalConfig
from repro.infer.engine import _SUPPORTED_DTYPES
from repro.serve.config import ServeConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = (EvalConfig, ServeConfig)


@pytest.mark.parametrize("name, raw, expected", [
    ("REPRO_SERVE_BREAKER", "on", True),
    ("REPRO_SERVE_BREAKER", "true ", True),
    ("REPRO_SERVE_BREAKER", "No", False),
    ("REPRO_SERVE_BREAKER", " OFF", False),
    ("REPRO_SERVE_BREAKER", "disable", ValueError),
    ("REPRO_SERVE_QUEUE", "", 64),
    ("REPRO_SERVE_QUEUE", "  ", 64),
    ("REPRO_SERVE_DEADLINE_MS", "", None),
    ("REPRO_SERVE_DEADLINE_MS", "0", None),
    ("REPRO_SERVE_DEADLINE_MS", "250", 0.25),
    ("REPRO_SERVE_WINDOW_MS", "7.5", 0.0075),
    ("REPRO_SERVE_WORKERS", "two", ValueError),
    ("REPRO_SOLVER_BUDGET_S", "ten", ValueError),
    ("REPRO_SOLVER_DIRECT_LIMIT", "-1", ValueError),
    ("REPRO_SOLVER_DIRECT_LIMIT", "0", ValueError),
    ("REPRO_SOLVER_DIRECT_LIMIT", "12", 12),
    ("REPRO_INFER_DTYPE", " float32", "float32"),
    ("REPRO_INFER_DTYPE", "float16", ValueError),
    ("REPRO_SERVE_WORKER_KIND", "Process ", "process"),
    ("REPRO_SERVE_WORKER_KIND", "fiber", ValueError),
    ("REPRO_SERVE_WORKERS", "0", ValueError),
    ("REPRO_SERVE_DEADLINE_MS", "-5", ValueError),
    ("REPRO_SOLVER_BUDGET_S", "0", ValueError),
])
def test_parse_policy(monkeypatch, name, raw, expected):
    monkeypatch.setenv(name, raw)
    if expected is ValueError:
        with pytest.raises(ValueError, match=name):
            knobs.read(name)
    else:
        assert knobs.read(name) == expected


def test_caller_default_applies_only_when_unset(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_FAKE", "")
    assert knobs.read("REPRO_BENCH_FAKE", 4) == 4
    monkeypatch.setenv("REPRO_BENCH_FAKE", "9")
    assert knobs.read("REPRO_BENCH_FAKE", 4) == 9


class TestConsumers:
    """The flag rule reaches every config that reads a flag."""

    @pytest.mark.parametrize("raw", ["on", "true ", "YES"])
    def test_serve_breaker_truthy(self, monkeypatch, raw):
        # the default is on: turn it off first so the read is observable
        monkeypatch.setenv("REPRO_SERVE_BREAKER", "off")
        assert ServeConfig.from_env().breaker_enabled is False
        monkeypatch.setenv("REPRO_SERVE_BREAKER", raw)
        assert ServeConfig.from_env().breaker_enabled is True

    def test_breaker_typo_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_BREAKER", "disable")
        with pytest.raises(ValueError, match="REPRO_SERVE_BREAKER"):
            ServeConfig.from_env()

    def test_override_skips_a_malformed_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "two")
        assert ServeConfig.from_env(workers=2).workers == 2


def _files():
    for top in ("src", "benchmarks", "examples"):
        for folder, _, names in os.walk(os.path.join(ROOT, top)):
            for name in names:
                if name.endswith(".py"):
                    yield os.path.join(folder, name)
    yield os.path.join(ROOT, ".github", "workflows", "ci.yml")


def _sources():
    sources = {}
    for path in _files():
        with open(path) as handle:
            sources[os.path.relpath(path, ROOT)] = handle.read()
    return sources


class TestDrift:
    def test_every_rule_and_default_parses(self):
        for knob in knobs.KNOBS.values():
            kind, _, bound = knob.rule.partition(" ")
            assert kind in knobs.RULES and (not bound
                                            or bound in knobs.BOUNDS)
            knob.value  # raises if the default breaks its own rule

    def test_every_rule_and_bound_is_used(self):
        used = [knob.rule.partition(" ") for knob in knobs.KNOBS.values()]
        assert set(knobs.RULES) - {kind for kind, _, _ in used} == set()
        assert set(knobs.BOUNDS) - {bound for _, _, bound in used} == set()

    def test_every_literal_is_a_knob(self):
        unknown = set()
        for text in _sources().values():
            for token in re.findall(r"REPRO_[A-Z0-9_]*", text):
                if token.endswith("_"):  # a family prefix in prose
                    if not any(name.startswith(token) for name in knobs.KNOBS):
                        unknown.add(token)
                elif token not in knobs.KNOBS:
                    unknown.add(token)
        assert not unknown

    def test_every_knob_is_read(self):
        table = os.path.join("src", "repro", "knobs.py")
        code = "".join(text for path, text in _sources().items()
                       if path != table)
        backed = {item.metadata["knob"] for cls in CONFIGS
                  for item in dataclasses.fields(cls)
                  if "knob" in item.metadata}
        unread = [name for name in knobs.KNOBS if name not in backed
                  and f'knobs.read("{name}"' not in code]
        assert not unread

    def test_only_the_table_reads_the_environment(self):
        # bench/runner.py records every REPRO_* variable it sees and
        # hands the shell environment to subprocesses
        allowed = {os.path.join("src", "repro", "knobs.py"),
                   os.path.join("src", "repro", "bench", "runner.py")}
        readers = sorted(path for path, text in _sources().items()
                         if path.startswith("src") and path not in allowed
                         and re.search(r"os\.environ|getenv", text))
        assert not readers

    def test_config_defaults_match_the_table(self):
        for cls in CONFIGS:
            for item in dataclasses.fields(cls):
                if "knob" in item.metadata:
                    knob = knobs.KNOBS[item.metadata["knob"]]
                    assert item.default == knob.value, knob.name

    def test_dtype_choices_match_the_engine(self):
        assert knobs.KNOBS["REPRO_INFER_DTYPE"].choices == _SUPPORTED_DTYPES

    def test_experiments_table_is_the_rendering(self):
        with open(os.path.join(ROOT, "EXPERIMENTS.md")) as handle:
            text = handle.read()
        documented = text.split("<!-- knobs:begin -->\n")[1].split(
            "\n<!-- knobs:end -->")[0]
        assert documented == knobs.render(), (
            "regenerate the EXPERIMENTS.md table from "
            "repro.knobs.render()")
