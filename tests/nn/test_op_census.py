"""Op census: every op, engine builder and ``repro.nn`` export is reached
by a model that runs.

The census builds every registered model and every Fig. 4 ablation
architecture, runs one ``masked_mse`` + ``clip_grad_norm`` + ``Adam``
training step on each (the trainer's arithmetic) and one compiled
``InferenceEngine`` forward per dtype (the float32 serving arithmetic and
the float64 oracle), and records which functions ran.

* Every key of ``infer.steps.BUILDERS`` must be reached: a builder no
  model compiles is dead code.
* Every name in ``nn.functional.__all__`` must be reached, except the
  trace-hook infrastructure.
* Every name in ``repro.nn.__all__`` must be reached (a class counts when
  any function it defines ran; a submodule when any function of its
  ``__all__`` ran), or be on ``KEPT_UNREACHED`` with the reason it stays.
  That list must match the census exactly, so it can only shrink: an
  export no model runs fails until it is deleted or listed with a reason.
"""

import inspect
import sys
import types

import numpy as np
import pytest

from repro import nn
from repro.core.registry import MODEL_REGISTRY
from repro.eval.ablation import ABLATION_CONFIGS, build_ablation_model
from repro.features.stack import ALL_CHANNELS
from repro.infer import InferenceEngine, steps
from repro.nn import functional as F
from repro.train.seed import seed_everything

EDGE = 16
POINTS = 24

INFRASTRUCTURE = {"set_trace_hook"}

#: ``repro.nn`` exports no census run reaches, each with why it stays
KEPT_UNREACHED = {
    "check_gradients": "gradient oracle of the autograd unit tests",
    "numerical_gradient": "gradient oracle of the autograd unit tests",
    "MSELoss": "the training loss of benchmarks/bench_fig4_ablation.py",
}


def _census_models():
    for name, spec in sorted(MODEL_REGISTRY.items()):
        seed_everything(0)
        yield name, spec.build(), len(spec.channels), spec.uses_pointcloud
    for name, ablation in ABLATION_CONFIGS.items():
        seed_everything(0)
        yield (f"ablation:{name}", build_ablation_model(ablation),
               len(ALL_CHANNELS), ablation.use_lnt)


def _codes(obj):
    """Code objects whose running means ``obj`` was reached."""
    if isinstance(obj, types.ModuleType):
        return set().union(*(_codes(getattr(obj, name))
                             for name in obj.__all__))
    if inspect.isclass(obj):
        return {member.__code__ for member in vars(obj).values()
                if inspect.isfunction(member)}
    return {inspect.unwrap(obj).__code__}


@pytest.fixture(scope="module")
def census():
    builders = {}
    reached_builders = set()

    def counting(op, builder):
        def build(*args, **kwargs):
            reached_builders.add(op)
            return builder(*args, **kwargs)
        return build

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    builders.update(steps.BUILDERS)
    try:
        for op, builder in builders.items():
            steps.BUILDERS[op] = counting(op, builder)
        sys.setprofile(profile)
        for _, model, channels, uses_points in _census_models():
            rng = np.random.default_rng(0)
            args = [rng.normal(size=(2, channels, EDGE, EDGE))]
            if uses_points:
                args.append(rng.normal(size=(2, POINTS, 11)))
            model.train()
            optimizer = nn.Adam(model.parameters(), lr=1e-3)
            prediction = model(*[nn.Tensor(a) for a in args])
            loss = nn.masked_mse(prediction, nn.Tensor(np.zeros(prediction.shape)),
                                 np.ones(prediction.shape))
            optimizer.zero_grad()
            loss.backward()
            nn.clip_grad_norm(model.parameters(), 5.0)
            optimizer.step()
            model.eval()
            for dtype in ("float32", "float64"):
                InferenceEngine(model, dtype=dtype).run(*args)
    finally:
        sys.setprofile(None)
        steps.BUILDERS.update(builders)
    unreached_ops = {name for name in F.__all__
                     if getattr(F, name).__code__ not in called}
    unreached_exports = {name for name in nn.__all__
                         if not _codes(getattr(nn, name)) & called}
    return unreached_ops, set(builders) - reached_builders, unreached_exports


def test_every_engine_builder_is_reached(census):
    _, unreached_builders, _ = census
    assert not unreached_builders, (
        f"builders no model compiles: {sorted(unreached_builders)}")


def test_only_listed_functional_ops_are_unreached(census):
    unreached_ops, _, _ = census
    assert not unreached_ops - INFRASTRUCTURE, (
        f"ops no model runs: {sorted(unreached_ops - INFRASTRUCTURE)}")


def test_every_nn_export_is_reached_or_kept(census):
    _, _, unreached_exports = census
    assert not unreached_exports - set(KEPT_UNREACHED), (
        f"repro.nn exports no model runs: "
        f"{sorted(unreached_exports - set(KEPT_UNREACHED))}")
    assert not set(KEPT_UNREACHED) - unreached_exports, (
        f"kept as unreached but reached or gone: "
        f"{sorted(set(KEPT_UNREACHED) - unreached_exports)}")
