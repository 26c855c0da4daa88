"""Op census: every op and engine builder is reached by a model that runs.

The census builds every registered model and every Fig. 4 ablation
architecture, runs one ``masked_mse`` + ``Adam`` training step on each
(the trainer's arithmetic) and one compiled ``InferenceEngine`` forward
(the serving arithmetic), and records which functions ran.

* Every key of ``infer.steps.BUILDERS`` must be reached: a builder no
  model compiles is dead code.
* Every name in ``nn.functional.__all__`` must be reached, except the
  trace-hook infrastructure and the autograd ops in ``UNREACHED``.  Those
  are ops no model runs whose unit tests have not been retired yet.  The
  list must match the census exactly, so it can only shrink: deleting an
  op means dropping it here, and a model that starts using one (or a new
  op nothing uses) fails until the list is updated.
"""

import sys

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

UNREACHED = {
    "neg", "abs", "clip", "sqrt", "tanh", "leaky_relu", "getitem", "stack",
    "pad2d", "max", "min", "log_softmax", "avg_pool2d", "upsample_nearest2d",
    "embedding", "dropout", "where",
    "avg_pool2d_kernel", "upsample_nearest2d_kernel",
}


def _census_models():
    for name, spec in sorted(MODEL_REGISTRY.items()):
        seed_everything(0)
        yield name, spec.build(), len(spec.channels), spec.uses_pointcloud
    for name, ablation in ABLATION_CONFIGS.items():
        seed_everything(0)
        yield (f"ablation:{name}", build_ablation_model(ablation),
               len(ALL_CHANNELS), ablation.use_lnt)


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
            optimizer.step()
            model.eval()
            InferenceEngine(model).run(*args)
    finally:
        sys.setprofile(None)
        steps.BUILDERS.update(builders)
    unreached_ops = {name for name in F.__all__
                     if getattr(F, name).__code__ not in called}
    return unreached_ops, set(builders) - reached_builders


def test_every_engine_builder_is_reached(census):
    _, unreached_builders = census
    assert not unreached_builders, (
        f"builders no model compiles: {sorted(unreached_builders)}")


def test_only_listed_functional_ops_are_unreached(census):
    unreached_ops, _ = census
    unreached_ops -= INFRASTRUCTURE
    assert not unreached_ops - UNREACHED, (
        f"ops no model runs: {sorted(unreached_ops - UNREACHED)}")
    assert not UNREACHED - unreached_ops, (
        f"listed as unreached but reached or gone: "
        f"{sorted(UNREACHED - unreached_ops)}")
