"""Shared fixtures for the serving-layer tests.

The model is tiny (the serving contracts under test — admission,
batching, worker liveness — are independent of model size) and
deliberately *untrained*: serving only ever runs ``eval()`` forwards, and
an untrained net still produces deterministic, weight-dependent outputs,
which is all parity tests need.
"""

import pytest

from repro.core.model import LMMIR, LMMIRConfig
from repro.data.synthesis import synthesize_case
from repro.serve.worker import PredictorSpec
from repro.train.loader import CasePreprocessor
from repro.train.seed import seed_everything


def tiny_model(seed: int = 0) -> LMMIR:
    seed_everything(seed)
    model = LMMIR(LMMIRConfig(in_channels=6, base_channels=4, depth=2,
                              encoder_kernel=3, netlist_dim=8,
                              netlist_depth=1, netlist_heads=2,
                              fusion_heads=2))
    model.eval()
    return model


@pytest.fixture(scope="session")
def serve_cases():
    return [synthesize_case("fake", seed=s) for s in (400, 401, 402, 403)]


@pytest.fixture(scope="session")
def serve_preprocessor(serve_cases):
    pre = CasePreprocessor(target_edge=16, num_points=32)
    pre.fit(serve_cases)
    return pre


@pytest.fixture
def serve_spec(serve_preprocessor):
    """Fresh spec per test: nothing a test does to its model leaks."""
    return PredictorSpec(model=tiny_model(), preprocessor=serve_preprocessor,
                         name="tiny", kwargs={"tta_samples": 1,
                                              "prep_cache": 8})

