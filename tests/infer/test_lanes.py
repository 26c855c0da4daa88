"""Sample-parallel lanes: shard bounds, one shared pool, and bit parity
of sharded forwards on the served LMM-IR configuration."""

import threading

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.core.registry import MODEL_REGISTRY
from repro.infer import InferenceEngine, lanes
from repro.train.seed import seed_everything

#: the served configuration (``python -m repro.serve`` defaults)
SERVED_MODEL, SERVED_EDGE, SERVED_POINTS = "LMM-IR (Ours)", 48, 192


@pytest.fixture
def two_lanes(monkeypatch):
    monkeypatch.setattr(lanes, "LANES", 2)


def test_shard_bounds_are_row_contiguous_larger_first():
    assert lanes.shard_bounds(1, 2) == [(0, 1)]
    assert lanes.shard_bounds(5, 2) == [(0, 3), (3, 5)]
    assert lanes.shard_bounds(8, 2) == [(0, 4), (4, 8)]
    assert lanes.shard_bounds(2, 4) == [(0, 1), (1, 2)]
    assert lanes.shard_bounds(7, 3) == [(0, 3), (3, 5), (5, 7)]
    assert lanes.shard_bounds(4, 1) == [(0, 4)]


def test_lanes_follow_the_blas_pin():
    if lanes.blas_threads() is None:
        assert lanes.LANES == 1
    else:
        assert lanes.blas_threads() == 1
        assert lanes.LANES >= 1


def test_width_sensitive_gemm_same_bits_on_caller_and_lane(two_lanes):
    """One of the served model's K >= 500 conv GEMMs, whose bits depend
    on the BLAS thread count, gives the same bits on the caller and on a
    lane thread, also while both run it at once (as shards do)."""
    rng = np.random.default_rng(0)
    weights = rng.normal(size=(20, 500))
    cols = rng.normal(size=(1, 500, 576))
    serial = np.matmul(weights, cols)
    for _ in range(5):
        lane = lanes.executor().submit(np.matmul, weights, cols)
        caller = np.matmul(weights, cols)
        assert np.array_equal(caller, serial)
        assert np.array_equal(lane.result(), serial)


def test_one_bounded_pool_shared_by_engines(two_lanes):
    seed_everything(0)
    spec = MODEL_REGISTRY["IREDGe"]
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, len(spec.channels), 16, 16))
    for _ in range(2):
        InferenceEngine(spec.build().eval()).run(x)
    pool = lanes.executor()
    assert pool is lanes.executor()
    names = [thread.name for thread in threading.enumerate()
             if thread.name.startswith("infer-lane")]
    assert 1 <= len(names) <= pool._max_workers


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_sharded_forward_bit_exact_on_served_config(two_lanes, dtype):
    """For every micro-batch size the service forms, the sharded forward
    equals the row-stack of batch-1 runs bit for bit, in the served
    float32 and in float64; float64 also equals ``model.forward`` bit
    for bit, and float32 agrees with it to 1e-4 relative."""
    seed_everything(0)
    spec = MODEL_REGISTRY[SERVED_MODEL]
    model = spec.build().eval()
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, len(spec.channels), SERVED_EDGE, SERVED_EDGE))
    points = rng.normal(size=(8, SERVED_POINTS, 11))
    engine = InferenceEngine(model, dtype=dtype)
    singles = [engine.run(x[i:i + 1], points[i:i + 1]) for i in range(8)]
    for n in range(1, 9):
        sharded = engine.run(x[:n], points[:n])
        with nn.no_grad():
            reference = model(nn.Tensor(x[:n]), nn.Tensor(points[:n])).data
        assert np.array_equal(sharded, np.concatenate(singles[:n])), n
        if dtype == "float64":
            assert np.array_equal(sharded, reference), n
        else:
            scale = float(np.max(np.abs(reference)))
            assert np.max(np.abs(sharded - reference)) <= 1e-4 * scale, n
    # shards of 1..4 rows: batches 5..8 compile no plan of their own
    assert engine.plan_count == 4
    assert engine.arena.live == 0 and engine.arena.lanes == 2


class _Call(nn.Module):
    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def forward(self, x):
        return self.fn(x)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_batch_mean_is_not_sharded(two_lanes, dtype):
    """A forward that reduces over the batch axis runs whole: its plans
    say the rows are not independent, and ``run`` equals ``np.mean``
    bit for bit instead of stacking per-shard means."""
    x = np.random.default_rng(3).normal(size=(3, 7, 5, 11))
    engine = InferenceEngine(
        _Call(lambda t: F.mean(t, axis=(0, 3))).eval(), dtype=dtype)
    output = engine.run(x)
    expected = np.mean(x.astype(dtype), axis=(0, 3))
    assert output.dtype == expected.dtype
    assert np.array_equal(output, expected)
    assert not engine.compile(x[:2]).rows_independent
    assert engine.arena.live == 0


@pytest.mark.parametrize("forward, independent", [
    (lambda t: F.mean(t, axis=(1, 3), keepdims=True), True),
    (lambda t: F.softmax(F.reshape(t, (t.shape[0], -1)), axis=-1), True),
    (lambda t: F.transpose(F.relu(t), (0, 2, 1, 3)), True),
    (lambda t: F.softmax(t, axis=0), False),
    (lambda t: F.concat([t, t], axis=0), False),
    (lambda t: F.mean(F.transpose(t, (1, 0, 2, 3)), axis=1), False),
    (lambda t: F.reshape(t, (-1, 11)), False),
    (lambda t: F.add(t, np.arange(t.shape[0] * 11.0).reshape(-1, 1, 1, 11)),
     False),
])
def test_sharded_run_matches_the_whole_batch(two_lanes, forward,
                                             independent):
    """Whichever way a forward treats rows, ``run`` on a batch equals
    the autograd forward of the whole batch bit for bit (float64), and
    only a row-independent forward is sharded."""
    x = np.random.default_rng(4).normal(size=(3, 7, 5, 11))
    model = _Call(forward).eval()
    engine = InferenceEngine(model, dtype="float64")
    with nn.no_grad():
        reference = model(nn.Tensor(x)).data
    assert np.array_equal(engine.run(x), reference)
    assert engine.compile(x[:2]).rows_independent is independent


def test_concurrent_engines_share_the_pool(monkeypatch):
    """More callers and lanes than cores: every sharded forward still
    equals its serial result, and no lane's arena holds a buffer."""
    import sys
    monkeypatch.setattr(lanes, "LANES", 3)
    seed_everything(0)
    spec = MODEL_REGISTRY["IREDGe"]
    model = spec.build().eval()
    rng = np.random.default_rng(1)
    batches = [rng.normal(size=(n, len(spec.channels), 16, 16))
               for n in (2, 3, 5, 7)]
    with nn.no_grad():
        expected = [model(nn.Tensor(x)).data for x in batches]
    engines = [InferenceEngine(model, dtype="float64") for _ in batches]
    errors = []

    def serve(engine, x, reference):
        try:
            for _ in range(5):
                assert np.array_equal(engine.run(x), reference)
        except BaseException as error:  # surfaced below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=serve, args=job) for job
                   in zip(engines, batches, expected)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert not errors, errors
    assert all(engine.arena.live == 0 for engine in engines)
