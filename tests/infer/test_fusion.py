"""Graph-level fusion passes: constant folding, BatchNorm weight folding,
bias+ReLU epilogues — plus the pure-kernel/autograd arithmetic contract."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.infer import InferenceEngine, trace_module
from repro.infer import plan as plan_module
from repro.train.seed import seed_everything


def _autograd(model, *args):
    with nn.no_grad():
        return model(*[nn.Tensor(a) for a in args]).data


def _plan(engine, *args):
    return engine.compile(*args)


class _Call(nn.Module):
    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def forward(self, x):
        return self.fn(x)


def _compiled(fn, x):
    """``fn(x)`` replayed by a compiled float64 plan."""
    return InferenceEngine(_Call(fn).eval(), dtype="float64").run(x)


class _ConvBNReLU(nn.Module):
    def __init__(self, cin=3, cout=5):
        super().__init__()
        self.conv = nn.Conv2d(cin, cout, 3, padding=1)
        self.bn = nn.BatchNorm2d(cout)
        self.act = nn.ReLU()

    def forward(self, x):
        return self.act(self.bn(self.conv(x)))


class _LinearBiasReLU(nn.Module):
    def __init__(self):
        super().__init__()
        self.fc = nn.Linear(6, 4)
        self.act = nn.ReLU()

    def forward(self, x):
        return self.act(self.fc(x))


def _randomized_bn(module):
    """Non-trivial running stats so folding actually has work to do."""
    rng = np.random.default_rng(7)
    module.bn._set_buffer("running_mean", rng.normal(size=module.bn.num_features))
    module.bn._set_buffer("running_var", rng.uniform(0.5, 2.0, size=module.bn.num_features))
    module.bn.weight.data = rng.normal(size=module.bn.num_features)
    module.bn.bias.data = rng.normal(size=module.bn.num_features)
    return module


def _unfused(monkeypatch):
    """Compile without epilogue fusion from here on."""
    monkeypatch.setattr(plan_module, "_fuse_epilogues", lambda *args: None)


class TestBatchNormFolding:
    def test_folded_plan_collapses_bn_chain(self, monkeypatch):
        seed_everything(0)
        model = _randomized_bn(_ConvBNReLU()).eval()
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
        folded = InferenceEngine(model, fold_bn=True)
        n_folded = len(_plan(folded, x).steps)
        _unfused(monkeypatch)
        unfused = InferenceEngine(model, fold_bn=False)
        n_unfused = len(_plan(unfused, x).steps)
        # conv + 4 BN elementwise ops + relu collapse into one conv step
        assert n_folded == 1
        assert n_unfused >= 6

    def test_folded_matches_unfused_to_ulp(self):
        seed_everything(0)
        model = _randomized_bn(_ConvBNReLU()).eval()
        x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
        reference = _autograd(model, x)
        folded = InferenceEngine(model, dtype="float64", fold_bn=True).run(x)
        scale = max(float(np.max(np.abs(reference))), 1e-12)
        assert np.max(np.abs(folded - reference)) / scale <= 1e-12

    def test_fold_handles_conv_without_bias(self):
        seed_everything(0)

        class NoBias(nn.Module):
            def __init__(self):
                super().__init__()
                self.conv = nn.Conv2d(3, 5, 3, padding=1, bias=False)
                self.bn = nn.BatchNorm2d(5)

            def forward(self, x):
                return self.bn(self.conv(x))

        model = NoBias().eval()
        rng = np.random.default_rng(3)
        model.bn._set_buffer("running_mean", rng.normal(size=5))
        model.bn._set_buffer("running_var", rng.uniform(0.5, 2.0, size=5))
        x = rng.normal(size=(2, 3, 8, 8))
        reference = _autograd(model, x)
        folded = InferenceEngine(model, dtype="float64", fold_bn=True).run(x)
        scale = max(float(np.max(np.abs(reference))), 1e-12)
        assert np.max(np.abs(folded - reference)) / scale <= 1e-12


class TestEpilogueFusion:
    def test_linear_bias_relu_fuses_and_stays_bit_exact(self, monkeypatch):
        seed_everything(0)
        model = _LinearBiasReLU().eval()
        x = np.random.default_rng(2).normal(size=(5, 6))
        reference = _autograd(model, x)
        fused = InferenceEngine(model, dtype="float64")
        assert np.array_equal(fused.run(x), reference)
        # matmul + bias add + relu become a single step
        assert len(_plan(fused, x).steps) == 1
        _unfused(monkeypatch)
        unfused = InferenceEngine(model, dtype="float64")
        assert len(_plan(unfused, x).steps) == 3
        assert np.array_equal(unfused.run(x), reference)


class TestConstantFolding:
    def test_parameter_reshapes_fold_away(self, monkeypatch):
        seed_everything(0)
        model = _ConvBNReLU().eval()
        x = np.random.default_rng(4).normal(size=(1, 3, 8, 8))
        trace = trace_module(model, (x,))
        # the trace contains the BN parameter reshapes...
        assert any(node.op == "reshape" for node in trace.nodes)
        # ...but the unfused plan has no reshape steps left: they are consts
        _unfused(monkeypatch)
        engine = InferenceEngine(model, fold_bn=False)
        plan = _plan(engine, x)
        ops = {step.run.__qualname__ for step in plan.steps}
        assert len(plan.steps) < len(
            [n for n in trace.nodes if n.op != "arg"])


class TestKernelContracts:
    """The engine's kernels share arithmetic with the autograd ops."""

    def test_conv2d_kernel_matches_op(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 9, 9))
        w, b = nn.Tensor(rng.normal(size=(4, 3, 3, 3))), nn.Tensor(rng.normal(size=4))
        out = F.conv2d(nn.Tensor(x), w, b, stride=2, padding=1).data
        assert np.array_equal(
            out, _compiled(lambda t: F.conv2d(t, w, b, stride=2, padding=1), x))

    def test_conv_transpose2d_kernel_matches_op(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 5, 5))
        w, b = nn.Tensor(rng.normal(size=(3, 4, 2, 2))), nn.Tensor(rng.normal(size=4))
        out = F.conv_transpose2d(nn.Tensor(x), w, b, stride=2).data
        assert np.array_equal(
            out, _compiled(lambda t: F.conv_transpose2d(t, w, b, stride=2), x))

    def test_pool_kernels_match_ops(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 8, 8))
        assert np.array_equal(F.max_pool2d(nn.Tensor(x), 2).data,
                              F.max_pool2d_kernel(x, 2))
        assert np.array_equal(F.max_pool2d(nn.Tensor(x), 3, stride=2).data,
                              F.max_pool2d_kernel(x, 3, stride=2))

    def test_activation_kernels_match_ops(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 17))
        pairs = [
            (F.relu, F.relu_kernel),
            (F.sigmoid, F.sigmoid_kernel),
            (F.gelu, F.gelu_kernel),
        ]
        for op, kernel in pairs:
            assert np.array_equal(op(nn.Tensor(x)).data, kernel(x))
        assert np.array_equal(F.softmax(nn.Tensor(x), axis=-1).data,
                              F.softmax_kernel(x, axis=-1))

    def test_batch_norm_eval_kernel_matches_layer(self):
        seed_everything(0)
        layer = nn.BatchNorm2d(4)
        rng = np.random.default_rng(5)
        layer._set_buffer("running_mean", rng.normal(size=4))
        layer._set_buffer("running_var", rng.uniform(0.5, 2.0, size=4))
        layer.weight.data = rng.normal(size=4)
        layer.bias.data = rng.normal(size=4)
        layer.eval()
        x = rng.normal(size=(2, 4, 6, 6))
        expected = layer(nn.Tensor(x)).data
        assert np.array_equal(
            expected, InferenceEngine(layer, dtype="float64").run(x))
