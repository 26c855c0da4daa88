"""Tests for the Module container: registration, state dicts, modes."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F


class Small(nn.Module):
    def __init__(self):
        super().__init__()
        self.fc1 = nn.Linear(4, 8)
        self.fc2 = nn.Linear(8, 2)
        self.bn = nn.BatchNorm2d(8)

    def forward(self, x):
        # the hidden features as (N, 8, 1, 1) maps, which BatchNorm2d takes
        hidden = F.reshape(self.fc1(x), (x.shape[0], 8, 1, 1))
        return self.fc2(F.reshape(self.bn(hidden), (x.shape[0], 8)))


def test_named_parameters_hierarchical_names():
    model = Small()
    names = {name for name, _ in model.named_parameters()}
    assert "fc1.weight" in names
    assert "fc2.bias" in names
    assert "bn.weight" in names


def test_parameter_count():
    model = Small()
    expected = 4 * 8 + 8 + 8 * 2 + 2 + 8 + 8
    assert model.num_parameters() == expected


def test_buffers_visible():
    model = Small()
    buffer_names = {name for name, _ in model.named_buffers()}
    assert "bn.running_mean" in buffer_names
    assert "bn.running_var" in buffer_names


def test_train_eval_propagates():
    model = Small()
    model.eval()
    assert not model.training
    assert not model.bn.training
    model.train()
    assert model.bn.training


def test_zero_grad_clears():
    model = Small()
    x = nn.Tensor(np.random.default_rng(0).normal(size=(4, 4)))
    loss = nn.MSELoss()(model(x), nn.Tensor(np.zeros((4, 2))))
    loss.backward()
    assert any(p.grad is not None for p in model.parameters())
    model.zero_grad()
    assert all(p.grad is None for p in model.parameters())


def test_state_dict_roundtrip():
    model = Small()
    model.bn._set_buffer("running_mean", np.full(8, 3.0))
    state = model.state_dict()

    other = Small()
    other.load_state_dict(state)
    for (name_a, pa), (name_b, pb) in zip(model.named_parameters(),
                                          other.named_parameters()):
        assert name_a == name_b
        assert np.allclose(pa.data, pb.data)
    assert np.allclose(other.bn.running_mean, 3.0)


def test_state_dict_is_a_copy():
    model = Small()
    state = model.state_dict()
    state["fc1.weight"][:] = 99.0
    assert not np.allclose(model.fc1.weight.data, 99.0)


def test_load_state_dict_missing_key_raises():
    model = Small()
    state = model.state_dict()
    del state["fc1.weight"]
    with pytest.raises(KeyError):
        model.load_state_dict(state)


def test_load_state_dict_unexpected_key_raises():
    model = Small()
    state = model.state_dict()
    state["bogus"] = np.zeros(1)
    with pytest.raises(KeyError):
        model.load_state_dict(state)


def test_load_state_dict_shape_mismatch_raises():
    """A mis-shaped parameter or buffer, first or last in load order,
    raises before anything is written: the state and its version stay."""
    model = Small()
    before = model.state_dict()
    version = model.state_version
    for key in ["fc1.weight", "fc2.bias", "bn.running_var"]:
        state = {name: value + 1.0 for name, value in before.items()}
        state[key] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            model.load_state_dict(state)
        after = model.state_dict()
        assert list(after) == list(before)
        for name in before:
            assert np.array_equal(after[name], before[name]), (key, name)
        assert model.state_version == version


def test_modules_iterates_tree():
    model = Small()
    kinds = [type(m).__name__ for m in model.modules()]
    assert kinds.count("Linear") == 2
    assert "BatchNorm2d" in kinds


def test_forward_not_implemented():
    with pytest.raises(NotImplementedError):
        nn.Module()(1)
