"""Standard trainable layers built on the autograd primitives."""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module
from repro.nn.tensor import Parameter, Tensor

__all__ = [
    "Linear", "Conv2d", "ConvTranspose2d", "MaxPool2d", "BatchNorm2d",
    "LayerNorm",
]


class Linear(Module):
    """Affine map ``y = x @ W + b`` applied to the last input dimension."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((in_features, out_features)))
        self.bias = Parameter(init.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = F.matmul(x, self.weight)
        if self.bias is not None:
            out = F.add(out, self.bias)
        return out


class Conv2d(Module):
    """2-D convolution over (N, C, H, W) inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape))
        self.bias = Parameter(init.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class ConvTranspose2d(Module):
    """Transposed convolution for learned upsampling."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        output_padding: int = 0,
        bias: bool = True,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.output_padding = output_padding
        shape = (in_channels, out_channels, kernel_size, kernel_size)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(init.kaiming_uniform(shape, fan_in=fan_in))
        self.bias = Parameter(init.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv_transpose2d(
            x, self.weight, self.bias,
            stride=self.stride, padding=self.padding, output_padding=self.output_padding,
        )


class MaxPool2d(Module):
    """Max-pooling layer (kernel defaults stride)."""
    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class BatchNorm2d(Module):
    """Batch normalisation over (N, C, H, W) inputs."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones(num_features))
        self.bias = Parameter(init.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects 4-D input, got {x.shape}")
        axes = (0, 2, 3)
        param_shape = (1, self.num_features, 1, 1)
        gamma = F.reshape(self.weight, param_shape)
        beta = F.reshape(self.bias, param_shape)
        if self.training:
            mean = F.mean(x, axis=axes, keepdims=True)
            centered = F.sub(x, mean)
            var = F.mean(F.mul(centered, centered), axis=axes, keepdims=True)
            batch_mean = mean.data.reshape(self.num_features)
            batch_var = var.data.reshape(self.num_features)
            count = x.size / self.num_features
            unbiased = batch_var * count / max(count - 1.0, 1.0)
            self._set_buffer(
                "running_mean",
                (1 - self.momentum) * self.running_mean + self.momentum * batch_mean,
            )
            self._set_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var + self.momentum * unbiased,
            )
            inv_std = F.pow(F.add(var, self.eps), -0.5)
            normalized = F.mul(centered, inv_std)
        else:
            mean = self.running_mean.reshape(param_shape)
            var = self.running_var.reshape(param_shape)
            scale = 1.0 / np.sqrt(var + self.eps)
            normalized = F.mul(F.sub(x, Tensor(mean)), Tensor(scale))
        return F.add(F.mul(normalized, gamma), beta)


class LayerNorm(Module):
    """Layer normalisation over the trailing dimension(s)."""

    def __init__(self, normalized_shape: Union[int, Sequence[int]], eps: float = 1e-5):
        super().__init__()
        if isinstance(normalized_shape, int):
            normalized_shape = (normalized_shape,)
        self.normalized_shape = tuple(normalized_shape)
        self.eps = eps
        self.weight = Parameter(init.ones(self.normalized_shape))
        self.bias = Parameter(init.zeros(self.normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        axes = tuple(range(x.ndim - len(self.normalized_shape), x.ndim))
        mean = F.mean(x, axis=axes, keepdims=True)
        centered = F.sub(x, mean)
        var = F.mean(F.mul(centered, centered), axis=axes, keepdims=True)
        inv_std = F.pow(F.add(var, self.eps), -0.5)
        normalized = F.mul(centered, inv_std)
        return F.add(F.mul(normalized, self.weight), self.bias)
