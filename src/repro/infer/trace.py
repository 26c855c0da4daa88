"""Module-to-op-graph tracing for the inference engine.

A model's eval forward is executed once with the
:func:`repro.nn.functional.set_trace_hook` callback installed; every op
reports its name, parameters, output tensor and parent tensors, which is
enough to rebuild the forward as a flat list of :class:`TraceNode`\\ s.
Parents that are not outputs of traced ops (weights, running statistics,
positional tables, python scalars) become constants; the caller's input
tensors become ``arg`` nodes.

The trace is *shape-specialised*: it records the op sequence for one
concrete input signature, which is exactly what the plan compiler wants.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad

__all__ = ["TraceNode", "Trace", "trace_module", "InferenceUnsupportedError"]


class InferenceUnsupportedError(RuntimeError):
    """The model used an op the inference engine cannot compile."""


class TraceNode:
    """One recorded op: name, params, input refs and output metadata.

    ``inputs`` holds refs of the form ``("node", i)`` (output of an
    earlier node, including ``arg`` nodes) or ``("const", ndarray)``.
    ``value`` keeps the traced output array until planning has finished
    constant folding; the planner drops it for non-constant nodes.
    """

    __slots__ = ("op", "meta", "inputs", "shape", "dtype", "value",
                 "ep_bias", "ep_relu")

    def __init__(self, op: str, meta: dict, inputs: list,
                 shape: tuple, dtype, value: Optional[np.ndarray]):
        self.op = op
        self.meta = meta
        self.inputs = inputs
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.value = value
        self.ep_bias: list = []   # epilogue bias addends (fused adds)
        self.ep_relu: bool = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceNode({self.op}, shape={self.shape})"


class Trace:
    """A traced forward: nodes (the first ``n_args`` are ``arg`` nodes)
    plus the output reference."""

    def __init__(self, nodes: List[TraceNode], n_args: int, out_ref):
        self.nodes = nodes
        self.n_args = n_args
        self.out_ref = out_ref


def trace_module(model, args: Tuple[np.ndarray, ...]) -> Trace:
    """Run ``model(*args)`` once under the trace hook and record the ops.

    ``model`` must be in eval mode — inference plans bake in eval-time
    behaviour (BatchNorm's running statistics), and tracing a training
    forward would silently freeze one batch's statistics into the plan.
    """
    if getattr(model, "training", False):
        raise InferenceUnsupportedError(
            "trace_module requires eval mode; call model.eval() first")

    nodes: List[TraceNode] = []
    index_of = {}          # id(tensor) -> node index
    keep = []              # strong refs: keeps ids stable for the trace

    arg_tensors = []
    for position, arg in enumerate(args):
        source = np.asarray(arg)
        tensor = Tensor(arg)
        # the node records the *runtime* dtype (Tensor coerces to float64
        # for tracing) so the plan knows whether the argument needs a cast
        node = TraceNode("arg", {"position": position}, [],
                         source.shape, source.dtype, None)
        index_of[id(tensor)] = len(nodes)
        nodes.append(node)
        keep.append(tensor)
        arg_tensors.append(tensor)

    def hook(op, out, parents, meta):
        if op is None:
            raise InferenceUnsupportedError(
                "encountered an op without a trace name")
        refs = []
        for parent in parents:
            index = index_of.get(id(parent))
            refs.append(("node", index) if index is not None
                        else ("const", parent.data))
        node = TraceNode(op, meta, refs, out.data.shape, out.data.dtype,
                         out.data)
        index_of[id(out)] = len(nodes)
        nodes.append(node)
        keep.append(out)

    previous = F.set_trace_hook(hook)
    try:
        with no_grad():
            result = model(*arg_tensors)
    finally:
        F.set_trace_hook(previous)

    if not isinstance(result, Tensor):
        raise InferenceUnsupportedError(
            f"model returned {type(result).__name__}, expected a Tensor")
    index = index_of.get(id(result))
    out_ref = ("node", index) if index is not None else ("const", result.data)
    return Trace(nodes, len(args), out_ref)
