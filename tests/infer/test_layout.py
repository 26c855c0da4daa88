"""Static buffer layout of compiled plans, checked against lifetimes
observed by running each plan's steps.

The oracle does not read the compiler's liveness: it runs the steps over
a recording environment, maps every value to the buffer it lives in by
following step kinds (an ``alias`` or ``view`` lives in its source's
buffer), and notes the first and last time each buffer is written or
read (time 0 is the arg casts, time k+1 step k, the final copy after the
last step).  Two buffers whose observed lifetimes overlap must not share
a byte.
"""

import math

import numpy as np
import pytest

from repro.core.registry import MODEL_REGISTRY
from repro.infer import InferenceEngine
from repro.infer.arena import ALIGN
from repro.train.seed import seed_everything

MODEL_NAMES = sorted(MODEL_REGISTRY)


class _ReadLog(list):
    """An env list that records the slots steps read."""

    def __getitem__(self, index):
        self.reads.append(index)
        return list.__getitem__(self, index)


def _observed_lifetimes(plan, args):
    slab = np.empty(plan.workspace_nbytes + ALIGN, dtype=np.uint8)
    shift = -slab.ctypes.data % ALIGN
    arg_binding, step_binding = plan.bind(slab[shift:])
    spans, buffer_of = {}, {}

    def touch(slot, time):
        if slot is not None:
            first, _ = spans.get(slot, (time, time))
            spans[slot] = (first, time)

    env = _ReadLog([None] * plan.n_nodes)
    for (position, index, slot), (_, _, buffer) in zip(plan.arg_plan,
                                                      arg_binding):
        value = args[position]
        if buffer is not None:
            np.copyto(buffer, value)
            value = buffer
        list.__setitem__(env, index, value)
        buffer_of[index] = slot
        touch(slot, 0)
    for time, (step, out, scratch) in enumerate(step_binding, 1):
        touch(step.out_slot, time)
        for slot in step.scratch_slots:
            touch(slot, time)
        env.reads = []
        list.__setitem__(env, step.index, step.run(env, out, scratch))
        for read in env.reads:
            touch(buffer_of.get(read), time)
        buffer_of[step.index] = (step.out_slot if step.kind == "buffer"
                                 else buffer_of.get(step.source))
    if plan.out_index is not None:
        touch(buffer_of.get(plan.out_index), len(plan.steps) + 1)
        output = list.__getitem__(env, plan.out_index)
    else:
        output = plan.out_const
    return spans, output


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_overlapping_lifetimes_never_share_a_byte(name, dtype, monkeypatch):
    seed_everything(0)
    spec = MODEL_REGISTRY[name]
    model = spec.build().eval()
    # no replay validation: a bad layout must fail here, not in compile
    monkeypatch.setattr(InferenceEngine, "_validate_plan",
                        lambda *args: None)
    engine = InferenceEngine(model, dtype=dtype)
    assert engine.fold_bn == (dtype == "float32")
    rng = np.random.default_rng(0)
    for batch in (1, 3):
        x = rng.normal(size=(batch, len(spec.channels), 16, 16))
        args = ((x, rng.normal(size=(batch, 24, 11)))
                if spec.uses_pointcloud else (x,))
        plan = engine.compile(*args)
        spans, output = _observed_lifetimes(plan, args)
        # the oracle's run is the plan's run
        assert np.array_equal(output, engine.run(*args))
        assert sorted(spans) == list(range(len(plan.buffers)))
        extents = [(offset, offset + math.prod(shape) * kind.itemsize)
                   for offset, shape, kind in plan.buffers]
        assert all(offset % ALIGN == 0 for offset, _ in extents)
        assert plan.workspace_nbytes == max(end for _, end in extents)
        for a, (a_first, a_last) in spans.items():
            for b, (b_first, b_last) in spans.items():
                if a >= b or a_last < b_first or b_last < a_first:
                    continue
                (a_start, a_end), (b_start, b_end) = extents[a], extents[b]
                assert a_end <= b_start or b_end <= a_start or (
                    a_start == a_end or b_start == b_end), (
                    f"{name} b{batch}: buffers {a} and {b} are live at "
                    f"once but share bytes")
