"""BufferArena behaviour: the per-lane slab, freeze semantics, zero-alloc
replay."""

import numpy as np
import pytest

from repro import nn
from repro.core.model import LMMIR, LMMIRConfig
from repro.infer import ArenaFrozenError, BufferArena, InferenceEngine, lanes
from repro.infer.arena import ALIGN
from repro.train.seed import seed_everything


@pytest.fixture
def two_lanes(monkeypatch):
    """Shard every batch of two or more rows over two lanes."""
    monkeypatch.setattr(lanes, "LANES", 2)


class _Plan:
    """Stand-in plan: a workspace size, and a binding that is the slab."""

    def __init__(self, nbytes):
        self.workspace_nbytes = nbytes
        self.binds = 0

    def bind(self, slab):
        self.binds += 1
        return slab


def _run(arena, plan):
    binding = arena.checkout(plan)
    arena.checkin()
    return binding


class TestBufferArena:
    def test_acquire_shapes_and_dtype(self):
        """Every buffer a plan binds is a C-contiguous, 64-byte-aligned
        view of its layout's shape and dtype, at its layout offset."""
        seed_everything(0)
        model = nn.Sequential(nn.Linear(6, 5), nn.ReLU(),
                              nn.Linear(5, 3)).eval()
        engine = InferenceEngine(model, dtype="float32")
        plan = engine.compile(np.ones((4, 6)))   # float64 arg: cast buffer
        args, steps = engine.arena.checkout(plan)
        engine.arena.checkin()
        bound = [(slot, buffer) for (_, _, slot), (_, _, buffer)
                 in zip(plan.arg_plan, args) if slot is not None]
        for step, out, scratch in steps:
            if step.out_slot is not None:
                bound.append((step.out_slot, out))
            bound.extend(zip(step.scratch_slots, scratch))
        assert sorted(slot for slot, _ in bound) == list(
            range(len(plan.buffers)))
        assert any(buffer.dtype == np.float32 and buffer.shape == (4, 6)
                   for _, buffer in bound)
        base = min(buffer.ctypes.data for _, buffer in bound) - min(
            offset for offset, _, _ in plan.buffers)
        for slot, buffer in bound:
            offset, shape, dtype = plan.buffers[slot]
            assert (buffer.shape, buffer.dtype) == (shape, dtype)
            assert buffer.flags.c_contiguous and buffer.flags.writeable
            assert buffer.ctypes.data == base + offset
            assert buffer.ctypes.data % ALIGN == 0

    def test_frozen_arena_refuses_allocation_but_allows_reuse(self):
        arena = BufferArena()
        big = _Plan(4096)
        _run(arena, big)
        arena.freeze()
        _run(arena, _Plan(256))   # fits the slab: fine
        _run(arena, big)
        with pytest.raises(ArenaFrozenError):
            _run(arena, _Plan(8192))
        assert arena.live == 0 and arena.allocations == 1
        arena.freeze(False)
        assert _run(arena, _Plan(8192)).nbytes == 8192

    def test_counters(self):
        arena = BufferArena()
        plan = _Plan(128)
        binding = arena.checkout(plan)
        assert arena.live == 1
        assert (arena.allocations, arena.nbytes) == (1, 128)
        assert binding.ctypes.data % ALIGN == 0
        with pytest.raises(RuntimeError, match="already checked out"):
            arena.checkout(plan)
        arena.checkin()
        assert arena.live == 0
        # the binding is cached per (plan, slab)
        assert _run(arena, plan) is binding and plan.binds == 1
        _run(arena, _Plan(64))             # smaller: same slab
        assert (arena.allocations, arena.slab_nbytes) == (1, 128)
        _run(arena, _Plan(1000))           # larger: the slab grows ...
        assert (arena.allocations, arena.slab_nbytes) == (2, 1000)
        assert _run(arena, plan) is not binding   # ... and rebinds
        assert plan.binds == 2

    def test_lanes_are_child_arenas_counted_in_the_totals(self):
        arena = BufferArena()
        assert arena.lane(0) is arena
        assert arena.lanes == 1
        child = arena.lane(1)
        assert child is not arena and arena.lane(1) is child
        assert arena.lanes == 2
        own = arena.checkout(_Plan(64))
        held = child.checkout(_Plan(128))
        assert (arena.allocations, arena.nbytes) == (2, 192)
        assert arena.live == 2
        assert not np.shares_memory(own, held)
        child.checkin()
        arena.checkin()
        assert arena.live == 0
        assert (child.slab_nbytes, arena.slab_nbytes) == (128, 64)

    def test_freeze_covers_existing_and_later_lanes(self):
        arena = BufferArena()
        early = arena.lane(1)
        arena.freeze()
        late = arena.lane(2)
        for lane in (early, late):
            assert lane.frozen
            with pytest.raises(ArenaFrozenError):
                _run(lane, _Plan(32))
        arena.freeze(False)
        assert not early.frozen and not late.frozen


class TestZeroAllocationReplay:
    """The workspace guarantee: after warm-up, a same-shape forward fits
    the lane slabs it runs on — a frozen arena proves it by raising on
    any growth, in every lane a sharded batch runs on."""

    def _model(self):
        seed_everything(0)
        model = LMMIR(LMMIRConfig(in_channels=3, base_channels=4, depth=2,
                                  encoder_kernel=3, netlist_dim=16,
                                  netlist_heads=2, fusion_heads=2))
        return model.eval()

    def test_second_forward_allocates_nothing(self, two_lanes):
        model = self._model()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 16, 16))
        points = rng.normal(size=(2, 12, 11))
        engine = InferenceEngine(model)
        first = engine.run(x, points)
        allocations = engine.arena.allocations
        engine.arena.freeze()
        second = engine.run(x, points)   # would raise on any new buffer
        engine.arena.freeze(False)
        assert engine.arena.lanes == 2
        assert engine.arena.allocations == allocations
        assert np.array_equal(first, second)

    def test_two_shapes_share_one_arena(self, two_lanes):
        model = self._model()
        rng = np.random.default_rng(1)
        engine = InferenceEngine(model)
        args_a = (rng.normal(size=(1, 3, 16, 16)), rng.normal(size=(1, 12, 11)))
        args_b = (rng.normal(size=(4, 3, 16, 16)), rng.normal(size=(4, 12, 11)))
        out_a = engine.run(*args_a)
        out_b = engine.run(*args_b)
        engine.arena.freeze()
        # both plans replay without allocating, in either order
        assert np.array_equal(engine.run(*args_b), out_b)
        assert np.array_equal(engine.run(*args_a), out_a)
        assert np.array_equal(engine.run(*args_a), out_a)
        engine.arena.freeze(False)
        # batch 4 runs as two batch-2 shards, one per lane
        assert engine.plan_count == 2
        assert engine.arena.lanes == 2

    def test_everything_released_after_run(self, two_lanes):
        model = self._model()
        rng = np.random.default_rng(2)
        engine = InferenceEngine(model)
        for batch in (1, 3):
            engine.run(rng.normal(size=(batch, 3, 16, 16)),
                       rng.normal(size=(batch, 12, 11)))
            assert engine.arena.live == 0
        assert engine.arena.lanes == 2
        assert engine.arena.lane(1).live == 0

    def test_each_lane_slab_is_its_largest_workspace(self, two_lanes):
        """After batches 1..8, each lane's slab is exactly the largest
        workspace it ran, and a frozen second pass allocates nothing."""
        model = self._model()
        rng = np.random.default_rng(3)
        engine = InferenceEngine(model)
        batches = [(rng.normal(size=(n, 3, 16, 16)),
                    rng.normal(size=(n, 12, 11))) for n in range(1, 9)]
        outputs = [engine.run(*args) for args in batches]
        # lane 0 also validates every new plan, the others' included
        ran = [set(engine._plans.values()), set()]
        for args in batches:
            bounds = lanes.shard_bounds(len(args[0]), lanes.LANES)
            for lane, (start, stop) in enumerate(bounds):
                ran[lane].add(engine.compile(*(a[start:stop] for a in args)))
        expected = [max(plan.workspace_nbytes for plan in plans)
                    for plans in ran]
        assert engine.plan_count == 4   # shards of 1..4 rows
        assert [engine.arena.lane(lane).slab_nbytes
                for lane in range(2)] == expected
        assert engine.arena.nbytes == sum(expected)
        allocations = engine.arena.allocations
        engine.arena.freeze()
        for args, output in zip(batches, outputs):
            assert np.array_equal(engine.run(*args), output)
        engine.arena.freeze(False)
        assert engine.arena.allocations == allocations
        assert engine.arena.live == 0
