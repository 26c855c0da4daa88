"""BufferArena behaviour: pooling, freeze semantics, zero-alloc replay."""

import numpy as np
import pytest

from repro import nn
from repro.core.model import LMMIR, LMMIRConfig
from repro.infer import ArenaFrozenError, BufferArena, InferenceEngine, lanes
from repro.train.seed import seed_everything


@pytest.fixture
def two_lanes(monkeypatch):
    """Shard every batch of two or more rows over two lanes."""
    monkeypatch.setattr(lanes, "LANES", 2)


class TestBufferArena:
    def test_acquire_shapes_and_dtype(self):
        arena = BufferArena()
        buf = arena.acquire((3, 4), np.float64)
        assert buf.shape == (3, 4)
        assert buf.dtype == np.float64
        assert buf.flags.c_contiguous
        scalar = arena.acquire((), np.float32)
        assert scalar.shape == ()

    def test_release_and_reuse_exact_size(self):
        arena = BufferArena()
        spec = ((8, 8), np.dtype(np.float64))
        first = arena.acquire(*spec)
        chunk_before = first.base
        arena.release(first)
        second = arena.acquire(*spec)
        assert second.base is chunk_before
        assert arena.allocations == 1

    def test_best_fit_reuses_larger_chunk(self):
        arena = BufferArena()
        big_spec = ((100,), np.dtype(np.float64))   # 800 bytes
        big = arena.acquire(*big_spec)
        arena.release(big)
        # 400 bytes fits within the 4x window of an 800-byte chunk
        small = arena.acquire((50,), np.float64)
        assert arena.allocations == 1
        assert small.shape == (50,)

    def test_oversized_chunk_not_wasted_on_tiny_request(self):
        arena = BufferArena()
        big_spec = ((1000,), np.dtype(np.float64))  # 8000 bytes
        big = arena.acquire(*big_spec)
        arena.release(big)
        tiny = arena.acquire((10,), np.float64)     # 80 bytes: > 4x waste
        assert arena.allocations == 2
        assert tiny.shape == (10,)

    def test_frozen_arena_refuses_allocation_but_allows_reuse(self):
        arena = BufferArena()
        spec = ((4, 4), np.dtype(np.float64))
        buf = arena.acquire(*spec)
        arena.release(buf)
        arena.freeze()
        again = arena.acquire(*spec)  # pooled: fine
        arena.release(again)
        with pytest.raises(ArenaFrozenError):
            arena.acquire((64, 64), np.float64)
        arena.freeze(False)
        assert arena.acquire((64, 64), np.float64).shape == (64, 64)

    def test_release_of_foreign_array_rejected(self):
        arena = BufferArena()
        with pytest.raises(KeyError):
            arena.release(np.zeros(4))

    def test_counters(self):
        arena = BufferArena()
        spec = ((16,), np.dtype(np.float64))
        buf = arena.acquire(*spec)
        assert arena.live == 1
        assert arena.pooled == 0
        assert arena.allocated_bytes == 128
        arena.release(buf)
        assert arena.live == 0
        assert arena.pooled == 1

    def test_hint_requires_exact_chunk(self):
        arena = BufferArena()
        spec = ((100,), np.dtype(np.float64))
        buf = arena.acquire(*spec)           # 800-byte chunk
        arena.release(buf)
        # hinted acquire for a different chunk size allocates fresh
        hinted = arena.acquire((50,), np.float64, nbytes_hint=400)
        assert arena.allocations == 2
        assert arena.chunk_nbytes(hinted) == 400

    def test_lanes_are_child_arenas_counted_in_the_totals(self):
        arena = BufferArena()
        assert arena.lane(0) is arena
        assert arena.lanes == 1
        child = arena.lane(1)
        assert child is not arena and arena.lane(1) is child
        assert arena.lanes == 2
        own = arena.acquire((4,), np.float64)
        held = child.acquire((8,), np.float64)
        assert (arena.allocations, arena.allocated_bytes) == (2, 96)
        assert arena.live == 2
        child.release(held)
        arena.release(own)
        assert (arena.live, arena.pooled) == (0, 2)
        arena.clear()
        assert arena.pooled == 0

    def test_freeze_covers_existing_and_later_lanes(self):
        arena = BufferArena()
        early = arena.lane(1)
        arena.freeze()
        late = arena.lane(2)
        for lane in (early, late):
            assert lane.frozen
            with pytest.raises(ArenaFrozenError):
                lane.acquire((4,), np.float64)
        arena.freeze(False)
        assert not early.frozen and not late.frozen


class TestZeroAllocationReplay:
    """The arena-reuse guarantee: after warm-up, a same-shape forward
    acquires only pooled chunks — a frozen arena proves it by raising on
    any allocation, in every lane a sharded batch runs on."""

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
