"""Sample-parallel lanes for batched forwards.

A compiled plan's GEMMs are the only kernels BLAS can spread over cores;
im2col, softmax and the elementwise passes run on the calling thread.
:meth:`~repro.infer.engine.InferenceEngine.run` therefore splits a batch
into row-contiguous shards, one per *lane*: the caller runs shard 0 and
a module-level pool of ``LANES - 1`` threads runs the rest, each lane
over its own :class:`~repro.infer.arena.BufferArena` workspace slab.

That is only bit-safe when every GEMM in the process runs at one BLAS
width: some conv GEMMs with K >= 500 round differently when OpenBLAS
splits them over two threads.  So importing this module pins numpy's
bundled OpenBLAS to one thread, once and process-wide, through the
library's exported setter.  When no setter is found the engine keeps a
single lane, which is the unsharded path.  scipy ships its own OpenBLAS
(used by the golden solver); that library is left alone.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = ["LANES", "blas_threads", "shard_bounds", "executor"]

#: numpy's scipy-openblas wheels export the first name of each pair, a
#: plain OpenBLAS build the second
_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")
_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")


def _numpy_openblas() -> Optional[ctypes.CDLL]:
    """numpy's bundled OpenBLAS (Linux wheel layout), already loaded."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _symbol(library, names):
    for name in names:
        function = getattr(library, name, None)
        if function is not None:
            return function
    return None


def _pin_blas() -> Optional[Callable[[], int]]:
    """Set numpy's OpenBLAS to one thread; return its thread-count getter
    when both the setter and the getter exist and the setting took."""
    library = _numpy_openblas()
    if library is None:
        return None
    setter, getter = _symbol(library, _SETTERS), _symbol(library, _GETTERS)
    if setter is None or getter is None:
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    setter(1)
    return getter if getter() == 1 else None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


_BLAS_GETTER = _pin_blas()

#: lanes a large batch is split over: the usable CPUs when numpy's BLAS
#: is pinned to one thread, else one (no sharding)
LANES = _usable_cpus() if _BLAS_GETTER is not None else 1


def blas_threads() -> Optional[int]:
    """numpy's OpenBLAS thread count, or ``None`` when it is not found."""
    return int(_BLAS_GETTER()) if _BLAS_GETTER is not None else None


def shard_bounds(n: int, lanes: int) -> List[Tuple[int, int]]:
    """Row-contiguous ``(start, stop)`` shards of ``n`` rows over at most
    ``lanes`` lanes, larger shards first (the caller's lane is shard 0)."""
    count = max(1, min(lanes, n))
    size, extra = divmod(n, count)
    bounds, start = [], 0
    for index in range(count):
        stop = start + size + (index < extra)
        bounds.append((start, stop))
        start = stop
    return bounds


_pool: Optional[ThreadPoolExecutor] = None
_pool_pid: Optional[int] = None
_pool_lock = threading.Lock()


def executor() -> ThreadPoolExecutor:
    """The process's lane pool of ``LANES - 1`` threads, created on first
    use (and again in a forked child, whose copy has no threads)."""
    global _pool, _pool_pid
    with _pool_lock:
        if _pool is None or _pool_pid != os.getpid():
            _pool = ThreadPoolExecutor(max_workers=max(1, LANES - 1),
                                       thread_name_prefix="infer-lane")
            _pool_pid = os.getpid()
        return _pool
