"""Large-grid preconditioning and multi-RHS conjugate gradient.

Above the direct/CG crossover the golden solver's cost is dominated by
CG iterations, and plain Jacobi preconditioning needs O(sqrt(n)) of them
on a 2-D PDN mesh.  This module supplies the scaling machinery:

* :class:`MultigridPreconditioner` — a geometric multigrid V-cycle that
  exploits the regular rail lattice of synthetic PDNs.  Free nodes are
  aggregated by their (x, y) *rank* coordinates (2x2 cells per level,
  metal layers collapsed — vias couple them strongly), prolongation is
  piecewise constant, and coarse operators are Galerkin products
  ``P.T @ A @ P``.  Smoothing is Chebyshev, which is symmetric, so the
  V-cycle is an SPD preconditioner and CG theory applies.  The coarsest
  level is solved exactly with ``splu``.
* :class:`IncompleteCholeskyPreconditioner` — the fallback for netlists
  whose node names carry no grid coordinates.  Implemented with
  :func:`scipy.sparse.linalg.spilu` (threshold ILU); on an SPD
  conductance matrix that plays the incomplete-Cholesky role without a
  hand-rolled factorisation kernel.
* :class:`JacobiPreconditioner` — the seed repo's diagonal scaling, kept
  as an explicit choice and as the benchmark baseline.
* :func:`block_cg` — preconditioned CG over a whole ``(n, k)`` RHS block.
  The k column recurrences are arithmetically independent (every
  reduction is per column), so each column's iterates are bit-identical
  to a single-RHS solve with the same code — but the sparse matvec, the
  V-cycle and the triangular sweeps each run once per iteration for the
  whole block instead of once per column.  Converged columns are
  compacted out of the working set (per-column convergence tracking).

All preconditioners expose ``apply(residual) -> correction`` operating on
``(n,)`` or ``(n, k)`` arrays, plus ``setup_seconds`` so callers can
account setup cost the way the LU path accounts factor time.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spilu, splu

from repro.spice.nodes import parse_nodes

__all__ = [
    "MultigridPreconditioner",
    "IncompleteCholeskyPreconditioner",
    "JacobiPreconditioner",
    "block_cg",
    "BlockCGResult",
    "SolverStalledError",
    "node_coordinates",
]

#: multigrid hierarchy depth cap, and pre-/post-smoothing Chebyshev
#: degree per level
MAX_LEVELS = 16
SMOOTH_STEPS = 2

#: threshold-ILU drop tolerance and fill budget of the ``"ic"`` rung
ILU_DROP_TOL = 1e-4
ILU_FILL_FACTOR = 10.0


class SolverStalledError(ValueError):
    """An iterative solve exhausted its budget with columns unconverged.

    A ``ValueError`` subclass so existing "CG failed" handling keeps
    working, but typed — and loaded with the evidence an operator needs:
    the per-iteration residual trajectory (was it converging slowly, or
    flat-lined?), how many iterations and seconds were spent, and which
    budget ran out.
    """

    def __init__(self, message: str, residual_history: np.ndarray,
                 iterations: int, elapsed_s: float,
                 unconverged: np.ndarray, budget: str):
        self.residual_history = np.asarray(residual_history, dtype=float)
        self.iterations = int(iterations)
        self.elapsed_s = float(elapsed_s)
        self.unconverged = np.asarray(unconverged)
        self.budget = str(budget)  # "maxiter" or "wall"
        tail = ", ".join(f"{value:.3e}"
                         for value in self.residual_history[-4:])
        super().__init__(
            f"{message} [budget={self.budget}, "
            f"iterations={self.iterations}, elapsed={self.elapsed_s:.3f}s, "
            f"unconverged_columns={self.unconverged.size}, "
            f"residual tail: {tail or 'n/a'}]")


def node_coordinates(free_nodes) -> Optional[np.ndarray]:
    """(n, 2) array of (x, y) database-unit coordinates, or ``None``.

    Geometric coarsening needs node positions; they are encoded in the
    contest node-name convention (``n{net}_m{layer}_{x}_{y}``).  Netlists
    with foreign names get ``None`` — the caller falls back to an
    algebraic preconditioner.
    """
    columns = parse_nodes(list(free_nodes))
    if not columns.grid.all():  # ground never appears among free nodes
        return None
    return np.stack((columns.x, columns.y), axis=1).astype(np.int64)


def _ranks(values: np.ndarray) -> np.ndarray:
    """Map each value to its index in the sorted unique values."""
    unique = np.unique(values)
    return np.searchsorted(unique, values)


class _Level:
    """One grid level of the V-cycle hierarchy."""

    __slots__ = ("matrix", "prolong", "diag_inv", "cheb_theta", "cheb_delta")

    def __init__(self, matrix: sparse.csr_matrix,
                 prolong: Optional[sparse.csr_matrix]):
        self.matrix = matrix
        self.prolong = prolong  # None on the coarsest level
        self.diag_inv: Optional[np.ndarray] = None
        self.cheb_theta = 0.0
        self.cheb_delta = 0.0


class MultigridPreconditioner:
    """Geometric-aggregation multigrid V-cycle for PDN conductance systems.

    Parameters
    ----------
    matrix:
        SPD conductance matrix (CSR) of the reduced system.
    coords:
        ``(n, 2)`` node coordinates from :func:`node_coordinates`.  The
        aggregation uses coordinate *ranks*, so jittered or multi-pitch
        lattices coarsen as evenly as perfect grids.
    coarse_limit:
        Coarsen until a level has at most this many unknowns (or the
        hierarchy reaches :data:`MAX_LEVELS`), then solve it exactly
        with ``splu``.

    The prolongator is smoothed (one damped-Jacobi sweep over the
    piecewise-constant aggregation): a denser Galerkin setup, repaid
    within a few RHS by the much lower iteration count (17 vs 33 on a
    266k-node grid at rtol=1e-10).
    """

    def __init__(self, matrix: sparse.spmatrix, coords: np.ndarray,
                 coarse_limit: int = 1500):
        start = time.perf_counter()
        self.levels: List[_Level] = []
        self._build_hierarchy(sparse.csr_matrix(matrix), np.asarray(coords),
                              coarse_limit)
        self._coarse_lu = splu(sparse.csc_matrix(self.levels[-1].matrix))
        for level in self.levels[:-1]:
            diagonal = level.matrix.diagonal()
            level.diag_inv = 1.0 / diagonal
            # standard smoothing interval: damp the upper part of the
            # spectrum, leave the low modes to the coarse grid.  The
            # bound must not undershoot the true lambda_max — a
            # Chebyshev polynomial *amplifies* modes outside its
            # interval, which turns the V-cycle indefinite and stalls
            # CG — so use the (deterministic, cheap) Gershgorin bound
            # instead of a truncated power iteration.
            upper = _gershgorin_lambda_max(level.matrix, level.diag_inv)
            lower = upper / 30.0
            level.cheb_theta = 0.5 * (upper + lower)
            level.cheb_delta = 0.5 * (upper - lower)
        self.setup_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------
    # Hierarchy construction
    # ------------------------------------------------------------------
    def _build_hierarchy(self, matrix: sparse.csr_matrix, coords: np.ndarray,
                         coarse_limit: int) -> None:
        self.levels.append(_Level(matrix, prolong=None))
        while (self.levels[-1].matrix.shape[0] > coarse_limit
               and len(self.levels) < MAX_LEVELS):
            fine = self.levels[-1]
            n = fine.matrix.shape[0]
            ranks_x = _ranks(coords[:, 0])
            ranks_y = _ranks(coords[:, 1])
            cell_x = ranks_x // 2
            cell_y = ranks_y // 2
            keys = cell_x * (int(cell_y.max()) + 2) + cell_y
            unique_keys, aggregate = np.unique(keys, return_inverse=True)
            n_coarse = unique_keys.size
            if n_coarse >= n:  # aggregation stalled; stop coarsening
                break
            prolong = sparse.csr_matrix(
                (np.ones(n), (np.arange(n), aggregate)),
                shape=(n, n_coarse),
            )
            # smoothed aggregation: one damped-Jacobi sweep on the
            # piecewise-constant prolongator spreads each aggregate's
            # basis function over its neighbours, sharply improving
            # coarse-grid approximation of the smooth modes (fewer CG
            # iterations at slightly denser coarse operators)
            diag_inv = 1.0 / fine.matrix.diagonal()
            lam_max = _gershgorin_lambda_max(fine.matrix, diag_inv)
            omega = 4.0 / (3.0 * lam_max)
            prolong = sparse.csr_matrix(
                prolong - sparse.diags(omega * diag_inv)
                @ (fine.matrix @ prolong))
            coarse_matrix = sparse.csr_matrix(
                prolong.T @ fine.matrix @ prolong)
            fine.prolong = prolong
            # aggregate centroids (rank space) seed the next level's ranks
            counts = np.bincount(aggregate, minlength=n_coarse)
            coarse_x = np.bincount(aggregate, weights=cell_x,
                                   minlength=n_coarse) / counts
            coarse_y = np.bincount(aggregate, weights=cell_y,
                                   minlength=n_coarse) / counts
            coords = np.column_stack([coarse_x, coarse_y])
            self.levels.append(_Level(coarse_matrix, prolong=None))

    def level_sizes(self) -> Tuple[int, ...]:
        return tuple(level.matrix.shape[0] for level in self.levels)

    # ------------------------------------------------------------------
    # Smoother ((n,) and (n, k) arrays)
    # ------------------------------------------------------------------
    def _smooth(self, level: _Level, rhs: np.ndarray,
                x: Optional[np.ndarray]) -> np.ndarray:
        """One Chebyshev smoothing pass; ``x=None`` means a zero start,
        which skips the initial-residual matvec (pre-smoothing always
        starts from zero — one of the V-cycle's hottest savings).

        ``x`` (when given) and all intermediates are owned by the cycle,
        so updates are in place — on a ``(n, 16)`` block the temporaries
        cost as much as extra matvecs, and this path *is* the solver's
        per-iteration bill.  ``rhs`` is never written.
        """
        theta, delta = level.cheb_theta, level.cheb_delta
        dinv = _diag_view(level.diag_inv, rhs)
        if x is None:
            residual = rhs * dinv
        else:
            residual = rhs - level.matrix @ x
            residual *= dinv
        sigma = theta / delta
        rho = 1.0 / sigma
        direction = residual / theta
        for step in range(SMOOTH_STEPS):
            last = step == SMOOTH_STEPS - 1
            if x is None:
                # first correction from a zero start: adopt (or copy)
                # the direction instead of adding it to a zero array
                x = direction if last else direction.copy()
            else:
                x += direction
            if last:
                break  # the next direction would never be applied
            update = level.matrix @ direction
            update *= dinv
            residual -= update
            rho_next = 1.0 / (2.0 * sigma - rho)
            direction *= rho_next * rho
            direction += (2.0 * rho_next / delta) * residual
            rho = rho_next
        return x

    # ------------------------------------------------------------------
    # V-cycle
    # ------------------------------------------------------------------
    def apply(self, residual: np.ndarray) -> np.ndarray:
        """One V-cycle approximating ``A^-1 @ residual``."""
        return self._cycle(0, np.asarray(residual, dtype=float))

    def _cycle(self, depth: int, rhs: np.ndarray) -> np.ndarray:
        level = self.levels[depth]
        if depth == len(self.levels) - 1:
            return _lu_solve_columns(self._coarse_lu, rhs)
        x = self._smooth(level, rhs, None)
        residual = rhs - level.matrix @ x
        x += level.prolong @ self._cycle(depth + 1, level.prolong.T @ residual)
        return self._smooth(level, rhs, x)


def _lu_solve_columns(lu, rhs: np.ndarray) -> np.ndarray:
    """SuperLU solve, one column at a time.

    SuperLU switches from BLAS-2 to blocked BLAS-3 kernels when handed
    multiple right-hand sides, which changes accumulation order and so
    the last ulp of the result with the block width.  Preconditioner
    applications must be bit-stable across widths (see
    :func:`_column_dots`), so columns are solved individually; the
    batching win of block CG lives in the shared matvecs, not here.
    """
    if rhs.ndim == 1:
        return lu.solve(rhs)
    out = np.empty_like(rhs)
    for j in range(rhs.shape[1]):
        out[:, j] = lu.solve(np.ascontiguousarray(rhs[:, j]))
    return out


def _diag_view(diag: np.ndarray, like: np.ndarray) -> np.ndarray:
    """``diag`` shaped to broadcast over ``like`` ((n,) or (n, k))."""
    return diag if like.ndim == 1 else diag[:, None]


def _dscale(diag_inv: np.ndarray, array: np.ndarray) -> np.ndarray:
    """``diag(d) @ array`` for (n,) or (n, k) arrays."""
    return _diag_view(diag_inv, array) * array


def _gershgorin_lambda_max(matrix: sparse.csr_matrix,
                           diag_inv: np.ndarray) -> float:
    """Guaranteed upper bound on the largest eigenvalue of ``D^-1 A``.

    ``D^-1 A`` is similar to the symmetric ``D^-1/2 A D^-1/2``, so its
    eigenvalues are real and every one lies in a Gershgorin disc centred
    at 1 with radius ``sum_j|a_ij| / a_ii - 1``; for a conductance
    M-matrix the bound lands just above 2 and is tight.  Deterministic
    (no RNG), so repeated setups of the same matrix produce bit-identical
    smoothers — a requirement for the bit-reproducible suite builds that
    sit on top of this solver.
    """
    abs_row_sums = np.asarray(abs(matrix).sum(axis=1)).ravel()
    return float(np.max(abs_row_sums * diag_inv))


class IncompleteCholeskyPreconditioner:
    """Threshold incomplete factorisation via :func:`scipy.sparse.linalg.spilu`.

    The conductance matrix is SPD, so an ILU with symmetric-pattern
    thresholding behaves as an incomplete Cholesky; SuperLU's compiled
    triangular sweeps make ``apply`` cheap.  ``(n, k)`` blocks are
    accepted but deliberately solved column-at-a-time — see
    :func:`_lu_solve_columns` for why a one-call multi-RHS solve would
    break the block-vs-single bit-identity contract.
    """

    def __init__(self, matrix: sparse.spmatrix):
        start = time.perf_counter()
        # symmetric-mode ILU: no partial pivoting, symmetric fill-reducing
        # ordering.  SuperLU's defaults (COLAMD + pivoting) build a
        # non-symmetric M, which is not a valid PCG preconditioner and
        # can stall CG on a perfectly well-posed SPD system.
        self._ilu = spilu(sparse.csc_matrix(matrix),
                          drop_tol=ILU_DROP_TOL, fill_factor=ILU_FILL_FACTOR,
                          diag_pivot_thresh=0.0,
                          permc_spec="MMD_AT_PLUS_A",
                          options={"SymmetricMode": True})
        self.setup_seconds = time.perf_counter() - start

    def apply(self, residual: np.ndarray) -> np.ndarray:
        return _lu_solve_columns(self._ilu, np.asarray(residual, dtype=float))


class JacobiPreconditioner:
    """Diagonal scaling — the seed repo's CG preconditioner."""

    def __init__(self, matrix: sparse.spmatrix):
        start = time.perf_counter()
        self._diag_inv = 1.0 / matrix.diagonal()
        self.setup_seconds = time.perf_counter() - start

    def apply(self, residual: np.ndarray) -> np.ndarray:
        return _dscale(self._diag_inv, np.asarray(residual, dtype=float))


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-column ``a[:, j] . b[:, j]``, bit-stable across block widths.

    Vectorized reductions (``einsum``, ``norm(axis=0)``) change their
    accumulation order with the array's inner dimension and memory
    layout, so the same column summed inside a ``(n, 16)`` block and a
    ``(n, 1)`` block can differ in the last ulp — which would break the
    block-vs-single bit-agreement contract of :func:`block_cg`.  A
    contiguous 1-D BLAS dot per column always reduces in the same order.
    """
    out = np.empty(a.shape[1])
    for j in range(a.shape[1]):
        out[j] = np.dot(np.ascontiguousarray(a[:, j]),
                        np.ascontiguousarray(b[:, j]))
    return out


def _column_norms(a: np.ndarray) -> np.ndarray:
    out = np.empty(a.shape[1])
    for j in range(a.shape[1]):
        column = np.ascontiguousarray(a[:, j])
        out[j] = np.dot(column, column)
    return np.sqrt(out)


class BlockCGResult:
    """Outcome of a :func:`block_cg` solve."""

    __slots__ = ("solution", "iterations", "unconverged",
                 "residual_history", "elapsed_s", "exhausted")

    def __init__(self, solution: np.ndarray, iterations: np.ndarray,
                 unconverged: np.ndarray,
                 residual_history: Optional[np.ndarray] = None,
                 elapsed_s: float = 0.0,
                 exhausted: Optional[str] = None):
        self.solution = solution
        self.iterations = iterations
        self.unconverged = unconverged
        #: max live-column preconditioned-residual norm per iteration —
        #: the stall evidence SolverStalledError carries to the caller
        self.residual_history = (np.empty(0) if residual_history is None
                                 else residual_history)
        self.elapsed_s = elapsed_s
        #: which budget stopped the solve early ("maxiter" / "wall"),
        #: or None when every column converged inside its budgets
        self.exhausted = exhausted

    @property
    def converged(self) -> bool:
        return self.unconverged.size == 0


def block_cg(matrix: sparse.spmatrix, rhs: np.ndarray,
             precondition: Callable[[np.ndarray], np.ndarray],
             rtol: float = 1e-10, atol: float = 0.0,
             maxiter: Optional[int] = None,
             wall_budget_s: Optional[float] = None) -> BlockCGResult:
    """Preconditioned CG over an ``(n, k)`` block of right-hand sides.

    Every reduction (``alpha``, ``beta``, residual norms) is computed per
    column and every update is elementwise, so the iterates of column
    ``j`` depend only on ``rhs[:, j]``: solving a
    column alone or inside any block yields bit-identical results.  What
    the block shares is *work* — one sparse matvec and one preconditioner
    application per iteration for all still-active columns, instead of
    one per column.  Columns that reach ``norm(r) <= max(rtol*norm(b),
    atol)`` are frozen and compacted out of the working set.

    Two budgets bound a stalled solve: ``maxiter`` (iterations) and
    ``wall_budget_s`` (seconds, checked each iteration — a wedged
    preconditioner or a pathologically conditioned system cannot hold a
    request forever).  The budget check cannot change any iterate a
    finishing solve would produce: it only decides *when to give up*,
    so converged results are bit-identical with or without budgets.

    Returns a :class:`BlockCGResult`; ``unconverged`` holds every column
    whose *final residual* still exceeds its tolerance — whether it hit
    a budget or broke down (``p.Ap <= 0``, which on a non-SPD or
    numerically degenerate system can freeze a column far from the
    solution).  The caller decides whether to raise;
    :class:`~repro.solver.factorized.FactorizedPDN` raises
    :class:`SolverStalledError` with the residual history attached.
    """
    if wall_budget_s is not None and wall_budget_s <= 0:
        raise ValueError(
            f"wall_budget_s must be > 0, got {wall_budget_s}")
    start_time = time.perf_counter()
    columns = np.asarray(rhs, dtype=float)
    squeeze = columns.ndim == 1
    if squeeze:
        columns = columns[:, None]
    n, k = columns.shape
    if maxiter is None:
        maxiter = max(10 * n, 100)

    solution = np.zeros_like(columns)
    residual_full = columns.copy()

    tolerance = np.maximum(rtol * _column_norms(columns), atol)
    iterations = np.zeros(k, dtype=np.int64)

    live = np.flatnonzero(_column_norms(residual_full) > tolerance)
    x = solution[:, live].copy()
    r = residual_full[:, live].copy()
    z = precondition(r)
    p = z.copy()
    rz = _column_dots(r, z)

    history: List[float] = []
    exhausted: Optional[str] = None
    for iteration in range(1, maxiter + 1):
        if live.size == 0:
            break
        ap = matrix @ p
        pap = _column_dots(p, ap)
        # pap <= 0 on an SPD system means the search direction vanished:
        # the column is (numerically) solved or the system is not SPD;
        # freeze it rather than divide by zero
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(pap > 0.0, rz / pap, 0.0)
        x += alpha * p
        r -= alpha * ap
        iterations[live] = iteration

        norms = _column_norms(r)
        # worst live-column residual per iteration: the stall evidence.
        # Diagnostic only — never feeds back into any iterate.
        history.append(float(norms.max()))
        done = norms <= tolerance[live]
        done |= pap <= 0.0
        if done.any():
            finished = live[done]
            solution[:, finished] = x[:, done]
            residual_full[:, finished] = r[:, done]
            keep = ~done
            live = live[keep]
            x = x[:, keep]
            r = r[:, keep]
            p = p[:, keep]
            rz = rz[keep]
            if live.size == 0:
                break
        if (wall_budget_s is not None
                and time.perf_counter() - start_time >= wall_budget_s):
            # checked only after the iterate math: giving up early can
            # never change what a completed column computed
            exhausted = "wall"
            break
        z = precondition(r)
        rz_next = _column_dots(r, z)
        beta = rz_next / rz
        p *= beta  # in place: (beta*p + z) without an (n, k) temporary
        p += z
        rz = rz_next

    if live.size:
        solution[:, live] = x
        residual_full[:, live] = r
        if exhausted is None:
            exhausted = "maxiter"
    # judge convergence by the residual every column actually ended with:
    # a column frozen by breakdown (pap <= 0) left `live` without meeting
    # its tolerance and must not be reported as solved
    unconverged = np.flatnonzero(_column_norms(residual_full) > tolerance)
    return BlockCGResult(solution=solution[:, 0] if squeeze else solution,
                         iterations=iterations, unconverged=unconverged,
                         residual_history=np.asarray(history, dtype=float),
                         elapsed_s=time.perf_counter() - start_time,
                         exhausted=exhausted)
