"""Factor-once / solve-many golden solves.

The contest data mix re-uses one PDN grid under many current budgets, so
the expensive part of the golden solve — the sparse LU factorisation of
the conductance matrix — can be paid once and amortised over every RHS.
:class:`FactorizedPDN` wraps :func:`scipy.sparse.linalg.splu` around the
vectorized assembly and solves batches of load maps in a single 2-D
triangular solve.

For grids too large to factor, the iterative path runs preconditioned
conjugate gradient; the conductance matrix of a reduced PDN is symmetric
positive definite, which is exactly CG's home turf.  The preconditioner
is selectable (``precond="mg" | "ic" | "jacobi" | "auto"`` — geometric
multigrid when node names carry grid coordinates, incomplete
factorisation otherwise; see :mod:`repro.solver.multigrid`), CG setup
(preconditioner build + well-posedness checks) is cached on the instance
and accounted in ``factor_seconds`` like the LU path's factor time, and
multi-RHS solves run through :func:`repro.solver.multigrid.block_cg` so
the whole batch shares each iteration's matvec and V-cycle.

``method="auto"`` solves direct up to :func:`direct_size_limit` nodes:
the ``REPRO_SOLVER_DIRECT_LIMIT`` environment variable when set, else
:data:`DIRECT_SIZE_LIMIT`.  ``precond="auto"`` descends
:data:`PRECOND_CHAIN` when a rung fails to build.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Callable, Hashable, List, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from repro import knobs
from repro.faults.degrade import record as record_degradation
from repro.faults.points import fault_point
from repro.solver.conductance import CurrentsLike, NodalSystem, assemble_system
from repro.solver.multigrid import (
    IncompleteCholeskyPreconditioner,
    JacobiPreconditioner,
    MultigridPreconditioner,
    SolverStalledError,
    block_cg,
    node_coordinates,
)
from repro.solver.static import IRSolveResult, result_from_solution
from repro.spice.netlist import Netlist

__all__ = [
    "FactorizedPDN", "FactorizedCache",
    "DIRECT_SIZE_LIMIT", "PRECOND_CHAIN", "direct_size_limit",
    "solver_iteration_cap", "solver_wall_budget",
]

DIRECT_SIZE_LIMIT = 400_000
"""Built-in default for the ``method="auto"`` direct↔CG switch; the
effective value is resolved per solve by :func:`direct_size_limit`."""

PRECOND_CHAIN = ("mg", "ic", "jacobi")
"""The rungs ``precond="auto"`` descends, best first, when one fails to
build."""


def solver_iteration_cap() -> Optional[int]:
    """Deployment-wide CG iteration ceiling (``REPRO_SOLVER_MAX_ITERS``).

    ``None`` (unset/empty) keeps :func:`repro.solver.multigrid.block_cg`'s
    size-derived default.  An explicit ``cg_maxiter`` always wins over
    the environment — per-solve intent beats deployment policy.
    """
    return knobs.read("REPRO_SOLVER_MAX_ITERS")


def solver_wall_budget() -> Optional[float]:
    """Deployment-wide per-solve wall-clock budget in seconds
    (``REPRO_SOLVER_BUDGET_S``); ``None`` when unset."""
    return knobs.read("REPRO_SOLVER_BUDGET_S")


_METHODS = ("auto", "direct", "cg")
_PRECONDS = ("auto",) + PRECOND_CHAIN


def direct_size_limit() -> int:
    """The effective ``method="auto"`` direct↔CG switch point:
    ``REPRO_SOLVER_DIRECT_LIMIT`` when set, else :data:`DIRECT_SIZE_LIMIT`.
    """
    limit = knobs.read("REPRO_SOLVER_DIRECT_LIMIT")
    return DIRECT_SIZE_LIMIT if limit is None else limit


class FactorizedPDN:
    """A PDN grid prepared for repeated golden solves.

    Assembly happens eagerly (so element errors surface at construction);
    the backend setup — LU factorisation on the direct path,
    preconditioner build plus well-posedness checks on the CG path — is
    lazy and cached, so the first solve pays it and every later solve
    reuses it.  Both setups are accounted in ``factor_seconds``.

    Parameters
    ----------
    method:
        ``"direct"``, ``"cg"``, or ``"auto"`` (pick by system size
        against :func:`direct_size_limit`).
    precond:
        CG preconditioner: ``"mg"`` (geometric multigrid), ``"ic"``
        (incomplete factorisation), ``"jacobi"`` (diagonal), or
        ``"auto"`` — multigrid when the node names carry grid
        coordinates, incomplete factorisation otherwise.
    system:
        A pre-assembled :class:`~repro.solver.conductance.NodalSystem`
        for this netlist (e.g. from a
        :class:`~repro.solver.store.FactorizationStore`); skips
        re-assembly.
    """

    def __init__(self, netlist: Netlist, method: str = "auto",
                 cg_rtol: float = 1e-10, cg_maxiter: Optional[int] = None,
                 precond: str = "auto",
                 system: Optional[NodalSystem] = None):
        if method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
        if precond not in _PRECONDS:
            raise ValueError(
                f"precond must be one of {_PRECONDS}, got {precond!r}")
        self.netlist = netlist
        self.vdd = netlist.supply_voltage()
        self.system = assemble_system(netlist) if system is None else system
        self.method = method
        self.precond = precond
        self.cg_rtol = cg_rtol
        self.cg_maxiter = cg_maxiter
        #: preconditioner rung actually serving solves (settles on first
        #: CG setup; may sit below :attr:`resolved_precond` after a
        #: degradation descent)
        self.active_precond: Optional[str] = None
        self.factor_seconds = 0.0
        self._lu = None
        self._preconditioner = None
        self._cg_ready = False
        self._connectivity_checked = False
        self._coords: Optional[np.ndarray] = None
        self._coords_known = False

    @property
    def size(self) -> int:
        return self.system.size

    @property
    def resolved_method(self) -> str:
        """The backend ``"auto"`` resolves to for this grid."""
        if self.method != "auto":
            return self.method
        return "direct" if self.size <= direct_size_limit() else "cg"

    def _grid_coordinates(self) -> Optional[np.ndarray]:
        """Node coordinates, parsed once per instance — the scan applies
        a regex to every free-node name, real money on >100k grids."""
        if not self._coords_known:
            self._coords = node_coordinates(self.system.free_nodes)
            self._coords_known = True
        return self._coords

    @property
    def resolved_precond(self) -> str:
        """The preconditioner ``precond="auto"`` resolves to."""
        if self.precond != "auto":
            return self.precond
        return "mg" if self._grid_coordinates() is not None else "ic"

    # ------------------------------------------------------------------
    # Linear-algebra backends
    # ------------------------------------------------------------------
    def _factor(self):
        if self._lu is None:
            start = time.perf_counter()
            try:
                self._lu = splu(sparse.csc_matrix(self.system.matrix))
            except RuntimeError as error:  # "Factor is exactly singular"
                raise self._singular_error() from error
            self.factor_seconds += time.perf_counter() - start
        return self._lu

    def _singular_error(self) -> ValueError:
        return ValueError(
            f"singular PDN system for {self.netlist.name!r} "
            "(floating nodes without a path to a supply?)"
        )

    def _solve_direct(self, rhs: np.ndarray) -> np.ndarray:
        return self._factor().solve(rhs)

    def _ensure_supplied_components(self) -> None:
        """Reject grids with subgrids that cannot see a supply or ground.

        LU factorisation fails loudly on such singular systems, but CG can
        converge on a *consistent* singular system (an unloaded floating
        island has RHS 0, so 0 V "solves" it) and would hand back a
        plausible-looking full-VDD phantom hotspot.  A connected component
        of the reduced matrix is well-posed iff some row in it keeps excess
        diagonal mass (a Dirichlet/ground attachment), i.e. G @ 1 > 0
        somewhere in the component.
        """
        if self._connectivity_checked:
            return
        matrix = self.system.matrix
        _, labels = connected_components(matrix, directed=False)
        attachment = np.asarray(matrix @ np.ones(matrix.shape[0])).ravel()
        diagonal = matrix.diagonal()
        num_components = int(labels.max()) + 1 if labels.size else 0
        max_attachment = np.zeros(num_components)
        max_diagonal = np.zeros(num_components)
        np.maximum.at(max_attachment, labels, attachment)
        np.maximum.at(max_diagonal, labels, diagonal)
        if (max_attachment <= 1e-9 * max_diagonal).any():
            raise self._singular_error()
        self._connectivity_checked = True

    def _build_rung(self, choice: str):
        """Construct one preconditioner rung; raises on setup failure."""
        matrix = self.system.matrix
        if choice == "mg":
            coords = self._grid_coordinates()
            if coords is None:
                raise ValueError(
                    f"precond='mg' needs grid coordinates in the node names "
                    f"of {self.netlist.name!r}; use precond='ic' or 'auto'"
                )
            return MultigridPreconditioner(matrix, coords)
        if choice == "ic":
            return IncompleteCholeskyPreconditioner(matrix)
        return JacobiPreconditioner(matrix)

    def _build_preconditioner(self):
        """Build the resolved rung, descending the degradation chain.

        An *explicit* ``precond=`` choice is a configuration statement —
        its setup failure raises, because silently serving a different
        preconditioner than asked for would be the exact invisibility
        this layer exists to kill.  ``precond="auto"`` descends
        :data:`PRECOND_CHAIN` (mg→ic→jacobi) on *setup* failure (build
        exceptions; slow convergence is a perf issue, not a fault),
        recording every step on the degradation ledger so a degraded
        solver is visibly degraded.
        """
        choice = self.resolved_precond
        if self.precond != "auto":
            built = self._build_rung(choice)
            self.active_precond = choice
            return built
        rungs = PRECOND_CHAIN[PRECOND_CHAIN.index(choice):]
        last_error: Optional[BaseException] = None
        for index, rung in enumerate(rungs):
            try:
                built = self._build_rung(rung)
            except Exception as error:
                last_error = error
                if index + 1 < len(rungs):
                    record_degradation(
                        "solver.precond", rung, rungs[index + 1],
                        f"{self.netlist.name!r}: {type(error).__name__}: "
                        f"{error}")
                continue
            self.active_precond = rung
            return built
        raise ValueError(
            f"every preconditioner rung in {rungs} failed to build for "
            f"{self.netlist.name!r}; last error: {last_error}"
        ) from last_error

    def _cg_setup(self):
        """One-time CG preparation, cached on the instance.

        The well-posedness checks (positive diagonal, supply
        reachability) and the preconditioner used to be rebuilt on every
        ``_solve_cg`` call; they are paid once now, and the elapsed time
        lands in ``factor_seconds`` exactly like the LU path's factor
        time — so CG and direct report comparable setup costs.
        """
        if self._cg_ready:
            return self._preconditioner
        start = time.perf_counter()
        diagonal = self.system.matrix.diagonal()
        if not (diagonal > 0).all():
            # a free node with no resistive path has a zero diagonal
            raise self._singular_error()
        self._ensure_supplied_components()
        self._preconditioner = self._build_preconditioner()
        self.factor_seconds += time.perf_counter() - start
        self._cg_ready = True
        return self._preconditioner

    @property
    def preconditioner(self):
        """The CG preconditioner the solves run on (a
        :class:`~repro.solver.multigrid.MultigridPreconditioner` exposes
        its ``levels``), or ``None`` before the first CG solve.  Read
        only: it never builds one."""
        return self._preconditioner

    def _solve_cg(self, rhs: np.ndarray) -> np.ndarray:
        preconditioner = self._cg_setup()
        columns = np.atleast_2d(rhs.T).T  # (n,) -> (n, 1), (n, k) unchanged
        maxiter = (self.cg_maxiter if self.cg_maxiter is not None
                   else solver_iteration_cap())
        with np.errstate(divide="ignore", invalid="ignore"):
            # singular systems divide by zero inside CG; detected below
            result = block_cg(self.system.matrix, columns,
                              preconditioner.apply, rtol=self.cg_rtol,
                              atol=0.0, maxiter=maxiter,
                              wall_budget_s=solver_wall_budget())
        if not result.converged:
            raise SolverStalledError(
                f"CG failed to converge for {self.netlist.name!r} "
                f"({result.unconverged.size} of {columns.shape[1]} RHS "
                f"columns); the system may be singular or ill-conditioned "
                f"— try method='direct'",
                residual_history=result.residual_history,
                iterations=int(result.iterations.max(initial=0)),
                elapsed_s=result.elapsed_s,
                unconverged=result.unconverged,
                budget=result.exhausted or "breakdown")
        return result.solution.reshape(rhs.shape)

    def solve_vector(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``G x = rhs`` for one (n,) or many (n, k) RHS columns."""
        fault_point("solver.solve")
        if self.size == 0:
            return np.zeros_like(rhs, dtype=float)
        if self.resolved_method == "direct":
            solution = self._solve_direct(np.asarray(rhs, dtype=float))
        else:
            solution = self._solve_cg(np.asarray(rhs, dtype=float))
        if not np.isfinite(solution).all():
            raise self._singular_error()
        return solution

    # ------------------------------------------------------------------
    # Golden-solve front ends
    # ------------------------------------------------------------------
    def solve(self, currents: Optional[CurrentsLike] = None) -> IRSolveResult:
        """One golden solve; ``currents`` overrides the netlist's own loads.

        ``solve_seconds`` covers the linear solve including any
        factorisation or CG setup this call triggered (matching what a
        cold ``spsolve`` would have paid).
        """
        rhs = self.system.rhs if currents is None else self.system.rhs_for(currents)
        start = time.perf_counter()
        solution = self.solve_vector(rhs)
        elapsed = time.perf_counter() - start
        return result_from_solution(self.system, self.vdd, solution, elapsed)

    def solve_many(self, current_maps: Sequence[CurrentsLike]) -> List[IRSolveResult]:
        """Golden solves for many load maps on the same grid.

        Each entry of ``current_maps`` is a ``{node: amps}`` mapping (or
        an iterable of :class:`~repro.spice.elements.CurrentSource`) that
        replaces the netlist's own current sources for that solve.  All RHS vectors are solved in one batched call against the shared
        factorisation (direct) or in one block-CG sweep sharing every
        iteration's matvec and preconditioner application (CG); each
        result's ``solve_seconds`` is the batch time amortised over the
        maps.
        """
        if not current_maps:
            return []
        rhs = np.column_stack([self.system.rhs_for(m) for m in current_maps])
        start = time.perf_counter()
        solutions = self.solve_vector(rhs)
        per_solve = (time.perf_counter() - start) / len(current_maps)
        return [
            result_from_solution(self.system, self.vdd, solutions[:, j], per_solve)
            for j in range(len(current_maps))
        ]


class FactorizedCache:
    """Keyed LRU cache of prepared solver state.

    Suite synthesis keys this by grid template, so every case sharing a
    PDN geometry reuses one :class:`FactorizedPDN` (and whatever other
    per-template payload the builder bundles with it): the factorisation
    is paid once per *template* instead of once per *case*.  For reuse
    across processes and restarts, see the disk-persistent
    :class:`repro.solver.store.FactorizationStore`.

    ``maxsize=0`` disables storage entirely (every lookup rebuilds), which
    is the no-reuse baseline the suite-synthesis benchmark measures
    against.  Eviction is least-recently-used; a template evicted under
    memory pressure is simply refactored on its next use — results are
    identical either way, only the cost differs.
    """

    def __init__(self, maxsize: int = 8):
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building (and storing) on miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]
        value = builder()
        self.misses += 1
        if self.maxsize > 0:
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
        return value

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "entries": len(self._entries)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FactorizedCache(maxsize={self.maxsize}, entries="
                f"{len(self._entries)}, hits={self.hits}, "
                f"misses={self.misses}, evictions={self.evictions})")
