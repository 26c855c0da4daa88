"""``repro.solver`` — golden static IR-drop solver (ground-truth substrate).

Vectorized sparse nodal assembly, exact direct or preconditioned-CG solve,
factor-once/solve-many batching, physical audits, and rasterisation of node
voltages into the contest's per-pixel IR map format.
"""

from repro.solver.checks import SolutionAudit, audit_solution
from repro.solver.conductance import (
    NodalSystem,
    assemble_system,
    assemble_system_reference,
)
from repro.solver.factorized import (
    DIRECT_SIZE_LIMIT,
    FactorizedCache,
    FactorizedPDN,
    direct_size_limit,
    solver_iteration_cap,
    solver_wall_budget,
)
from repro.solver.multigrid import (
    BlockCGResult,
    IncompleteCholeskyPreconditioner,
    JacobiPreconditioner,
    MultigridPreconditioner,
    SolverStalledError,
    block_cg,
    node_coordinates,
)
from repro.solver.rasterize import rasterize_ir_map
from repro.solver.static import IRSolveResult, solve_static_ir
from repro.solver.store import STORE_FORMAT, FactorizationStore

__all__ = [
    "assemble_system", "assemble_system_reference", "NodalSystem",
    "solve_static_ir", "IRSolveResult",
    "FactorizedPDN", "FactorizedCache",
    "DIRECT_SIZE_LIMIT", "direct_size_limit",
    "MultigridPreconditioner", "IncompleteCholeskyPreconditioner",
    "JacobiPreconditioner", "block_cg", "BlockCGResult",
    "SolverStalledError", "node_coordinates",
    "solver_iteration_cap", "solver_wall_budget",
    "FactorizationStore", "STORE_FORMAT",
    "rasterize_ir_map",
    "audit_solution", "SolutionAudit",
]
