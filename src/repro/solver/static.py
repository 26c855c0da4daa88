"""Golden static IR-drop solve (the ground-truth generator).

This is the "commercial tool" role in the paper's Fig. 1: solve the PDN's
nodal equations exactly and report per-node voltages / IR drops.  The
learning task is to approximate this solver's output orders of magnitude
faster.

:func:`solve_static_ir` is a one-shot solve through
:class:`repro.solver.factorized.FactorizedPDN` (factor-once engine,
direct or preconditioned-CG backend); batch workloads keep the engine and
call its ``solve_many`` so the factorisation or CG set-up is reused across
RHS vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.solver.conductance import NodalSystem
from repro.spice.netlist import Netlist

__all__ = ["IRSolveResult", "solve_static_ir"]


@dataclass
class IRSolveResult:
    """Outcome of a golden solve."""

    node_voltages: Dict[str, float]
    vdd: float
    solve_seconds: float

    def ir_drop(self) -> Dict[str, float]:
        """Per-node static IR drop (VDD minus node voltage)."""
        return {name: self.vdd - v for name, v in self.node_voltages.items()}

    @property
    def worst_drop(self) -> float:
        """Largest IR drop over all nodes.

        A plain min-scan over the voltages — no per-access dict
        materialisation (the old ``ir_drop()`` round trip), and no cache
        to go stale when voltages are rescaled in place.
        """
        if not self.node_voltages:
            return 0.0
        return float(self.vdd - min(self.node_voltages.values()))


def result_from_solution(system: NodalSystem, vdd: float,
                         solution: np.ndarray,
                         solve_seconds: float) -> IRSolveResult:
    """Package a free-node solution vector into an :class:`IRSolveResult`."""
    voltages: Dict[str, float] = {}
    for name, value in zip(system.free_nodes, solution):
        voltages[name] = float(value)
    voltages.update(system.fixed_voltages)
    return IRSolveResult(node_voltages=voltages, vdd=vdd,
                         solve_seconds=solve_seconds)


def solve_static_ir(netlist: Netlist, method: str = "auto") -> IRSolveResult:
    """Solve the PDN and return every node voltage.

    Parameters
    ----------
    method:
        ``"direct"`` (sparse LU), ``"cg"`` (conjugate gradient under the
        ``precond="auto"`` preconditioner — multigrid on grid-named nodes,
        incomplete factorisation otherwise — for grids too large to
        factor), or ``"auto"`` to pick by system size.

    Raises
    ------
    ValueError
        If the netlist has no supplies, a resistor has non-positive
        resistance, or the reduced system is singular (floating subgrids —
        run ``prune_unreachable`` first).
    """
    from repro.solver.factorized import FactorizedPDN  # circular-import guard

    return FactorizedPDN(netlist, method=method).solve()
