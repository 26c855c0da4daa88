"""Solver budgets and degradation: iteration/wall-clock ceilings, the
typed SolverStalledError, and the auto preconditioner descent chain."""

import numpy as np
import pytest
from scipy import sparse

import repro.solver.factorized as factorized_module
from repro.faults.degrade import default_log, reset_default_log
from repro.pdn.generator import PDNConfig, generate_pdn
from repro.pdn.templates import small_stack
from repro.solver.factorized import (
    FactorizedPDN,
    solver_iteration_cap,
    solver_wall_budget,
)
from repro.solver.multigrid import (
    JacobiPreconditioner,
    SolverStalledError,
    block_cg,
)


@pytest.fixture(scope="module")
def small_netlist():
    case = generate_pdn(PDNConfig(stack=small_stack(), width_um=24,
                                  height_um=24, tap_spacing_um=4.0,
                                  num_pads=2, seed=3, total_current=0.02))
    return case.netlist


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_SOLVER_MAX_ITERS", raising=False)
    monkeypatch.delenv("REPRO_SOLVER_BUDGET_S", raising=False)
    reset_default_log()
    yield
    reset_default_log()


def _spd_system(n=200, k=2, seed=0):
    rng = np.random.default_rng(seed)
    matrix = sparse.random(n, n, density=0.03, random_state=1)
    matrix = sparse.csr_matrix(matrix + matrix.T + 10 * sparse.eye(n))
    return matrix, rng.normal(size=(n, k))


class TestBlockCGBudgets:
    def test_maxiter_exhaustion_is_typed_and_carries_history(
            self, small_netlist):
        # jacobi: weak enough that two iterations cannot converge
        engine = FactorizedPDN(small_netlist, method="cg",
                               precond="jacobi", cg_maxiter=2)
        loads = {s.node: s.value for s in small_netlist.current_sources}
        with pytest.raises(SolverStalledError) as exc_info:
            engine.solve_many([loads, {n: 2 * v for n, v in loads.items()}])
        error = exc_info.value
        assert error.budget == "maxiter"
        assert error.iterations == 2
        assert error.unconverged.size == 2
        assert error.residual_history.size == 2
        assert error.elapsed_s >= 0.0
        # the message shows the residual tail, not just "failed"
        tail = ", ".join(f"{value:.3e}" for value in error.residual_history)
        assert f"residual tail: {tail}" in str(error)

    def test_default_on_stall_returns_instead_of_raising(self):
        matrix, rhs = _spd_system()
        precond = JacobiPreconditioner(matrix)
        result = block_cg(matrix, rhs, precond.apply, rtol=1e-14, maxiter=2)
        assert not result.converged
        assert result.exhausted == "maxiter"
        assert result.residual_history.size >= 1

    def test_wall_budget_stops_a_long_solve(self):
        matrix, rhs = _spd_system(n=400)
        precond = JacobiPreconditioner(matrix)
        result = block_cg(matrix, rhs, precond.apply, rtol=1e-15,
                          atol=0.0, maxiter=100000, wall_budget_s=1e-9)
        assert result.exhausted == "wall"
        assert result.elapsed_s > 0.0

    def test_converged_solve_reports_no_exhaustion(self):
        matrix, rhs = _spd_system()
        precond = JacobiPreconditioner(matrix)
        result = block_cg(matrix, rhs, precond.apply, rtol=1e-12)
        assert result.converged and result.exhausted is None
        # residual history is the per-iteration max norm, decreasing
        # overall to convergence
        assert result.residual_history[-1] <= result.residual_history[0]

    def test_generous_wall_budget_is_bit_identical_to_none(self):
        matrix, rhs = _spd_system()
        precond = JacobiPreconditioner(matrix)
        free = block_cg(matrix, rhs, precond.apply, rtol=1e-12)
        budgeted = block_cg(matrix, rhs, precond.apply, rtol=1e-12,
                            wall_budget_s=3600.0)
        np.testing.assert_array_equal(free.solution, budgeted.solution)

    def test_invalid_budget_parameters_rejected(self):
        matrix, rhs = _spd_system()
        with pytest.raises(ValueError, match="wall_budget_s"):
            block_cg(matrix, rhs, lambda r: r, wall_budget_s=0.0)


class TestSolverEnvBudgets:
    def test_unset_env_means_unbounded(self):
        assert solver_iteration_cap() is None
        assert solver_wall_budget() is None

    def test_env_values_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_MAX_ITERS", "50")
        monkeypatch.setenv("REPRO_SOLVER_BUDGET_S", "2.5")
        assert solver_iteration_cap() == 50
        assert solver_wall_budget() == 2.5

    def test_invalid_env_values_raise(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_MAX_ITERS", "0")
        with pytest.raises(ValueError, match="REPRO_SOLVER_MAX_ITERS"):
            solver_iteration_cap()
        monkeypatch.setenv("REPRO_SOLVER_BUDGET_S", "-3")
        with pytest.raises(ValueError, match="REPRO_SOLVER_BUDGET_S"):
            solver_wall_budget()

    def test_env_cap_trips_solver_stalled(self, small_netlist, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_MAX_ITERS", "1")
        # jacobi: weak enough that one iteration cannot converge
        engine = FactorizedPDN(small_netlist, method="cg",
                               precond="jacobi")
        with pytest.raises(SolverStalledError) as exc_info:
            engine.solve()
        assert exc_info.value.budget == "maxiter"

    def test_explicit_cg_maxiter_beats_env(self, small_netlist, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_MAX_ITERS", "1")
        engine = FactorizedPDN(small_netlist, method="cg", cg_maxiter=5000)
        result = engine.solve()
        assert np.isfinite(list(result.node_voltages.values())).all()


class TestPrecondDegradation:
    class _BrokenMG:
        def __init__(self, *args, **kwargs):
            raise RuntimeError("mg setup exploded (injected)")

    def test_auto_descends_and_records(self, small_netlist, monkeypatch):
        monkeypatch.setattr(factorized_module, "MultigridPreconditioner",
                            self._BrokenMG)
        engine = FactorizedPDN(small_netlist, method="cg")
        assert engine.resolved_precond == "mg"
        result = engine.solve()
        assert engine.active_precond == "ic"
        direct = FactorizedPDN(small_netlist, method="direct").solve()
        for name, voltage in direct.node_voltages.items():
            assert abs(result.node_voltages[name] - voltage) <= 1e-8
        counts = default_log().counts()
        assert counts.get("solver.precond: mg->ic") == 1

    def test_explicit_choice_does_not_degrade(self, small_netlist,
                                              monkeypatch):
        monkeypatch.setattr(factorized_module, "MultigridPreconditioner",
                            self._BrokenMG)
        engine = FactorizedPDN(small_netlist, method="cg", precond="mg")
        with pytest.raises(RuntimeError, match="mg setup exploded"):
            engine.solve()
        assert len(default_log()) == 0

    def test_single_rung_chain_fails_loudly(self, small_netlist,
                                            monkeypatch):
        for name in ("MultigridPreconditioner",
                     "IncompleteCholeskyPreconditioner",
                     "JacobiPreconditioner"):
            monkeypatch.setattr(factorized_module, name, self._BrokenMG)
        engine = FactorizedPDN(small_netlist, method="cg")
        with pytest.raises(ValueError, match="every preconditioner rung"):
            engine.solve()
        assert engine.active_precond is None
        assert default_log().counts() == {"solver.precond: mg->ic": 1,
                                          "solver.precond: ic->jacobi": 1}

    def test_healthy_auto_records_nothing(self, small_netlist):
        engine = FactorizedPDN(small_netlist, method="cg")
        engine.solve()
        assert engine.active_precond == "mg"
        assert len(default_log()) == 0
