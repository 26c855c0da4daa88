"""Tests for the large-grid scaling engine: multigrid/IC preconditioning,
block CG, and the direct↔CG switch knob."""

import numpy as np
import pytest
from scipy import sparse

from repro.pdn.generator import PDNConfig, generate_pdn
from repro.pdn.templates import contest_stack, small_stack
from repro.solver.factorized import (
    DIRECT_SIZE_LIMIT,
    FactorizedPDN,
    direct_size_limit,
)
from repro.solver.multigrid import (
    IncompleteCholeskyPreconditioner,
    JacobiPreconditioner,
    MultigridPreconditioner,
    block_cg,
    node_coordinates,
)
from repro.spice.netlist import Netlist

PRECONDS = ("mg", "ic", "jacobi")


def _small_netlist(seed=3):
    case = generate_pdn(PDNConfig(stack=small_stack(), width_um=24, height_um=24,
                                  tap_spacing_um=4.0, num_pads=2, seed=seed,
                                  total_current=0.02))
    return case.netlist


def _medium_netlist(seed=2):
    case = generate_pdn(PDNConfig(stack=contest_stack(), width_um=96,
                                  height_um=96, tap_spacing_um=4.0,
                                  num_pads=4, seed=seed, total_current=0.05))
    return case.netlist


@pytest.fixture(scope="module")
def small_netlist():
    return _small_netlist()


@pytest.fixture(scope="module")
def medium_netlist():
    return _medium_netlist()


def _scaled_maps(netlist, factors):
    return [{s.node: s.value * factor for s in netlist.current_sources}
            for factor in factors]


class TestPreconditionerParity:
    """CG under every preconditioner must agree with the direct solve to
    1e-8 max-abs on small and medium grids (the acceptance tolerance)."""

    @pytest.mark.parametrize("precond", PRECONDS)
    def test_small_grid(self, small_netlist, precond):
        self._assert_parity(small_netlist, precond)

    @pytest.mark.parametrize("precond", PRECONDS)
    def test_medium_grid(self, medium_netlist, precond):
        self._assert_parity(medium_netlist, precond)

    @staticmethod
    def _assert_parity(netlist, precond):
        direct = FactorizedPDN(netlist, method="direct").solve()
        iterative = FactorizedPDN(netlist, method="cg", precond=precond).solve()
        worst = max(
            abs(direct.node_voltages[name] - iterative.node_voltages[name])
            for name in direct.node_voltages
        )
        assert worst <= 1e-8

    def test_multi_rhs_parity_with_direct(self, medium_netlist):
        maps = _scaled_maps(medium_netlist, (0.5, 1.0, 1.7, 2.4))
        direct = FactorizedPDN(medium_netlist, method="direct").solve_many(maps)
        blocked = FactorizedPDN(medium_netlist, method="cg").solve_many(maps)
        for d, b in zip(direct, blocked):
            worst = max(abs(d.node_voltages[name] - b.node_voltages[name])
                        for name in d.node_voltages)
            assert worst <= 1e-8


class TestBlockBitAgreement:
    """A column solved inside a block must reproduce the single-RHS solve
    bit for bit — the block shares work, never arithmetic."""

    @pytest.mark.parametrize("precond", PRECONDS)
    def test_solve_many_matches_solve(self, medium_netlist, precond):
        maps = _scaled_maps(medium_netlist, (0.5, 1.0, 1.7, 2.4))
        engine = FactorizedPDN(medium_netlist, method="cg", precond=precond)
        batch = engine.solve_many(maps)
        for current_map, blocked in zip(maps, batch):
            single = FactorizedPDN(medium_netlist, method="cg",
                                   precond=precond).solve(current_map)
            assert single.node_voltages == blocked.node_voltages
            assert single.vdd == blocked.vdd
            assert single.worst_drop == blocked.worst_drop

    def test_block_width_does_not_leak_between_columns(self, small_netlist):
        maps = _scaled_maps(small_netlist, (0.3, 0.9, 1.4, 2.0, 2.6))
        engine = FactorizedPDN(small_netlist, method="cg")
        wide = engine.solve_many(maps)
        narrow = FactorizedPDN(small_netlist, method="cg").solve_many(maps[:2])
        for a, b in zip(narrow, wide[:2]):
            assert a.node_voltages == b.node_voltages


class TestBlockCGUnit:
    def _spd_system(self, n=200, k=3, seed=0):
        rng = np.random.default_rng(seed)
        matrix = sparse.random(n, n, density=0.03, random_state=1)
        matrix = sparse.csr_matrix(matrix + matrix.T + 10 * sparse.eye(n))
        rhs = rng.normal(size=(n, k))
        return matrix, rhs

    def test_matches_dense_solve(self):
        matrix, rhs = self._spd_system()
        precond = JacobiPreconditioner(matrix)
        result = block_cg(matrix, rhs, precond.apply, rtol=1e-12)
        assert result.converged
        expected = np.linalg.solve(matrix.toarray(), rhs)
        assert np.allclose(result.solution, expected, rtol=1e-9, atol=1e-12)

    def test_zero_column_converges_immediately(self):
        matrix, rhs = self._spd_system(k=2)
        rhs[:, 1] = 0.0
        precond = JacobiPreconditioner(matrix)
        result = block_cg(matrix, rhs, precond.apply, rtol=1e-12)
        assert result.converged
        assert result.iterations[1] == 0
        assert np.array_equal(result.solution[:, 1], np.zeros(matrix.shape[0]))

    def test_one_dimensional_rhs_round_trips_shape(self):
        matrix, rhs = self._spd_system(k=1)
        precond = JacobiPreconditioner(matrix)
        result = block_cg(matrix, rhs[:, 0], precond.apply, rtol=1e-12)
        assert result.solution.shape == (matrix.shape[0],)

    def test_breakdown_column_reported_unconverged(self):
        """A column frozen by p.Ap <= 0 with a residual still above
        tolerance must be reported, not silently returned as solved."""
        matrix = sparse.csr_matrix((2, 2))  # zero operator: instant breakdown
        rhs = np.array([[1.0, 0.0], [0.0, 0.0]])
        result = block_cg(matrix, rhs, lambda r: r, rtol=1e-10)
        assert not result.converged
        assert list(result.unconverged) == [0]  # zero column is converged

    def test_maxiter_reports_unconverged_columns(self):
        matrix, rhs = self._spd_system()
        precond = JacobiPreconditioner(matrix)
        result = block_cg(matrix, rhs, precond.apply, rtol=1e-14, maxiter=1)
        assert not result.converged
        assert result.unconverged.size == rhs.shape[1]


class TestMultigridHierarchy:
    def test_levels_shrink_to_coarse_limit(self, medium_netlist):
        engine = FactorizedPDN(medium_netlist, method="cg")
        coords = node_coordinates(engine.system.free_nodes)
        mg = MultigridPreconditioner(engine.system.matrix, coords,
                                     coarse_limit=300)
        sizes = mg.level_sizes()
        assert sizes[0] == engine.size
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] <= 300

    def test_setup_time_recorded(self, medium_netlist):
        engine = FactorizedPDN(medium_netlist, method="cg")
        coords = node_coordinates(engine.system.free_nodes)
        mg = MultigridPreconditioner(engine.system.matrix, coords)
        assert mg.setup_seconds > 0


class TestPrecondResolution:
    def _foreign_netlist(self):
        """A solvable netlist whose node names carry no coordinates."""
        net = Netlist("foreign")
        previous = "a0"
        for i in range(1, 6):
            net.add_resistor(previous, f"a{i}", 1.0)
            previous = f"a{i}"
        net.add_voltage_source("a0", 1.0)
        net.add_current_source("a5", 0.01)
        return net

    def test_auto_picks_mg_for_grid_names(self, small_netlist):
        engine = FactorizedPDN(small_netlist, method="cg")
        assert engine.resolved_precond == "mg"

    def test_auto_falls_back_to_ic_for_foreign_names(self):
        engine = FactorizedPDN(self._foreign_netlist(), method="cg")
        assert engine.resolved_precond == "ic"
        direct = FactorizedPDN(self._foreign_netlist(), method="direct").solve()
        iterative = engine.solve()
        for name, voltage in direct.node_voltages.items():
            assert abs(iterative.node_voltages[name] - voltage) <= 1e-8

    def test_explicit_mg_on_foreign_names_raises(self):
        engine = FactorizedPDN(self._foreign_netlist(), method="cg",
                               precond="mg")
        with pytest.raises(ValueError, match="grid coordinates"):
            engine.solve()

    def test_invalid_precond_rejected(self, small_netlist):
        with pytest.raises(ValueError, match="precond"):
            FactorizedPDN(small_netlist, precond="amg")


class TestCgSetupCaching:
    """Satellite: the Jacobi preconditioner and the reachability check are
    built once per engine, and CG setup time lands in factor_seconds."""

    def test_preconditioner_cached_across_solves(self, small_netlist):
        engine = FactorizedPDN(small_netlist, method="cg", precond="jacobi")
        assert engine.preconditioner is None  # the accessor builds nothing
        engine.solve()
        built = engine.preconditioner
        assert isinstance(built, JacobiPreconditioner)
        assert engine._connectivity_checked
        engine.solve_many(_scaled_maps(small_netlist, (0.5, 2.0)))
        assert engine.preconditioner is built

    def test_setup_accounted_in_factor_seconds(self, small_netlist):
        engine = FactorizedPDN(small_netlist, method="cg")
        assert engine.factor_seconds == 0.0
        engine.solve()
        after_first = engine.factor_seconds
        assert after_first > 0.0
        engine.solve()
        assert engine.factor_seconds == after_first


class TestDirectSizeLimit:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER_DIRECT_LIMIT", raising=False)
        assert direct_size_limit() == DIRECT_SIZE_LIMIT

    def test_env_override_flips_auto_method(self, small_netlist, monkeypatch):
        engine = FactorizedPDN(small_netlist)
        assert engine.resolved_method == "direct"
        monkeypatch.setenv("REPRO_SOLVER_DIRECT_LIMIT", "10")
        assert direct_size_limit() == 10
        assert engine.resolved_method == "cg"


class TestIncompleteCholesky:
    def test_apply_supports_blocks(self, small_netlist):
        engine = FactorizedPDN(small_netlist, method="cg")
        precond = IncompleteCholeskyPreconditioner(engine.system.matrix)
        block = np.column_stack([engine.system.rhs, 2.0 * engine.system.rhs])
        out = precond.apply(block)
        assert out.shape == block.shape
        # each column solved independently: scaling the RHS scales the output
        assert np.allclose(out[:, 1], 2.0 * out[:, 0], rtol=1e-12)
