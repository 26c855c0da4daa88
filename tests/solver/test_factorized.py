"""Tests for the factor-once/solve-many engine and the CG path."""

import numpy as np
import pytest

from repro.pdn.generator import PDNConfig, generate_pdn
from repro.pdn.templates import small_stack
from repro.solver.checks import audit_solution
from repro.solver.conductance import assemble_system, assemble_system_reference
from repro.solver.factorized import FactorizedPDN
from repro.solver.static import solve_static_ir
from repro.spice.elements import CurrentSource
from repro.spice.netlist import Netlist


def _generated_netlist(seed: int = 3):
    case = generate_pdn(PDNConfig(stack=small_stack(), width_um=24, height_um=24,
                                  tap_spacing_um=4.0, num_pads=2, seed=seed,
                                  total_current=0.02))
    return case.netlist


def _scaled_maps(netlist, factors):
    return [{s.node: s.value * factor for s in netlist.current_sources}
            for factor in factors]


class TestSolveMany:
    def test_matches_individual_solves(self):
        netlist = _generated_netlist()
        factors = (0.5, 1.0, 1.7, 2.4)
        batch = FactorizedPDN(netlist).solve_many(
            _scaled_maps(netlist, factors))
        assert len(batch) == len(factors)

        original_sources = netlist.current_sources
        for factor, batched in zip(factors, batch):
            netlist.current_sources = [
                CurrentSource(s.name, s.node, s.value * factor)
                for s in original_sources
            ]
            single = solve_static_ir(netlist)
            for name, voltage in single.node_voltages.items():
                assert np.isclose(batched.node_voltages[name], voltage,
                                  rtol=1e-10, atol=1e-12)
        netlist.current_sources = original_sources

    def test_batched_results_are_physical(self):
        netlist = _generated_netlist(seed=5)
        maps = _scaled_maps(netlist, (0.4, 0.9))
        original_sources = netlist.current_sources
        results = FactorizedPDN(netlist).solve_many(maps)
        for current_map, result in zip(maps, results):
            netlist.current_sources = [
                CurrentSource(f"I{i}", node, value)
                for i, (node, value) in enumerate(current_map.items())
            ]
            audit_solution(netlist, result).assert_physical()
        netlist.current_sources = original_sources

    def test_accepts_current_source_elements(self):
        netlist = _generated_netlist()
        as_mapping = {s.node: s.value for s in netlist.current_sources}
        [from_map] = FactorizedPDN(netlist).solve_many([as_mapping])
        [from_elements] = FactorizedPDN(netlist).solve_many(
            [netlist.current_sources])
        assert from_map.node_voltages == from_elements.node_voltages

    def test_empty_batch(self):
        assert FactorizedPDN(_generated_netlist()).solve_many([]) == []

    def test_factorization_is_reused(self):
        engine = FactorizedPDN(_generated_netlist())
        engine.solve()
        lu = engine._lu
        assert lu is not None
        engine.solve_many(_scaled_maps(engine.netlist, (0.5, 2.0)))
        assert engine._lu is lu


class TestMethodKnob:
    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            FactorizedPDN(_generated_netlist(), method="qr")
        with pytest.raises(ValueError, match="method"):
            solve_static_ir(_generated_netlist(), method="qr")

    def test_auto_resolves_direct_for_small_grids(self):
        engine = FactorizedPDN(_generated_netlist())
        assert engine.resolved_method == "direct"

    def test_cg_agrees_with_direct(self):
        netlist = _generated_netlist(seed=7)
        direct = FactorizedPDN(netlist, method="direct").solve()
        iterative = FactorizedPDN(netlist, method="cg").solve()
        for name, voltage in direct.node_voltages.items():
            assert np.isclose(iterative.node_voltages[name], voltage,
                              rtol=1e-7, atol=1e-9)

    def test_cg_solve_is_physical(self):
        netlist = _generated_netlist(seed=9)
        result = solve_static_ir(netlist, method="cg")
        audit_solution(netlist, result).assert_physical(kcl_tol=1e-5,
                                                        balance_tol=1e-5)


class TestSingularSystems:
    def _floating_netlist(self):
        net = Netlist("floaty")
        net.add_resistor("n1_m1_0_0", "n1_m1_1000_0", 1.0)
        net.add_voltage_source("n1_m1_0_0", 1.0)
        net.add_resistor("n1_m1_90000_0", "n1_m1_91000_0", 1.0)  # island
        net.add_current_source("n1_m1_91000_0", 0.01)            # loaded island
        return net

    def test_direct_raises_named_singular_error(self):
        with pytest.raises(ValueError, match="singular PDN system for 'floaty'"):
            solve_static_ir(self._floating_netlist(), method="direct")

    def test_cg_detects_inconsistent_singular_system(self):
        with pytest.raises(ValueError):
            solve_static_ir(self._floating_netlist(), method="cg")

    def test_cg_detects_unloaded_floating_island(self):
        # zero RHS on the island makes the singular system *consistent*:
        # CG would happily converge to 0 V there (a phantom full-VDD
        # hotspot) without the supply-reachability check
        net = self._floating_netlist()
        net.current_sources = []
        with pytest.raises(ValueError, match="singular"):
            solve_static_ir(net, method="cg")

    def test_dangling_load_node_detected(self):
        # a node referenced only by a current source has no resistive path
        net = Netlist("dangling")
        net.add_resistor("n1_m1_0_0", "n1_m1_1000_0", 1.0)
        net.add_voltage_source("n1_m1_0_0", 1.0)
        net.add_current_source("n1_m1_5000_0", 0.01)
        with pytest.raises(ValueError, match="singular"):
            solve_static_ir(net, method="direct")
        with pytest.raises(ValueError, match="singular"):
            solve_static_ir(net, method="cg")


def _assert_matrices_match(left, right, tol=1e-12):
    # same sparsity structure; entries equal up to summation-order round-off
    assert left.shape == right.shape
    left_coo, right_coo = left.tocoo(), right.tocoo()
    assert (set(zip(left_coo.row.tolist(), left_coo.col.tolist()))
            == set(zip(right_coo.row.tolist(), right_coo.col.tolist())))
    difference = left - right
    assert difference.nnz == 0 or abs(difference).max() < tol


class TestVectorizedAssembly:
    def test_matches_reference_loop(self):
        netlist = _generated_netlist(seed=11)
        vectorized = assemble_system(netlist)
        reference = assemble_system_reference(netlist)
        assert vectorized.free_nodes == reference.free_nodes
        assert vectorized.fixed_voltages == reference.fixed_voltages
        _assert_matrices_match(vectorized.matrix, reference.matrix)
        assert np.allclose(vectorized.rhs, reference.rhs)
        assert np.allclose(vectorized.supply_rhs, reference.supply_rhs)

    def test_matches_reference_with_ground_and_supply_couplings(self):
        net = Netlist()
        net.add_resistor("n1_m1_0_0", "n1_m1_1000_0", 5.0)
        net.add_resistor("n1_m1_1000_0", "0", 5.0, name="Rleak")
        net.add_resistor("n1_m1_1000_0", "n1_m1_2000_0", 2.0, name="Rc")
        net.add_voltage_source("n1_m1_0_0", 1.0)
        net.add_voltage_source("n1_m1_2000_0", 1.0, name="V2")
        net.add_current_source("n1_m1_1000_0", 0.01)
        vectorized = assemble_system(net)
        reference = assemble_system_reference(net)
        _assert_matrices_match(vectorized.matrix, reference.matrix)
        assert np.allclose(vectorized.rhs, reference.rhs)

    def test_zero_resistance_raises_named_error(self):
        net = Netlist()
        bad = net.add_resistor("n1_m1_0_0", "n1_m1_1000_0", 1.0, name="Rbad")
        object.__setattr__(bad, "resistance", 0.0)  # bypass element validation
        net.add_voltage_source("n1_m1_0_0", 1.0)
        with pytest.raises(ValueError, match="Rbad"):
            assemble_system(net)
        with pytest.raises(ValueError, match="Rbad"):
            assemble_system_reference(net)

    def test_current_vector_skips_supply_and_ground(self):
        net = Netlist()
        net.add_resistor("n1_m1_0_0", "n1_m1_1000_0", 1.0)
        net.add_voltage_source("n1_m1_0_0", 1.0)
        system = assemble_system(net)
        vector = system.current_vector({
            "n1_m1_1000_0": 0.25,   # free node
            "n1_m1_0_0": 5.0,       # supply node: absorbed
            "0": 3.0,               # ground: absorbed
        })
        assert vector.tolist() == [0.25]

    def test_current_map_with_unknown_node_raises(self):
        net = Netlist()
        net.add_resistor("n1_m1_0_0", "n1_m1_1000_0", 1.0)
        net.add_voltage_source("n1_m1_0_0", 1.0)
        system = assemble_system(net)
        with pytest.raises(ValueError, match="unknown node 'n1_m1_9999_0'"):
            system.current_vector({"n1_m1_9999_0": 0.1})
        with pytest.raises(ValueError, match="unknown node"):
            FactorizedPDN(net).solve_many([{"n1_m1_5000_0": 0.1}])
