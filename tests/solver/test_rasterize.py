"""Tests for IR-map rasterisation and physical audits."""

import numpy as np
import pytest

from repro.pdn.generator import PDNConfig, generate_pdn
from repro.pdn.templates import small_stack
from repro.solver.checks import SolutionAudit, audit_solution
from repro.solver.rasterize import rasterize_ir_map
from repro.solver.static import IRSolveResult, solve_static_ir
from repro.spice.netlist import Netlist


def chain_netlist():
    net = Netlist()
    net.add_resistor("n1_m1_0_0", "n1_m1_4000_0", 10.0)
    net.add_voltage_source("n1_m1_0_0", 1.0)
    net.add_current_source("n1_m1_4000_0", 0.02)
    return net


def test_rasterize_places_and_fills():
    net = chain_netlist()
    result = solve_static_ir(net)
    raster = rasterize_ir_map(net, result, shape=(1, 5), smooth_sigma=0.0)
    assert raster.shape == (1, 5)
    assert np.isclose(raster[0, 0], 0.0)
    assert np.isclose(raster[0, 4], 0.2)
    # nearest-node fill between the two nodes
    assert np.isclose(raster[0, 1], 0.0) or np.isclose(raster[0, 1], 0.2)
    assert np.isclose(raster[0, 3], 0.0) or np.isclose(raster[0, 3], 0.2)


def test_rasterize_averages_colocated_nodes():
    net = Netlist()
    net.add_resistor("n1_m1_0_0", "n1_m1_100_0", 10.0)  # both map to pixel 0
    net.add_voltage_source("n1_m1_0_0", 1.0)
    net.add_current_source("n1_m1_100_0", 0.01)
    result = solve_static_ir(net)
    raster = rasterize_ir_map(net, result, shape=(1, 1), smooth_sigma=0.0)
    assert np.isclose(raster[0, 0], 0.05)  # mean of 0 and 0.1


def test_rasterize_missing_layer_raises():
    net = chain_netlist()
    result = solve_static_ir(net)
    with pytest.raises(ValueError):
        rasterize_ir_map(net, result, layer=5)


def test_smoothing_preserves_mass_roughly():
    case = generate_pdn(PDNConfig(stack=small_stack(), width_um=32, height_um=32,
                                  tap_spacing_um=4.0, num_pads=2, seed=1))
    result = solve_static_ir(case.netlist)
    sharp = rasterize_ir_map(case.netlist, result, smooth_sigma=0.0)
    smooth = rasterize_ir_map(case.netlist, result, smooth_sigma=2.0)
    assert smooth.shape == sharp.shape
    assert np.isclose(smooth.mean(), sharp.mean(), rtol=0.05)
    assert smooth.max() <= sharp.max() + 1e-12


def test_audit_flags_broken_solution():
    net = chain_netlist()
    result = solve_static_ir(net)
    # corrupt the solution: flip the load-node voltage above VDD
    result.node_voltages["n1_m1_4000_0"] = 2.0
    audit = audit_solution(net, result)
    with pytest.raises(AssertionError):
        audit.assert_physical()


def test_audit_passes_correct_solution():
    net = chain_netlist()
    result = solve_static_ir(net)
    audit = audit_solution(net, result)
    audit.assert_physical()
    assert np.isclose(audit.supply_current, 0.02, rtol=1e-9)
    assert audit.current_balance_error < 1e-9
