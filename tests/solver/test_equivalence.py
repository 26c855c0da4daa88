"""Generated-grid equivalence of the golden solver's paths.

Direct and CG solves, block and solo CG columns, and the physics every
solve must obey (linearity in the loads, no negative drop, KCL), checked
on small ``generate_pdn`` grids drawn by Hypothesis rather than on
hand-picked fixtures.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdn.generator import PDNConfig, generate_pdn
from repro.pdn.templates import contest_stack, small_stack
from repro.solver.checks import audit_solution
from repro.solver.factorized import PRECOND_CHAIN, FactorizedPDN
from repro.spice.elements import CurrentSource

_shape = dict(
    width_um=st.integers(12, 40).map(float),
    height_um=st.integers(12, 40).map(float),
    total_current=st.floats(0.005, 0.1),
    num_pads=st.integers(1, 4),
    pad_placement=st.sampled_from(["grid", "random", "edge"]),
    hotspots=st.integers(0, 3),
    current_fraction=st.floats(0.2, 1.0),
    tap_spacing_um=st.sampled_from([2.0, 4.0]),
    seed=st.integers(0, 2**16),
)
# via dropout only on the small stack: the contest stack's sparse top
# layer can lose every pad site to dropout on a die this small
grids = st.one_of(
    st.builds(PDNConfig, stack=st.just(small_stack()),
              via_dropout=st.sampled_from([0.0, 0.2]), **_shape),
    st.builds(PDNConfig, stack=st.just(contest_stack()), **_shape),
)


def _drops(result, names):
    return np.array([result.vdd - result.node_voltages[name]
                     for name in names])


@given(config=grids, scale=st.floats(0.05, 20.0))
@settings(max_examples=40, deadline=None)
def test_direct_and_cg_agree_and_obey_physics(config, scale):
    netlist = generate_pdn(config).netlist
    loads = netlist.current_sources
    scaled = [CurrentSource(s.name, s.node, s.value * scale) for s in loads]
    maps = [loads, scaled, []]

    base, scaled_result, unloaded = FactorizedPDN(
        netlist, method="direct").solve_many(maps)
    names = sorted(base.node_voltages)
    drops = _drops(base, names)

    # linearity: scaling every load by s scales every drop by s
    np.testing.assert_allclose(_drops(scaled_result, names), scale * drops,
                               rtol=1e-9, atol=1e-12)
    assert np.abs(_drops(unloaded, names)).max() <= 1e-12
    assert drops.min() >= -1e-12
    audit_solution(netlist, base).assert_physical()

    direct_voltages = [np.array([r.node_voltages[name] for name in names])
                       for r in (base, scaled_result, unloaded)]
    for precond in PRECOND_CHAIN:
        # the bound is in volts but CG stops on a relative residual: at
        # the default rtol=1e-10 the jacobi rung can land ~1.2e-9 V off
        engine = FactorizedPDN(netlist, method="cg", precond=precond,
                               cg_rtol=1e-12)
        batch = engine.solve_many(maps)
        for current_map, blocked, exact in zip(maps, batch, direct_voltages):
            voltages = np.array([blocked.node_voltages[name]
                                 for name in names])
            assert np.abs(voltages - exact).max() <= 1e-9, precond
            # a block column is the solo solve, bit for bit
            solo = engine.solve(current_map)
            assert solo.node_voltages == blocked.node_voltages, precond
        audit_solution(netlist, batch[0]).assert_physical()
