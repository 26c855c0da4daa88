"""Array-based geometry equals the per-element loops it replaced, bit for bit.

Every consumer of the netlist's node table — feature maps, the golden IR
raster, the point cloud, bounding box / layers / vias, deck
classification, validation and pruning — is checked against a reference
oracle: the per-element ``parse_node`` loop that computed the same thing
before the node table existed, kept here verbatim.  Netlists are drawn
small but nasty: coordinates past the raster edge (clamping), half-pixel
coordinates (round-half-even), sub-pixel, via and non-axis-aligned
segments, ground endpoints, several nodes per pixel, and foreign names,
which must raise the same ``ValueError`` (or count as foreign in
classification).
"""

from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.features.density import pdn_density_map
from repro.features.distance import pad_positions_px
from repro.features.maps import (
    current_source_map,
    resistance_map,
    voltage_source_map,
)
from repro.ingest.classify import classify_deck
from repro.pdn.generator import prune_unreachable
from repro.pointcloud.encode import POINT_FEATURES, encode_netlist
from repro.solver.multigrid import node_coordinates
from repro.solver.rasterize import rasterize_ir_map
from repro.solver.static import IRSolveResult
from repro.spice.elements import CurrentSource
from repro.spice.netlist import Netlist
from repro.spice.nodes import GROUND, parse_node, try_parse_node
from repro.spice.validate import validate_netlist

# ----------------------------------------------------------------------
# Reference oracles: the per-element loops, verbatim
# ----------------------------------------------------------------------


def oracle_parsed_nodes(netlist):
    return [parse_node(name) for name in netlist.node_index()]


def oracle_layers(netlist):
    return tuple(sorted({node.layer for node in oracle_parsed_nodes(netlist)}))


def oracle_bounding_box_um(netlist):
    nodes = oracle_parsed_nodes(netlist)
    if not nodes:
        raise ValueError(f"netlist {netlist.name!r} has no nodes")
    xs = [node.x_um for node in nodes]
    ys = [node.y_um for node in nodes]
    return (min(xs), min(ys), max(xs), max(ys))


def oracle_vias(netlist):
    result = []
    for r in netlist.resistors:
        a, b = parse_node(r.node_a), parse_node(r.node_b)
        if a is not None and b is not None and a.layer != b.layer:
            result.append(r)
    return result


def oracle_shape(netlist):
    xmin, ymin, xmax, ymax = oracle_bounding_box_um(netlist)
    return (int(round(ymax - ymin)) + 1, int(round(xmax - xmin)) + 1)


def _pixel_of(name, shape):
    node = parse_node(name)
    if node is None:
        return None
    rows, cols = shape
    return (min(int(round(node.y_um)), rows - 1),
            min(int(round(node.x_um)), cols - 1))


def oracle_current_source_map(netlist, shape):
    raster = np.zeros(shape)
    for source in netlist.current_sources:
        pixel = _pixel_of(source.node, shape)
        if pixel is not None:
            raster[pixel] += source.value
    return raster


def oracle_voltage_source_map(netlist, shape):
    raster = np.zeros(shape)
    for source in netlist.voltage_sources:
        pixel = _pixel_of(source.node, shape)
        if pixel is not None:
            raster[pixel] = max(raster[pixel], source.value)
    return raster


def oracle_resistance_map(netlist, shape):
    raster = np.zeros(shape)
    rows, cols = shape
    for resistor in netlist.resistors:
        a = parse_node(resistor.node_a)
        b = parse_node(resistor.node_b)
        if a is None or b is None:
            continue
        r0 = min(int(round(a.y_um)), rows - 1)
        c0 = min(int(round(a.x_um)), cols - 1)
        r1 = min(int(round(b.y_um)), rows - 1)
        c1 = min(int(round(b.x_um)), cols - 1)
        if r0 == r1 and c0 == c1:
            raster[r0, c0] += resistor.resistance  # via (or sub-pixel segment)
            continue
        length = abs(r1 - r0) + abs(c1 - c0) + 1
        share = resistor.resistance / length
        if r0 == r1:
            lo, hi = sorted((c0, c1))
            raster[r0, lo:hi + 1] += share
        elif c0 == c1:
            lo, hi = sorted((r0, r1))
            raster[lo:hi + 1, c0] += share
        else:  # non-axis-aligned (foreign netlist): endpoints only
            raster[r0, c0] += resistor.resistance / 2
            raster[r1, c1] += resistor.resistance / 2
    return raster


def oracle_pdn_density_map(netlist, shape, window_px, as_spacing):
    if window_px % 2 == 0:
        window_px += 1
    rows, cols = shape

    counts = np.zeros(shape)
    for name in netlist.node_index():
        node = parse_node(name)
        if node is None:
            continue
        row = min(int(round(node.y_um)), rows - 1)
        col = min(int(round(node.x_um)), cols - 1)
        counts[row, col] += 1.0

    density = ndimage.uniform_filter(counts, size=window_px, mode="nearest")
    if not as_spacing:
        return density
    floor = 1.0 / (window_px * window_px)
    return 1.0 / np.sqrt(np.maximum(density, floor))


def oracle_pad_positions_px(netlist):
    positions = []
    for source in netlist.voltage_sources:
        node = parse_node(source.node)
        if node is not None:
            positions.append((node.y_um, node.x_um))
    if not positions:
        raise ValueError("netlist has no voltage sources for a distance map")
    return np.array(positions)


def oracle_rasterize_ir_map(drops, shape, layer, smooth_sigma):
    rows, cols = shape
    accumulator = np.zeros(shape)
    counts = np.zeros(shape)
    for name, drop in drops.items():
        node = parse_node(name)
        if node is None or node.layer != layer:
            continue
        row = min(int(round(node.y_um)), rows - 1)
        col = min(int(round(node.x_um)), cols - 1)
        accumulator[row, col] += drop
        counts[row, col] += 1.0

    filled = counts > 0
    if not filled.any():
        raise ValueError(f"no nodes on layer m{layer} to rasterise")
    values = np.zeros(shape)
    values[filled] = accumulator[filled] / counts[filled]
    if not filled.all():
        _, (near_rows, near_cols) = ndimage.distance_transform_edt(
            ~filled, return_indices=True
        )
        values = values[near_rows, near_cols]
    if smooth_sigma > 0:
        values = ndimage.gaussian_filter(values, sigma=smooth_sigma)
    return values


def oracle_encode_netlist(netlist, die_size_um=None):
    if die_size_um is None:
        xmin, ymin, xmax, ymax = oracle_bounding_box_um(netlist)
        width, height = max(xmax - xmin, 1e-9), max(ymax - ymin, 1e-9)
    else:
        width, height = die_size_um
    max_layer = max(oracle_layers(netlist)) if netlist.num_nodes else 1

    total = (len(netlist.resistors) + len(netlist.current_sources)
             + len(netlist.voltage_sources))
    points = np.zeros((total, POINT_FEATURES))
    row = 0

    resistances = np.array([r.resistance for r in netlist.resistors])
    log_r = np.log1p(resistances) if resistances.size else resistances
    r_scale = max(float(log_r.max()), 1e-12) if log_r.size else 1.0

    currents = np.array([i.value for i in netlist.current_sources])
    i_mean = float(currents.mean()) if currents.size else 0.0
    i_std = max(float(currents.std()), 1e-12) if currents.size else 1.0

    vdd = netlist.voltage_sources[0].value if netlist.voltage_sources else 1.0

    for index, resistor in enumerate(netlist.resistors):
        a, b = parse_node(resistor.node_a), parse_node(resistor.node_b)
        if a is None or b is None:
            continue
        points[row, 0] = a.x_um / width
        points[row, 1] = a.y_um / height
        points[row, 2] = b.x_um / width
        points[row, 3] = b.y_um / height
        points[row, 4] = log_r[index] / r_scale
        points[row, 5] = 1.0
        points[row, 8] = a.layer / max_layer
        points[row, 9] = b.layer / max_layer
        points[row, 10] = 1.0 if a.layer != b.layer else 0.0
        row += 1

    for source in netlist.current_sources:
        node = parse_node(source.node)
        if node is None:
            continue
        points[row, 0] = node.x_um / width
        points[row, 1] = node.y_um / height
        points[row, 4] = (source.value - i_mean) / i_std
        points[row, 6] = 1.0
        points[row, 8] = node.layer / max_layer
        row += 1

    for source in netlist.voltage_sources:
        node = parse_node(source.node)
        if node is None:
            continue
        points[row, 0] = node.x_um / width
        points[row, 1] = node.y_um / height
        points[row, 4] = source.value / vdd
        points[row, 7] = 1.0
        points[row, 8] = node.layer / max_layer
        row += 1
    return points[:row]


def oracle_classify_counts(netlist):
    grid = foreign = 0
    for name in netlist.node_index():
        if try_parse_node(name) is not None:
            grid += 1
        else:
            foreign += 1
    return grid, foreign


def oracle_floating(netlist) -> set:
    """Resistor-graph nodes (ground included) not connected to any node
    carrying a voltage source."""
    neighbours: Dict[str, List[str]] = {}
    for r in netlist.resistors:
        neighbours.setdefault(r.node_a, []).append(r.node_b)
        neighbours.setdefault(r.node_b, []).append(r.node_a)
    reachable = set()
    stack = [v.node for v in netlist.voltage_sources if v.node in neighbours]
    while stack:
        node = stack.pop()
        if node not in reachable:
            reachable.add(node)
            stack.extend(neighbours[node])
    return set(neighbours) - reachable


# ----------------------------------------------------------------------
# Netlist strategy
# ----------------------------------------------------------------------

# database units: half-pixel ties (500, 1500, 2500 round half to even),
# sub-pixel offsets, and coordinates far past a small raster's edge
_COORDS = st.one_of(
    st.sampled_from([0, 400, 500, 600, 1500, 2500, 3499, 3500, 7000]),
    st.integers(0, 12_000),
    st.sampled_from([40_000, 2 ** 31 - 1]),
)
_FOREIGN = st.sampled_from([
    "vdd", "net_5", "n1_m1_10", "n1_mx_1_2", "N1_m1_0_0", "n1_m1_0_0_0",
    "n1_m1_2147483648_0",  # a field past int32 is not a coordinate
])


@st.composite
def grid_names(draw):
    return (f"n{draw(st.integers(1, 2))}_m{draw(st.integers(1, 5))}_"
            f"{draw(_COORDS)}_{draw(_COORDS)}")


@st.composite
def netlists(draw, foreign: bool = True):
    names = draw(st.lists(grid_names(), min_size=1, max_size=10, unique=True))
    if foreign and draw(st.booleans()):
        names += draw(st.lists(_FOREIGN, min_size=1, max_size=2, unique=True))
    pool = st.sampled_from(names + [GROUND])
    netlist = Netlist("drawn")
    for _ in range(draw(st.integers(1, 14))):
        a, b = draw(pool), draw(pool)
        if a != b:
            netlist.add_resistor(a, b, draw(st.sampled_from([0.25, 0.5, 1.0, 3.0]))
                                 * draw(st.integers(1, 9)))
    for _ in range(draw(st.integers(0, 6))):
        netlist.add_current_source(draw(pool), draw(st.floats(0.0, 0.1)))
    for _ in range(draw(st.integers(0, 3))):
        netlist.add_voltage_source(draw(pool), draw(st.sampled_from([0.9, 1.1, 1.2])))
    return netlist


_SHAPES = st.tuples(st.integers(1, 9), st.integers(1, 9))
_FAST = settings(max_examples=60, deadline=None)


def assert_same(new, oracle, *args):
    """``new(*args)`` equals ``oracle(*args)`` bit for bit, or both raise
    the same ``ValueError``."""
    try:
        expected = oracle(*args)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            new(*args)
        assert str(raised.value) == str(error)
        return None
    actual = new(*args)
    if isinstance(expected, np.ndarray):
        assert actual.dtype == expected.dtype
        assert actual.shape == expected.shape
        assert np.array_equal(actual, expected)
    else:
        assert actual == expected and type(actual) is type(expected)
    return actual


def _finite_shape(netlist) -> Optional[Tuple[int, int]]:
    """The bounding-box raster shape, when it is small enough to draw."""
    try:
        shape = oracle_shape(netlist)
    except ValueError:
        return None
    return shape if shape[0] * shape[1] <= 10_000 else None


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@_FAST
@given(netlists(), _SHAPES)
def test_feature_maps_match_loops(netlist, shape):
    assert_same(current_source_map, oracle_current_source_map, netlist, shape)
    assert_same(voltage_source_map, oracle_voltage_source_map, netlist, shape)
    assert_same(resistance_map, oracle_resistance_map, netlist, shape)
    for window, spacing in ((1, False), (4, True)):
        assert_same(lambda n, s: pdn_density_map(n, s, window, spacing),
                    lambda n, s: oracle_pdn_density_map(n, s, window, spacing),
                    netlist, shape)
    assert_same(pad_positions_px, oracle_pad_positions_px, netlist)
    default = _finite_shape(netlist)
    if default is not None:
        assert_same(lambda n: resistance_map(n), lambda n: oracle_resistance_map(n, default),
                    netlist)


@_FAST
@given(netlists())
def test_netlist_geometry_matches_loops(netlist):
    assert_same(lambda n: n.bounding_box_um(), oracle_bounding_box_um, netlist)
    assert_same(lambda n: n.layers(), oracle_layers, netlist)
    assert_same(lambda n: n.vias(), oracle_vias, netlist)
    assert_same(lambda n: n.parsed_nodes(), oracle_parsed_nodes, netlist)
    verdict = classify_deck(netlist)
    assert (verdict.grid_nodes, verdict.foreign_nodes) == oracle_classify_counts(netlist)
    names = list(netlist.node_index())
    coords = node_coordinates(names)
    if all(try_parse_node(name) is not None for name in names):
        expected = np.array([(parse_node(n).x, parse_node(n).y) for n in names],
                            dtype=np.int64).reshape(-1, 2)
        assert coords.dtype == np.int64 and np.array_equal(coords, expected)
    else:
        assert coords is None


@_FAST
@given(netlists(), st.data())
def test_point_cloud_matches_loop(netlist, data):
    die = data.draw(st.one_of(st.none(), st.tuples(st.floats(0.5, 50.0),
                                                   st.floats(0.5, 50.0))))
    assert_same(lambda n: encode_netlist(n, die).points,
                lambda n: oracle_encode_netlist(n, die), netlist)


@_FAST
@given(netlists(), st.data())
def test_ir_raster_matches_loop(netlist, data):
    names = list(netlist.node_index())
    # solver order or any other order, sometimes with ground or a stranger
    order = data.draw(st.permutations(names))
    order += data.draw(st.lists(st.sampled_from([GROUND, "n1_m1_1000_1000"]),
                                max_size=1))
    voltages = {name: data.draw(st.floats(0.5, 1.1)) for name in order}
    result = IRSolveResult(node_voltages=voltages, vdd=1.1, solve_seconds=0.0)
    shape = data.draw(_SHAPES)
    layer = data.draw(st.integers(1, 3))
    sigma = data.draw(st.sampled_from([0.0, 1.0]))
    assert_same(
        lambda n: rasterize_ir_map(n, result, shape, layer=layer, smooth_sigma=sigma),
        lambda n: oracle_rasterize_ir_map(result.ir_drop(), shape, layer, sigma),
        netlist)


@_FAST
@given(netlists())
def test_connectivity_and_pruning_match_graph_walk(netlist):
    floating = oracle_floating(netlist)
    if netlist.resistors and netlist.voltage_sources:  # else no graph checks
        report = validate_netlist(netlist, require_grid_names=False)
        stranded = sorted(n for n in floating if n != GROUND)
        expected = ([f"{len(stranded)} node(s) have no resistive path to any "
                     f"supply (e.g. {', '.join(stranded[:5])})"]
                    if stranded else [])
        assert [e for e in report.errors if "no resistive path" in e] == expected
        malformed = [e for e in validate_netlist(netlist).errors
                     if "malformed" in e]
        assert malformed == [f"malformed node name {name!r}"
                             for name in netlist.node_index()
                             if try_parse_node(name) is None]

    kept = ([r for r in netlist.resistors
             if r.node_a not in floating and r.node_b not in floating],
            [i for i in netlist.current_sources if i.node not in floating],
            [v for v in netlist.voltage_sources if v.node not in floating])
    assert prune_unreachable(netlist) == len(floating)
    assert (netlist.resistors, netlist.current_sources,
            netlist.voltage_sources) == kept


def test_reassigned_sources_drop_the_cached_table():
    """Rescaling current sources by assignment (as the suite builder
    does) must not leave maps or the point cloud on the old values."""
    def build(scale: float) -> Netlist:
        net = Netlist("rescaled")
        net.add_resistor("n1_m1_0_0", "n1_m1_3000_0", 1.0)
        net.add_resistor("n1_m1_3000_0", "n1_m4_3000_0", 0.5)
        net.add_resistor("n1_m1_0_0", "n1_m1_0_2000", 2.0)
        net.add_current_source("n1_m1_0_0", 0.01 * scale)
        net.add_current_source("n1_m1_3000_0", 0.02 * scale)
        net.add_voltage_source("n1_m4_3000_0", 1.1)
        return net

    netlist = build(1.0)
    current_source_map(netlist)
    encode_netlist(netlist)
    netlist.current_sources = [
        CurrentSource(source.name, source.node, source.value * 3.0)
        for source in netlist.current_sources
    ]
    fresh = build(3.0)
    assert np.array_equal(current_source_map(netlist), current_source_map(fresh))
    assert np.array_equal(encode_netlist(netlist).points,
                          encode_netlist(fresh).points)
    # a new node appears only through the reassigned list
    netlist.current_sources = netlist.current_sources + [
        CurrentSource("I9", "n1_m1_0_2000", 0.05)]
    assert netlist.num_nodes == 4
    assert current_source_map(netlist)[2, 0] == 0.05
