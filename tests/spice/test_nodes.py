"""Tests for node-name parsing/formatting."""

import numpy as np
import pytest

from repro.spice.nodes import (
    GROUND, NodeName, format_node, parse_node, parse_nodes, try_parse_node,
)


def test_parse_standard_name():
    node = parse_node("n1_m4_4200_1400")
    assert node == NodeName(net=1, layer=4, x=4200, y=1400)


def test_parse_ground_returns_none():
    assert parse_node(GROUND) is None


def test_format_roundtrip():
    node = NodeName(net=2, layer=9, x=123456, y=0)
    assert parse_node(format_node(node)) == node


def test_str_matches_format():
    node = NodeName(net=1, layer=1, x=10, y=20)
    assert str(node) == "n1_m1_10_20"


def test_um_properties():
    node = NodeName(net=1, layer=1, x=4200, y=1500)
    assert node.x_um == 4.2
    assert node.y_um == 1.5


@pytest.mark.parametrize("bad", [
    "m1_10_20", "n1_m1_10", "n1_m1_10_20_30", "node", "n1_mx_1_2", "",
    "n1_m1_-5_2",
])
def test_malformed_names_raise(bad):
    with pytest.raises(ValueError):
        parse_node(bad)


def test_ordering_is_stable():
    a = NodeName(net=1, layer=1, x=0, y=0)
    b = NodeName(net=1, layer=1, x=0, y=5)
    c = NodeName(net=1, layer=2, x=0, y=0)
    assert a < b < c


def test_fields_past_int32_are_not_grid_names():
    assert try_parse_node("n1_m1_2147483647_0") == NodeName(1, 1, 2147483647, 0)
    assert try_parse_node("n1_m1_2147483648_0") is None
    with pytest.raises(ValueError, match="unrecognised node name"):
        parse_node("n1_m1_0_" + "9" * 25)


def assert_matches_single_parses(names):
    columns = parse_nodes(names)
    assert all(column.dtype == np.int32 for column in columns[1:])
    for i, name in enumerate(names):
        node = try_parse_node(name)
        assert bool(columns.grid[i]) == (node is not None)
        fields = (columns.net[i], columns.layer[i], columns.x[i], columns.y[i])
        assert fields == ((node.net, node.layer, node.x, node.y) if node else (0,) * 4)


def test_parse_nodes_matches_single_parses():
    assert_matches_single_parses(
        ["n1_m4_4200_1400", GROUND, "vdd", "n2_m1_0_2147483647",
         "n1_m1_2147483648_0", "n1_m1_0_" + "9" * 25, "n1_m1_10"])
    assert parse_nodes([]).grid.shape == (0,)


@pytest.mark.parametrize("names", [
    # leading zeros, fields past int32, the longest field read at once
    ["n1_m4_4200_1400", "n01_m001_0_7", "n2_m1_0_2147483647",
     "n1_m1_2147483648_0", "n1_m1_0_" + "9" * 18],
    ["n1_m1_0_" + "9" * 19, "n1_m1_0_0"],
    # a name spanning lines, a name with a trailing newline
    ["n1_m1_0_0\nn1_m1_1_0", "n1_m1_2_0"],
    ["n1_m1_0_0\n", "n1_m1_2_0"],
])
def test_parse_nodes_of_contest_shaped_names_matches_single_parses(names):
    assert_matches_single_parses(names)
