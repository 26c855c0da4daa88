"""Tests for the Netlist container."""

import pytest

from repro.spice.netlist import Netlist


def small_netlist():
    net = Netlist("test")
    net.add_resistor("n1_m1_0_0", "n1_m1_1000_0", 1.0)
    net.add_resistor("n1_m1_1000_0", "n1_m1_2000_0", 1.0)
    net.add_resistor("n1_m1_1000_0", "n1_m4_1000_0", 0.5)  # via
    net.add_current_source("n1_m1_0_0", 0.01)
    net.add_voltage_source("n1_m4_1000_0", 1.1)
    return net


def test_node_index_excludes_ground():
    net = Netlist()
    net.add_resistor("n1_m1_0_0", "0", 5.0)
    assert list(net.node_index()) == ["n1_m1_0_0"]


def test_node_index_stable_and_dense():
    net = small_netlist()
    index = net.node_index()
    assert sorted(index.values()) == list(range(len(index)))
    assert net.num_nodes == 4


def test_auto_names_are_unique():
    net = small_netlist()
    names = [r.name for r in net.resistors]
    assert len(set(names)) == len(names)


def test_layers_detected():
    assert small_netlist().layers() == (1, 4)


def test_vias_detected():
    vias = small_netlist().vias()
    assert len(vias) == 1
    assert vias[0].resistance == 0.5


def test_supply_voltage():
    assert small_netlist().supply_voltage() == 1.1
    with pytest.raises(ValueError):
        Netlist().supply_voltage()


def test_bounding_box():
    xmin, ymin, xmax, ymax = small_netlist().bounding_box_um()
    assert (xmin, ymin) == (0.0, 0.0)
    assert (xmax, ymax) == (2.0, 0.0)


def test_bounding_box_empty_raises():
    with pytest.raises(ValueError):
        Netlist().bounding_box_um()


def test_statistics():
    stats = small_netlist().statistics()
    assert stats.num_nodes == 4
    assert stats.num_resistors == 3
    assert stats.num_current_sources == 1
    assert stats.num_voltage_sources == 1
    assert stats.num_vias == 1
    assert stats.layers == (1, 4)
    assert stats.shape_pixels == (1, 3)


def test_cache_invalidated_on_mutation():
    net = small_netlist()
    before = net.num_nodes
    net.add_resistor("n1_m4_1000_0", "n1_m4_9000_0", 2.0)
    assert net.num_nodes == before + 1


def test_parsed_elements_are_a_view_of_the_columns():
    from repro.spice.parser import parse_spice
    from repro.spice.writer import write_spice

    built = small_netlist()
    parsed = parse_spice(write_spice(built), name="test")
    assert parsed.resistors == built.resistors
    assert parsed.current_sources == built.current_sources
    assert parsed.voltage_sources == built.voltage_sources
    # mutation makes the lists the truth and drops the parsed table
    parsed.add_resistor("n1_m4_1000_0", "n1_m4_9000_0", 2.0)
    built.add_resistor("n1_m4_1000_0", "n1_m4_9000_0", 2.0)
    assert parsed.num_nodes == 5
    assert list(parsed.node_index()) == list(built.node_index())
    parsed.current_sources = []
    assert parsed.node_table().current_nodes.size == 0
    assert len(parsed.resistors) == 4
