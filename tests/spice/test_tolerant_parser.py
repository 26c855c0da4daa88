"""Tolerant-mode parsing: skips with diagnostics where strict raises,
plus exact-value round-trip properties the ingestion parity gates rely
on."""

import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver.factorized import FactorizedPDN
from repro.spice import parser
from repro.spice.netlist import Netlist
from repro.spice.nodes import GROUND
from repro.spice.parser import (
    BENIGN_DIRECTIVES,
    STRUCTURAL_DIRECTIVES,
    SpiceParseError,
    parse_spice,
)
from repro.spice.writer import write_spice


def tolerant(text):
    diagnostics = []
    netlist = parse_spice(text, mode="tolerant", diagnostics=diagnostics)
    return netlist, diagnostics


class TestLineScanner:
    def test_continuation_lines_joined(self):
        net = parse_spice("R1 a\n+ b\n+ 2.0\nV1 a 0 1.0\n")
        assert net.resistors[0].node_b == "b"
        assert net.resistors[0].resistance == 2.0

    @pytest.mark.parametrize("marker", ["$", ";"])
    def test_inline_comments_stripped(self, marker):
        net = parse_spice(f"R1 a b 1.0 {marker} the strap\nV1 a 0 1.0\n")
        assert net.resistors[0].resistance == 1.0

    def test_dangling_continuation_tolerant(self):
        net, diagnostics = tolerant("+ b 2.0\nR1 a b 1.0\nV1 a 0 1.0\n")
        assert len(net.resistors) == 1
        assert diagnostics[0].code == "dangling-continuation"

    def test_dangling_continuation_strict(self):
        with pytest.raises(SpiceParseError):
            parse_spice("+ b 2.0\n")


class TestTolerantSkips:
    def test_unsupported_elements_skipped_with_diagnostic(self):
        net, diagnostics = tolerant(
            "R1 a b 1.0\nC1 a 0 1p\nM1 d g s b nch\nV1 a 0 1.0\n")
        assert len(net.resistors) == 1
        codes = [d.code for d in diagnostics]
        assert codes.count("element-skipped") == 2
        assert {d.element for d in diagnostics} == {"c", "m"}

    def test_benign_directive_recorded(self):
        assert ".temp" in BENIGN_DIRECTIVES
        net, diagnostics = tolerant(".temp 25\nR1 a b 1\nV1 a 0 1\n")
        assert diagnostics[0].code == "directive-skipped"
        assert diagnostics[0].severity == "warning"
        assert len(net.resistors) == 1

    def test_structural_directive_has_own_code(self):
        assert ".subckt" in STRUCTURAL_DIRECTIVES
        _, diagnostics = tolerant(".subckt amp in out\n.ends\n")
        assert diagnostics[0].code == "directive-structural"

    def test_extra_tokens_noted_value_kept(self):
        net, diagnostics = tolerant("R1 a b 1.5 tc=0.1\nV1 a 0 1\n")
        assert net.resistors[0].resistance == 1.5
        assert any(d.code == "extra-tokens" and d.severity == "note"
                   for d in diagnostics)

    def test_dc_keyword_accepted(self):
        net, _ = tolerant("I1 a 0 dc 0.5\nR1 a b 1\nV1 b 0 1\n")
        assert net.current_sources[0].value == 0.5

    def test_non_ground_source_skipped(self):
        net, diagnostics = tolerant("I1 a b 0.5\nR1 a b 1\nV1 a 0 1\n")
        assert len(net.current_sources) == 0
        assert diagnostics[0].code == "non-ground-source"

    @pytest.mark.parametrize("card", ["V0 0 0 2.0", "I1 0 0 5.0"])
    def test_grounded_source_skipped(self, card):
        net, diagnostics = tolerant(card + "\nR1 a b 1\nV1 a 0 1\n")
        assert net.supply_voltage() == 1.0
        assert len(net.current_sources) == 0
        assert [(d.code, d.severity, d.line_number, d.element)
                for d in diagnostics] == [
            ("grounded-source", "warning", 1, card[0].lower())]

    def test_strict_raises_on_each(self):
        for text in ("C1 a 0 1p\n", ".temp 25\n", ".subckt amp\n",
                     "R1 a b 1.5 tc=0.1\n", "I1 a b 0.5\n"):
            with pytest.raises(SpiceParseError):
                parse_spice(text)

    @pytest.mark.parametrize("card", ["V0 0 0 2.0", "I1 0 0 5.0"])
    def test_strict_raises_on_grounded_source(self, card):
        with pytest.raises(SpiceParseError) as info:
            parse_spice(card + "\nR1 a b 1\nV1 a 0 1\n")
        assert info.value.code == "grounded-source"
        assert info.value.line_number == 1


class TestTypedValueRejection:
    """nan/inf/negative values must never be accepted silently."""

    @pytest.mark.parametrize("card", [
        "R1 a b nan", "R1 a b inf", "R1 a b -2.0", "R1 a b 0",
        "I1 a 0 nan", "I1 a 0 -0.5", "V1 a 0 nan", "V1 a 0 -1.0",
    ])
    def test_tolerant_rejects_with_bad_value(self, card):
        net, diagnostics = tolerant(card + "\n")
        assert net.num_nodes == 0  # the bad card was not admitted
        assert any(d.code == "bad-value" for d in diagnostics)

    @pytest.mark.parametrize("card", ["R1 a b nan", "R1 a b -2.0",
                                      "V1 a 0 inf"])
    def test_strict_raises_bad_value(self, card):
        with pytest.raises(SpiceParseError) as info:
            parse_spice(card + "\n")
        assert info.value.code == "bad-value"


@given(
    resistances=st.lists(
        st.floats(min_value=1e-12, max_value=1e12, allow_nan=False),
        min_size=1, max_size=16),
    currents=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1, max_size=8),
    vdd=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_writer_output_reparses_to_equal_netlist(resistances, currents, vdd):
    """The parity keystone: ``parse(write(net))`` returns the same
    elements with *bit-equal* float64 values (repr round-trip), in both
    parse modes, and the parser's columns equal the ones derived from the
    ``add_*``-built elements."""
    net = Netlist("prop")
    for i, r in enumerate(resistances):
        net.add_resistor(f"n1_m1_{i}_0", f"n1_m1_{i + 1}_0", r)
    for i, c in enumerate(currents):
        net.add_current_source(f"n1_m1_{i}_0", c)
    net.add_voltage_source(f"n1_m1_{len(resistances)}_0", vdd)

    text = write_spice(net)
    for mode in ("strict", "tolerant"):
        diagnostics = []
        again = parse_spice(text, name="prop", mode=mode,
                            diagnostics=diagnostics)
        assert [(r.name, r.node_a, r.node_b, r.resistance)
                for r in again.resistors] == \
               [(r.name, r.node_a, r.node_b, r.resistance)
                for r in net.resistors]
        assert [(s.name, s.node, s.value) for s in again.current_sources] \
            == [(s.name, s.node, s.value) for s in net.current_sources]
        assert [(s.name, s.node, s.value) for s in again.voltage_sources] \
            == [(s.name, s.node, s.value) for s in net.voltage_sources]
        assert not [d for d in diagnostics if d.severity == "error"]
        for r in again.resistors:
            assert math.isfinite(r.resistance) and r.resistance > 0
        parsed, built = again.node_table(), net.node_table()
        for field in ("names", "resistor_names", "current_names",
                      "voltage_names"):
            assert getattr(parsed, field) == getattr(built, field)
        for field in ("resistor_nodes", "current_nodes", "voltage_nodes",
                      "resistances", "currents", "voltages"):
            a, b = getattr(parsed, field), getattr(built, field)
            assert (a.dtype, a.shape, a.tobytes()) == \
                (b.dtype, b.shape, b.tobytes())
        for a, b in zip(parsed.columns, built.columns):
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


# ----------------------------------------------------------------------
# The fast path equals the per-card parser
# ----------------------------------------------------------------------


def _cards(text):
    """``(first_line_number, joined_card)`` of every card, the way the
    scanner joins ``+`` continuations and strips inline comments."""
    pending = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = parser._strip_inline_comment(raw).strip()
        if not line or line.startswith("*"):
            continue
        if line.startswith("+") and pending is not None:
            pending = (pending[0], pending[1] + " " + line[1:].strip())
            continue
        if pending is not None:
            yield pending
        pending = (line_number, line)
    if pending is not None:
        yield pending


class _Elements:
    """Collects the element objects the per-card parser admits."""

    def __init__(self):
        self.lists = ([], [], [])

    def extend(self, kind, elements):
        self.lists[kind].extend(elements)


def oracle_parse(text, mode, diagnostics):
    """Every card through the per-card code, none on the fast path."""
    context = parser._ParseContext(mode, diagnostics)
    elements = _Elements()
    for line_number, line in _cards(text):
        parser._parse_card(context, elements, line_number, line)
    return elements.lists


def assert_same_netlist(netlist, lists):
    resistors, currents, voltages = lists
    table = netlist.node_table()
    # node order: resistor endpoints, then current, then voltage nodes
    order = dict.fromkeys(chain(
        chain.from_iterable((r.node_a, r.node_b) for r in resistors),
        (i.node for i in currents), (v.node for v in voltages)))
    order.pop(GROUND, None)
    assert list(netlist.node_index()) == list(order)

    def ids(nodes):
        index = netlist.node_index()
        return [index.get(node, -1) for node in nodes]

    def bits(values):
        return np.array(values, dtype=float).tobytes()

    assert table.resistor_names == [r.name for r in resistors]
    assert table.resistor_nodes.ravel().tolist() == ids(
        chain.from_iterable((r.node_a, r.node_b) for r in resistors))
    assert table.resistances.tobytes() == bits(
        [r.resistance for r in resistors])
    for names, nodes, values, sources in (
            (table.current_names, table.current_nodes, table.currents,
             currents),
            (table.voltage_names, table.voltage_nodes, table.voltages,
             voltages)):
        assert names == [s.name for s in sources]
        assert nodes.tolist() == ids(s.node for s in sources)
        assert values.tobytes() == bits([s.value for s in sources])


_NODES = ("n1_m1_0_0", "n1_m1_1000_0", "n1_m4_1000_0", "vdd_pad")
_VALUES = ("1.5", "0.25", "2", "7.", "1e-3", "1e+3", "1_0", "0", "-0.0",
           "-1.0", "nan", "inf", "1e999", "Infinity", "2k", "3.3meg", "4m",
           "abc", "1.2.3")


@st.composite
def _card(draw):
    """One R/I/V card, clean or carrying one of the dialect's variants."""
    kind = draw(st.sampled_from("RIV"))
    name = kind + str(draw(st.integers(0, 3)))
    if draw(st.integers(0, 5)) == 0:
        name = name.lower()
    node_a = draw(st.sampled_from(_NODES + (GROUND,)))
    node_b = draw(st.sampled_from(
        _NODES + (GROUND,) if kind == "R" else (GROUND,) * 4 + _NODES))
    if kind != "R" and draw(st.integers(0, 4)) == 0:
        node_a, node_b = node_b, node_a  # "X 0 n"
    value = draw(st.one_of(
        st.sampled_from(_VALUES),
        st.floats(min_value=1e-6, max_value=1e6).map(repr)))
    tokens = [name, node_a, node_b, value]
    variant = draw(st.integers(0, 9))
    if variant == 0:
        tokens.insert(3, "DC")
    elif variant == 1:
        tokens.append("tc=0.1")
    elif variant == 2:
        tokens.append(draw(st.sampled_from(("$ strap", "; strap", "$"))))
    if variant == 3:  # continuation line(s)
        cut = draw(st.integers(1, len(tokens) - 1))
        return (" ".join(tokens[:cut]) + "\n* between\n+ "
                + " ".join(tokens[cut:]))
    return " ".join(tokens)


_LINES = st.one_of(
    _card(), _card(), _card(), _card(),
    st.sampled_from(("", "* comment", ".end", ".temp 25", "C1 a 0 1p",
                     "+ dangling 1.0", "  R9 n1_m1_0_0 n1_m4_1000_0 3.0"))
)


@given(lines=st.lists(_LINES, max_size=12))
@settings(max_examples=100, deadline=None)
def test_fast_path_equals_per_card_parser(lines):
    """``parse_spice`` (clean lines on the fast path) builds the netlist and
    diagnostics, or raises the error, that parsing every card with the
    per-card code does, in both modes."""
    text = "\n".join(lines) + "\n"
    for mode in ("strict", "tolerant"):
        expected_diagnostics, diagnostics = [], []
        try:
            expected = oracle_parse(text, mode, expected_diagnostics)
        except SpiceParseError as error:
            with pytest.raises(SpiceParseError) as info:
                parse_spice(text, mode=mode, diagnostics=diagnostics)
            assert (str(info.value), info.value.line_number,
                    info.value.code) == (str(error), error.line_number,
                                         error.code)
            continue
        netlist = parse_spice(text, mode=mode, diagnostics=diagnostics)
        assert diagnostics == expected_diagnostics
        assert_same_netlist(netlist, expected)


def test_sources_listed_first_solve_bit_equal():
    """Node order, and so the matrix and every voltage, does not depend
    on where the deck lists its sources."""
    resistors = ("R1 n1_m1_0_0 n1_m1_1000_0 1.0\n"
                 "R2 n1_m1_1000_0 n1_m1_2000_0 2.0\n"
                 "R3 n1_m1_2000_0 n1_m4_2000_0 0.5\n")
    sources = ("I1 n1_m1_2000_0 0 0.01\nI2 n1_m1_1000_0 0 0.02\n"
               "V1 n1_m4_2000_0 0 1.1\n")
    contest = parse_spice(resistors + sources)
    sources_first = parse_spice(sources + resistors)
    assert list(sources_first.node_index()) == list(contest.node_index())
    assert FactorizedPDN(sources_first).solve().node_voltages == \
        FactorizedPDN(contest).solve().node_voltages
