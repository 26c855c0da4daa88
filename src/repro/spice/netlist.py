"""The :class:`Netlist` container: a full PDN model plus derived queries.

This is the central data structure of the netlist modality.  Both the
golden IR solver (:mod:`repro.solver`) and the point-cloud encoder
(:mod:`repro.pointcloud`) consume it.

A netlist's parsed form is columns, a :class:`NodeTable`: the node names
in :meth:`Netlist.node_index` order with their int32 net, layer and x/y
columns, and per element kind the element names, the node index of every
endpoint (ground is ``-1``) and a float64 value array.  The parser builds
the table directly (:meth:`Netlist.from_table`), through a
:class:`ColumnBuilder` that interns each endpoint name to an id as it
reads; the solver, validation, classification, feature rasters and the
point cloud all read these arrays.

The ``Resistor``/``CurrentSource``/``VoltageSource`` lists are a lazy
view for the code that iterates elements (writer, suite synthesis, PDN
generation, solution audits): a parsed netlist builds them from its
table on first access.  A netlist built with ``add_*`` holds the lists
and derives the table from them on first use, through the same
:class:`ColumnBuilder` (:meth:`Netlist.node_table`).  One of the two is
the source of truth at a time: ``add_*`` and assigning ``resistors``,
``current_sources`` or ``voltage_sources`` make the lists the truth and
drop the table and the node index.  Mutating one of those lists in place
(``netlist.resistors.append(...)``) bypasses the invalidation; assign a
new list instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from repro.spice.elements import CurrentSource, Resistor, VoltageSource
from repro.spice.nodes import (
    GROUND, DBU_PER_UM, NodeColumns, NodeName, parse_node, parse_nodes,
)

__all__ = ["Netlist", "NetlistStatistics", "NodeTable", "ColumnBuilder",
           "RESISTOR", "CURRENT", "VOLTAGE"]

RESISTOR, CURRENT, VOLTAGE = 0, 1, 2
"""Element kinds, the index of each kind's column in a :class:`ColumnBuilder`."""


@dataclass(frozen=True)
class NetlistStatistics:
    """Summary used for Table II style reporting."""

    num_nodes: int
    num_resistors: int
    num_current_sources: int
    num_voltage_sources: int
    num_vias: int
    layers: Tuple[int, ...]
    width_um: float
    height_um: float

    @property
    def shape_pixels(self) -> Tuple[int, int]:
        """(rows, cols) of the 1 µm-per-pixel raster covering the die."""
        return (int(round(self.height_um)) + 1, int(round(self.width_um)) + 1)


@dataclass(frozen=True)
class NodeTable:
    """A netlist as columns: its nodes in :meth:`Netlist.node_index` order
    and its elements in element order.

    ``columns`` row ``i`` is node ``names[i]``.  The endpoint arrays hold
    node indices (int32, ground ``-1``): ``resistor_nodes`` is ``(R, 2)``
    (``node_a``, ``node_b``), ``current_nodes`` and ``voltage_nodes`` are
    flat.  Per kind, ``*_names`` holds the element names, and
    ``resistances``, ``currents`` and ``voltages`` the float64 values.
    """

    names: List[str]
    columns: NodeColumns
    resistor_nodes: np.ndarray
    current_nodes: np.ndarray
    voltage_nodes: np.ndarray
    resistor_names: List[str]
    current_names: List[str]
    voltage_names: List[str]
    resistances: np.ndarray
    currents: np.ndarray
    voltages: np.ndarray

    def element_counts(self) -> Tuple[int, int, int]:
        """(resistors, current sources, voltage sources)."""
        return (len(self.resistor_names), len(self.current_names),
                len(self.voltage_names))

    def node_names(self, nodes: np.ndarray) -> List[str]:
        """The names of node indices ``nodes`` (``-1`` is ground)."""
        names = self.names
        return [names[i] if i >= 0 else GROUND for i in nodes.tolist()]

    def elements(self) -> Tuple[List[Resistor], List[CurrentSource],
                                List[VoltageSource]]:
        """The element objects, in element order."""
        ends = self.node_names(self.resistor_nodes.ravel())
        return (
            [Resistor(*fields) for fields in zip(
                self.resistor_names, ends[0::2], ends[1::2],
                self.resistances.tolist())],
            [CurrentSource(*fields) for fields in zip(
                self.current_names, self.node_names(self.current_nodes),
                self.currents.tolist())],
            [VoltageSource(*fields) for fields in zip(
                self.voltage_names, self.node_names(self.voltage_nodes),
                self.voltages.tolist())],
        )

    def require_grid(self, nodes: Optional[np.ndarray] = None) -> None:
        """Raise :func:`parse_node`'s ``ValueError`` for the first foreign
        node among ``nodes`` (flattened in C order; ground is skipped) —
        all nodes in index order when ``None``."""
        grid = self.columns.grid
        if nodes is None:
            foreign = np.flatnonzero(~grid)
        else:
            nodes = nodes.ravel()
            nodes = nodes[nodes >= 0]
            foreign = nodes[~grid[nodes]]
        if foreign.size:
            parse_node(self.names[int(foreign[0])])

    def via_mask(self) -> np.ndarray:
        """Per resistor: neither end is ground and the layers differ
        (meaningful once :meth:`require_grid` passed for the endpoints)."""
        node_a, node_b = self.resistor_nodes.T
        layer = self.columns.layer
        return (node_a >= 0) & (node_b >= 0) & (layer[node_a] != layer[node_b])

    def unreachable_mask(self) -> np.ndarray:
        """Resistor endpoints with no resistive path to a voltage source.

        One entry per node in index order plus a last one for ground,
        which is an ordinary graph vertex here (so ``mask[-1]`` is ground's
        entry and ``mask[endpoints]`` works with the ``-1`` ground code).
        Sources on nodes no resistor touches reach nothing.
        """
        slots = len(self.names) + 1
        ends = np.where(self.resistor_nodes < 0, slots - 1, self.resistor_nodes)
        graph = sparse.coo_matrix(
            (np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(slots, slots))
        _, component = connected_components(graph, directed=False)
        on_graph = np.zeros(slots, dtype=bool)
        on_graph[ends.ravel()] = True
        supplies = self.voltage_nodes[on_graph[self.voltage_nodes]]
        return on_graph & ~np.isin(component, component[supplies])


class ColumnBuilder:
    """Netlist elements appended as columns; :meth:`build` makes the
    :class:`NodeTable`.

    ``ids`` interns node names to ids in first-seen order (ground is id
    0).  Per kind (index :data:`RESISTOR`, :data:`CURRENT` or
    :data:`VOLTAGE`), ``names`` holds the element names, ``nodes`` the
    endpoint ids (a resistor appends its ``node_a``, then its ``node_b``)
    and ``values`` the element values.  The parser's fast path appends to
    these lists directly.
    """

    def __init__(self) -> None:
        self.ids: Dict[str, int] = {GROUND: 0}
        self.names: Tuple[List[str], ...] = ([], [], [])
        self.nodes: Tuple[List[int], ...] = ([], [], [])
        self.values: Tuple[List[float], ...] = ([], [], [])

    def extend(self, kind: int, elements: Sequence) -> None:
        """Append element objects of one kind."""
        if kind == RESISTOR:
            ends = [node for r in elements for node in (r.node_a, r.node_b)]
            values = [r.resistance for r in elements]
        else:
            ends = [source.node for source in elements]
            values = [source.value for source in elements]
        ids = self.ids
        self.names[kind].extend([element.name for element in elements])
        self.nodes[kind].extend([ids.setdefault(node, len(ids))
                                 for node in ends])
        self.values[kind].extend(values)

    def build(self) -> NodeTable:
        """The table, its nodes numbered in :meth:`Netlist.node_index`
        order: resistor endpoints first (``node_a``, then ``node_b``),
        then current-source nodes, then voltage-source nodes, each in
        first-seen order, whatever order the kinds were appended in."""
        ends = [np.array(nodes, dtype=np.int64) for nodes in self.nodes]
        ids, first = np.unique(np.concatenate(ends), return_index=True)
        ordered = ids[np.argsort(first)]
        ordered = ordered[ordered != 0]  # ground is no node
        index = np.full(len(self.ids), -1, dtype=np.int32)
        index[ordered] = np.arange(len(ordered), dtype=np.int32)
        interned = list(self.ids)
        names = [interned[i] for i in ordered.tolist()]
        resistances, currents, voltages = (
            np.array(values, dtype=float) for values in self.values)
        return NodeTable(
            names=names,
            columns=parse_nodes(names),
            resistor_nodes=index[ends[RESISTOR]].reshape(-1, 2),
            current_nodes=index[ends[CURRENT]],
            voltage_nodes=index[ends[VOLTAGE]],
            resistor_names=self.names[RESISTOR],
            current_names=self.names[CURRENT],
            voltage_names=self.names[VOLTAGE],
            resistances=resistances,
            currents=currents,
            voltages=voltages,
        )


class Netlist:
    """A static-IR PDN netlist: resistors + current sources + supplies."""

    def __init__(self, name: str = "pdn"):
        self.name = name
        # the element lists; None while the table is the only form
        self._elements: Optional[Tuple[List[Resistor], List[CurrentSource],
                                       List[VoltageSource]]] = ([], [], [])
        self._table: Optional[NodeTable] = None
        self._node_cache: Optional[Dict[str, int]] = None

    @classmethod
    def from_table(cls, table: NodeTable, name: str = "pdn") -> "Netlist":
        """The netlist whose columns are ``table`` (the parser's result);
        its element lists are built from the table on first access."""
        netlist = cls(name)
        netlist._elements = None
        netlist._table = table
        return netlist

    # ------------------------------------------------------------------
    # Element lists (assigning one drops the table and node index)
    # ------------------------------------------------------------------
    def _lists(self) -> Tuple[List[Resistor], List[CurrentSource],
                              List[VoltageSource]]:
        if self._elements is None:
            self._elements = self._table.elements()
        return self._elements

    def _assign(self, kind: int, elements: list) -> None:
        lists = list(self._lists())
        lists[kind] = elements
        self._elements = tuple(lists)
        self._invalidate()

    @property
    def resistors(self) -> List[Resistor]:
        return self._lists()[RESISTOR]

    @resistors.setter
    def resistors(self, elements: List[Resistor]) -> None:
        self._assign(RESISTOR, elements)

    @property
    def current_sources(self) -> List[CurrentSource]:
        return self._lists()[CURRENT]

    @current_sources.setter
    def current_sources(self, elements: List[CurrentSource]) -> None:
        self._assign(CURRENT, elements)

    @property
    def voltage_sources(self) -> List[VoltageSource]:
        return self._lists()[VOLTAGE]

    @voltage_sources.setter
    def voltage_sources(self, elements: List[VoltageSource]) -> None:
        self._assign(VOLTAGE, elements)

    def _invalidate(self) -> None:
        self._node_cache = None
        self._table = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_resistor(self, node_a: str, node_b: str, resistance: float,
                     name: Optional[str] = None) -> Resistor:
        resistors = self.resistors
        element = Resistor(name or f"R{len(resistors)}", node_a, node_b,
                           resistance)
        resistors.append(element)
        self._invalidate()
        return element

    def add_current_source(self, node: str, value: float,
                           name: Optional[str] = None) -> CurrentSource:
        sources = self.current_sources
        element = CurrentSource(name or f"I{len(sources)}", node, value)
        sources.append(element)
        self._invalidate()
        return element

    def add_voltage_source(self, node: str, value: float,
                           name: Optional[str] = None) -> VoltageSource:
        sources = self.voltage_sources
        element = VoltageSource(name or f"V{len(sources)}", node, value)
        sources.append(element)
        self._invalidate()
        return element

    # ------------------------------------------------------------------
    # Node bookkeeping
    # ------------------------------------------------------------------
    def node_index(self) -> Dict[str, int]:
        """Stable mapping node-name → dense index (ground excluded)."""
        if self._node_cache is None:
            names = self.node_table().names
            self._node_cache = dict(zip(names, range(len(names))))
        return self._node_cache

    def node_table(self) -> NodeTable:
        """The netlist's columns (derived from the element lists, as the
        parser would build them from their SPICE lines, and cached when
        those are the truth)."""
        if self._table is None:
            builder = ColumnBuilder()
            for kind, elements in enumerate(self._elements):
                builder.extend(kind, elements)
            self._table = builder.build()
        return self._table

    @property
    def num_nodes(self) -> int:
        return len(self.node_table().names)

    def parsed_nodes(self) -> List[NodeName]:
        """Structured identities of every non-ground node."""
        table = self.node_table()
        table.require_grid()
        columns = table.columns
        return [NodeName(*fields) for fields in zip(
            columns.net.tolist(), columns.layer.tolist(),
            columns.x.tolist(), columns.y.tolist())]

    def layers(self) -> Tuple[int, ...]:
        table = self.node_table()
        table.require_grid()
        return tuple(np.unique(table.columns.layer).tolist())

    def supply_voltage(self) -> float:
        """Nominal VDD; requires at least one voltage source."""
        voltages = self.node_table().voltages
        if not voltages.size:
            raise ValueError(f"netlist {self.name!r} has no voltage sources")
        return float(voltages[0])

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def bounding_box_um(self) -> Tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) in µm over all non-ground nodes."""
        table = self.node_table()
        table.require_grid()
        if not table.names:
            raise ValueError(f"netlist {self.name!r} has no nodes")
        x, y = table.columns.x, table.columns.y
        return (int(x.min()) / DBU_PER_UM, int(y.min()) / DBU_PER_UM,
                int(x.max()) / DBU_PER_UM, int(y.max()) / DBU_PER_UM)

    def vias(self) -> List[Resistor]:
        """Resistors connecting different layers (the paper treats these
        as first-class citizens in the point-cloud encoding)."""
        table = self.node_table()
        table.require_grid(table.resistor_nodes)
        resistors = self.resistors
        return [resistors[i] for i in np.flatnonzero(table.via_mask())]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def statistics(self) -> NetlistStatistics:
        xmin, ymin, xmax, ymax = self.bounding_box_um()
        table = self.node_table()
        resistors, currents, voltages = table.element_counts()
        return NetlistStatistics(
            num_nodes=len(table.names),
            num_resistors=resistors,
            num_current_sources=currents,
            num_voltage_sources=voltages,
            num_vias=int(table.via_mask().sum()),
            layers=self.layers(),
            width_um=xmax - xmin,
            height_um=ymax - ymin,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        resistors, currents, voltages = self.node_table().element_counts()
        return (
            f"Netlist({self.name!r}, nodes={self.num_nodes}, "
            f"R={resistors}, I={currents}, V={voltages})"
        )
