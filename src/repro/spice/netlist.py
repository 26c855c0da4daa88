"""The :class:`Netlist` container: a full PDN model plus derived queries.

This is the central data structure of the netlist modality.  Both the
golden IR solver (:mod:`repro.solver`) and the point-cloud encoder
(:mod:`repro.pointcloud`) consume it.

Node names are parsed once per netlist, into a :class:`NodeTable`
(:meth:`Netlist.node_table`): int32 columns of net, layer and x/y in
:meth:`Netlist.node_index` order, plus the node index of every element
endpoint (ground is ``-1``).  Every geometry query — bounding box,
layers, vias, statistics, feature rasters, the point cloud, the golden
IR raster — reads these arrays instead of the names.  The table and the
node index are cached together and dropped together whenever the element
lists change: by ``add_*`` or by assigning ``resistors``,
``current_sources`` or ``voltage_sources``.  Mutating one of those lists
in place (``netlist.resistors.append(...)``) bypasses the invalidation;
assign a new list instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from repro.spice.elements import CurrentSource, Resistor, VoltageSource
from repro.spice.nodes import (
    GROUND, DBU_PER_UM, NodeColumns, NodeName, parse_node, parse_nodes,
)

__all__ = ["Netlist", "NetlistStatistics", "NodeTable"]


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
    """A netlist's nodes as columns, in :meth:`Netlist.node_index` order.

    ``columns`` row ``i`` is node ``names[i]``.  The endpoint arrays hold
    node indices (int32, ground ``-1``) in element order:
    ``resistor_nodes`` is ``(R, 2)`` (``node_a``, ``node_b``),
    ``current_nodes`` and ``voltage_nodes`` are flat.
    """

    names: List[str]
    columns: NodeColumns
    resistor_nodes: np.ndarray
    current_nodes: np.ndarray
    voltage_nodes: np.ndarray

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


class Netlist:
    """A static-IR PDN netlist: resistors + current sources + supplies."""

    def __init__(self, name: str = "pdn"):
        self.name = name
        self._resistors: List[Resistor] = []
        self._current_sources: List[CurrentSource] = []
        self._voltage_sources: List[VoltageSource] = []
        self._node_cache: Optional[Dict[str, int]] = None
        self._table: Optional[NodeTable] = None

    # ------------------------------------------------------------------
    # Element lists (assigning one drops the node caches)
    # ------------------------------------------------------------------
    @property
    def resistors(self) -> List[Resistor]:
        return self._resistors

    @resistors.setter
    def resistors(self, elements: List[Resistor]) -> None:
        self._resistors = elements
        self._invalidate()

    @property
    def current_sources(self) -> List[CurrentSource]:
        return self._current_sources

    @current_sources.setter
    def current_sources(self, elements: List[CurrentSource]) -> None:
        self._current_sources = elements
        self._invalidate()

    @property
    def voltage_sources(self) -> List[VoltageSource]:
        return self._voltage_sources

    @voltage_sources.setter
    def voltage_sources(self, elements: List[VoltageSource]) -> None:
        self._voltage_sources = elements
        self._invalidate()

    def _invalidate(self) -> None:
        self._node_cache = None
        self._table = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_resistor(self, node_a: str, node_b: str, resistance: float,
                     name: Optional[str] = None) -> Resistor:
        element = Resistor(name or f"R{len(self._resistors)}", node_a, node_b, resistance)
        self._resistors.append(element)
        self._invalidate()
        return element

    def add_current_source(self, node: str, value: float,
                           name: Optional[str] = None) -> CurrentSource:
        element = CurrentSource(name or f"I{len(self._current_sources)}", node, value)
        self._current_sources.append(element)
        self._invalidate()
        return element

    def add_voltage_source(self, node: str, value: float,
                           name: Optional[str] = None) -> VoltageSource:
        element = VoltageSource(name or f"V{len(self._voltage_sources)}", node, value)
        self._voltage_sources.append(element)
        self._invalidate()
        return element

    # ------------------------------------------------------------------
    # Node bookkeeping
    # ------------------------------------------------------------------
    def node_index(self) -> Dict[str, int]:
        """Stable mapping node-name → dense index (ground excluded)."""
        if self._node_cache is None:
            names = dict.fromkeys(self._iter_node_names())
            names.pop(GROUND, None)
            self._node_cache = {name: i for i, name in enumerate(names)}
        return self._node_cache

    def _iter_node_names(self) -> Iterable[str]:
        for r in self._resistors:
            yield r.node_a
            yield r.node_b
        for i in self._current_sources:
            yield i.node
        for v in self._voltage_sources:
            yield v.node

    def node_table(self) -> NodeTable:
        """The parsed node columns and element endpoints (cached)."""
        if self._table is None:
            index = self.node_index()
            lookup = index.get

            def endpoints(nodes: List[str]) -> np.ndarray:
                return np.fromiter((lookup(node, -1) for node in nodes),
                                   dtype=np.int32, count=len(nodes))

            names = list(index)
            self._table = NodeTable(
                names=names,
                columns=parse_nodes(names),
                resistor_nodes=endpoints(list(chain.from_iterable(
                    (r.node_a, r.node_b) for r in self._resistors
                ))).reshape(-1, 2),
                current_nodes=endpoints([i.node for i in self._current_sources]),
                voltage_nodes=endpoints([v.node for v in self._voltage_sources]),
            )
        return self._table

    @property
    def num_nodes(self) -> int:
        return len(self.node_index())

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
        if not self._voltage_sources:
            raise ValueError(f"netlist {self.name!r} has no voltage sources")
        return self._voltage_sources[0].value

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
        return [self._resistors[i] for i in np.flatnonzero(table.via_mask())]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def statistics(self) -> NetlistStatistics:
        xmin, ymin, xmax, ymax = self.bounding_box_um()
        return NetlistStatistics(
            num_nodes=self.num_nodes,
            num_resistors=len(self._resistors),
            num_current_sources=len(self._current_sources),
            num_voltage_sources=len(self._voltage_sources),
            num_vias=int(self.node_table().via_mask().sum()),
            layers=self.layers(),
            width_um=xmax - xmin,
            height_um=ymax - ymin,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Netlist({self.name!r}, nodes={self.num_nodes}, "
            f"R={len(self._resistors)}, I={len(self._current_sources)}, "
            f"V={len(self._voltage_sources)})"
        )
