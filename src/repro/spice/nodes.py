"""PDN node naming in the ICCAD-2023 contest convention.

Nodes are named ``n{net}_m{layer}_{x}_{y}`` where ``x``/``y`` are database
units (nanometres) and ``layer`` indexes the metal layer (m1 is the standard
cell rail layer, higher numbers are upper metals).  The special name ``0``
denotes ground.  Every field must fit a signed 32-bit integer (a
coordinate past 2**31 - 1 nm would be a die over two metres wide); a name
with a larger field does not follow the convention.

:func:`parse_node` reads one name; :func:`parse_nodes` reads a whole
netlist's names into int32 columns (see :class:`NodeColumns`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = ["NodeName", "NodeColumns", "GROUND", "parse_node", "parse_nodes",
           "try_parse_node", "format_node", "DBU_PER_UM"]

GROUND = "0"

DBU_PER_UM = 1000
"""Database units per micrometre (contest netlists use nanometre coords)."""

_NODE_RE = re.compile(r"^n(?P<net>\d+)_m(?P<layer>\d+)_(?P<x>\d+)_(?P<y>\d+)$")

_FIELD_MAX = int(np.iinfo(np.int32).max)

_GRID_NAMES_RE = re.compile(
    r"(?:n[0-9]{1,18}_m[0-9]{1,18}_[0-9]{1,18}_[0-9]{1,18}\n)*")
"""Newline-terminated contest names whose fields are ASCII digits short
enough for int64 (each such name is one :data:`_NODE_RE` accepts)."""


@dataclass(frozen=True, order=True)
class NodeName:
    """Structured PDN node identity.

    Attributes
    ----------
    net:
        Power net index (the contest uses a single VDD net, net 1).
    layer:
        Metal layer number (1 = lowest / cell rails).
    x, y:
        Coordinates in database units (nm).
    """

    net: int
    layer: int
    x: int
    y: int

    @property
    def x_um(self) -> float:
        return self.x / DBU_PER_UM

    @property
    def y_um(self) -> float:
        return self.y / DBU_PER_UM

    def __str__(self) -> str:
        return format_node(self)


def parse_node(name: str) -> Optional[NodeName]:
    """Parse a node string; ``None`` for ground, raises on foreign names."""
    if name == GROUND:
        return None
    node = try_parse_node(name)
    if node is None:
        raise ValueError(f"unrecognised node name {name!r}")
    return node


def try_parse_node(name: str) -> Optional[NodeName]:
    """Parse a node string; ``None`` for ground *or* foreign names.

    The tolerant twin of :func:`parse_node` — ingestion uses it to ask
    "does this deck carry grid coordinates?" without turning the answer
    into an exception.
    """
    match = _NODE_RE.match(name)
    if match is None:
        return None
    fields = [int(field) for field in match.groups()]
    if max(fields) > _FIELD_MAX:
        return None
    return NodeName(*fields)


class NodeColumns(NamedTuple):
    """Many parsed node names as parallel arrays (one row per name).

    ``grid`` marks the rows whose name follows the convention; ``net``,
    ``layer``, ``x`` and ``y`` are int32 and hold 0 on the other rows
    (ground and foreign names).
    """

    grid: np.ndarray
    net: np.ndarray
    layer: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def take(self, rows: np.ndarray) -> "NodeColumns":
        """The columns of ``rows`` (any integer index array), in that order."""
        return NodeColumns(*(column[rows] for column in self))

    def pixels(self, shape: Optional[Tuple[int, int]] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        """(row, col) of every node on a 1 µm-per-pixel raster.

        ``round`` halves to even like Python's :func:`round`; with a
        ``shape``, indices past the last row/column clamp onto it.
        """
        rows = np.round(self.y / DBU_PER_UM).astype(np.int64)
        cols = np.round(self.x / DBU_PER_UM).astype(np.int64)
        if shape is not None:
            np.minimum(rows, shape[0] - 1, out=rows)
            np.minimum(cols, shape[1] - 1, out=cols)
        return rows, cols


def parse_nodes(names: Sequence[str]) -> NodeColumns:
    """Parse many node names at once; row ``i`` describes ``names[i]``.

    Row ``i`` is a grid row exactly when :func:`try_parse_node` would
    return a :class:`NodeName` for ``names[i]``.
    """
    fields, grid = _grid_fields(names)
    in_range = (fields <= _FIELD_MAX).all(axis=1)
    grid[grid] = in_range
    columns = np.zeros((4, len(names)), dtype=np.int32)
    columns[:, grid] = fields[in_range].T
    return NodeColumns(grid, *columns)


def _grid_fields(names: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """``(fields, grid)``: ``grid`` marks the names :data:`_NODE_RE`
    matches and ``fields`` holds their four integers, one row each.

    A whole netlist of contest names, the common case, takes one pattern
    match over the joined names and one numeric split; any other list is
    matched name by name.
    """
    text = "\n".join(names) + "\n"
    if _GRID_NAMES_RE.fullmatch(text):
        fields = np.fromstring(
            text.replace("n", " ").replace("_m", " ").replace("_", " "),
            dtype=np.int64, sep=" ")
        if fields.size == 4 * len(names):  # no name spans two lines
            return fields.reshape(-1, 4), np.ones(len(names), dtype=bool)
    matches = [_NODE_RE.match(name) for name in names]
    grid = np.fromiter((match is not None for match in matches),
                       dtype=bool, count=len(matches))
    fields = np.array([int(field) for match in matches if match is not None
                       for field in match.groups()]).reshape(-1, 4)
    return fields, grid


def format_node(node: NodeName) -> str:
    """Render a :class:`NodeName` back to the contest string form."""
    return f"n{node.net}_m{node.layer}_{node.x}_{node.y}"
