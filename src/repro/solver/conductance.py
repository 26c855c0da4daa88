"""Sparse conductance-matrix (nodal analysis) assembly.

The static PDN problem is linear: ``G v = J`` where ``G`` stamps every
resistor, ``J`` the current sources, and voltage-source nodes are Dirichlet
boundary conditions eliminated from the system (standard reduction — the
supplies are ideal, so their node voltages are known a priori).

Assembly is fully vectorized: it reads the netlist's columns
(:meth:`~repro.spice.netlist.Netlist.node_table`), maps node indices to
integer codes once, and every stamp (diagonals, symmetric off-diagonals,
supply RHS contributions) is built with NumPy array ops before a single
COO→CSR conversion sums duplicate triplets.  ``assemble_system_reference``
keeps the original per-resistor Python loop as the scalar oracle for
parity tests and the assembly benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.spice.elements import CurrentSource
from repro.spice.netlist import Netlist
from repro.spice.nodes import GROUND

__all__ = [
    "NodalSystem",
    "assemble_system",
    "assemble_system_reference",
    "CurrentsLike",
]

CurrentsLike = Union[Mapping[str, float], Iterable[CurrentSource]]
"""A per-node current draw: ``{node: amps}`` or ``CurrentSource`` elements."""


@dataclass
class NodalSystem:
    """The reduced linear system for the unknown (non-supply) nodes.

    ``matrix @ v_free = rhs`` with ``v_free`` the voltages of ``free_nodes``.
    ``fixed_voltages`` maps supply-node names to their Dirichlet values.
    ``supply_rhs`` is the current-source-independent part of ``rhs`` (the
    Dirichlet elimination terms), so fresh RHS vectors for new load maps can
    be produced without re-stamping the matrix — the factor-once/solve-many
    contract of :class:`repro.solver.factorized.FactorizedPDN`.
    """

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    free_nodes: List[str]
    fixed_voltages: Dict[str, float]
    ground_name: str = GROUND
    supply_rhs: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return len(self.free_nodes)

    @cached_property
    def free_index(self) -> Dict[str, int]:
        """Node name → row index in the reduced system."""
        return {name: i for i, name in enumerate(self.free_nodes)}

    def current_vector(self, currents: CurrentsLike) -> np.ndarray:
        """Dense injection vector over free nodes for a load map.

        Currents attached to supply nodes or ground are absorbed by the
        ideal sources, exactly as during assembly.  A node the grid does
        not contain raises — silently dropping it would return a
        plausible-looking but wrong solve.
        """
        vector = np.zeros(self.size)
        if isinstance(currents, Mapping):
            items: Iterable[Tuple[str, float]] = currents.items()
        else:
            items = ((source.node, source.value) for source in currents)
        index = self.free_index
        for node, value in items:
            i = index.get(node)
            if i is not None:
                vector[i] += value
            elif node != self.ground_name and node not in self.fixed_voltages:
                raise ValueError(
                    f"current map references unknown node {node!r} "
                    "(not in the grid, not a supply, not ground)"
                )
        return vector

    def rhs_for(self, currents: CurrentsLike) -> np.ndarray:
        """RHS for the same grid under a different current map."""
        if self.supply_rhs is None:
            raise ValueError(
                "system was built without supply_rhs; reassemble with "
                "assemble_system() to enable solve-many"
            )
        return self.supply_rhs - self.current_vector(currents)

    # ------------------------------------------------------------------
    # Exact (bit-preserving) array round trip, for disk persistence
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten the system into named arrays (``npz``-serialisable).

        The CSR buffers are stored verbatim, so
        ``from_arrays(to_arrays())`` reproduces the matrix bit-for-bit —
        which is what lets a :class:`repro.solver.store.FactorizationStore`
        hit produce the same factorisation (and therefore the same solve,
        to the last bit) as a cold assembly.
        """
        csr = self.matrix.tocsr()
        fixed_names = list(self.fixed_voltages)
        arrays = {
            "matrix_data": csr.data,
            "matrix_indices": csr.indices,
            "matrix_indptr": csr.indptr,
            "matrix_shape": np.asarray(csr.shape, dtype=np.int64),
            "rhs": self.rhs,
            "free_nodes": np.asarray(self.free_nodes, dtype=np.str_),
            "fixed_names": np.asarray(fixed_names, dtype=np.str_),
            "fixed_values": np.asarray(
                [self.fixed_voltages[name] for name in fixed_names]),
            "ground_name": np.asarray([self.ground_name], dtype=np.str_),
        }
        if self.supply_rhs is not None:
            arrays["supply_rhs"] = self.supply_rhs
        return arrays

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "NodalSystem":
        """Rebuild a system previously flattened by :meth:`to_arrays`."""
        shape = tuple(int(s) for s in arrays["matrix_shape"])
        matrix = sparse.csr_matrix(
            (arrays["matrix_data"], arrays["matrix_indices"],
             arrays["matrix_indptr"]),
            shape=shape,
        )
        fixed = {str(name): float(value)
                 for name, value in zip(arrays["fixed_names"],
                                        arrays["fixed_values"])}
        supply_rhs = arrays["supply_rhs"] if "supply_rhs" in arrays else None
        return cls(
            matrix=matrix,
            rhs=np.asarray(arrays["rhs"], dtype=float),
            free_nodes=[str(name) for name in arrays["free_nodes"]],
            fixed_voltages=fixed,
            ground_name=str(arrays["ground_name"][0]),
            supply_rhs=(None if supply_rhs is None
                        else np.asarray(supply_rhs, dtype=float)),
        )


def _fixed_voltages(netlist: Netlist) -> Dict[str, float]:
    table = netlist.node_table()
    fixed: Dict[str, float] = {}
    for node, value in zip(table.node_names(table.voltage_nodes),
                           table.voltages.tolist()):
        if node in fixed and fixed[node] != value:
            raise ValueError(
                f"node {node} pinned to conflicting voltages "
                f"{fixed[node]} and {value}"
            )
        fixed[node] = value
    return fixed


def assemble_system(netlist: Netlist) -> NodalSystem:
    """Stamp the netlist into a reduced sparse nodal system (vectorized).

    Raises
    ------
    ValueError
        If a resistor has non-positive resistance (naming the element) or
        supplies pin one node to conflicting voltages.
    """
    fixed = _fixed_voltages(netlist)
    table = netlist.node_table()
    supplies = table.voltage_nodes[table.voltage_nodes >= 0]
    is_fixed = np.zeros(len(table.names), dtype=bool)
    is_fixed[supplies] = True
    free_rows = np.flatnonzero(~is_fixed)
    fixed_rows = np.flatnonzero(is_fixed)
    n = len(free_rows)
    free_nodes = table.node_names(free_rows)
    fixed_values = np.array([fixed[name]
                             for name in table.node_names(fixed_rows)],
                            dtype=float)

    # Integer codes: free nodes [0, n), supply nodes [n, n+f), ground -1
    # (the last slot, which node index -1 reads).
    code = np.full(len(table.names) + 1, -1, dtype=np.int64)
    code[free_rows] = np.arange(n)
    code[fixed_rows] = n + np.arange(len(fixed_rows))

    supply_rhs = np.zeros(n)
    if len(table.resistances):
        code_a, code_b = code[table.resistor_nodes.T]
        resistance = table.resistances
        bad = np.flatnonzero(resistance <= 0.0)
        if bad.size:
            offender = int(bad[0])
            node_a, node_b = table.node_names(table.resistor_nodes[offender])
            raise ValueError(
                f"resistor {table.resistor_names[offender]!r} ({node_a} — "
                f"{node_b}) has non-positive resistance "
                f"{float(resistance[offender])!r}; conductance stamping "
                f"needs R > 0"
            )
        conductance = 1.0 / resistance

        a_free = (code_a >= 0) & (code_a < n)
        b_free = (code_b >= 0) & (code_b < n)
        a_fixed = code_a >= n
        b_fixed = code_b >= n

        # diagonal stamps for every free endpoint
        rows = [code_a[a_free], code_b[b_free]]
        cols = [code_a[a_free], code_b[b_free]]
        values = [conductance[a_free], conductance[b_free]]

        # symmetric off-diagonals where both endpoints are free
        both = a_free & b_free
        rows.extend((code_a[both], code_b[both]))
        cols.extend((code_b[both], code_a[both]))
        values.extend((-conductance[both], -conductance[both]))

        # Dirichlet elimination: free node coupled to a supply node moves
        # G * V_supply to the RHS (resistors to ground only stamp diagonals)
        mask = a_free & b_fixed
        np.add.at(supply_rhs, code_a[mask],
                  conductance[mask] * fixed_values[code_b[mask] - n])
        mask = b_free & a_fixed
        np.add.at(supply_rhs, code_b[mask],
                  conductance[mask] * fixed_values[code_a[mask] - n])

        coo = sparse.coo_matrix(
            (np.concatenate(values),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )
        matrix = coo.tocsr()  # duplicate triplets are summed
    else:
        matrix = sparse.csr_matrix((n, n))

    currents = np.zeros(n)
    if len(table.currents):
        source_codes = code[table.current_nodes]
        on_free = (source_codes >= 0) & (source_codes < n)
        np.add.at(currents, source_codes[on_free], table.currents[on_free])
        # current sources on supply nodes are absorbed by the ideal source

    return NodalSystem(matrix=matrix, rhs=supply_rhs - currents,
                       free_nodes=free_nodes, fixed_voltages=fixed,
                       supply_rhs=supply_rhs)


def assemble_system_reference(netlist: Netlist) -> NodalSystem:
    """Scalar per-resistor stamping loop (the pre-vectorization seed path).

    Kept as the oracle for assembly parity tests and as the baseline the
    assembly benchmark must beat; not used on any hot path.
    """
    fixed = _fixed_voltages(netlist)
    all_nodes = netlist.node_index()
    free_nodes = [name for name in all_nodes if name not in fixed]
    free_index = {name: i for i, name in enumerate(free_nodes)}
    n = len(free_nodes)

    rows: List[int] = []
    cols: List[int] = []
    values: List[float] = []
    supply_rhs = np.zeros(n)

    for resistor in netlist.resistors:
        if resistor.resistance <= 0:
            raise ValueError(
                f"resistor {resistor.name!r} ({resistor.node_a} — "
                f"{resistor.node_b}) has non-positive resistance "
                f"{resistor.resistance!r}; conductance stamping needs R > 0"
            )
        conductance = 1.0 / resistor.resistance
        a, b = resistor.node_a, resistor.node_b
        a_free = free_index.get(a)
        b_free = free_index.get(b)
        a_ground = a == GROUND
        b_ground = b == GROUND

        if a_free is not None:
            rows.append(a_free)
            cols.append(a_free)
            values.append(conductance)
        if b_free is not None:
            rows.append(b_free)
            cols.append(b_free)
            values.append(conductance)

        if a_free is not None and b_free is not None:
            rows.extend((a_free, b_free))
            cols.extend((b_free, a_free))
            values.extend((-conductance, -conductance))
        elif a_free is not None and not b_ground:
            supply_rhs[a_free] += conductance * fixed[b]   # b is a supply node
        elif b_free is not None and not a_ground:
            supply_rhs[b_free] += conductance * fixed[a]   # a is a supply node
        # resistor to ground only contributes its diagonal stamp

    rhs = supply_rhs.copy()
    for source in netlist.current_sources:
        index = free_index.get(source.node)
        if index is not None:
            rhs[index] -= source.value

    matrix = sparse.csr_matrix(
        sparse.coo_matrix((values, (rows, cols)), shape=(n, n))
    )
    return NodalSystem(matrix=matrix, rhs=rhs, free_nodes=free_nodes,
                       fixed_voltages=fixed, supply_rhs=supply_rhs)
