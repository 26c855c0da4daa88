"""Netlist validation: structural lint before solving or encoding.

A netlist that passes validation is guaranteed to be solvable by the
static-IR solver: every node has a resistive path to some voltage source,
element names are unique, and all values are physical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import List

import numpy as np

from repro.spice.netlist import Netlist

__all__ = ["ValidationReport", "validate_netlist"]


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_netlist`."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise ValueError("netlist validation failed:\n" + "\n".join(self.errors))


def validate_netlist(netlist: Netlist,
                     require_grid_names: bool = True) -> ValidationReport:
    """Run all structural checks and collect errors/warnings.

    ``require_grid_names=False`` relaxes the contest node-name check for
    foreign (coordinate-free) netlists: the ingestion path validates
    solvability — supplies, connectivity, unique names — while treating
    the name format as a classification concern, not an error.
    """
    report = ValidationReport()
    _check_nonempty(netlist, report)
    if report.errors:
        return report
    _check_unique_names(netlist, report)
    if require_grid_names:
        _check_node_names(netlist, report)
    _check_sources_on_resistive_nodes(netlist, report)
    _check_connectivity(netlist, report)
    return report


def _check_nonempty(netlist: Netlist, report: ValidationReport) -> None:
    resistors, currents, voltages = netlist.node_table().element_counts()
    if not resistors:
        report.errors.append("netlist has no resistors")
    if not voltages:
        report.errors.append("netlist has no voltage sources (unsolvable)")
    if not currents:
        report.warnings.append("netlist has no current sources (IR drop will be zero)")


def _check_unique_names(netlist: Netlist, report: ValidationReport) -> None:
    table = netlist.node_table()
    seen = set()
    for name in chain(table.resistor_names, table.current_names,
                      table.voltage_names):
        if name in seen:
            report.errors.append(f"duplicate element name {name!r}")
        seen.add(name)


def _check_node_names(netlist: Netlist, report: ValidationReport) -> None:
    table = netlist.node_table()
    for i in np.flatnonzero(~table.columns.grid):
        report.errors.append(f"malformed node name {table.names[i]!r}")


def _check_sources_on_resistive_nodes(netlist: Netlist, report: ValidationReport) -> None:
    table = netlist.node_table()
    # one slot per node plus a last one for ground (code -1)
    resistive = np.zeros(len(table.names) + 1, dtype=bool)
    resistive[table.resistor_nodes.ravel()] = True
    floating = np.flatnonzero(~resistive[table.current_nodes])
    for i, node in zip(floating, table.node_names(table.current_nodes[floating])):
        report.errors.append(
            f"current source {table.current_names[i]} on floating node {node}"
        )
    isolated = np.flatnonzero(~resistive[table.voltage_nodes])
    for i, node in zip(isolated, table.node_names(table.voltage_nodes[isolated])):
        report.warnings.append(
            f"voltage source {table.voltage_names[i]} on isolated node {node}"
        )


def _check_connectivity(netlist: Netlist, report: ValidationReport) -> None:
    table = netlist.node_table()
    unreachable = table.unreachable_mask()[:-1]  # ground never floats
    floating = [table.names[i] for i in np.flatnonzero(unreachable)]
    if floating:
        sample = ", ".join(sorted(floating)[:5])
        report.errors.append(
            f"{len(floating)} node(s) have no resistive path to any supply "
            f"(e.g. {sample})"
        )
