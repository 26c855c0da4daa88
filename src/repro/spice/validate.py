"""Netlist validation: structural lint before solving or encoding.

A netlist that passes validation is guaranteed to be solvable by the
static-IR solver: every node has a resistive path to some voltage source,
element names are unique, and all values are physical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    if not netlist.resistors:
        report.errors.append("netlist has no resistors")
    if not netlist.voltage_sources:
        report.errors.append("netlist has no voltage sources (unsolvable)")
    if not netlist.current_sources:
        report.warnings.append("netlist has no current sources (IR drop will be zero)")


def _check_unique_names(netlist: Netlist, report: ValidationReport) -> None:
    seen = set()
    for element in (*netlist.resistors, *netlist.current_sources,
                    *netlist.voltage_sources):
        if element.name in seen:
            report.errors.append(f"duplicate element name {element.name!r}")
        seen.add(element.name)


def _check_node_names(netlist: Netlist, report: ValidationReport) -> None:
    table = netlist.node_table()
    for i in np.flatnonzero(~table.columns.grid):
        report.errors.append(f"malformed node name {table.names[i]!r}")


def _check_sources_on_resistive_nodes(netlist: Netlist, report: ValidationReport) -> None:
    table = netlist.node_table()
    # one slot per node plus a last one for ground (code -1)
    resistive = np.zeros(len(table.names) + 1, dtype=bool)
    resistive[table.resistor_nodes.ravel()] = True
    for i in np.flatnonzero(~resistive[table.current_nodes]):
        source = netlist.current_sources[i]
        report.errors.append(
            f"current source {source.name} on floating node {source.node}"
        )
    for i in np.flatnonzero(~resistive[table.voltage_nodes]):
        source = netlist.voltage_sources[i]
        report.warnings.append(
            f"voltage source {source.name} on isolated node {source.node}"
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
