"""Benchmark suite synthesis — the contest/BeGAN data substitute.

Three case distributions mirror the paper's data mix (§IV-A):

* ``fake``  — BeGAN-style regular grids, mild randomisation (the 100
  contest fake cases / 2000 BeGAN cases);
* ``real``  — irregular: pitch jitter, macro blockages, via dropout,
  random pad placement (the contest's real designs);
* ``hidden``— drawn from the real distribution but sized after the paper's
  Table II testcases (geometry scaled by ``hidden_scale``).

Because the nodal system is linear, current budgets are rescaled *after*
the golden solve so every case lands at a prescribed worst-drop fraction
of VDD — reproducing the contest's mix of mild and violating designs
without re-solving.

Two scaling levers on top of per-case generation:

* **Grid templates** (``cases_per_template > 1``): consecutive fake/real
  cases share one deterministic PDN geometry (a
  :class:`GridTemplateSpec`), so the grid build, the sparse factorisation
  and the geometry-only feature maps are paid once per *template* and
  reused for every case drawn on it — O(templates) factorisations instead
  of O(cases).  Template runtimes live in a per-process
  :class:`~repro.solver.factorized.FactorizedCache`; an evicted template
  is simply regenerated (bit-identical) on next use.
* **Streaming + sharding** (:func:`stream_suite`): workers write each
  case to disk as it completes and return only a
  :class:`~repro.data.io.CaseRef`, so parent memory stays flat no matter
  the suite size; ``shard=(index, count)`` deterministically partitions
  the spec list so a suite can be built across machines and merged by
  manifest (:func:`repro.data.io.merge_manifests`).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import knobs
from repro.data.case import CaseBundle
from repro.data.io import (
    CaseRef,
    QuarantineRecord,
    SuiteManifest,
    case_is_complete,
    manifest_filename,
    read_manifest,
    write_case,
    write_manifest,
)
from repro.features.density import pdn_density_map
from repro.features.distance import effective_distance_map
from repro.features.maps import (
    current_map,
    current_source_map,
    resistance_map,
    voltage_source_map,
)
from repro.features.stack import compute_feature_maps
from repro.pdn.generator import (
    PDNCase,
    PDNConfig,
    PDNTemplate,
    generate_pdn,
    generate_pdn_template,
    instantiate_pdn_case,
)
from repro.pdn.grid import Blockage
from repro.pdn.templates import HIDDEN_CASE_SPECS, contest_stack
from repro.solver.conductance import NodalSystem
from repro.solver.factorized import FactorizedCache, FactorizedPDN
from repro.solver.rasterize import rasterize_ir_map
from repro.solver.store import FactorizationStore
from repro.spice.elements import CurrentSource, Resistor, VoltageSource
from repro.spice.netlist import Netlist

__all__ = [
    "SynthesisSettings", "synthesize_case", "make_suite", "stream_suite",
    "BenchmarkSuite", "CaseSpec", "GridTemplateSpec", "suite_case_specs",
    "suite_from_manifest", "template_cache", "GEOMETRY_CHANNELS",
]

GEOMETRY_CHANNELS: Tuple[str, ...] = (
    "eff_dist", "pdn_density", "voltage_src", "resistance",
)
"""Feature channels that depend only on the grid + pads — computed once
per template and shared by every case instantiated from it (the arrays
are marked read-only so an in-place edit on one case cannot silently
corrupt its siblings)."""


@dataclass
class SynthesisSettings:
    """Global knobs of the synthetic benchmark generator."""

    edge_um_range: Tuple[float, float] = (36.0, 88.0)
    hidden_scale: float = 1.0 / 8.0
    tap_spacing_um: float = 4.0
    density_window_px: int = 9
    worst_drop_frac_range: Tuple[float, float] = (0.065, 0.078)
    golden_smooth_sigma: float = 2.5
    vdd: float = 1.1

    def __post_init__(self):
        if self.hidden_scale <= 0:
            raise ValueError("hidden_scale must be positive")
        low, high = self.worst_drop_frac_range
        if not 0 < low <= high < 1:
            raise ValueError("worst_drop_frac_range must satisfy 0 < lo <= hi < 1")

    def cache_key(self) -> tuple:
        """Hashable identity for template-cache keying."""
        return (
            tuple(self.edge_um_range), self.hidden_scale, self.tap_spacing_um,
            self.density_window_px, tuple(self.worst_drop_frac_range),
            self.golden_smooth_sigma, self.vdd,
        )


@dataclass
class BenchmarkSuite:
    """A train/test data split in the paper's layout.

    ``ingested_cases`` holds cases adapted from foreign SPICE decks by
    the :mod:`repro.ingest` front door (``ingest_decks=`` on
    :func:`make_suite` / :func:`stream_suite`); ``quarantined`` accounts
    for every deck that was handed in but refused.  Ingested cases ride
    alongside the generated mix — they are not silently added to
    ``training_cases`` (callers opt in explicitly).
    """

    fake_cases: List[CaseBundle] = field(default_factory=list)
    real_cases: List[CaseBundle] = field(default_factory=list)
    hidden_cases: List[CaseBundle] = field(default_factory=list)
    ingested_cases: List[CaseBundle] = field(default_factory=list)
    quarantined: List[QuarantineRecord] = field(default_factory=list)

    @property
    def training_cases(self) -> List[CaseBundle]:
        return self.fake_cases + self.real_cases

    def all_cases(self) -> List[CaseBundle]:
        return (self.fake_cases + self.real_cases + self.hidden_cases
                + self.ingested_cases)


def _fake_config(rng: np.random.Generator, settings: SynthesisSettings) -> PDNConfig:
    edge = rng.uniform(*settings.edge_um_range)
    return PDNConfig(
        stack=contest_stack(pitch_scale=rng.uniform(0.9, 1.1)),
        width_um=edge,
        height_um=edge,
        vdd=settings.vdd,
        num_pads=int(rng.integers(4, 10)),
        pad_placement="grid",
        hotspots=int(rng.integers(2, 6)),
        background=rng.uniform(0.3, 0.6),
        current_fraction=rng.uniform(0.5, 0.8),
        tap_spacing_um=settings.tap_spacing_um,
        seed=int(rng.integers(0, 2 ** 31)),
    )


def _real_config(rng: np.random.Generator, settings: SynthesisSettings,
                 edge_um: Optional[float] = None) -> PDNConfig:
    edge = edge_um if edge_um is not None else rng.uniform(*settings.edge_um_range)
    blockages = _random_blockages(rng, edge, count=int(rng.integers(0, 3)))
    return PDNConfig(
        stack=contest_stack(pitch_scale=rng.uniform(0.9, 1.15)),
        width_um=edge,
        height_um=edge,
        vdd=settings.vdd,
        num_pads=int(rng.integers(4, 9)),
        pad_placement=str(rng.choice(["random", "grid"])),
        hotspots=int(rng.integers(3, 7)),
        background=rng.uniform(0.25, 0.5),
        current_fraction=rng.uniform(0.5, 0.8),
        tap_spacing_um=settings.tap_spacing_um,
        via_dropout=float(rng.uniform(0.0, 0.05)),
        blockages=blockages,
        seed=int(rng.integers(0, 2 ** 31)),
    )


def _random_blockages(rng: np.random.Generator, edge_um: float,
                      count: int) -> Tuple[Blockage, ...]:
    blockages = []
    for _ in range(count):
        width = rng.uniform(0.1, 0.3) * edge_um
        height = rng.uniform(0.1, 0.3) * edge_um
        x0 = rng.uniform(0.05, 0.9) * edge_um
        y0 = rng.uniform(0.05, 0.9) * edge_um
        blockages.append(Blockage(
            xmin=x0, ymin=y0,
            xmax=min(x0 + width, edge_um * 0.98),
            ymax=min(y0 + height, edge_um * 0.98),
        ))
    return tuple(b for b in blockages if b.xmax > b.xmin and b.ymax > b.ymin)


# ----------------------------------------------------------------------
# Grid templates: factor once per geometry, solve per case
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridTemplateSpec:
    """Deterministic identity of a shared PDN geometry.

    The spec (not the built template) travels through pickled work units
    and shard boundaries: any process can rebuild the exact same grid,
    pads, factorisation and geometry feature maps from it, which is what
    keeps template reuse compatible with bit-reproducible suites.
    """

    kind: str            # geometry family: "fake" | "real"
    seed: int            # geometry seed (grid, pads, blockages, jitter)
    edge_um: Optional[float] = None  # fixed die edge (None: drawn from settings)


def _fake_template_config(rng: np.random.Generator,
                          settings: SynthesisSettings,
                          edge_um: Optional[float] = None) -> PDNConfig:
    """Geometry-only draw of the fake family (load knobs left at defaults)."""
    edge = edge_um if edge_um is not None else rng.uniform(*settings.edge_um_range)
    return PDNConfig(
        stack=contest_stack(pitch_scale=rng.uniform(0.9, 1.1)),
        width_um=edge,
        height_um=edge,
        vdd=settings.vdd,
        num_pads=int(rng.integers(4, 10)),
        pad_placement="grid",
        tap_spacing_um=settings.tap_spacing_um,
        seed=int(rng.integers(0, 2 ** 31)),
    )


def _real_template_config(rng: np.random.Generator,
                          settings: SynthesisSettings,
                          edge_um: Optional[float] = None) -> PDNConfig:
    """Geometry-only draw of the real family (load knobs left at defaults)."""
    edge = edge_um if edge_um is not None else rng.uniform(*settings.edge_um_range)
    blockages = _random_blockages(rng, edge, count=int(rng.integers(0, 3)))
    return PDNConfig(
        stack=contest_stack(pitch_scale=rng.uniform(0.9, 1.15)),
        width_um=edge,
        height_um=edge,
        vdd=settings.vdd,
        num_pads=int(rng.integers(4, 9)),
        pad_placement=str(rng.choice(["random", "grid"])),
        tap_spacing_um=settings.tap_spacing_um,
        via_dropout=float(rng.uniform(0.0, 0.05)),
        blockages=blockages,
        seed=int(rng.integers(0, 2 ** 31)),
    )


def _case_load_draws(kind: str,
                     rng: np.random.Generator) -> Tuple[int, float, float]:
    """Per-case load knobs (hotspots, background, current_fraction)."""
    if kind == "fake":
        return (int(rng.integers(2, 6)), float(rng.uniform(0.3, 0.6)),
                float(rng.uniform(0.5, 0.8)))
    return (int(rng.integers(3, 7)), float(rng.uniform(0.25, 0.5)),
            float(rng.uniform(0.5, 0.8)))


@dataclass
class TemplateRuntime:
    """Everything shareable across one template's cases."""

    template: PDNTemplate
    engine: FactorizedPDN
    geometry_maps: Dict[str, np.ndarray]


def _template_config_for_spec(spec: GridTemplateSpec,
                              settings: SynthesisSettings) -> PDNConfig:
    """The deterministic geometry config a template spec denotes.

    Cheap (a handful of RNG draws), so a
    :class:`~repro.solver.store.FactorizationStore` hit re-derives the
    config instead of serialising the nested stack/blockage dataclasses.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "fake":
        return _fake_template_config(rng, settings, edge_um=spec.edge_um)
    if spec.kind in ("real", "hidden"):
        return _real_template_config(rng, settings, edge_um=spec.edge_um)
    raise ValueError(f"unknown template kind {spec.kind!r}")


def _build_template_runtime(spec: GridTemplateSpec,
                            settings: SynthesisSettings) -> TemplateRuntime:
    config = _template_config_for_spec(spec, settings)
    template = generate_pdn_template(
        config, name=f"{spec.kind}_template{spec.seed}")
    engine = FactorizedPDN(template.netlist)
    shape = config.map_shape
    netlist = template.netlist
    builders = {
        "eff_dist": lambda: effective_distance_map(netlist, shape),
        "pdn_density": lambda: pdn_density_map(
            netlist, shape, window_px=settings.density_window_px),
        "voltage_src": lambda: voltage_source_map(netlist, shape),
        "resistance": lambda: resistance_map(netlist, shape),
    }
    geometry_maps = {}
    for channel in GEOMETRY_CHANNELS:
        raster = builders[channel]()
        raster.setflags(write=False)  # shared by every sibling case
        geometry_maps[channel] = raster
    return TemplateRuntime(template=template, engine=engine,
                           geometry_maps=geometry_maps)


_TEMPLATE_CACHE = FactorizedCache(maxsize=8)


def template_cache() -> FactorizedCache:
    """This process's default template-runtime cache (worker-local)."""
    return _TEMPLATE_CACHE


# ----------------------------------------------------------------------
# Disk persistence: template runtime <-> FactorizationStore payload
# ----------------------------------------------------------------------
def _template_store_identity(spec: GridTemplateSpec,
                             settings: SynthesisSettings) -> dict:
    """JSON identity of one template build (the store's lookup key).

    Mirrors the manifest provenance scheme: the template spec *and* the
    full synthesis settings participate, so a settings change can never
    silently reuse a stale grid.
    """
    return {
        "kind": spec.kind,
        "seed": int(spec.seed),
        "edge_um": None if spec.edge_um is None else float(spec.edge_um),
        "settings": _settings_payload(settings),
    }


def _runtime_payload(runtime: TemplateRuntime) -> Dict[str, np.ndarray]:
    """Flatten a template runtime into bit-exact ``npz``-able arrays.

    Element values are stored as raw float64 (the ``%.6g`` SPICE text
    format would round them), so a loaded template writes byte-identical
    case netlists and produces byte-identical golden solves.
    """
    netlist = runtime.template.netlist
    arrays = {
        "netlist_name": np.asarray([netlist.name], dtype=np.str_),
        "resistor_names": np.asarray([r.name for r in netlist.resistors],
                                     dtype=np.str_),
        "resistor_node_a": np.asarray([r.node_a for r in netlist.resistors],
                                      dtype=np.str_),
        "resistor_node_b": np.asarray([r.node_b for r in netlist.resistors],
                                      dtype=np.str_),
        "resistor_ohms": np.asarray([r.resistance for r in netlist.resistors]),
        "vsource_names": np.asarray([v.name for v in netlist.voltage_sources],
                                    dtype=np.str_),
        "vsource_nodes": np.asarray([v.node for v in netlist.voltage_sources],
                                    dtype=np.str_),
        "vsource_volts": np.asarray([v.value for v in netlist.voltage_sources]),
        "pad_nodes": np.asarray(runtime.template.pad_nodes, dtype=np.str_),
    }
    for key, value in runtime.engine.system.to_arrays().items():
        arrays[f"system_{key}"] = value
    for channel, raster in runtime.geometry_maps.items():
        arrays[f"geom_{channel}"] = raster
    return arrays


def _runtime_from_payload(spec: GridTemplateSpec, settings: SynthesisSettings,
                          arrays: Dict[str, np.ndarray]) -> TemplateRuntime:
    """Rebuild a template runtime from stored arrays (no grid build, no
    pruning, no assembly, no raster computation)."""
    netlist = Netlist(str(arrays["netlist_name"][0]))
    netlist.resistors = [
        Resistor(str(name), str(node_a), str(node_b), float(ohms))
        for name, node_a, node_b, ohms in zip(
            arrays["resistor_names"], arrays["resistor_node_a"],
            arrays["resistor_node_b"], arrays["resistor_ohms"])
    ]
    netlist.voltage_sources = [
        VoltageSource(str(name), str(node), float(volts))
        for name, node, volts in zip(
            arrays["vsource_names"], arrays["vsource_nodes"],
            arrays["vsource_volts"])
    ]
    system = NodalSystem.from_arrays({
        key[len("system_"):]: value for key, value in arrays.items()
        if key.startswith("system_")
    })
    geometry_maps = {}
    for channel in GEOMETRY_CHANNELS:
        raster = np.asarray(arrays[f"geom_{channel}"])
        raster.setflags(write=False)  # shared by every sibling case
        geometry_maps[channel] = raster
    template = PDNTemplate(
        name=netlist.name,
        netlist=netlist,
        pad_nodes=[str(node) for node in arrays["pad_nodes"]],
        config=_template_config_for_spec(spec, settings),
    )
    engine = FactorizedPDN(netlist, system=system)
    return TemplateRuntime(template=template, engine=engine,
                           geometry_maps=geometry_maps)


def _template_runtime(spec: GridTemplateSpec, settings: SynthesisSettings,
                      cache: Optional[FactorizedCache],
                      store: Optional[FactorizationStore] = None,
                      ) -> TemplateRuntime:
    cache = cache if cache is not None else _TEMPLATE_CACHE

    def build() -> TemplateRuntime:
        if store is not None:
            identity = _template_store_identity(spec, settings)
            arrays = store.load(identity)
            if arrays is not None:
                return _runtime_from_payload(spec, settings, arrays)
        runtime = _build_template_runtime(spec, settings)
        if store is not None:
            store.save(identity, _runtime_payload(runtime))
        return runtime

    return cache.get_or_build((spec, settings.cache_key()), build)


def synthesize_case(
    kind: str,
    seed: int,
    settings: Optional[SynthesisSettings] = None,
    name: Optional[str] = None,
    edge_um: Optional[float] = None,
    template: Optional[GridTemplateSpec] = None,
    template_cache: Optional[FactorizedCache] = None,
    store: Optional[FactorizationStore] = None,
) -> CaseBundle:
    """Generate one complete case (netlist + features + golden IR map).

    Without ``template`` every case draws its own geometry (the historic
    per-case path, bit-compatible with earlier suites).  With a
    :class:`GridTemplateSpec`, geometry comes from the (cached) template
    and only the load pattern is case-specific: the golden solve reuses
    the template's factorisation and the geometry-only feature channels
    are shared — treat those arrays as read-only.  A
    :class:`~repro.solver.store.FactorizationStore` additionally
    persists template runtimes on disk, so separate processes and
    restarted builds skip template setup entirely.
    """
    settings = settings or SynthesisSettings()
    if template is None:
        return _synthesize_case_standalone(kind, seed, settings, name, edge_um)

    if kind not in ("fake", "real", "hidden"):
        raise ValueError(f"unknown case kind {kind!r}")
    runtime = _template_runtime(template, settings, template_cache, store)
    rng = np.random.default_rng(seed)
    hotspots, background, fraction = _case_load_draws(kind, rng)
    config = replace(runtime.template.config, hotspots=hotspots,
                     background=background, current_fraction=fraction)
    case_name = name or f"{kind}_{seed}"
    pdn_case = instantiate_pdn_case(runtime.template, config, rng,
                                    name=case_name)
    target_frac = rng.uniform(*settings.worst_drop_frac_range)
    ir_map = _solve_and_rescale(pdn_case, target_frac,
                                smooth_sigma=settings.golden_smooth_sigma,
                                engine=runtime.engine)
    shape = config.map_shape
    feature_maps = {
        "current": current_map(pdn_case.netlist, shape,
                               power_density=pdn_case.power_density),
        "current_src": current_source_map(pdn_case.netlist, shape),
    }
    feature_maps.update(runtime.geometry_maps)
    metadata = {
        "seed": float(seed),
        "target_worst_drop_frac": float(target_frac),
        "vdd": float(config.vdd),
        "num_pads": float(len(pdn_case.pad_nodes)),
        "template_seed": float(template.seed),
    }
    return CaseBundle(
        name=case_name,
        kind=kind,
        netlist=pdn_case.netlist,
        feature_maps=feature_maps,
        ir_map=ir_map,
        metadata=metadata,
    )


def _synthesize_case_standalone(
    kind: str,
    seed: int,
    settings: SynthesisSettings,
    name: Optional[str],
    edge_um: Optional[float],
) -> CaseBundle:
    """The per-case-geometry path (one grid, one factorisation per case)."""
    rng = np.random.default_rng(seed)
    if kind == "fake":
        config = _fake_config(rng, settings)
    elif kind in ("real", "hidden"):
        config = _real_config(rng, settings, edge_um=edge_um)
    else:
        raise ValueError(f"unknown case kind {kind!r}")

    case_name = name or f"{kind}_{seed}"
    pdn_case = generate_pdn(config, name=case_name)
    target_frac = rng.uniform(*settings.worst_drop_frac_range)
    ir_map = _solve_and_rescale(pdn_case, target_frac,
                                smooth_sigma=settings.golden_smooth_sigma)

    feature_maps = compute_feature_maps(
        pdn_case.netlist,
        shape=config.map_shape,
        power_density=pdn_case.power_density,
        density_window_px=settings.density_window_px,
    )
    metadata = {
        "seed": float(seed),
        "target_worst_drop_frac": float(target_frac),
        "vdd": float(config.vdd),
        "num_pads": float(len(pdn_case.pad_nodes)),
    }
    return CaseBundle(
        name=case_name,
        kind=kind,
        netlist=pdn_case.netlist,
        feature_maps=feature_maps,
        ir_map=ir_map,
        metadata=metadata,
    )


def _solve_and_rescale(pdn_case: PDNCase, target_worst_frac: float,
                       smooth_sigma: float = 1.5,
                       engine: Optional[FactorizedPDN] = None) -> np.ndarray:
    """Solve once, then linearly rescale currents to the target worst drop.

    With ``engine`` (a template's factor-once solver) the case's current
    sources become a fresh RHS against the shared factorisation; without
    it, the case's own grid is assembled and factored.
    """
    netlist = pdn_case.netlist
    if engine is None:
        result = FactorizedPDN(netlist).solve()
    else:
        result = engine.solve(netlist.current_sources)
    worst = result.worst_drop
    if worst <= 0:
        raise ValueError(f"case {netlist.name!r} has zero IR drop; cannot rescale")
    factor = (target_worst_frac * result.vdd) / worst

    netlist.current_sources = [
        CurrentSource(source.name, source.node, source.value * factor)
        for source in netlist.current_sources
    ]
    # linear system: drops scale exactly with the current vector
    scaled_voltages = {
        name: result.vdd - (result.vdd - voltage) * factor
        for name, voltage in result.node_voltages.items()
    }
    result.node_voltages = scaled_voltages
    return rasterize_ir_map(netlist, result, shape=pdn_case.config.map_shape,
                            smooth_sigma=smooth_sigma)


@dataclass(frozen=True)
class CaseSpec:
    """Everything needed to synthesize one case, fixed before any work runs.

    Specs are derived in the parent process from a single
    :class:`numpy.random.SeedSequence`, so the suite is bit-reproducible no
    matter how the specs are later scheduled across workers or shards.
    ``template`` (when set) names the shared geometry the case draws on.
    """

    kind: str
    seed: int
    name: Optional[str] = None
    edge_um: Optional[float] = None
    template: Optional[GridTemplateSpec] = None


def suite_case_specs(
    num_fake: int,
    num_real: int,
    num_hidden: int,
    seed: int,
    settings: SynthesisSettings,
    cases_per_template: int = 1,
) -> List[CaseSpec]:
    """Deterministic per-case specs (fake, then real, then hidden order).

    ``cases_per_template > 1`` groups consecutive fake/real cases onto
    shared :class:`GridTemplateSpec` geometries (template seeds are spawned
    *after* the case seeds, so case seeds are unchanged by the grouping).
    Hidden cases keep per-case geometry — they model distinct fixed
    designs (Table II), not a family of loads on one grid.
    """
    if cases_per_template < 1:
        raise ValueError(
            f"cases_per_template must be >= 1, got {cases_per_template}")
    num_cases = num_fake + num_real + num_hidden
    group = cases_per_template
    num_fake_templates = -(-num_fake // group) if group > 1 else 0
    num_real_templates = -(-num_real // group) if group > 1 else 0
    children = np.random.SeedSequence(seed).spawn(
        num_cases + num_fake_templates + num_real_templates)
    seeds = [int(child.generate_state(1)[0]) for child in children]
    template_seeds = seeds[num_cases:]

    fake_templates = [
        GridTemplateSpec("fake", template_seeds[i])
        for i in range(num_fake_templates)
    ]
    real_templates = [
        GridTemplateSpec("real", template_seeds[num_fake_templates + i])
        for i in range(num_real_templates)
    ]

    specs = [
        CaseSpec("fake", seeds[i],
                 template=fake_templates[i // group] if group > 1 else None)
        for i in range(num_fake)
    ]
    specs.extend(
        CaseSpec("real", seeds[num_fake + i],
                 template=real_templates[i // group] if group > 1 else None)
        for i in range(num_real)
    )
    for index in range(num_hidden):
        hidden_spec = HIDDEN_CASE_SPECS[index % len(HIDDEN_CASE_SPECS)]
        specs.append(CaseSpec(
            "hidden",
            seeds[num_fake + num_real + index],
            name=f"testcase{hidden_spec.case_id}",
            edge_um=hidden_spec.scaled_edge_um(settings.hidden_scale),
        ))
    return specs


# ----------------------------------------------------------------------
# Worker scheduling: template-contiguous groups
# ----------------------------------------------------------------------
IndexedSpec = Tuple[int, CaseSpec]


def _template_groups(indexed: Sequence[IndexedSpec]) -> List[List[IndexedSpec]]:
    """Split specs into work units; consecutive same-template specs stay
    together so each template is built at most once per worker."""
    groups: List[List[IndexedSpec]] = []
    for item in indexed:
        _, spec = item
        if (groups and spec.template is not None
                and groups[-1][-1][1].template == spec.template):
            groups[-1].append(item)
        else:
            groups.append([item])
    return groups


def _shard_slice(total: int, shard: Tuple[int, int]) -> slice:
    """Contiguous block of spec indices owned by ``shard=(index, count)``.

    Contiguous (rather than round-robin) partitioning keeps template
    groups intact within a shard, so reuse survives sharding.
    """
    index, count = int(shard[0]), int(shard[1])
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(f"shard index {index} out of range for count {count}")
    base, extra = divmod(total, count)
    start = index * base + min(index, extra)
    stop = start + base + (1 if index < extra else 0)
    return slice(start, stop)


def _resolve_store(store_dir: Optional[str]) -> Optional[FactorizationStore]:
    """A store handle for ``store_dir`` (or the ``REPRO_FACTOR_STORE``
    environment default); ``None`` disables disk persistence."""
    if store_dir is None:
        store_dir = knobs.read("REPRO_FACTOR_STORE")
    return None if store_dir is None else FactorizationStore(store_dir)


def _synthesize_group(
    task: Tuple[List[IndexedSpec], SynthesisSettings, Optional[str]],
) -> List[CaseBundle]:
    """Process-pool entry point (module-level so it pickles)."""
    group, settings, store_dir = task
    store = _resolve_store(store_dir)
    return [
        synthesize_case(spec.kind, spec.seed, settings=settings,
                        name=spec.name, edge_um=spec.edge_um,
                        template=spec.template, store=store)
        for _, spec in group
    ]


def _case_dirname(index: int, name: str) -> str:
    """Deterministic per-case directory name, unique even when hidden
    testcase names repeat (the Table II ids cycle past 10 cases)."""
    return f"case{index:05d}_{name}"


def _spec_case_name(spec: CaseSpec) -> str:
    """The name :func:`synthesize_case` will give the case — known up
    front, so resumable builds can locate a case dir without solving."""
    return spec.name or f"{spec.kind}_{spec.seed}"


def _synthesize_group_to_dir(
    task: Tuple[List[IndexedSpec], SynthesisSettings, str, bool, Optional[str]],
) -> List[CaseRef]:
    """Streamed process-pool entry point: write each case as it completes,
    hand back only manifest refs (never a pickled bundle).

    With ``resume`` set, a case whose directory already holds a complete
    write (verified by meta identity — see
    :func:`repro.data.io.case_is_complete`) is skipped: its ref is emitted
    straight from the spec and the existing files are left untouched, so a
    killed build picks up where it stopped and still merges bit-identically.
    """
    group, settings, out_dir, resume, store_dir = task
    store = _resolve_store(store_dir)
    refs = []
    for index, spec in group:
        name = _spec_case_name(spec)
        dirname = _case_dirname(index, name)
        if resume and case_is_complete(os.path.join(out_dir, dirname),
                                       name, spec.kind):
            refs.append(CaseRef(index=index, name=name,
                                kind=spec.kind, path=dirname))
            continue
        bundle = synthesize_case(spec.kind, spec.seed, settings=settings,
                                 name=spec.name, edge_um=spec.edge_um,
                                 template=spec.template, store=store)
        write_case(bundle, os.path.join(out_dir, dirname))
        refs.append(CaseRef(index=index, name=bundle.name,
                            kind=bundle.kind, path=dirname))
        del bundle  # keep at most one case resident per worker
    return refs


def _ingest_suite_decks(
    decks: Sequence[str], mode: str,
) -> Tuple[List[CaseBundle], List[QuarantineRecord]]:
    """Adapt foreign decks for a mixed suite build.

    Each deck either becomes a ``kind="ingested"`` :class:`CaseBundle`
    or a :class:`~repro.data.io.QuarantineRecord` carrying the typed
    refusal — never an exception, and never any effect on the generated
    cases (deck ingestion consumes no suite RNG state).
    """
    # local import: repro.ingest pulls in the model stack, which the
    # synthesis layer must not depend on at import time
    from repro.ingest.diagnostics import IngestError
    from repro.ingest.pipeline import ingest_deck

    cases: List[CaseBundle] = []
    quarantined: List[QuarantineRecord] = []
    for deck in decks:
        path = os.fspath(deck)
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            result = ingest_deck(path, mode=mode)
        except IngestError as error:
            quarantined.append(QuarantineRecord(
                deck=path, name=name, code=error.code, reason=str(error)))
            continue
        if result.case is None:
            reason = (result.report.degradations[-1]["reason"]
                      if result.report.degradations
                      else "deck solved but produced no rasterizable case")
            quarantined.append(QuarantineRecord(
                deck=path, name=name, code="solve-only", reason=reason))
            continue
        cases.append(result.case)
    return cases, quarantined


def make_suite(
    num_fake: int = 8,
    num_real: int = 4,
    num_hidden: int = 10,
    seed: int = 0,
    settings: Optional[SynthesisSettings] = None,
    workers: int = 1,
    cases_per_template: int = 1,
    store_dir: Optional[str] = None,
    ingest_decks: Optional[Sequence[str]] = None,
    ingest_mode: str = "tolerant",
) -> BenchmarkSuite:
    """Generate a full in-memory benchmark suite (train fake+real, test hidden).

    Hidden cases follow the Table II geometry: the i-th hidden case uses
    the i-th spec's edge length multiplied by ``settings.hidden_scale``.

    ``workers > 1`` fans case generation out over a process pool.  Every
    case's RNG seed is fixed up front by :func:`suite_case_specs`, so the
    suite is bit-identical for any worker count.  ``cases_per_template``
    groups fake/real cases onto shared geometries (factor once per
    template); work units are template-contiguous so a template is never
    built twice in one worker.  ``store_dir`` (default: the
    ``REPRO_FACTOR_STORE`` environment variable) persists template
    runtimes in a :class:`~repro.solver.store.FactorizationStore` so
    repeat builds skip template setup; results are bit-identical with or
    without it.

    ``ingest_decks`` mixes foreign SPICE decks into the build through the
    :mod:`repro.ingest` front door: each deck becomes a
    ``kind="ingested"`` case in ``suite.ingested_cases``, or a
    :class:`~repro.data.io.QuarantineRecord` in ``suite.quarantined``
    when it is refused.  A bad deck never aborts the build, and the
    generated cases are bit-identical with or without the decks (deck
    ingestion consumes no suite RNG state).

    For suites too large to hold in memory, use :func:`stream_suite`.
    """
    settings = settings or SynthesisSettings()
    specs = suite_case_specs(num_fake, num_real, num_hidden, seed, settings,
                             cases_per_template=cases_per_template)
    groups = _template_groups(list(enumerate(specs)))
    tasks = [(group, settings, store_dir) for group in groups]

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            case_lists = list(pool.map(_synthesize_group, tasks))
    else:
        case_lists = [_synthesize_group(task) for task in tasks]
    cases = [case for case_list in case_lists for case in case_list]

    ingested: List[CaseBundle] = []
    quarantined: List[QuarantineRecord] = []
    if ingest_decks:
        ingested, quarantined = _ingest_suite_decks(ingest_decks, ingest_mode)

    return BenchmarkSuite(
        fake_cases=cases[:num_fake],
        real_cases=cases[num_fake:num_fake + num_real],
        hidden_cases=cases[num_fake + num_real:],
        ingested_cases=ingested,
        quarantined=quarantined,
    )


def stream_suite(
    out_dir: str,
    num_fake: int = 8,
    num_real: int = 4,
    num_hidden: int = 10,
    seed: int = 0,
    settings: Optional[SynthesisSettings] = None,
    workers: int = 1,
    shard: Optional[Tuple[int, int]] = None,
    cases_per_template: int = 1,
    resume: bool = False,
    store_dir: Optional[str] = None,
    ingest_decks: Optional[Sequence[str]] = None,
    ingest_mode: str = "tolerant",
) -> SuiteManifest:
    """Build a suite (or one shard of it) straight to disk.

    Workers call :func:`repro.data.io.write_case` as each case completes
    and return only :class:`~repro.data.io.CaseRef` entries, so the parent
    process holds refs — never bundles — and its memory does not grow with
    suite size.  The returned manifest is also written next to the case
    directories (``manifest.json``, or ``manifest-shard{i}of{n}.json`` when
    ``shard=(i, n)``); shard manifests merge with
    :func:`repro.data.io.merge_manifests` into exactly the single-build
    ordering, and the result is bit-identical for any ``workers``/``shard``
    configuration.

    ``resume=True`` makes the build restartable: case directories that
    already contain a complete, identity-verified write are skipped (their
    refs come from the deterministic spec list), partially written cases
    are regenerated, and the resulting manifest — and any merge of shard
    manifests — is bit-identical to an uninterrupted build.  Case names
    fix the RNG seed but not the synthesis settings, so every build stamps
    its provenance (an empty-refs manifest) *before* the first case is
    written; a resume over a directory whose recorded build — finished or
    killed — used different settings or suite identity refuses rather
    than silently mixing provenances.

    ``store_dir`` (default: the ``REPRO_FACTOR_STORE`` environment
    variable) points workers at a shared
    :class:`~repro.solver.store.FactorizationStore`: templates already
    built by an earlier run, another shard's workers, or a killed build
    are loaded from disk instead of being regenerated and re-assembled.
    The store changes cost only — manifests and case files are
    bit-identical with or without it.

    ``ingest_decks`` mixes foreign SPICE decks into the build (see
    :func:`make_suite`): surviving decks are written as
    ``kind="ingested"`` case directories with indices *above* the
    generated range, refused decks land in the manifest's
    ``quarantined`` records, and the generated case files stay
    bit-identical with or without the decks.  Sharded builds refuse
    ``ingest_decks`` — decks are not part of the deterministic spec
    partition; ingest them in the merge step instead.
    """
    settings = settings or SynthesisSettings()
    if ingest_decks and shard is not None:
        raise ValueError(
            "ingest_decks cannot be combined with shard=: foreign decks "
            "are not part of the sharded spec partition; build the shards "
            "without decks and ingest into the merged suite instead")
    suite_ident = {
        "seed": int(seed),
        "num_fake": int(num_fake),
        "num_real": int(num_real),
        "num_hidden": int(num_hidden),
        "cases_per_template": int(cases_per_template),
    }
    shard_ident = None if shard is None else (int(shard[0]), int(shard[1]))
    manifest_path = os.path.join(out_dir, manifest_filename(shard))
    if resume and os.path.exists(manifest_path):
        previous = read_manifest(manifest_path)
        if (previous.suite != suite_ident
                or previous.settings != _settings_payload(settings)):
            raise ValueError(
                f"{manifest_path!r} records a different build "
                "(suite identity or settings changed); refusing to resume "
                "over its case directories — use a fresh out_dir"
            )
    specs = suite_case_specs(num_fake, num_real, num_hidden, seed, settings,
                             cases_per_template=cases_per_template)
    indexed = list(enumerate(specs))
    if shard is not None:
        indexed = indexed[_shard_slice(len(indexed), shard)]
    groups = _template_groups(indexed)

    os.makedirs(out_dir, exist_ok=True)
    # provenance stamp: if this build dies before finishing, the partial
    # directory still records what was being built, so a later resume can
    # verify it is continuing the same build
    write_manifest(SuiteManifest(suite=suite_ident,
                                 settings=_settings_payload(settings),
                                 refs=[], shard=shard_ident,
                                 root=os.path.abspath(out_dir)),
                   manifest_path)
    tasks = [(group, settings, out_dir, resume, store_dir)
             for group in groups]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            ref_lists = list(pool.map(_synthesize_group_to_dir, tasks))
    else:
        ref_lists = [_synthesize_group_to_dir(task) for task in tasks]
    refs = [ref for ref_list in ref_lists for ref in ref_list]

    quarantined: List[QuarantineRecord] = []
    if ingest_decks:
        num_generated = num_fake + num_real + num_hidden
        ingested, quarantined = _ingest_suite_decks(ingest_decks, ingest_mode)
        for offset, bundle in enumerate(ingested):
            index = num_generated + offset
            dirname = _case_dirname(index, bundle.name)
            write_case(bundle, os.path.join(out_dir, dirname))
            refs.append(CaseRef(index=index, name=bundle.name,
                                kind=bundle.kind, path=dirname))

    manifest = SuiteManifest(
        suite=suite_ident,
        settings=_settings_payload(settings),
        refs=refs,
        shard=shard_ident,
        root=os.path.abspath(out_dir),
        quarantined=quarantined,
    )
    write_manifest(manifest, manifest_path)
    return manifest


def _settings_payload(settings: SynthesisSettings) -> Dict[str, object]:
    """JSON-normalised settings for manifest provenance (tuples → lists)."""
    payload = {}
    for key, value in asdict(settings).items():
        payload[key] = list(value) if isinstance(value, tuple) else value
    return payload


def suite_from_manifest(manifest: SuiteManifest) -> BenchmarkSuite:
    """Eagerly load a streamed suite back into the in-memory layout."""
    by_kind: Dict[str, List[CaseBundle]] = {
        "fake": [], "real": [], "hidden": [], "ingested": []}
    for ref in sorted(manifest.refs, key=lambda r: r.index):
        by_kind[ref.kind].append(manifest.load(ref))
    return BenchmarkSuite(
        fake_cases=by_kind["fake"],
        real_cases=by_kind["real"],
        hidden_cases=by_kind["hidden"],
        ingested_cases=by_kind["ingested"],
        quarantined=list(manifest.quarantined),
    )
