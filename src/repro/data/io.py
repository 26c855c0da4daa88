"""On-disk case storage in the contest layout, plus suite manifests.

One directory per case::

    case_dir/
      netlist.sp          SPICE netlist
      current_map.csv     contest feature maps (CSV, comma-separated)
      eff_dist_map.csv
      pdn_density.csv
      voltage_src.csv     paper extra maps
      current_src.csv
      resistance.csv
      ir_drop_map.csv     golden output
      meta.json           kind, metadata

Maps are written with ``fmt="%.8g"`` — 8 significant digits, so a
round-trip through disk reproduces each value to a relative error of at
most 5e-8 (``FLOAT_ROUNDTRIP_RTOL``: half a unit in the 8th significant
digit, worst when the leading digit is 1), not bit-exactly.

A *suite manifest* indexes many case directories so suites can be
streamed to disk by workers, sharded across machines, and merged back
without ever holding full bundles in one process.  The manifest is a
single JSON file (``manifest.json``, or ``manifest-shard{i}of{n}.json``
for shard builds) next to the case directories it references::

    {
      "format": "lmm-ir-suite-manifest-v1",
      "suite": {"seed": 0, "num_fake": 8, "num_real": 4,
                "num_hidden": 10, "cases_per_template": 4},
      "shard": null | {"index": 0, "count": 2},
      "settings": {... SynthesisSettings fields ...},
      "cases": [
        {"index": 0, "name": "fake_123", "kind": "fake",
         "path": "case00000_fake_123"},
        ...
      ],
      "quarantined": [
        {"deck": "/path/to/bad.sp", "name": "bad", "code": "non-pdn",
         "reason": "..."},
        ...
      ]
    }

``index`` is the case's position in the full (unsharded) deterministic
spec list, so shard manifests merge into exactly the order a single-shard
build produces; ``path`` is relative to the manifest's own directory.
The JSON is dumped with sorted keys and no timestamps, so manifests of
equivalent builds are bit-identical.  A manifest is read back lazily by
:class:`~repro.data.dataset.ShardedSuiteDataset` (which also merges
shard manifests) or eagerly by
:func:`~repro.data.synthesis.suite_from_manifest`.

``quarantined`` records foreign decks handed to a mixed build
(``ingest_decks=``) that the ingestion front door refused or could not
turn into a training case: each carries the deck's path, the typed
error code (:mod:`repro.ingest.diagnostics` — or ``"solve-only"`` for a
deck that solved but could not be rasterized into maps) and the
human-readable reason.  A quarantined deck never aborts the build and
never perturbs the generated cases — it is accounted, not fatal.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.case import CaseBundle
from repro.faults.points import fault_point
from repro.spice.parser import parse_spice_file
from repro.spice.writer import write_spice_file

__all__ = [
    "write_case", "read_case",
    "CHANNEL_FILES", "FLOAT_ROUNDTRIP_RTOL",
    "CaseRef", "QuarantineRecord", "SuiteManifest", "MANIFEST_FORMAT",
    "manifest_filename", "write_manifest", "read_manifest", "merge_manifests",
]

CHANNEL_FILES: Dict[str, str] = {
    "current": "current_map.csv",
    "eff_dist": "eff_dist_map.csv",
    "pdn_density": "pdn_density.csv",
    "voltage_src": "voltage_src.csv",
    "current_src": "current_src.csv",
    "resistance": "resistance.csv",
}

FLOAT_ROUNDTRIP_RTOL = 5e-8
"""Worst-case relative error of one ``%.8g`` write/read round trip."""

MANIFEST_FORMAT = "lmm-ir-suite-manifest-v1"

_IR_FILE = "ir_drop_map.csv"
_NETLIST_FILE = "netlist.sp"
_META_FILE = "meta.json"


def write_case(case: CaseBundle, directory: str) -> str:
    """Persist a case bundle as a contest-style directory; return its path."""
    fault_point("io.write_case")
    os.makedirs(directory, exist_ok=True)
    write_spice_file(case.netlist, os.path.join(directory, _NETLIST_FILE))
    for channel, filename in CHANNEL_FILES.items():
        if channel in case.feature_maps:
            np.savetxt(os.path.join(directory, filename),
                       case.feature_maps[channel], delimiter=",", fmt="%.8g")
    np.savetxt(os.path.join(directory, _IR_FILE), case.ir_map,
               delimiter=",", fmt="%.8g")
    meta = {"name": case.name, "kind": case.kind, "metadata": case.metadata}
    with open(os.path.join(directory, _META_FILE), "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
    return directory


def read_case(directory: str) -> CaseBundle:
    """Load a case bundle previously written by :func:`write_case`."""
    fault_point("io.read_case")
    meta_path = os.path.join(directory, _META_FILE)
    with open(meta_path) as handle:
        meta = json.load(handle)

    netlist = parse_spice_file(os.path.join(directory, _NETLIST_FILE))
    netlist.name = meta["name"]

    feature_maps: Dict[str, np.ndarray] = {}
    for channel, filename in CHANNEL_FILES.items():
        path = os.path.join(directory, filename)
        if os.path.exists(path):
            # ndmin=2 keeps (1, W) and (H, 1) maps from collapsing to 1-D
            feature_maps[channel] = np.loadtxt(path, delimiter=",", ndmin=2)
    ir_map = np.loadtxt(os.path.join(directory, _IR_FILE),
                        delimiter=",", ndmin=2)
    return CaseBundle(
        name=meta["name"],
        kind=meta["kind"],
        netlist=netlist,
        feature_maps=feature_maps,
        ir_map=ir_map,
        metadata=meta.get("metadata", {}),
    )


# ----------------------------------------------------------------------
# Suite manifests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CaseRef:
    """Lightweight pointer to one on-disk case — what streamed synthesis
    workers hand back to the parent instead of a pickled bundle."""

    index: int
    name: str
    kind: str
    path: str  # relative to the manifest's directory

    def resolve(self, root: str) -> str:
        return os.path.join(root, self.path)


@dataclass(frozen=True)
class QuarantineRecord:
    """One foreign deck a mixed suite build refused to turn into a case.

    ``code`` is the typed :class:`repro.ingest.diagnostics.IngestError`
    code that refused the deck (``"parse"``, ``"non-pdn"``, ...) or
    ``"solve-only"`` for a deck that solved but yielded no rasterizable
    training case.
    """

    deck: str    # the deck path handed to the build
    name: str    # the case name it would have had
    code: str    # typed refusal code
    reason: str  # human-readable explanation

    def to_dict(self) -> dict:
        return {"deck": self.deck, "name": self.name,
                "code": self.code, "reason": self.reason}

    @classmethod
    def from_dict(cls, payload: dict) -> "QuarantineRecord":
        return cls(deck=payload["deck"], name=payload["name"],
                   code=payload["code"], reason=payload["reason"])


@dataclass
class SuiteManifest:
    """Index of a (possibly partial) streamed suite build."""

    suite: Dict[str, int]
    settings: Dict[str, object]
    refs: List[CaseRef]
    shard: Optional[Tuple[int, int]] = None
    root: str = "."  # directory the ref paths are relative to (not serialized)
    format: str = MANIFEST_FORMAT
    quarantined: List[QuarantineRecord] = field(default_factory=list)

    @property
    def expected_cases(self) -> int:
        return int(self.suite["num_fake"] + self.suite["num_real"]
                   + self.suite["num_hidden"])

    @property
    def complete(self) -> bool:
        """Whether the refs cover every index of the full *generated*
        suite (ingested extras ride above the expected range and
        quarantined decks never produce refs, so neither affects
        completeness)."""
        generated = {ref.index for ref in self.refs if ref.kind != "ingested"}
        return generated == set(range(self.expected_cases))

    def case_dir(self, ref: CaseRef) -> str:
        return ref.resolve(self.root)

    def load(self, ref: CaseRef) -> CaseBundle:
        return read_case(self.case_dir(ref))

    def to_json(self) -> str:
        payload = {
            "format": self.format,
            "suite": self.suite,
            "shard": (None if self.shard is None
                      else {"index": int(self.shard[0]),
                            "count": int(self.shard[1])}),
            "settings": self.settings,
            "cases": [
                {"index": ref.index, "name": ref.name,
                 "kind": ref.kind, "path": ref.path}
                for ref in self.refs
            ],
            "quarantined": [record.to_dict() for record in self.quarantined],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def manifest_filename(shard: Optional[Tuple[int, int]] = None) -> str:
    """Canonical manifest name: per-shard builds get distinct files."""
    if shard is None:
        return "manifest.json"
    index, count = shard
    return f"manifest-shard{int(index)}of{int(count)}.json"


def write_manifest(manifest: SuiteManifest, path: str) -> str:
    """Write a manifest JSON (deterministic bytes); return the path."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        handle.write(manifest.to_json())
    return path


def read_manifest(path: str) -> SuiteManifest:
    """Load a manifest; ref paths stay relative to the manifest's directory."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"{path!r} is not a {MANIFEST_FORMAT} manifest "
            f"(format={payload.get('format')!r})"
        )
    shard = payload.get("shard")
    refs = [
        CaseRef(index=int(entry["index"]), name=entry["name"],
                kind=entry["kind"], path=entry["path"])
        for entry in payload["cases"]
    ]
    return SuiteManifest(
        suite=payload["suite"],
        settings=payload.get("settings", {}),
        refs=refs,
        shard=None if shard is None else (int(shard["index"]),
                                          int(shard["count"])),
        root=os.path.dirname(os.path.abspath(path)) or ".",
        quarantined=[QuarantineRecord.from_dict(entry)
                     for entry in payload.get("quarantined", [])],
    )


def merge_manifests(manifests: Sequence[SuiteManifest],
                    out_path: Optional[str] = None) -> SuiteManifest:
    """Merge shard manifests into one suite-ordered manifest.

    Shards must come from the same suite build (identical ``suite`` and
    ``settings`` provenance) and reference disjoint case indices; the
    merged refs are sorted by index, so a merge of a complete shard set is
    ref-for-ref identical to a single unsharded build.  Degenerate shard
    layouts are first-class: a 0-case shard (more shards than cases)
    contributes provenance but no refs — even as the first manifest — and
    merging a single shard (1 shard of N, or an already-merged manifest)
    is the identity on its refs.  Only a truly empty *sequence* is
    refused, because no provenance exists to carry over.  When
    ``out_path`` is given the merged manifest is written there with case
    paths re-expressed relative to it (the shard directories must share a
    filesystem with ``out_path``).
    """
    if not manifests:
        raise ValueError("cannot merge zero manifests")
    head = manifests[0]
    for other in manifests[1:]:
        if other.suite != head.suite or other.settings != head.settings:
            raise ValueError(
                "manifests disagree on suite provenance; refusing to merge "
                f"({head.suite} vs {other.suite})"
            )
    indexed: Dict[int, Tuple[CaseRef, str]] = {}
    for manifest in manifests:
        for ref in manifest.refs:
            if ref.index in indexed:
                raise ValueError(
                    f"case index {ref.index} appears in more than one shard"
                )
            indexed[ref.index] = (ref, manifest.root)

    out_root = (os.path.dirname(os.path.abspath(out_path))
                if out_path else head.root)
    merged_refs = []
    for index in sorted(indexed):
        ref, root = indexed[index]
        path = os.path.relpath(ref.resolve(root), out_root)
        merged_refs.append(CaseRef(index=ref.index, name=ref.name,
                                   kind=ref.kind, path=path))
    quarantined: List[QuarantineRecord] = []
    seen_decks = set()
    for manifest in manifests:
        for record in manifest.quarantined:
            if record.deck not in seen_decks:
                seen_decks.add(record.deck)
                quarantined.append(record)
    merged = SuiteManifest(suite=dict(head.suite),
                           settings=dict(head.settings),
                           refs=merged_refs, shard=None, root=out_root,
                           quarantined=quarantined)
    if out_path:
        write_manifest(merged, out_path)
    return merged
