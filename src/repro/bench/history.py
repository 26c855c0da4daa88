"""PR-over-PR perf trajectory: ``benchmarks/BENCH_history.json``.

Every orchestrated run appends one entry — git SHA, timestamp, tier, the
numpy BLAS thread count and inference lane count it ran with, and the
flattened ``bench.metric -> value`` map of *headline* metrics — so
the speedup arc across PRs is a queryable artifact instead of prose in
CHANGES.md.  Re-running at the same SHA and tier replaces that entry
in place (local iteration must not spam the trajectory).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.bench.schema import (
    SCHEMA_VERSION,
    BenchSuiteReport,
    SchemaVersionError,
    write_json,
)

__all__ = ["load_history", "append_history"]


def load_history(path: str) -> List[Dict[str, Any]]:
    """Entries, oldest first.  Absent file -> empty trajectory."""
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        payload = json.load(handle)
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"history: schema_version {version!r} != supported "
            f"{SCHEMA_VERSION}")
    return list(payload.get("entries", []))


def append_history(path: str, report: BenchSuiteReport,
                   tier: Optional[str] = None) -> Dict[str, Any]:
    """Append (or replace same-SHA/same-tier) one trajectory entry."""
    entries = load_history(path)
    sha = report.fingerprint.get("git_sha")
    entry = {
        "at": report.generated_at,
        "git_sha": sha,
        "tier": tier,
        "headlines": report.headlines(),
    }
    for key in ("blas_threads", "infer_lanes"):
        if key in report.fingerprint:
            entry[key] = report.fingerprint[key]
    entries = [e for e in entries
               if not (sha is not None and e.get("git_sha") == sha
                       and e.get("tier") == tier)]
    entries.append(entry)
    write_json(path, {"schema_version": SCHEMA_VERSION, "entries": entries})
    return entry
