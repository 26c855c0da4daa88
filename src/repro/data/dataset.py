"""Datasets: the paper's oversampling scheme plus lazy sharded suites.

The contest provides few cases, so the paper oversamples each fake case
10× and each real case 20× (§IV-A: 100×10 fake + 10×20 real + 2000 BeGAN
→ 3310 training samples... at our scale the multipliers are the same,
the base counts smaller).  Oversampled entries reference the same
underlying :class:`CaseBundle`; stochastic augmentation at load time makes
the repeats non-identical.

:class:`ShardedSuiteDataset` closes the loop with streamed synthesis
(:func:`repro.data.synthesis.stream_suite`): it reads one or more shard
manifests and exposes the merged suite as lazily loaded cases — each
entry is a :class:`LazyCase` that knows its name/kind from the manifest
but only reads its directory on first real access, through a small
shared LRU so memory stays bounded no matter the suite size.  Lazy cases
duck-type :class:`CaseBundle`, so they flow through
``IRDropDataset.with_oversampling`` and the training loader unchanged.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import List, Optional, Sequence, Union

from repro.data.case import CaseBundle
from repro.data.io import CaseRef, SuiteManifest, merge_manifests, read_case, read_manifest

__all__ = [
    "IRDropDataset", "ShardedSuiteDataset", "LazyCase",
    "PAPER_FAKE_OVERSAMPLE", "PAPER_REAL_OVERSAMPLE",
]

PAPER_FAKE_OVERSAMPLE = 10
PAPER_REAL_OVERSAMPLE = 20


class IRDropDataset:
    """An ordered collection of case references for training/evaluation."""

    def __init__(self, cases: Sequence[CaseBundle]):
        self._cases: List[CaseBundle] = list(cases)
        if not self._cases:
            raise ValueError("dataset needs at least one case")

    @classmethod
    def with_oversampling(
        cls,
        cases: Sequence[CaseBundle],
        fake_times: int = PAPER_FAKE_OVERSAMPLE,
        real_times: int = PAPER_REAL_OVERSAMPLE,
        hidden_times: int = 0,
        ingested_times: int = 0,
    ) -> "IRDropDataset":
        """Replicate case references by kind (paper's scheme by default).

        Ingested (foreign-deck) cases default to zero repeats: mixing
        real netlists into training is an explicit choice, not a side
        effect of them being present in a suite.
        """
        if min(fake_times, real_times) < 1:
            raise ValueError("oversampling multipliers must be >= 1")
        multipliers = {"fake": fake_times, "real": real_times,
                       "hidden": hidden_times, "ingested": ingested_times}
        expanded: List[CaseBundle] = []
        for case in cases:
            expanded.extend([case] * multipliers[case.kind])
        return cls(expanded)

    def __len__(self) -> int:
        return len(self._cases)

    def __getitem__(self, index: int) -> CaseBundle:
        return self._cases[index]

    def __iter__(self):
        return iter(self._cases)

    def unique_cases(self) -> List[CaseBundle]:
        """Distinct underlying bundles, in first-appearance order."""
        seen = set()
        unique = []
        for case in self._cases:
            if id(case) not in seen:
                seen.add(id(case))
                unique.append(case)
        return unique

    def kind_counts(self) -> dict:
        counts: dict = {}
        for case in self._cases:
            counts[case.kind] = counts.get(case.kind, 0) + 1
        return counts


class _BundleLRU:
    """Tiny shared LRU of loaded bundles, keyed by case directory."""

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"cache size must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, CaseBundle]" = OrderedDict()

    def load(self, directory: str) -> CaseBundle:
        if directory in self._entries:
            self._entries.move_to_end(directory)
            return self._entries[directory]
        bundle = read_case(directory)
        self._entries[directory] = bundle
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return bundle


class LazyCase:
    """A :class:`CaseBundle` facade that loads from disk on first access.

    ``name`` and ``kind`` come straight from the manifest ref (so
    oversampling and split logic never touch the disk); every other
    attribute — ``ir_map``, ``feature_maps``, ``features(...)``,
    ``point_cloud()``, ... — transparently loads the bundle through the
    dataset's shared LRU.  Replicated references (oversampling) share one
    underlying bundle while it stays cached; after eviction it is simply
    re-read.
    """

    def __init__(self, ref: CaseRef, directory: str, cache: _BundleLRU):
        self._ref = ref
        self._directory = directory
        self._cache = cache

    @property
    def ref(self) -> CaseRef:
        return self._ref

    @property
    def directory(self) -> str:
        """On-disk home of this case — its stable identity for caches
        (e.g. :class:`repro.train.loader.PreparedCaseCache`), independent
        of bundle eviction and of which facade object wraps it."""
        return self._directory

    @property
    def name(self) -> str:
        return self._ref.name

    @property
    def kind(self) -> str:
        return self._ref.kind

    def load(self) -> CaseBundle:
        """The underlying bundle (read through the shared LRU)."""
        return self._cache.load(self._directory)

    def __getattr__(self, attribute: str):
        if attribute.startswith("_"):  # no disk IO for dunder/protocol probes
            raise AttributeError(attribute)
        return getattr(self.load(), attribute)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LazyCase({self._ref.name!r}, kind={self._ref.kind})"


class ShardedSuiteDataset:
    """Lazily loaded suite backed by one or more shard manifests.

    Accepts manifest paths (or loaded :class:`SuiteManifest` objects);
    multiple shards are merged into full-suite order by case index.  The
    dataset is an ordered sequence of :class:`LazyCase` entries, so it
    plugs directly into :meth:`IRDropDataset.with_oversampling` and
    :class:`repro.train.loader.BatchLoader`, and it is the form in which
    the evaluation harness (:mod:`repro.eval.harness`) takes a streamed
    build.
    """

    def __init__(
        self,
        manifests: Union[str, "os.PathLike[str]", SuiteManifest,
                         Sequence[Union[str, "os.PathLike[str]",
                                        SuiteManifest]]],
        cache_size: int = 8,
        require_complete: bool = True,
    ):
        if isinstance(manifests, (str, os.PathLike, SuiteManifest)):
            manifests = [manifests]
        loaded = [m if isinstance(m, SuiteManifest)
                  else read_manifest(os.fspath(m))
                  for m in manifests]
        if not loaded:
            raise ValueError("dataset needs at least one manifest")
        merged = loaded[0] if len(loaded) == 1 else merge_manifests(loaded)
        if require_complete and not merged.complete:
            present = sorted(ref.index for ref in merged.refs)
            raise ValueError(
                f"manifests cover {len(present)} of "
                f"{merged.expected_cases} cases; pass every shard or "
                "require_complete=False"
            )
        self.manifest = merged
        self._cache = _BundleLRU(cache_size)
        self._cases = [
            LazyCase(ref, merged.case_dir(ref), self._cache)
            for ref in sorted(merged.refs, key=lambda ref: ref.index)
        ]

    def __len__(self) -> int:
        return len(self._cases)

    def __getitem__(self, index: int) -> LazyCase:
        return self._cases[index]

    def __iter__(self):
        return iter(self._cases)

    def kind_counts(self) -> dict:
        counts: dict = {}
        for case in self._cases:
            counts[case.kind] = counts.get(case.kind, 0) + 1
        return counts

    def cases_of_kind(self, kind: str) -> List[LazyCase]:
        return [case for case in self._cases if case.kind == kind]

    @property
    def fake_cases(self) -> List[LazyCase]:
        """Fake cases, mirroring ``BenchmarkSuite.fake_cases``."""
        return self.cases_of_kind("fake")

    @property
    def real_cases(self) -> List[LazyCase]:
        """Real cases, mirroring ``BenchmarkSuite.real_cases``."""
        return self.cases_of_kind("real")

    @property
    def hidden_cases(self) -> List[LazyCase]:
        """Hidden testcases, mirroring ``BenchmarkSuite.hidden_cases``.

        Together with :attr:`training_cases` this gives the dataset the
        full ``BenchmarkSuite`` split interface, so the evaluation harness
        can score a streamed suite without ever materialising it.
        """
        return self.cases_of_kind("hidden")

    @property
    def ingested_cases(self) -> List[LazyCase]:
        """Foreign-deck cases, mirroring ``BenchmarkSuite.ingested_cases``."""
        return self.cases_of_kind("ingested")

    @property
    def training_cases(self) -> List[LazyCase]:
        """Fake + real cases, mirroring ``BenchmarkSuite.training_cases``."""
        return [case for case in self._cases if case.kind in ("fake", "real")]

    def with_oversampling(self, **kwargs) -> IRDropDataset:
        """Paper-scheme oversampling over the lazy cases."""
        return IRDropDataset.with_oversampling(self._cases, **kwargs)
