"""Batch assembly: cases → fixed-size tensors.

Implements the paper's batching rules (§III-A): every sample is padded or
scaled to one spatial edge, per-channel normalised with training-set
statistics, and optionally perturbed with Gaussian noise (§IV-C).  The
netlist modality is sampled/padded to a fixed token count.

Preprocessing is split into two stages so the oversampled multi-epoch
training loop never repeats work that cannot change:

* the **deterministic stage** (:meth:`CasePreprocessor.prepare_deterministic`)
  rasterises features, normalises, pads/scales, builds the target/mask and
  samples the point cloud — identical for every draw of a case, so it is
  cached per unique case identity in a bounded :class:`PreparedCaseCache`;
* the **stochastic stage** (:meth:`CasePreprocessor.apply_augmentation`)
  adds the per-draw Gaussian noise to the cached stack — the only part
  that differs between oversampled copies or epochs.

With augmentation off the cached path is bit-identical to recomputing
from scratch (the deterministic stage is pure); with augmentation on the
loader consumes its RNG in exactly the same order either way, so loss
curves match draw for draw.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import nn
from repro.data.augment import PAPER_SIGMA_RANGE, gaussian_noise
from repro.data.case import CaseBundle
from repro.features.normalize import ChannelNormalizer, TargetScaler
from repro.features.resize import SpatialAdjustment, adjust_stack
from repro.features.stack import ALL_CHANNELS
from repro.pointcloud.sampling import fit_to_count

__all__ = [
    "PreparedCase", "Batch", "CasePreprocessor", "BatchLoader",
    "PreparedCaseCache", "DEFAULT_CACHE_SIZE",
]

DEFAULT_CACHE_SIZE = 64
"""Default bound of the per-loader deterministic-preprocessing LRU."""


@dataclass
class PreparedCase:
    """One case after spatial/statistical preprocessing.

    ``clean_features`` is the deterministic (pre-noise) stack — equal to
    ``features`` when no augmentation was applied.  The pretrain stage
    uses it as the denoising target without re-running preprocessing.
    """

    features: np.ndarray              # (C, E, E), normalised (+ noise)
    points: np.ndarray                # (N, F)
    target: np.ndarray                # (1, E, E), scaled to ~[0, 1]
    mask: np.ndarray                  # (1, E, E) valid-pixel mask
    adjustment: SpatialAdjustment
    case: CaseBundle
    clean_features: Optional[np.ndarray] = None


@dataclass
class Batch:
    """A training minibatch (tensors ready for the model)."""

    features: nn.Tensor               # (B, C, E, E)
    points: Optional[nn.Tensor]       # (B, N, F) or None
    targets: nn.Tensor                # (B, 1, E, E)
    masks: np.ndarray                 # (B, 1, E, E)
    prepared: List[PreparedCase]

    def __len__(self) -> int:
        return len(self.prepared)


def _content_digest(case: CaseBundle) -> str:
    """Digest of everything the deterministic stage reads from a bundle.

    Feature maps and the golden map are hashed directly; the netlist —
    which only reaches the prepared tensors through the encoded point
    cloud — is fingerprinted by its element counts (its full topology is
    already pinned transitively: the golden map is the solve of the
    netlist, so distinct netlists virtually never share an ``ir_map``
    bit pattern).
    """
    digest = hashlib.sha256()
    digest.update(repr(sorted(case.metadata.items())).encode())
    digest.update(np.ascontiguousarray(case.ir_map).tobytes())
    for channel in sorted(case.feature_maps):
        digest.update(channel.encode())
        digest.update(np.ascontiguousarray(case.feature_maps[channel]).tobytes())
    table = case.netlist.node_table()
    digest.update(repr((len(table.names), *table.element_counts())).encode())
    return digest.hexdigest()


def _case_cache_key(case: CaseBundle) -> tuple:
    """Stable identity of a case for deterministic-stage caching.

    Manifest-backed cases advertise a ``directory`` identity
    (:attr:`repro.data.dataset.LazyCase.directory`) and are keyed by it,
    so oversampled views — and even distinct facade objects over the same
    directory — share one entry no matter how often the underlying bundle
    is evicted and re-read.  (``CaseBundle`` itself has no ``directory``
    attribute, so ``getattr`` never hits its lazy ``__getattr__``-style
    loading here.)

    In-memory bundles are keyed by *content* identity — name, kind and a
    digest of the maps/metadata.  The earlier scheme keyed them by pinned
    ``id()``, which a long-lived serving process cannot trust: once an
    entry is evicted its strong reference dies, the interpreter may
    recycle the id for a brand-new same-named case, and the cache would
    serve the old case's tensors.  Content keys also let two equal
    bundles (e.g. a request re-submitting the same case object-identity
    aside) share one entry.  The digest is memoised on the bundle — but
    tagged with the bundle's own ``id``, because ``copy``/``deepcopy``
    duplicate ``__dict__`` and a copied-then-mutated case must not
    inherit the original's identity — so steady-state lookups stay O(1);
    mutating a bundle's arrays *in place* after its first preparation
    remains undetectable, exactly as it was under id keying (cached
    tensors are read-only views of the *prepared* data).
    """
    directory = getattr(case, "directory", None)
    if directory is not None:
        return ("dir", directory)
    memo = case.__dict__.get("_prep_cache_key")
    if memo is not None and memo[0] == id(case):
        return memo[1]
    key = ("content", case.name, case.kind, _content_digest(case))
    case.__dict__["_prep_cache_key"] = (id(case), key)
    return key


class PreparedCaseCache:
    """Bounded LRU of deterministic :class:`PreparedCase` results.

    Composes with oversampled datasets (replicated views map to one
    entry) and with :class:`~repro.data.dataset.ShardedSuiteDataset`
    (lazy cases are keyed by directory, independent of bundle eviction).
    Cached feature/target arrays are marked read-only: every consumer
    either copies (``np.stack`` in collate) or allocates fresh output
    (the augmentation stage), so sharing is safe by construction.

    A cache binds to the first :class:`CasePreprocessor` that uses it —
    entries are only valid for one preprocessing configuration, so reuse
    by a different preprocessor raises instead of serving wrong tensors.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE):
        if maxsize < 1:
            raise ValueError(f"cache size must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._owner: Optional["CasePreprocessor"] = None
        # key -> prepared; keys are directory or content identities, so no
        # object pinning is needed (see _case_cache_key)
        self._entries: "OrderedDict[tuple, PreparedCase]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def bind(self, preprocessor: "CasePreprocessor") -> None:
        """Claim the cache for one preprocessor (idempotent for the owner)."""
        if self._owner is None:
            self._owner = preprocessor
        elif self._owner is not preprocessor:
            raise ValueError(
                "PreparedCaseCache is already bound to a different "
                "CasePreprocessor; cached tensors are configuration-"
                "specific — use one cache per preprocessor"
            )

    def get(self, case: CaseBundle) -> Optional[PreparedCase]:
        key = _case_cache_key(case)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry

    def put(self, case: CaseBundle, prepared: PreparedCase) -> PreparedCase:
        for array in (prepared.features, prepared.points,
                      prepared.target, prepared.mask):
            array.setflags(write=False)
        self._entries[_case_cache_key(case)] = prepared
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return prepared

    def clear(self) -> None:
        self._entries.clear()
        self._owner = None


class CasePreprocessor:
    """Fit-once, apply-everywhere preprocessing for a model's inputs."""

    def __init__(
        self,
        channels: Sequence[str] = ALL_CHANNELS,
        target_edge: int = 64,
        num_points: int = 256,
        point_strategy: str = "grid",
        use_pointcloud: bool = True,
    ):
        if target_edge < 4:
            raise ValueError(f"target edge too small: {target_edge}")
        self.channels = tuple(channels)
        self.target_edge = target_edge
        self.num_points = num_points
        self.point_strategy = point_strategy
        self.use_pointcloud = use_pointcloud
        self.normalizer = ChannelNormalizer(mode="minmax")
        self.target_scaler = TargetScaler()
        self._fitted = False

    def fit(self, cases: Sequence[CaseBundle]) -> "CasePreprocessor":
        """Fit normalisation statistics on (raw, unadjusted) training maps.

        Both fits stream one case at a time (generator expressions into
        single-pass accumulators), so fitting on a lazily loaded
        :class:`~repro.data.dataset.ShardedSuiteDataset` touches the disk
        case-by-case instead of materialising every feature stack at once.
        """
        self.normalizer.fit(case.features(self.channels) for case in cases)
        self.target_scaler.fit(case.ir_map for case in cases)
        self._fitted = True
        return self

    def prepare_deterministic(self, case: CaseBundle) -> PreparedCase:
        """The pay-once stage: everything except augmentation noise."""
        if not self._fitted:
            raise RuntimeError("preprocessor used before fit()")
        raw = case.features(self.channels)
        normalised = self.normalizer.transform(raw)
        adjusted, adjustment = adjust_stack(normalised, self.target_edge)

        target_raw = self.target_scaler.transform(case.ir_map)[None]
        target, _ = adjust_stack(target_raw, self.target_edge, preserve_peaks=True)
        mask = adjustment.mask()[None].astype(float)

        if self.use_pointcloud:
            points = fit_to_count(
                case.point_cloud().points, self.num_points,
                strategy=self.point_strategy,
            )
        else:
            points = np.zeros((0, 0))
        return PreparedCase(
            features=adjusted, points=points, target=target, mask=mask,
            adjustment=adjustment, case=case, clean_features=adjusted,
        )

    def apply_augmentation(
        self,
        prepared: PreparedCase,
        augment_rng: np.random.Generator,
        sigma_range: Tuple[float, float] = PAPER_SIGMA_RANGE,
    ) -> PreparedCase:
        """The per-draw stage: a noisy view sharing everything else.

        Allocates a fresh features array (never writes the input), so a
        cached deterministic result can back any number of draws.
        """
        clean = (prepared.clean_features if prepared.clean_features is not None
                 else prepared.features)
        noisy = gaussian_noise(clean, augment_rng, sigma_range)
        return PreparedCase(
            features=noisy, points=prepared.points, target=prepared.target,
            mask=prepared.mask, adjustment=prepared.adjustment,
            case=prepared.case, clean_features=clean,
        )

    def prepare(self, case: CaseBundle,
                augment_rng: Optional[np.random.Generator] = None,
                sigma_range: Tuple[float, float] = PAPER_SIGMA_RANGE,
                cache: Optional[PreparedCaseCache] = None) -> PreparedCase:
        """Normalise → pad/scale → (optionally) noise one case.

        With ``cache``, the deterministic stage is looked up (or computed
        and stored) before the stochastic stage runs; the augmentation RNG
        is consumed identically either way.
        """
        if cache is not None:
            cache.bind(self)
            prepared = cache.get(case)
            if prepared is None:
                prepared = cache.put(case, self.prepare_deterministic(case))
        else:
            prepared = self.prepare_deterministic(case)
        if augment_rng is not None:
            prepared = self.apply_augmentation(prepared, augment_rng, sigma_range)
        return prepared

    def collate(self, prepared: Sequence[PreparedCase]) -> Batch:
        """Stack prepared cases into batched tensors."""
        features = nn.Tensor(np.stack([p.features for p in prepared]))
        targets = nn.Tensor(np.stack([p.target for p in prepared]))
        masks = np.stack([p.mask for p in prepared])
        points = None
        if self.use_pointcloud:
            points = nn.Tensor(np.stack([p.points for p in prepared]))
        return Batch(features=features, points=points, targets=targets,
                     masks=masks, prepared=list(prepared))


def _resolve_cache(
    cache: Union[bool, int, PreparedCaseCache, None],
) -> Optional[PreparedCaseCache]:
    """``True``/int/instance/``False``-or-``None`` → cache object or None.

    ``0`` disables caching, matching ``TrainConfig.preprocess_cache``.
    """
    if cache is True:
        return PreparedCaseCache(DEFAULT_CACHE_SIZE)
    if cache is False or cache is None:
        return None
    if isinstance(cache, int):
        return PreparedCaseCache(cache) if cache != 0 else None
    return cache


class BatchLoader:
    """Shuffling minibatch iterator over a dataset of cases.

    ``cases`` is any ordered sequence of bundles — an in-memory list, an
    :class:`~repro.data.dataset.IRDropDataset`, or the lazy entries of a
    :class:`~repro.data.dataset.ShardedSuiteDataset` (loaded per batch
    through its LRU, so iteration memory stays bounded).

    ``cache`` controls deterministic-stage reuse: ``True`` (default) makes
    a private :class:`PreparedCaseCache` of :data:`DEFAULT_CACHE_SIZE`, an
    int sizes one, an existing cache is shared, and ``False``/``None``
    recomputes every draw (the pre-cache behaviour, kept for parity
    benchmarks).
    """

    def __init__(self, cases: Sequence[CaseBundle],
                 preprocessor: CasePreprocessor,
                 batch_size: int = 4,
                 augment: bool = True,
                 sigma_range: Tuple[float, float] = PAPER_SIGMA_RANGE,
                 seed: int = 0,
                 cache: Union[bool, int, PreparedCaseCache, None] = True):
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        self.cases = list(cases)
        self.preprocessor = preprocessor
        self.batch_size = batch_size
        self.augment = augment
        self.sigma_range = sigma_range
        self.cache = _resolve_cache(cache)
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return (len(self.cases) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Batch]:
        order = self._rng.permutation(len(self.cases))
        for start in range(0, len(order), self.batch_size):
            chunk = [self.cases[i] for i in order[start:start + self.batch_size]]
            rng = self._rng if self.augment else None
            prepared = [
                self.preprocessor.prepare(case, augment_rng=rng,
                                          sigma_range=self.sigma_range,
                                          cache=self.cache)
                for case in chunk
            ]
            yield self.preprocessor.collate(prepared)
