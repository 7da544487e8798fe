"""Theil entropy index and its exact within/between group decomposition.

The index of an n-vector of strictly positive wages y is

    I(y) = sum_i (y_i / |y|) * ln(n * y_i / |y|)

where |y| is the total. It is 0 at perfect equality and at most ln(n).
For any partition of the population into l >= 2 groups the index splits
additively into a wage-share-weighted sum of group indices (the "within"
term) and the index of the smoothed distribution in which every wage is
replaced by its group mean (the "between" term).
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "Partition",
    "GroupTerm",
    "DecompositionResult",
    "theil_index",
    "smoothed_distribution",
    "decompose",
]


class DomainError(ValueError):
    """Raised when an input lies outside the domain of the Theil index."""


def _as_distribution(values) -> np.ndarray:
    """Validate and return a wage distribution as a float array.

    Requires a non-empty 1-d collection of strictly positive finite reals.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"wage distribution must be 1-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise DomainError("wage distribution must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise DomainError("wage distribution contains non-finite values")
    if np.any(arr <= 0.0):
        bad = int(np.argmax(arr <= 0.0))
        raise DomainError(f"wage distribution must be strictly positive; value at index {bad} is {arr[bad]}")
    return arr


_NO_INDICES = np.array([], dtype=int)
_NO_INDICES.flags.writeable = False


@dataclass(frozen=True)
class Partition:
    """Assignment of distribution indices to l >= 2 disjoint covering groups.

    ``labels[i]`` names the group of observation i. Groups may interleave
    arbitrarily; contiguity is not assumed.
    """

    labels: tuple

    def __init__(self, labels):
        labels = tuple(labels)
        index = {}  # group -> its indices, groups in order of first appearance
        for i, g in enumerate(labels):
            index.setdefault(g, []).append(i)
        for g, idx in index.items():
            index[g] = np.array(idx, dtype=int)
            index[g].flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", index)
        if len(labels) == 0:
            raise DomainError("partition must cover at least one index")
        if self.group_count < 2:
            raise DomainError(f"partition needs at least 2 groups, got {self.group_count}")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def groups(self) -> tuple:
        """Group names in order of first appearance."""
        return tuple(self._index)

    @property
    def group_count(self) -> int:
        return len(self._index)

    def indices(self, group) -> np.ndarray:
        """Indices belonging to ``group`` (read-only)."""
        return self._index.get(group, _NO_INDICES)

    @classmethod
    def from_sizes(cls, sizes) -> "Partition":
        """Contiguous partition with the given group sizes, labeled 0..l-1."""
        labels = []
        for g, size in enumerate(sizes):
            labels.extend([g] * size)
        return cls(labels)


def _check_lengths(dist: np.ndarray, part: Partition) -> None:
    if part.n != dist.size:
        raise DomainError(f"partition covers {part.n} indices but distribution has {dist.size}")


def _rescale(arr: np.ndarray) -> np.ndarray:
    """Scale wages so that their sum stays below the largest float.

    Only subnormal wages can flush to 0 here; their share of a sum that
    overflowed underflows to 0 in any case.
    """
    return arr / (2 * arr.size)


def theil_index(values) -> float:
    """Theil entropy index of a strictly positive wage distribution.

    Parameters
    ----------
    values : array-like
        Wages, all strictly positive and finite.

    Returns
    -------
    float
        Index in [0, ln(n)]; 0 iff all wages are equal.
    """
    arr = _as_distribution(values)
    total = arr.sum()
    if math.isfinite(total):
        shares = arr / total
    else:  # the sum overflowed; shares do not depend on the scale
        scaled = _rescale(arr)
        shares = scaled / scaled.sum()
    if not shares.all():  # a share that underflowed to 0 contributes its limit 0 * ln 0 = 0
        shares = shares[shares > 0.0]
    val = float(np.sum(shares * np.log(arr.size * shares)))
    # rounding can leave a tiny negative residue at near-equality
    return max(val, 0.0)


def smoothed_distribution(values, part: Partition) -> np.ndarray:
    """Replace each wage by the mean wage of its group.

    Group totals (hence the grand total) are preserved. The result is the
    distribution whose index is the between-group term of the decomposition.
    """
    arr = _as_distribution(values)
    _check_lengths(arr, part)
    out = np.empty_like(arr)
    for g in part.groups:
        idx = part.indices(g)
        mean = arr[idx].mean()
        if not math.isfinite(mean):  # the group sum overflowed; average relative to the maximum
            top = arr[idx].max()
            mean = top * (arr[idx] / top).mean()
        out[idx] = mean
    return out


@dataclass(frozen=True)
class GroupTerm:
    """One group's contribution to the within term."""

    group: object
    weight: float  # group wage share |y_g| / |y|
    index: float  # Theil index of the group's own distribution
    contribution: float  # weight * index


@dataclass(frozen=True)
class DecompositionResult:
    """Within/between split of the Theil index for one distribution."""

    total: float
    groups: tuple  # of GroupTerm, in partition group order
    between: float

    @property
    def within(self) -> float:
        return sum(g.contribution for g in self.groups)

    def identity_residual(self) -> float:
        """Absolute defect of total == within + between."""
        return abs(self.total - self.within - self.between)


def decompose(values, part: Partition) -> DecompositionResult:
    """Split the Theil index into within-group and between-group terms.

    The within term weights each group's own index by its share of total
    wages; the between term is the index of the smoothed distribution.
    Their sum reproduces the total index exactly up to rounding.
    """
    arr = _as_distribution(values)
    _check_lengths(arr, part)
    scaled = arr if math.isfinite(arr.sum()) else _rescale(arr)  # the weights are scale free
    total_wage = scaled.sum()
    terms = []
    for g in part.groups:
        idx = part.indices(g)
        weight = float(scaled[idx].sum() / total_wage)
        index = theil_index(arr[idx])
        terms.append(GroupTerm(group=g, weight=weight, index=index, contribution=weight * index))
    return DecompositionResult(
        total=theil_index(arr),
        groups=tuple(terms),
        between=theil_index(smoothed_distribution(arr, part)),
    )
