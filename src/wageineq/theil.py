"""Theil entropy index and its exact within/between group decomposition.

The index of an n-vector of strictly positive wages y is

    I(y) = sum_i (y_i / |y|) * ln(n * y_i / |y|)

where |y| is the total. It is 0 at perfect equality and at most ln(n).
For any partition of the population into l >= 2 groups the index splits
additively into a wage-share-weighted sum of group indices (the "within"
term) and the index of the smoothed distribution in which every wage is
replaced by its group mean (the "between" term).
"""

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


def _as_wages(arr: np.ndarray) -> np.ndarray:
    """Check that a float array holds at least one wage, all strictly positive and finite."""
    if arr.size == 0:
        raise DomainError("wage distribution must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise DomainError("wage distribution contains non-finite values")
    if np.any(arr <= 0.0):
        bad = tuple(np.argwhere(arr <= 0.0)[0])  # (i,) for one distribution, (t, i) for a stack
        at = ", ".join(map(str, bad))
        raise DomainError(f"wage distribution must be strictly positive; value at index {at} is {arr[bad]}")
    return arr


def _as_distribution(values) -> np.ndarray:
    """Validate and return a 1-d wage distribution as a float array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"wage distribution must be 1-dimensional, got shape {arr.shape}")
    return _as_wages(arr)


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


def _scale_free(rows: np.ndarray):
    """Rows whose sum overflows divided by 2n, and the row sums after that.

    Shares and weights do not depend on the scale. Only subnormal wages can
    flush to 0 here; their share of a sum that overflowed underflows to 0 in
    any case.
    """
    over = ~np.isfinite(rows.sum(axis=1, keepdims=True))
    rows = np.where(over, rows / (2 * rows.shape[1]), rows)
    return rows, rows.sum(axis=1)


def _theil_rows(rows: np.ndarray) -> np.ndarray:
    """Theil index of each row of a (T, n) array of validated wages."""
    scaled, total = _scale_free(rows)
    shares = scaled / total[:, None]
    # a share that underflowed to 0 contributes its limit 0 * ln 0 = 0
    logs = np.log(rows.shape[1] * shares, out=np.zeros_like(shares), where=shares > 0.0)
    # rounding can leave a tiny negative residue at near-equality
    return np.maximum((shares * logs).sum(axis=1), 0.0)


def _split(rows: np.ndarray, part: Partition):
    """Each group's columns of ``rows``, and ``rows`` with every wage replaced by its group mean."""
    if part.n != rows.shape[1]:
        raise DomainError(f"partition covers {part.n} indices but distribution has {rows.shape[1]}")
    # take() keeps C order, so each row of a block sums exactly as it would on its own
    blocks = [rows.take(part.indices(g), axis=1) for g in part.groups]
    smoothed = np.empty_like(rows)
    for g, block in zip(part.groups, blocks):
        mean, top = block.mean(axis=1), block.max(axis=1)
        # where a group sum overflowed, average relative to the group maximum
        mean = np.where(np.isfinite(mean), mean, top * (block / top[:, None]).mean(axis=1))
        smoothed[:, part.indices(g)] = mean[:, None]
    return blocks, smoothed


def theil_index(values) -> float:
    """Theil entropy index of a 1-d distribution of strictly positive finite wages.

    The index lies in [0, ln(n)] and is 0 iff all wages are equal.
    """
    return float(_theil_rows(_as_distribution(values)[None])[0])


def smoothed_distribution(values, part: Partition) -> np.ndarray:
    """Replace each wage by the mean wage of its group.

    Group totals (hence the grand total) are preserved. The result is the
    distribution whose index is the between-group term of the decomposition.
    """
    return _split(_as_distribution(values)[None], part)[1][0]


@dataclass(frozen=True)
class GroupTerm:
    """One group's contribution to the within term."""

    group: object
    weight: float  # group wage share |y_g| / |y|
    index: float  # Theil index of the group's own distribution
    contribution: float  # weight * index


@dataclass(frozen=True)
class DecompositionResult:
    """Within/between split of the Theil index for one distribution or a stack of them."""

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

    ``values`` is one distribution (1-d) or a (T, n) stack with one
    distribution per row. Every numeric field of the result, the group
    terms' included, is then a float or a (T,) array.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim not in (1, 2):
        raise DomainError(f"wages must be 1-dimensional or a 2-dimensional stack, got shape {arr.shape}")
    rows = np.atleast_2d(_as_wages(arr))
    blocks, smoothed = _split(rows, part)
    scaled, total_wage = _scale_free(rows)  # the weights are scale free
    out = (lambda v: float(v[0])) if arr.ndim == 1 else (lambda v: v)
    terms = []
    for g, block in zip(part.groups, blocks):
        weight = scaled.take(part.indices(g), axis=1).sum(axis=1) / total_wage
        index = _theil_rows(block)
        terms.append(GroupTerm(group=g, weight=out(weight), index=out(index), contribution=out(weight * index)))
    return DecompositionResult(out(_theil_rows(rows)), tuple(terms), out(_theil_rows(smoothed)))
