"""Tests for the Theil index and its within/between decomposition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wageineq import panel as pn
from wageineq.fixtures import synthetic_wage_panel
from wageineq.theil import (
    DecompositionResult,
    DomainError,
    GroupTerm,
    Partition,
    decompose,
    smoothed_distribution,
    theil_index,
)

# frozen from a 50-digit term-by-term evaluation of the index
THEIL_13573 = 0.15237968787641534
THEIL_13 = 0.13081203594113696
THEIL_573 = 0.05485525233670123
BETWEEN_22555 = 0.08153353372825396


class TestTheilIndex:
    def test_perfect_equality_is_zero(self):
        assert theil_index([5, 5, 5]) == 0.0

    def test_single_element_is_zero(self):
        for w in (0.01, 1.0, 9999.0):
            assert theil_index([w]) == 0.0

    def test_reference_value_five_elements(self):
        assert theil_index([1, 3, 5, 7, 3]) == pytest.approx(THEIL_13573, abs=1e-14)

    def test_reference_value_two_elements(self):
        # equals 0.25*ln(0.5) + 0.75*ln(1.5)
        assert theil_index([1, 3]) == pytest.approx(THEIL_13, abs=1e-14)
        assert theil_index([1, 3]) == pytest.approx(
            0.25 * math.log(0.5) + 0.75 * math.log(1.5), abs=1e-15
        )

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_sum_overflow_is_rescaled(self):
        # the total of these wages overflows to inf; shares are scale free
        big = theil_index([1e308, 1e308, 1.0])
        assert math.isfinite(big)
        assert big == theil_index([1.0, 1.0, 1e-308])
        assert big == pytest.approx(math.log(1.5), abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(DomainError, match="non-empty"):
            theil_index([])

    def test_rejects_zero_wage(self):
        with pytest.raises(DomainError, match="strictly positive"):
            theil_index([1.0, 0.0, 2.0])

    def test_rejects_negative_wage(self):
        with pytest.raises(DomainError, match="strictly positive"):
            theil_index([1.0, -3.0])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError, match="non-finite"):
            theil_index([1.0, np.inf])
        with pytest.raises(DomainError, match="non-finite"):
            theil_index([1.0, np.nan])

    def test_rejects_2d_input(self):
        with pytest.raises(DomainError, match="1-dimensional"):
            theil_index([[1.0, 2.0], [3.0, 4.0]])


class TestPartition:
    def test_needs_two_groups(self):
        with pytest.raises(DomainError, match="at least 2 groups"):
            Partition(["a", "a", "a"])

    def test_needs_an_index(self):
        with pytest.raises(DomainError, match="^partition must cover at least one index$"):
            Partition([])

    def test_groups_in_first_appearance_order(self):
        part = Partition(["b", "a", "b", "c"])
        assert part.groups == ("b", "a", "c")

    def test_indices(self):
        part = Partition([0, 1, 0, 1, 1])
        assert list(part.indices(1)) == [1, 3, 4]

    def test_from_sizes(self):
        part = Partition.from_sizes([2, 3])
        assert part.labels == (0, 0, 1, 1, 1)

    def test_interleaved_groups_allowed(self):
        part = Partition(["x", "y", "x", "y"])
        assert part.group_count == 2


class TestSmoothedDistribution:
    def test_footnote_example(self):
        part = Partition.from_sizes([2, 3])
        out = smoothed_distribution([1, 3, 5, 7, 3], part)
        assert np.allclose(out, [2, 2, 5, 5, 5])

    def test_singleton_groups_identity(self):
        dist = [4.0, 1.0, 7.5]
        out = smoothed_distribution(dist, Partition([0, 1, 2]))
        assert np.allclose(out, dist)

    def test_groups_already_at_mean(self):
        out = smoothed_distribution([4, 4, 8, 8], Partition.from_sizes([2, 2]))
        assert np.allclose(out, [4, 4, 8, 8])

    def test_preserves_total(self):
        rng = np.random.default_rng(3)
        dist = rng.uniform(0.1, 1e6, size=30)
        part = Partition(rng.integers(0, 4, size=30).tolist() + [3] * 0)
        out = smoothed_distribution(dist, part)
        assert out.sum() == pytest.approx(dist.sum(), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DomainError, match="partition covers"):
            smoothed_distribution([1, 2, 3], Partition.from_sizes([2, 2]))


class TestDecompose:
    def test_footnote_decomposition(self):
        res = decompose([1, 3, 5, 7, 3], Partition.from_sizes([2, 3]))
        assert res.total == pytest.approx(THEIL_13573, abs=1e-14)
        assert res.groups[0].weight == pytest.approx(4 / 19, abs=1e-15)
        assert res.groups[1].weight == pytest.approx(15 / 19, abs=1e-15)
        assert res.groups[0].index == pytest.approx(THEIL_13, abs=1e-14)
        assert res.groups[1].index == pytest.approx(THEIL_573, abs=1e-14)
        assert res.between == pytest.approx(BETWEEN_22555, abs=1e-14)
        assert res.identity_residual() < 1e-12

    def test_equal_distribution_all_zero(self):
        res = decompose([7.0] * 6, Partition.from_sizes([2, 4]))
        assert res.total == 0.0
        assert res.between == 0.0
        assert all(g.index == 0.0 for g in res.groups)

    def test_all_singleton_groups(self):
        # l == n: every group index is 0 and between equals the total
        dist = [1.0, 2.0, 4.0, 9.0]
        res = decompose(dist, Partition([0, 1, 2, 3]))
        assert all(g.index == 0.0 for g in res.groups)
        assert res.between == pytest.approx(res.total, rel=1e-12)

    def test_weights_sum_to_one(self):
        res = decompose([1, 3, 5, 7, 3], Partition.from_sizes([2, 3]))
        assert sum(g.weight for g in res.groups) == pytest.approx(1.0, abs=1e-12)

    def test_propagates_domain_error(self):
        with pytest.raises(DomainError):
            decompose([1.0, -1.0], Partition.from_sizes([1, 1]))


class TestProperties:
    """Randomized invariants of the index and its decomposition."""

    CASES = 300

    def _random_case(self, rng):
        n = int(rng.integers(2, 51))
        dist = rng.uniform(1e-6, 1e6, size=n)
        l = int(rng.integers(2, min(5, n) + 1))
        # force every group nonempty
        labels = np.concatenate([np.arange(l), rng.integers(0, l, size=n - l)])
        rng.shuffle(labels)
        return dist, Partition(labels.tolist())

    def test_decomposition_identity(self):
        rng = np.random.default_rng(1234)
        for _ in range(self.CASES):
            dist, part = self._random_case(rng)
            res = decompose(dist, part)
            assert res.identity_residual() / max(res.total, 1e-30) < 1e-10

    def test_bounds(self):
        rng = np.random.default_rng(99)
        for _ in range(self.CASES):
            dist, _ = self._random_case(rng)
            val = theil_index(dist)
            assert 0.0 <= val <= math.log(len(dist)) + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dist, _ = self._random_case(rng)
            base = theil_index(dist)
            for lam in (0.5, 3.0, 1000.0):
                assert theil_index(lam * dist) == pytest.approx(base, abs=1e-12)

    def test_replication_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            dist, _ = self._random_case(rng)
            base = theil_index(dist)
            for k in (2, 3, 5):
                assert theil_index(np.tile(dist, k)) == pytest.approx(base, abs=1e-12)

    def test_transfer_principle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            dist, _ = self._random_case(rng)
            lo, hi = int(np.argmin(dist)), int(np.argmax(dist))
            if dist[lo] == dist[hi]:
                continue
            delta = 0.25 * (dist[hi] - dist[lo])
            shifted = dist.copy()
            shifted[hi] -= delta
            shifted[lo] += delta
            assert theil_index(shifted) < theil_index(dist)


positive_wages = st.lists(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), min_size=1, max_size=30
)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestExtremeMagnitudes:
    """Valid wages spanning the whole float range give finite, bounded results."""

    def test_underflowed_share_contributes_zero(self):
        # 1e-30 / 1e300 underflows to a share of 0; 0 * ln 0 is taken as its limit 0
        assert theil_index([1e300, 1e-30]) == pytest.approx(math.log(2), abs=1e-15)
        assert theil_index([1e200, 1e-200, 1.0]) == pytest.approx(math.log(3), abs=1e-15)

    def test_overflow_keeps_tiny_wages(self):
        # dividing by the maximum would flush 1e-20 to 0 and reject it
        assert theil_index([1e308, 1e308, 1e-20]) == pytest.approx(math.log(1.5), abs=1e-12)
        assert theil_index([1e308, 1e308, 5e-324]) == pytest.approx(math.log(1.5), abs=1e-12)

    def test_largest_floats(self):
        top = np.finfo(float).max
        assert theil_index([top, top, top]) == 0.0
        assert theil_index([top, top / 2]) == pytest.approx(theil_index([2.0, 1.0]), abs=1e-15)

    @given(positive_wages)
    @settings(max_examples=300, deadline=None)
    def test_index_finite_and_bounded(self, wages):
        val = theil_index(wages)
        assert math.isfinite(val)
        assert 0.0 <= val <= math.log(len(wages)) * (1 + 1e-12)

    def test_decompose_sum_overflow(self):
        res = decompose([1e308, 1e308, 1.0, 2.0], Partition.from_sizes([2, 2]))
        assert res.total == pytest.approx(math.log(2), abs=1e-12)
        assert res.groups[0].weight == pytest.approx(1.0, abs=1e-15)
        assert res.groups[1].index == pytest.approx(theil_index([1.0, 2.0]), abs=1e-15)
        assert res.between == pytest.approx(math.log(2), abs=1e-12)
        assert res.identity_residual() < 1e-12
        # a group whose share underflows keeps its own index; its weight is 0
        tiny = decompose([1e308, 1e308, 1e-20, 2e-20], Partition.from_sizes([2, 2]))
        assert tiny.groups[1].weight == 0.0
        assert tiny.groups[1].index == pytest.approx(theil_index([1.0, 2.0]), abs=1e-15)
        assert tiny.between == pytest.approx(math.log(2), abs=1e-12)

    @staticmethod
    def draw_partition(draw, n):
        l = draw(st.integers(2, min(4, n)))
        return Partition(draw(st.permutations(list(range(l)) + [i % l for i in range(n - l)])))

    @given(positive_wages.filter(lambda w: len(w) >= 2), st.data())
    @settings(max_examples=300, deadline=None)
    def test_decompose_identity_any_wages(self, wages, data):
        res = decompose(wages, self.draw_partition(data.draw, len(wages)))
        assert 0.0 <= res.total <= math.log(len(wages)) * (1 + 1e-12)
        assert all(math.isfinite(g.contribution) for g in res.groups)
        assert res.identity_residual() <= 1e-12

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=20),
        st.data(),
        st.sampled_from([1e-300, 1e-10, 1.0, 1e10, 1e300, 1e304, 1e305]),  # 1e305 * 1e3 overflows a sum
    )
    @settings(max_examples=200, deadline=None)
    def test_decompose_scale_invariance(self, wages, data, scale):
        part = self.draw_partition(data.draw, len(wages))
        base = decompose(wages, part)
        res = decompose(np.array(wages) * scale, part)
        assert res.identity_residual() <= 1e-12
        assert res.total == pytest.approx(base.total, abs=1e-12)
        assert res.between == pytest.approx(base.between, abs=1e-12)
        assert res.within == pytest.approx(base.within, abs=1e-12)

    def test_smoothed_group_mean_overflow(self):
        part = Partition.from_sizes([2, 2])
        assert list(smoothed_distribution([1e308, 1e308, 1.0, 3.0], part)) == [1e308, 1e308, 2.0, 2.0]


class TestPartitionIndexCache:
    def test_indices_are_stored_read_only(self):
        part = Partition(["b", "a", "b", "c"])
        assert part.indices("b") is part.indices("b")
        with pytest.raises(ValueError):
            part.indices("b")[0] = 3
        assert list(part.indices("z")) == []
        assert part == Partition(["b", "a", "b", "c"])


def scalar_theil_index(arr: np.ndarray) -> float:
    """Reference index of one validated distribution, zero shares dropped before the sum."""
    total = arr.sum()
    if math.isfinite(total):
        shares = arr / total
    else:  # the sum overflowed; shares do not depend on the scale
        scaled = arr / (2 * arr.size)
        shares = scaled / scaled.sum()
    if not shares.all():
        shares = shares[shares > 0.0]
    return max(float(np.sum(shares * np.log(arr.size * shares))), 0.0)


def scalar_decompose(values, part: Partition) -> DecompositionResult:
    """Reference decomposition of one distribution: a Python loop over its groups."""
    arr = np.asarray(values, dtype=float)
    scaled = arr if math.isfinite(arr.sum()) else arr / (2 * arr.size)
    total_wage = scaled.sum()
    smoothed = np.empty_like(arr)
    terms = []
    for g in part.groups:
        idx = part.indices(g)
        mean = arr[idx].mean()
        if not math.isfinite(mean):  # the group sum overflowed
            top = arr[idx].max()
            mean = top * (arr[idx] / top).mean()
        smoothed[idx] = mean
        weight = float(scaled[idx].sum() / total_wage)
        index = scalar_theil_index(arr[idx])
        terms.append(GroupTerm(group=g, weight=weight, index=index, contribution=weight * index))
    return DecompositionResult(
        total=scalar_theil_index(arr), groups=tuple(terms), between=scalar_theil_index(smoothed)
    )


def row_of(res: DecompositionResult, t: int) -> DecompositionResult:
    """Row t of a stacked decomposition, with float fields."""
    return DecompositionResult(
        total=float(res.total[t]),
        groups=tuple(
            GroupTerm(g.group, float(g.weight[t]), float(g.index[t]), float(g.contribution[t]))
            for g in res.groups
        ),
        between=float(res.between[t]),
    )


def scalar_series(panel) -> np.ndarray:
    """compute_series' columns, one scalar decomposition per quarter."""
    part = Partition([q for q, _ in pn.CELLS])
    rows = []
    for dist in panel.wages:
        res = scalar_decompose(dist, part)
        within = np.array([g.contribution for g in res.groups])
        if res.total == 0.0:
            shares = [0.0, 1.0]
        else:
            shares = [within.sum() / res.total, res.between / res.total]
        rows.append([res.total, *within, res.between, *shares])
    return np.array(rows)


@st.composite
def stacks(draw, wages, scales=st.just(1.0)):
    """A (T, n) stack of wage rows, each row times its own scale, and an interleaved partition."""
    n = draw(st.integers(2, 20))
    rows = draw(st.lists(st.lists(wages, min_size=n, max_size=n), min_size=1, max_size=5))
    row_scales = draw(st.lists(scales, min_size=len(rows), max_size=len(rows)))
    return np.array(rows) * np.array(row_scales)[:, None], TestExtremeMagnitudes.draw_partition(draw, n)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestStackedDecompose:
    """A (T, n) stack decomposes row by row exactly as the scalar reference does."""

    @given(
        stacks(
            st.floats(min_value=1e-3, max_value=1e3),
            # scales differ across rows, so rows whose sum overflows share a stack with ordinary ones
            st.sampled_from([1e-300, 1e-10, 1.0, 1e10, 1e300, 1e305]),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_scalar_reference(self, case):
        rows, part = case
        res = decompose(rows, part)
        assert res.total.shape == res.between.shape == (len(rows),)
        for t, row in enumerate(rows):
            assert row_of(res, t) == scalar_decompose(row, part)
            assert row_of(res, t) == decompose(row, part)

    @given(stacks(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)))
    @settings(max_examples=300, deadline=None)
    def test_any_wages_match_reference(self, case):
        # shares that underflow to 0 are zeroed, not dropped, so the sum's order can differ;
        # each of the n terms is at most ln n < 3 in size and may round once more
        rows, part = case
        res = decompose(rows, part)
        tol = 3 * rows.shape[1] * np.finfo(float).eps
        for t, row in enumerate(rows):
            ref = scalar_decompose(row, part)
            assert row_of(res, t) == decompose(row, part)
            assert res.total[t] == pytest.approx(ref.total, rel=0, abs=tol)
            assert res.between[t] == pytest.approx(ref.between, rel=0, abs=tol)
            for got, want in zip(res.groups, ref.groups):
                assert got.weight[t] == want.weight
                assert got.index[t] == pytest.approx(want.index, rel=0, abs=tol)

    def test_one_distribution_gives_floats(self):
        res = decompose([1, 3, 5, 7, 3], Partition.from_sizes([2, 3]))
        assert type(res.total) is float and type(res.between) is float
        assert all(type(v) is float for g in res.groups for v in (g.weight, g.index, g.contribution))

    def test_stack_identity_and_shapes(self):
        rows = np.array([[1, 3, 5, 7, 3], [7.0] * 5, [1, 1, 1, 1, 9]], dtype=float)
        res = decompose(rows, Partition.from_sizes([2, 3]))
        assert res.within.shape == res.identity_residual().shape == (3,)
        assert np.all(res.identity_residual() < 1e-12)
        assert res.total[1] == 0.0

    def test_stack_validation(self):
        part = Partition.from_sizes([1, 1])
        with pytest.raises(DomainError, match="value at index 1, 0 is 0.0"):
            decompose([[1.0, 2.0], [0.0, 2.0]], part)
        with pytest.raises(DomainError, match="2-dimensional stack"):
            decompose(np.ones((2, 2, 2)), part)
        with pytest.raises(DomainError, match="non-empty"):
            decompose(np.ones((0, 2)), part)
        with pytest.raises(DomainError, match="partition covers 2 indices but distribution has 3"):
            decompose(np.ones((4, 3)), part)

    @pytest.mark.parametrize("n_quarters", [81, 4000])
    def test_compute_series_equals_reference(self, n_quarters):
        panel = synthetic_wage_panel(n_quarters, "1000Q1")
        series = pn.compute_series(panel)
        got = np.column_stack(
            [series.total, series.within, series.between, series.within_share, series.between_share]
        )
        assert np.array_equal(got, scalar_series(panel))
