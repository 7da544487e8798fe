"""Tests for VARX estimation, dynamic multipliers, and bootstrap bands."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wageineq import panel as pn
from wageineq import varx as vx
from wageineq.fixtures import make_quarters, synthetic_shock_series, synthetic_wage_panel


def make_data(X, d, names=(), start="1980Q1"):
    T = np.atleast_2d(X).shape[0] if np.asarray(X).ndim == 2 else len(X)
    return vx.TimeSeriesData(make_quarters(start, T), X, d, names)


def univariate_model(b=0.5, c0=1.0, q=4, resid_len=40):
    """Hand-built model x_t = b x_{t-1} + c0 d_t with zero residuals."""
    exog = np.zeros((q + 1, 1))
    exog[0, 0] = c0
    return vx.VarxModel(
        names=("x",),
        endogenous_lags=1,
        exogenous_lags=q,
        contemporaneous_shock=True,
        intercept=np.zeros(1),
        endo_coefs=np.array([[[b]]]),
        exog_coefs=exog,
        residuals=np.zeros((resid_len, 1)),
        sigma=np.zeros((1, 1)),
        stderr=np.zeros((7, 1)),
    )


class TestSpec:
    def test_defaults(self):
        spec = vx.VarxSpec()
        assert spec.endogenous_lags == 1
        assert spec.exogenous_lags == 4
        assert spec.horizon == 10
        assert spec.shock_size == -0.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"endogenous_lags": 0},
            {"exogenous_lags": -1},
            {"horizon": 0},
            {"bootstrap_reps": 50},
            {"band_method": "wald"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(vx.VarxError):
            vx.VarxSpec(**kwargs)


class TestBuildDesign:
    def test_row_count_81_quarters(self):
        # p=1, q=4: the first max(1,4)=4 quarters have unavailable lags
        rng = np.random.default_rng(0)
        data = make_data(rng.normal(size=81), rng.normal(size=81))
        design = vx.build_design(data, vx.VarxSpec())
        assert design.T_eff == 77
        assert design.m == 1 + 1 + 1 + 4  # const, lag, d_t, d_{t-1..t-4}

    def test_regressor_count_no_contemporaneous_no_exo_lags(self):
        rng = np.random.default_rng(0)
        k = 3
        data = make_data(rng.normal(size=(40, k)), rng.normal(size=40))
        spec = vx.VarxSpec(exogenous_lags=0, contemporaneous_shock=False)
        design = vx.build_design(data, spec)
        assert design.m == 1 + k

    def test_lag_alignment(self):
        X = np.arange(10.0)
        d = np.arange(10.0) * 10
        design = vx.build_design(make_data(X, d), vx.VarxSpec(exogenous_lags=2))
        # first usable row is t=2: [1, X_1, d_2, d_1, d_0]
        assert list(design.Z[0]) == [1.0, 1.0, 20.0, 10.0, 0.0]
        assert design.Y[0, 0] == 2.0
        assert design.columns == ("const", "x0.lag1", "shock.lag0", "shock.lag1", "shock.lag2")

    def test_too_short(self):
        data = make_data(np.arange(7.0), np.zeros(7))
        with pytest.raises(vx.VarxError, match="insufficient"):
            vx.build_design(data, vx.VarxSpec())


class TestEstimate:
    def test_exact_recovery_zero_noise(self):
        rng = np.random.default_rng(42)
        d = rng.normal(size=200)
        B = np.array([[[0.5, 0.1], [0.0, 0.3]]])
        C = np.array([[1.0, -0.5], [0.4, 0.2], [0.0, 0.1], [0.0, 0.0], [0.0, 0.0]])
        X = vx.simulate_varx([0.2, -0.1], B, C, d, noise_sd=0.0, rng=rng)
        model = vx.estimate(vx.build_design(make_data(X, d), vx.VarxSpec()))
        assert np.allclose(model.intercept, [0.2, -0.1], atol=1e-8)
        assert np.allclose(model.endo_coefs, B, atol=1e-8)
        assert np.allclose(model.exog_coefs, C, atol=1e-8)
        assert np.allclose(model.residuals, 0.0, atol=1e-8)

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(11)
        d = rng.normal(size=5000)
        X = vx.simulate_varx(
            [0.0], [[[0.5]]], [[1.0], [0.0], [0.0], [0.0], [0.0]], d, noise_sd=0.3, rng=rng
        )
        model = vx.estimate(vx.build_design(make_data(X, d), vx.VarxSpec()))
        assert model.endo_coefs[0, 0, 0] == pytest.approx(0.5, abs=0.05)
        assert model.exog_coefs[0, 0] == pytest.approx(1.0, abs=0.05)

    def test_duplicate_regressor_rank_error(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 2))
        X[:, 1] = 2.0 * X[:, 0]  # second variable duplicates the first
        data = make_data(X, rng.normal(size=60))
        with pytest.raises(vx.RankError, match="rank deficient at column 'x1.lag1'"):
            vx.estimate(vx.build_design(data, vx.VarxSpec()))

    @pytest.mark.parametrize("scale, deficient", [(0.7, True), (1.5, False)])
    def test_rank_tolerance_is_eps_times_largest_column_norm_times_rows(self, scale, deficient):
        rng = np.random.default_rng(6)
        T = 60
        Z = np.column_stack([np.ones(T), 1.0 + 1e-3 * rng.normal(size=(T, 3)), np.zeros(T)])
        tol = np.finfo(float).eps * np.linalg.norm(Z, axis=0).max() * T
        # a last column orthogonal to the others, so its R diagonal is its norm;
        # R's largest row norm is about twice the largest column norm here
        Z[:, -1] = scale * tol * np.linalg.qr(Z[:, :-1], mode="complete")[0][:, -1]
        ZY = np.column_stack([Z, rng.normal(size=(T, 2))])[None]
        mask, coefs, _ = vx._solve_full_rank(ZY, Z.shape[1])
        assert mask[0].tolist() == [False] * 4 + [deficient]
        assert len(coefs) == (0 if deficient else 1)

    def test_fitted_plus_residual_reproduces_response(self):
        rng = np.random.default_rng(4)
        data = make_data(rng.normal(size=(90, 2)), rng.normal(size=90))
        design = vx.build_design(data, vx.VarxSpec())
        model = vx.estimate(design)
        fitted = design.Z @ np.vstack(
            [
                model.intercept,
                model.endo_coefs[0].T,
                model.exog_coefs[:1],
                model.exog_coefs[1:],
            ]
        )
        assert np.allclose(fitted + model.residuals, design.Y, atol=1e-10)

    def test_sigma_symmetric_psd(self):
        rng = np.random.default_rng(5)
        data = make_data(rng.normal(size=(90, 3)), rng.normal(size=90))
        model = vx.estimate(vx.build_design(data, vx.VarxSpec()))
        assert np.allclose(model.sigma, model.sigma.T, atol=1e-12)
        assert np.all(np.diag(model.sigma) >= 0.0)

    def test_degrees_of_freedom_floor(self):
        rng = np.random.default_rng(6)
        data = make_data(rng.normal(size=18), rng.normal(size=18))
        with pytest.raises(vx.VarxError, match="floor"):
            vx.estimate(vx.build_design(data, vx.VarxSpec()))


class TestDynamicMultipliers:
    def test_geometric_closed_form(self):
        model = univariate_model(b=0.5, c0=1.0)
        spec = vx.VarxSpec(shock_size=1.0)
        irf = vx.dynamic_multipliers(model, spec)
        expect = 0.5 ** np.arange(11)
        assert np.allclose(irf.point[:, 0], expect, atol=1e-12)

    def test_all_zero_coefficients(self):
        model = univariate_model(b=0.0, c0=0.0)
        irf = vx.dynamic_multipliers(model, vx.VarxSpec())
        assert np.all(irf.point == 0.0)

    def test_linearity_in_shock_size(self):
        model = univariate_model(b=0.7, c0=2.0)
        unit = vx.dynamic_multipliers(model, vx.VarxSpec(shock_size=1.0))
        quarter_cut = vx.dynamic_multipliers(model, vx.VarxSpec(shock_size=-0.25))
        assert np.array_equal(quarter_cut.point, -0.25 * unit.point)

    def test_zero_shock_size(self):
        model = univariate_model()
        irf = vx.dynamic_multipliers(model, vx.VarxSpec(shock_size=0.0))
        assert np.all(irf.point == 0.0)

    def test_no_contemporaneous_term(self):
        model = univariate_model()
        model = vx.VarxModel(
            **{
                **model.__dict__,
                "contemporaneous_shock": False,
                "exog_coefs": np.array([[0.0], [1.0], [0.0], [0.0], [0.0]]),
            }
        )
        irf = vx.dynamic_multipliers(model, vx.VarxSpec(shock_size=1.0, contemporaneous_shock=False))
        assert irf.point[0, 0] == 0.0
        assert irf.point[1, 0] == 1.0

    def test_stability_decay(self):
        rng = np.random.default_rng(12)
        d = rng.normal(size=300)
        B = np.array([[[0.6, 0.2], [0.1, 0.5]]])
        C = np.zeros((5, 2))
        C[0] = [1.0, 0.5]
        X = vx.simulate_varx([0.0, 0.0], B, C, d, noise_sd=0.2, rng=rng)
        model = vx.estimate(vx.build_design(make_data(X, d), vx.VarxSpec()))
        assert vx.companion_spectral_radius(model) < 1.0
        spec = vx.VarxSpec(horizon=40, shock_size=1.0)
        irf = vx.dynamic_multipliers(model, spec)
        mags = np.abs(irf.point).max(axis=1)
        peak = int(np.argmax(mags[5:])) + 5  # past the exogenous lag window
        assert mags[-1] < mags[peak] or np.isclose(mags[-1], 0.0, atol=1e-12)


class TestConsistency:
    def test_error_shrinks_with_sample_size(self):
        B_true = np.array([[[0.6, 0.15], [0.1, 0.55]]])
        C_true = np.zeros((5, 2))
        C_true[0] = [1.0, 0.5]
        C_true[1] = [0.5, 0.25]
        errors = {}
        for T in (500, 5000):
            errs = []
            for seed in range(20):
                rng = np.random.default_rng(seed)
                d = rng.normal(size=T)
                X = vx.simulate_varx([0.1, -0.1], B_true, C_true, d, noise_sd=0.5, rng=rng)
                model = vx.estimate(vx.build_design(make_data(X, d), vx.VarxSpec()))
                errs.append(
                    np.abs(model.endo_coefs - B_true).mean()
                    + np.abs(model.exog_coefs - C_true).mean()
                )
            errors[T] = np.mean(errs)
        assert errors[5000] < errors[500]


class TestBootstrapBands:
    def _fit(self, T=81, noise_sd=0.2, seed=21, c0=1.0):
        rng = np.random.default_rng(seed)
        d = rng.normal(size=T)
        C = np.zeros((5, 1))
        C[0, 0] = c0
        C[1, 0] = 0.4
        X = vx.simulate_varx([0.0], [[[0.6]]], C, d, noise_sd=noise_sd, rng=rng)
        data = make_data(X, d)
        design = vx.build_design(data, vx.VarxSpec())
        return vx.estimate(design), design

    def test_same_seed_identical(self):
        model, design = self._fit()
        spec = vx.VarxSpec(bootstrap_reps=100, seed=77)
        a = vx.bootstrap_bands(model, design, spec)
        b = vx.bootstrap_bands(model, design, spec)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)

    def test_different_seed_differs(self):
        model, design = self._fit()
        a = vx.bootstrap_bands(model, design, vx.VarxSpec(bootstrap_reps=100, seed=1))
        b = vx.bootstrap_bands(model, design, vx.VarxSpec(bootstrap_reps=100, seed=2))
        assert not np.array_equal(a.lower, b.lower)

    def test_zero_residuals_collapse_to_point(self):
        rng = np.random.default_rng(13)
        d = rng.normal(size=81)
        C = np.zeros((5, 1))
        C[0, 0] = 1.0
        X = vx.simulate_varx([0.0], [[[0.5]]], C, d, noise_sd=0.0, rng=rng)
        design = vx.build_design(make_data(X, d), vx.VarxSpec())
        model = vx.estimate(design)
        bands = vx.bootstrap_bands(model, design, vx.VarxSpec(bootstrap_reps=100, seed=0))
        assert np.allclose(bands.lower, bands.point, atol=1e-8)
        assert np.allclose(bands.upper, bands.point, atol=1e-8)

    def test_band_ordering(self):
        model, design = self._fit()
        bands = vx.bootstrap_bands(model, design, vx.VarxSpec(bootstrap_reps=100, seed=5))
        assert np.all(bands.lower <= bands.point)
        assert np.all(bands.point <= bands.upper)

    def test_wider_noise_wider_bands(self):
        spec = vx.VarxSpec(bootstrap_reps=200, seed=9)
        model_lo, design_lo = self._fit(noise_sd=0.1, seed=30)
        model_hi, design_hi = self._fit(noise_sd=0.5, seed=30)
        lo = vx.bootstrap_bands(model_lo, design_lo, spec)
        hi = vx.bootstrap_bands(model_hi, design_hi, spec)
        assert (hi.upper - hi.lower).mean() > (lo.upper - lo.lower).mean()

    def test_percentile_bands_contain_point(self):
        model, design = self._fit()
        spec = vx.VarxSpec(bootstrap_reps=200, seed=3, band_method="percentile")
        bands = vx.bootstrap_bands(model, design, spec)
        assert np.all(bands.lower <= bands.point)
        assert np.all(bands.point <= bands.upper)
        assert np.any(bands.upper > bands.lower)


def scalar_bootstrap(model, design, spec):
    """The per-replication bootstrap loop: the reference for the batched one.

    Regenerates, re-estimates and recomputes the multipliers one replication
    at a time. Returns the lower and upper bands and the failure count.
    """
    data, dspec = design.data, design.spec
    p, q = dspec.endogenous_lags, dspec.exogenous_lags
    point = vx.dynamic_multipliers(model, spec).point
    draws, failures = [], 0
    for rep in range(spec.bootstrap_reps):
        rows = np.random.default_rng((spec.seed, rep)).integers(0, design.T_eff, size=design.T_eff)
        Xb = data.X.copy()
        for i, t in enumerate(range(design.offset, data.T)):
            x = model.intercept + model.residuals[rows[i]]
            for j in range(1, p + 1):
                x = x + model.endo_coefs[j - 1] @ Xb[t - j]
            if dspec.contemporaneous_shock:
                x = x + model.exog_coefs[0] * data.d[t]
            for j in range(1, q + 1):
                x = x + model.exog_coefs[j] * data.d[t - j]
            Xb[t] = x
        boot = vx.TimeSeriesData(data.quarters, Xb, data.d, data.names)
        try:
            draws.append(vx.dynamic_multipliers(vx.estimate(vx.build_design(boot, spec)), spec).point)
        except (vx.VarxError, np.linalg.LinAlgError):
            failures += 1
    stack = np.array(draws)
    if spec.band_method == "sd":
        sd = stack.std(axis=0, ddof=1)
        return point - sd, point + sd, failures
    lower = np.minimum(np.percentile(stack, 15.87, axis=0), point)
    upper = np.maximum(np.percentile(stack, 84.13, axis=0), point)
    return lower, upper, failures


def assert_matches_scalar(model, design, spec):
    lower, upper, failures = scalar_bootstrap(model, design, spec)
    bands = vx.bootstrap_bands(model, design, spec)
    np.testing.assert_allclose(bands.lower, lower, rtol=0, atol=1e-12)
    np.testing.assert_allclose(bands.upper, upper, rtol=0, atol=1e-12)
    assert bands.dropped == failures
    return bands


def pipeline_data(target, n_quarters=81):
    """Standardized series as ``wageineq irf`` builds them from the fixtures.

    ``target`` is "total" (k=1), "components" (k=4) or "control" (the four
    components plus an indpro-like control, k=5).
    """
    panel = synthetic_wage_panel(n_quarters)
    series = pn.compute_series(panel)
    if target == "total":
        cols, names = [series.total], ("total",)
    else:
        cols = [series.within[:, 0], series.within[:, 1], series.within[:, 2], series.between]
        names = ("within_d1", "within_q3", "within_d9", "between")
    if target == "control":
        cols.append(synthetic_shock_series(panel.quarters, seed=30000000).values)
        names += ("indpro",)
    X = np.column_stack([pn.standardize(c) for c in cols])
    return vx.TimeSeriesData(panel.quarters, X, synthetic_shock_series(panel.quarters).values, names)


class TestBatchedBootstrap:
    """The chunked bootstrap against the per-replication loop."""

    @pytest.mark.parametrize(
        "target,n_quarters,spec_kwargs",
        [
            ("total", 81, {"bootstrap_reps": 100}),
            ("components", 81, {"bootstrap_reps": 2000, "seed": 3}),
            ("components", 81, {"bootstrap_reps": 250, "band_method": "percentile"}),
            ("components", 81, {"bootstrap_reps": 100, "contemporaneous_shock": False}),
            ("control", 168, {"bootstrap_reps": 100, "endogenous_lags": 2, "band_method": "percentile"}),
            ("control", 168, {"bootstrap_reps": 130, "endogenous_lags": 2, "seed": 5}),
        ],
    )
    def test_matches_scalar_loop(self, target, n_quarters, spec_kwargs):
        spec = vx.VarxSpec(**spec_kwargs)
        design = vx.build_design(pipeline_data(target, n_quarters), spec)
        bands = assert_matches_scalar(vx.estimate(design), design, spec)
        assert bands.dropped == 0

    @settings(max_examples=12, deadline=None)
    @given(
        k=st.integers(1, 4),
        p=st.integers(1, 2),
        q=st.integers(0, 3),
        seed=st.integers(0, 2**16),
        contemporaneous=st.booleans(),
        band_method=st.sampled_from(["sd", "percentile"]),
    )
    def test_property_matches_scalar_loop(self, k, p, q, seed, contemporaneous, band_method):
        rng = np.random.default_rng(seed)
        B = rng.normal(0.0, 0.05, size=(p, k, k))
        B[0] += np.diag(rng.uniform(-0.5, 0.5, size=k))
        C = rng.normal(size=(q + 1, k))
        d = rng.normal(size=80)
        X = vx.simulate_varx(
            rng.normal(size=k), B, C, d, noise_sd=0.3, rng=rng, contemporaneous_shock=contemporaneous
        )
        spec = vx.VarxSpec(
            endogenous_lags=p,
            exogenous_lags=q,
            contemporaneous_shock=contemporaneous,
            horizon=int(rng.integers(1, 13)),
            bootstrap_reps=100,
            seed=seed,
            band_method=band_method,
        )
        design = vx.build_design(make_data(X, d), spec)
        assert_matches_scalar(vx.estimate(design), design, spec)

    @staticmethod
    def _sparse_residual_model(nonzero_rows):
        """Univariate model whose regenerated sample stays exactly zero until
        a draw hits one of its ``nonzero_rows`` nonzero residuals.

        An all-zero lag column makes that replication's design rank deficient.
        """
        rng = np.random.default_rng(17)
        design = vx.build_design(make_data(np.zeros(81), rng.normal(size=81)), vx.VarxSpec())
        resid = np.zeros((design.T_eff, 1))
        resid[:nonzero_rows, 0] = 1.0
        model = vx.VarxModel(
            names=("x0",),
            endogenous_lags=1,
            exogenous_lags=4,
            contemporaneous_shock=True,
            intercept=np.zeros(1),
            endo_coefs=np.array([[[0.5]]]),
            exog_coefs=np.zeros((5, 1)),
            residuals=resid,
            sigma=np.zeros((1, 1)),
            stderr=np.zeros((design.m, 1)),
        )
        return model, design

    def test_rank_deficient_replications_are_dropped_and_counted(self):
        model, design = self._sparse_residual_model(nonzero_rows=4)
        spec = vx.VarxSpec(bootstrap_reps=400, seed=2)
        bands = assert_matches_scalar(model, design, spec)
        assert 0 < bands.dropped <= 0.05 * spec.bootstrap_reps

    def test_too_many_failures_abort(self):
        model, design = self._sparse_residual_model(nonzero_rows=1)
        spec = vx.VarxSpec(bootstrap_reps=100, seed=2)
        failures = scalar_bootstrap(model, design, spec)[2]
        assert failures > 5
        with pytest.raises(
            vx.VarxError, match=f"bootstrap aborted: {failures} of 100 replications failed re-estimation"
        ):
            vx.bootstrap_bands(model, design, spec)


class TestChunksAndDraws:
    """Chunk size and the cached resampled rows leave the bands unchanged."""

    @staticmethod
    def _cases():
        spec = vx.VarxSpec(bootstrap_reps=150, seed=4)
        design = vx.build_design(pipeline_data("components"), spec)
        yield vx.estimate(design), design, spec
        model, design = TestBatchedBootstrap._sparse_residual_model(nonzero_rows=4)
        yield model, design, vx.VarxSpec(bootstrap_reps=400, seed=2)

    @staticmethod
    def _count_calls(monkeypatch, module, name):
        calls = []
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_bands_do_not_depend_on_chunk_size(self, monkeypatch):
        solves = self._count_calls(monkeypatch, vx, "_solve_full_rank")
        for model, design, spec in self._cases():
            reps, per_rep = spec.bootstrap_reps, design.T_eff * (design.m + design.data.k) * 8
            results = []
            for budget, passes in ((per_rep, reps), (per_rep * 7, -(-reps // 7)), (per_rep * reps, 1)):
                monkeypatch.setattr(vx, "_CHUNK_BYTES", budget)
                vx._resample_rows.cache_clear()
                solves.clear()
                results.append(vx.bootstrap_bands(model, design, spec))
                assert len(solves) == passes
            for bands in results[1:]:
                assert np.array_equal(bands.lower, results[0].lower)
                assert np.array_equal(bands.upper, results[0].upper)
                assert bands.dropped == results[0].dropped
        assert results[0].dropped > 0

    def test_rows_are_drawn_once_per_seed_reps_and_sample_length(self, monkeypatch):
        model, design, spec = next(self._cases())
        vx._resample_rows.cache_clear()
        draws = self._count_calls(monkeypatch, np.random, "default_rng")
        first = vx.bootstrap_bands(model, design, spec)
        assert len(draws) == spec.bootstrap_reps
        rows = vx._resample_rows(spec.seed, spec.bootstrap_reps, design.T_eff)
        assert rows.shape == (spec.bootstrap_reps, design.T_eff) and rows.dtype == np.uint8
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0
        for r in (0, 1, spec.bootstrap_reps - 1):
            want = np.random.default_rng((spec.seed, r)).integers(0, design.T_eff, design.T_eff)
            assert np.array_equal(rows[r], want)
        draws.clear()
        again = vx.bootstrap_bands(model, design, spec)
        assert draws == [] and vx._resample_rows(spec.seed, spec.bootstrap_reps, design.T_eff) is rows
        assert np.array_equal(again.lower, first.lower) and np.array_equal(again.upper, first.upper)

        shorter = vx.build_design(vx.subsample(design.data, design.data.quarters[1], design.data.quarters[-1]), spec)
        vx.bootstrap_bands(vx.estimate(shorter), shorter, spec)
        assert draws == [((spec.seed, r),) for r in range(spec.bootstrap_reps)]
        draws.clear()
        vx.bootstrap_bands(model, design, vx.VarxSpec(bootstrap_reps=spec.bootstrap_reps, seed=spec.seed + 1))
        assert draws == [((spec.seed + 1, r),) for r in range(spec.bootstrap_reps)]


class TestSubsample:
    def _data(self, T=60):
        rng = np.random.default_rng(8)
        return make_data(rng.normal(size=(T, 2)), rng.normal(size=T), start="2000Q1")

    def test_restriction(self):
        data = self._data()
        sub = vx.subsample(data, "2003Q1", "2007Q4")
        assert sub.quarters[0] == "2003Q1"
        assert sub.quarters[-1] == "2007Q4"
        assert sub.T == 20

    def test_start_after_end(self):
        with pytest.raises(vx.VarxError, match="after"):
            vx.subsample(self._data(), "2005Q1", "2004Q1")

    def test_no_intersection(self):
        with pytest.raises(vx.VarxError, match="intersect"):
            vx.subsample(self._data(), "1990Q1", "1991Q4")

    def test_commutes_with_build_design(self):
        data = self._data()
        sub = vx.subsample(data, "2002Q1", "2010Q4")
        direct = vx.build_design(sub, vx.VarxSpec())
        pre = vx.TimeSeriesData(sub.quarters, sub.X, sub.d, sub.names)
        again = vx.build_design(pre, vx.VarxSpec())
        assert np.array_equal(direct.Z, again.Z)
        assert np.array_equal(direct.Y, again.Y)

    def test_split_counts_reflect_own_trimming(self):
        data = self._data(81)
        spec = vx.VarxSpec()
        pre = vx.subsample(data, "2000Q1", "2007Q4")
        post = vx.subsample(data, "2009Q1", "2020Q1")
        assert vx.build_design(pre, spec).T_eff == pre.T - 4
        assert vx.build_design(post, spec).T_eff == post.T - 4


class TestIrfCsv:
    def test_round_trip(self, tmp_path):
        model, design = (None, None)
        rng = np.random.default_rng(2)
        d = rng.normal(size=81)
        X = vx.simulate_varx(
            [0.0, 0.0],
            [[[0.5, 0.0], [0.1, 0.4]]],
            np.vstack([[1.0, 0.3], np.zeros((4, 2))]),
            d,
            noise_sd=0.2,
            rng=rng,
        )
        design = vx.build_design(make_data(X, d, names=("total", "between")), vx.VarxSpec())
        model = vx.estimate(design)
        irf = vx.bootstrap_bands(model, design, vx.VarxSpec(bootstrap_reps=100, seed=0))
        path = tmp_path / "irf.csv"
        vx.write_irf_csv(irf, path)
        back = vx.read_irf_csv(str(path))
        assert back.names == irf.names
        assert np.allclose(back.point, irf.point, rtol=1e-9)
        assert np.allclose(back.lower, irf.lower, rtol=1e-9)


class TestIrfCsvValidation:
    HEADER = "horizon,variable,point,lower,upper\n"

    def test_rejects_duplicate_entry(self):
        text = self.HEADER + "0,total,1,0,2\n1,total,1,0,2\n0,total,5,4,6\n"
        with pytest.raises(vx.VarxError, match="row 4: duplicate entry for horizon 0, variable total"):
            vx.read_irf_csv(io.StringIO(text))

    def test_rejects_bad_header(self):
        with pytest.raises(vx.VarxError, match="header"):
            vx.read_irf_csv(io.StringIO("h,variable,point,lower,upper\n0,total,1,0,2\n"))
