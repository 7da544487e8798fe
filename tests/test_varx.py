"""Tests for VARX estimation, dynamic multipliers, and bootstrap bands."""

import dataclasses
import functools
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wageineq import panel as pn
from wageineq import varx as vx
from wageineq.fixtures import synthetic_shock_series, synthetic_wage_panel


def make_data(X, d, names=(), start="1980Q1"):
    return vx.TimeSeriesData(pn.parse_quarter(start), X, d, names)


def univariate_model(b=0.5, c0=1.0, q=4, resid_len=40):
    """Hand-built model x_t = b x_{t-1} + c0 d_t with zero residuals."""
    exog = np.zeros((q + 1, 1))
    exog[0, 0] = c0
    return vx.VarxModel(
        intercept=np.zeros(1),
        endo_coefs=np.array([[[b]]]),
        exog_coefs=exog,
        residuals=np.zeros((resid_len, 1)),
        sigma=np.zeros((1, 1)),
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
            {"seed": -1},
            {"seed": 1.5},
            {"endogenous_lags": 1.5},
            {"exogenous_lags": 2.5},
            {"horizon": 2.5},
            {"bootstrap_reps": 150.5},
            {"horizon": "10"},
            {"shock_size": float("nan")},
            {"shock_size": float("inf")},
            {"shock_size": -float("inf")},
            {"shock_size": "0.25"},
            {"endogenous_lags": True},
            {"exogenous_lags": False},
            {"horizon": True},
            {"seed": True},
            {"shock_size": True},
            {"contemporaneous_shock": "no"},
            {"contemporaneous_shock": 1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(vx.VarxError) as exc:
            vx.VarxSpec(**kwargs)
        assert next(iter(kwargs)) in str(exc.value)

    def test_bool_is_no_integer(self):
        with pytest.raises(vx.VarxError, match="^endogenous_lags must be an integer >= 1, not True$"):
            vx.VarxSpec(endogenous_lags=True)

    def test_numpy_scalars_accepted(self):
        spec = vx.VarxSpec(endogenous_lags=np.int64(2), contemporaneous_shock=np.False_, shock_size=np.float32(0.5))
        assert spec.endogenous_lags == 2 and not spec.contemporaneous_shock and spec.shock_size == 0.5

    @pytest.mark.parametrize("shock_size", [0, -0.0, np.float64(0)])
    def test_zero_shock_size(self, shock_size):
        with pytest.raises(vx.VarxError, match="^shock_size 0 moves nothing; every response would be zero$"):
            vx.VarxSpec(shock_size=shock_size)

    def test_no_shock_term(self):
        message = "^exogenous_lags 0 with contemporaneous_shock False leaves the model no shock term$"
        with pytest.raises(vx.VarxError, match=message):
            vx.VarxSpec(exogenous_lags=0, contemporaneous_shock=False)

    def test_shock_rules_are_checked_last_shock_size_first(self):
        with pytest.raises(vx.VarxError, match="^shock_size 0 moves nothing"):
            vx.VarxSpec(shock_size=0.0, exogenous_lags=0, contemporaneous_shock=False)
        with pytest.raises(vx.VarxError, match="^horizon must be an integer >= 1, not 0$"):
            vx.VarxSpec(horizon=0, shock_size=0.0, exogenous_lags=0, contemporaneous_shock=False)

    def test_seed_beyond_64_bits(self):
        design = vx.build_design(pipeline_data("total"), vx.VarxSpec(bootstrap_reps=100, seed=2**64 + 5))
        bands = assert_matches_scalar(vx.estimate(design), design)
        assert np.all(bands.lower <= bands.point) and np.all(bands.point <= bands.upper)


class TestBuildDesign:
    def test_row_count_81_quarters(self):
        # p=1, q=4: the first max(1,4)=4 quarters have unavailable lags
        rng = np.random.default_rng(0)
        data = make_data(rng.normal(size=81), rng.normal(size=81))
        design = vx.build_design(data, vx.VarxSpec())
        assert design.T_eff == 77
        assert design.m == 1 + 1 + 1 + 4  # const, lag, d_t, d_{t-1..t-4}

    def test_regressor_count_no_contemporaneous_no_exo_lags(self):
        # a model needs a shock term (TestSpec.test_no_shock_term), so q = 0 keeps d_t
        rng = np.random.default_rng(0)
        k = 3
        data = make_data(rng.normal(size=(40, k)), rng.normal(size=40))
        design = vx.build_design(data, vx.VarxSpec(exogenous_lags=0))
        assert design.m == 1 + k + 1
        assert design.columns[-1] == "shock.lag0"

    def test_lag_alignment(self):
        X = np.arange(10.0)
        d = np.arange(10.0) * 10
        design = vx.build_design(make_data(X, d), vx.VarxSpec(exogenous_lags=2))
        # first usable row is t=2: [1, X_1, d_2, d_1, d_0]
        assert list(design.Z[0]) == [1.0, 1.0, 20.0, 10.0, 0.0]
        assert design.Y[0, 0] == 2.0
        assert design.columns == ("const", "x0.lag1", "shock.lag0", "shock.lag1", "shock.lag2")

    def test_too_short(self):
        """build_design only builds, down to 0 rows for a sample no longer than its max(p, q) = 4 lags;
        estimate's floor alone rejects a short sample, naming its span."""
        for T, last, rows in [(7, "1981Q3", 3), (3, "1980Q3", 0), (4, "1980Q4", 0)]:
            design = vx.build_design(make_data(np.arange(T, dtype=float), np.zeros(T)), vx.VarxSpec())
            assert design.Z.shape == (rows, 7) and design.Y.shape == (rows, 1)
            message = f"^sample 1980Q1..{last}: effective sample of {rows} rows is below the floor of 17 for 7 regressors$"
            with pytest.raises(vx.VarxError, match=message):
                vx.estimate(design)


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
        Y = rng.normal(size=(T, 2))
        spec = vx.VarxSpec(exogenous_lags=1)
        columns = ("const", "x0.lag1", "x1.lag1", "shock.lag0", "shock.lag1")
        design = vx.Design(make_data(Y, np.zeros(T)), spec, Z, Y, columns)
        if deficient:
            with pytest.raises(vx.RankError, match="^design matrix is rank deficient at column 'shock.lag1'$"):
                vx.estimate(design)
        else:
            assert vx.estimate(design).exog_coefs.shape == (2, 2)

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
        message = "^sample 1980Q1..1984Q2: effective sample of 14 rows is below the floor of 17 for 7 regressors$"
        with pytest.raises(vx.VarxError, match=message):
            vx.estimate(vx.build_design(data, vx.VarxSpec()))


class TestDynamicMultipliers:
    def test_geometric_closed_form(self):
        model = univariate_model(b=0.5, c0=1.0)
        psi = vx.dynamic_multipliers(model, 10, 1.0)
        assert psi.shape == (11, 1)
        assert np.allclose(psi[:, 0], 0.5 ** np.arange(11), atol=1e-12)

    def test_all_zero_coefficients(self):
        model = univariate_model(b=0.0, c0=0.0)
        assert np.all(vx.dynamic_multipliers(model, 10, -0.25) == 0.0)

    def test_linearity_in_shock_size(self):
        model = univariate_model(b=0.7, c0=2.0)
        unit = vx.dynamic_multipliers(model, 10, 1.0)
        quarter_cut = vx.dynamic_multipliers(model, 10, -0.25)
        assert np.array_equal(quarter_cut, -0.25 * unit)

    def test_zero_shock_size(self):
        model = univariate_model()
        assert np.all(vx.dynamic_multipliers(model, 10, 0.0) == 0.0)

    def test_no_contemporaneous_term(self):
        model = univariate_model()
        model = vx.VarxModel(**{**model.__dict__, "exog_coefs": np.array([[0.0], [1.0], [0.0], [0.0], [0.0]])})
        psi = vx.dynamic_multipliers(model, 10, 1.0)
        assert psi[0, 0] == 0.0
        assert psi[1, 0] == 1.0

    def test_stability_decay(self):
        rng = np.random.default_rng(12)
        d = rng.normal(size=300)
        B = np.array([[[0.6, 0.2], [0.1, 0.5]]])
        C = np.zeros((5, 2))
        C[0] = [1.0, 0.5]
        X = vx.simulate_varx([0.0, 0.0], B, C, d, noise_sd=0.2, rng=rng)
        model = vx.estimate(vx.build_design(make_data(X, d), vx.VarxSpec()))
        assert vx.companion_spectral_radius(model) < 1.0
        mags = np.abs(vx.dynamic_multipliers(model, 40, 1.0)).max(axis=1)
        peak = int(np.argmax(mags[5:])) + 5  # past the exogenous lag window
        assert mags[-1] < mags[peak] or np.isclose(mags[-1], 0.0, atol=1e-12)


def lag_model(endo_coefs):
    """Hand-built model with autoregressive matrices ``endo_coefs`` (p, k, k) and no other term."""
    k = endo_coefs.shape[-1]
    return vx.VarxModel(np.zeros(k), endo_coefs, np.zeros((1, k)), np.zeros((20, k)), np.zeros((k, k)))


class TestCompanionSpectralRadius:
    def test_ar2_largest_root(self):
        # x_t = 1.1 x_{t-1} - 0.3 x_{t-2}: z^2 - 1.1 z + 0.3 = (z - 0.6)(z - 0.5)
        model = lag_model(np.array([[[1.1]], [[-0.3]]]))
        assert vx.companion_spectral_radius(model) == pytest.approx(0.6, abs=1e-12)

    def test_matches_a_companion_built_lag_by_lag(self):
        endo = np.random.default_rng(4).normal(scale=0.4, size=(3, 2, 2))
        comp = np.zeros((6, 6))  # [B_1 B_2 B_3] over the identity that shifts the lags down
        for j in range(3):
            comp[:2, 2 * j : 2 * j + 2] = endo[j]
        comp[2:, :-2] = np.eye(4)
        assert vx.companion_spectral_radius(lag_model(endo)) == float(np.abs(np.linalg.eigvals(comp)).max())


def per_lag_recurse(X, endo_coefs, drive, start):
    """The recursion as p stacked products per step: the reference for _recurse."""
    for i, t in enumerate(range(start, X.shape[-2])):
        x = drive[..., i, :]
        for j in range(1, endo_coefs.shape[-3] + 1):
            x = x + (endo_coefs[..., j - 1, :, :] @ X[..., t - j, :, None])[..., 0]
        X[..., t, :] = x
    return X


class TestRecurse:
    """One window product per step against the per-lag loop."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_matches_per_lag_loop(self, p, k, shared, transposed):
        rng = np.random.default_rng(100 * p + 10 * k + shared)
        n, T = 7, 40
        shape = (p, k, k) if shared else (n, p, k, k)
        B = rng.normal(0.0, 0.4 / (p * k), size=shape)
        if transposed:  # the row-equation view _unpack hands out
            B = np.ascontiguousarray(B.swapaxes(-1, -2)).swapaxes(-1, -2)
        X0 = rng.normal(size=(n, p + T, k))
        for in_place in (True, False):
            got, want = X0.copy(), X0.copy()
            drive = None if in_place else rng.normal(size=(n, T, k))
            vx._recurse(got, B, got[:, p:] if in_place else drive, p)
            per_lag_recurse(want, B, want[:, p:] if in_place else drive, p)
            if p == 1:
                assert np.array_equal(got, want)
            else:  # p products summed in another order: float64 rounding only
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("p", [1, 3])
    def test_one_unbatched_path(self, p):
        # simulate_varx's case: no leading axes
        rng = np.random.default_rng(8)
        B = rng.normal(0.0, 0.2, size=(p, 2, 2))
        X0 = rng.normal(size=(p + 30, 2))
        got, want = X0.copy(), X0.copy()
        drive = rng.normal(size=(30, 2))
        vx._recurse(got, B, drive, p)
        per_lag_recurse(want, B, drive, p)
        if p == 1:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


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
    def _fit(self, spec, T=81, noise_sd=0.2, seed=21, c0=1.0):
        rng = np.random.default_rng(seed)
        d = rng.normal(size=T)
        C = np.zeros((5, 1))
        C[0, 0] = c0
        C[1, 0] = 0.4
        X = vx.simulate_varx([0.0], [[[0.6]]], C, d, noise_sd=noise_sd, rng=rng)
        design = vx.build_design(make_data(X, d), spec)
        return vx.estimate(design), design

    def test_same_seed_identical(self):
        model, design = self._fit(vx.VarxSpec(bootstrap_reps=100, seed=77))
        a = vx.bootstrap_bands(model, design)
        b = vx.bootstrap_bands(model, design)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)

    def test_different_seed_differs(self):
        a = vx.bootstrap_bands(*self._fit(vx.VarxSpec(bootstrap_reps=100, seed=1)))
        b = vx.bootstrap_bands(*self._fit(vx.VarxSpec(bootstrap_reps=100, seed=2)))
        assert not np.array_equal(a.lower, b.lower)

    def test_zero_residuals_collapse_to_point(self):
        rng = np.random.default_rng(13)
        d = rng.normal(size=81)
        C = np.zeros((5, 1))
        C[0, 0] = 1.0
        X = vx.simulate_varx([0.0], [[[0.5]]], C, d, noise_sd=0.0, rng=rng)
        design = vx.build_design(make_data(X, d), vx.VarxSpec(bootstrap_reps=100, seed=0))
        bands = vx.bootstrap_bands(vx.estimate(design), design)
        assert np.allclose(bands.lower, bands.point, atol=1e-8)
        assert np.allclose(bands.upper, bands.point, atol=1e-8)

    def test_band_ordering(self):
        bands = vx.bootstrap_bands(*self._fit(vx.VarxSpec(bootstrap_reps=100, seed=5)))
        assert np.all(bands.lower <= bands.point)
        assert np.all(bands.point <= bands.upper)

    def test_wider_noise_wider_bands(self):
        spec = vx.VarxSpec(bootstrap_reps=200, seed=9)
        lo = vx.bootstrap_bands(*self._fit(spec, noise_sd=0.1, seed=30))
        hi = vx.bootstrap_bands(*self._fit(spec, noise_sd=0.5, seed=30))
        assert (hi.upper - hi.lower).mean() > (lo.upper - lo.lower).mean()

    def test_percentile_bands_contain_point(self):
        bands = vx.bootstrap_bands(*self._fit(vx.VarxSpec(bootstrap_reps=200, seed=3, band_method="percentile")))
        assert np.all(bands.lower <= bands.point)
        assert np.all(bands.point <= bands.upper)
        assert np.any(bands.upper > bands.lower)

    def test_band_overflow_is_an_error(self):
        # the point, about 1e300, is finite; the bootstrap SD squares it past float's range
        model, design = self._fit(vx.VarxSpec(bootstrap_reps=100, seed=5, shock_size=1e300))
        message = r"^response of x0 at horizon 0 is not finite: point \S+e\+300, lower -inf, upper inf$"
        with pytest.raises(vx.VarxError, match=message):
            vx.bootstrap_bands(model, design)
        percentile = rebuilt(design, band_method="percentile")
        bands = vx.bootstrap_bands(vx.estimate(percentile), percentile)
        assert np.isfinite((bands.point, bands.lower, bands.upper)).all()

    def test_point_overflow_is_an_error(self):
        # an explosive fit: 1.2**h passes float's range long before horizon 5000
        rng = np.random.default_rng(8)
        d = rng.normal(size=81)
        C = np.zeros((5, 1))
        C[0, 0] = 1.0
        X = vx.simulate_varx([0.0], [[[1.2]]], C, d, noise_sd=0.2, rng=rng)
        design = vx.build_design(make_data(X, d), vx.VarxSpec(bootstrap_reps=100, horizon=5000))
        model = vx.estimate(design)
        assert vx.companion_spectral_radius(model) > 1.1
        with np.errstate(over="ignore"):
            assert not np.isfinite(vx.dynamic_multipliers(model, 5000, -0.25)[-1]).all()
        with pytest.raises(vx.VarxError, match=r"^response of x0 at horizon \d+ is not finite: "):
            vx.bootstrap_bands(model, design)


def scalar_bootstrap(model, design):
    """The per-replication bootstrap loop over ``design.spec``: the reference for the batched one.

    Regenerates, re-estimates and recomputes the multipliers one replication
    at a time. Returns the lower and upper bands, each replication's fitted
    coefficients (reps, m, k) in ``design.columns`` order, NaN where the
    refit failed, and the (reps,) mask of the refits that succeeded.
    """
    data, spec = design.data, design.spec
    p, q, k = spec.endogenous_lags, spec.exogenous_lags, data.k
    point = vx.dynamic_multipliers(model, spec.horizon, spec.shock_size)
    draws = []
    coefs, kept = np.full((spec.bootstrap_reps, design.m, k), np.nan), np.zeros(spec.bootstrap_reps, bool)
    for rep in range(spec.bootstrap_reps):
        rows = np.random.default_rng((spec.seed, rep)).integers(0, design.T_eff, size=design.T_eff)
        Xb = data.X.copy()
        for i, t in enumerate(range(design.offset, data.T)):
            x = model.intercept + model.residuals[rows[i]]
            for j in range(1, p + 1):
                x = x + model.endo_coefs[j - 1] @ Xb[t - j]
            if spec.contemporaneous_shock:
                x = x + model.exog_coefs[0] * data.d[t]
            for j in range(1, q + 1):
                x = x + model.exog_coefs[j] * data.d[t - j]
            Xb[t] = x
        boot = vx.TimeSeriesData(data.first, Xb, data.d, data.names)
        try:
            fit = vx.estimate(vx.build_design(boot, spec))
        except (vx.VarxError, np.linalg.LinAlgError):
            continue
        kept[rep] = True
        # the design's columns: the constant, lag j's k columns for j = 1..p, then the shock columns
        exog_rows = fit.exog_coefs[0 if spec.contemporaneous_shock else 1 :]
        coefs[rep] = np.vstack((fit.intercept, fit.endo_coefs.swapaxes(-1, -2).reshape(p * k, k), exog_rows))
        draws.append(vx.dynamic_multipliers(fit, spec.horizon, spec.shock_size))
    stack = np.array(draws)
    if spec.band_method == "sd":
        sd = stack.std(axis=0, ddof=1)
        return point - sd, point + sd, coefs, kept
    lower = np.minimum(np.percentile(stack, 15.87, axis=0), point)
    upper = np.maximum(np.percentile(stack, 84.13, axis=0), point)
    return lower, upper, coefs, kept


def assert_matches_scalar(model, design):
    lower, upper, coefs, kept = scalar_bootstrap(model, design)
    draws, drawn = vx._bootstrap_draws(model, design)
    assert np.array_equal(drawn, kept)
    np.testing.assert_allclose(draws[kept], coefs[kept], rtol=0, atol=1e-10)
    assert np.isnan(draws[~kept]).all()
    bands = vx.bootstrap_bands(model, design)
    np.testing.assert_allclose(bands.lower, lower, rtol=0, atol=1e-12)
    np.testing.assert_allclose(bands.upper, upper, rtol=0, atol=1e-12)
    assert bands.dropped == design.spec.bootstrap_reps - kept.sum()
    return bands


def rebuilt(design, **changes):
    """``design``'s data under its spec with ``changes``: the same regressors, other bootstrap settings."""
    return vx.build_design(design.data, dataclasses.replace(design.spec, **changes))


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
    return vx.TimeSeriesData(panel.first, X, synthetic_shock_series(panel.quarters).values, names)


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
        design = vx.build_design(pipeline_data(target, n_quarters), vx.VarxSpec(**spec_kwargs))
        bands = assert_matches_scalar(vx.estimate(design), design)
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
        assume(q > 0 or contemporaneous)  # a model needs a shock term
        rng = np.random.default_rng(seed)
        B = rng.normal(0.0, 0.05, size=(p, k, k))
        B[0] += np.diag(rng.uniform(-0.5, 0.5, size=k))
        C = rng.normal(size=(q + 1, k))
        if not contemporaneous:
            C[0] = 0.0
        d = rng.normal(size=80)
        X = vx.simulate_varx(rng.normal(size=k), B, C, d, noise_sd=0.3, rng=rng)
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
        assert_matches_scalar(vx.estimate(design), design)

    @staticmethod
    def _sparse_residual_model(spec, nonzero_rows, level=0.0, b=0.5):
        """Univariate model, with its design under ``spec`` (p = 1, q = 4), whose
        regenerated sample stays exactly at ``level`` (the data and the
        intercept) until a draw hits one of its ``nonzero_rows`` nonzero
        residuals; ``b`` is the lag coefficient.

        An all-zero lag column makes that replication's design rank deficient,
        and so does a constant one.
        """
        rng = np.random.default_rng(17)
        design = vx.build_design(make_data(np.full(81, level), rng.normal(size=81)), spec)
        resid = np.zeros((design.T_eff, 1))
        resid[:nonzero_rows, 0] = 1.0
        model = vx.VarxModel(
            intercept=np.full(1, level),
            endo_coefs=np.array([[[b]]]),
            exog_coefs=np.zeros((5, 1)),
            residuals=resid,
            sigma=np.zeros((1, 1)),
        )
        return model, design

    def test_rank_deficient_replications_are_dropped_and_counted(self):
        model, design = self._sparse_residual_model(vx.VarxSpec(bootstrap_reps=400, seed=2), nonzero_rows=4)
        bands = assert_matches_scalar(model, design)
        assert 0 < bands.dropped <= 0.05 * design.spec.bootstrap_reps

    def test_lag_column_collinear_with_the_constant_is_dropped(self):
        # x = 1 + residual: a replication that draws no nonzero residual has a
        # nonzero lag column equal to the constant column, which is partialled out
        spec = vx.VarxSpec(bootstrap_reps=400, seed=2)
        model, design = self._sparse_residual_model(spec, nonzero_rows=4, level=1.0, b=0.0)
        bands = assert_matches_scalar(model, design)
        assert bands.dropped == 5

    def test_deficient_shock_columns_fail_every_replication(self):
        # an all-zero shock path leaves the fixed columns [const | shock lags] deficient
        model, design = self._sparse_residual_model(vx.VarxSpec(bootstrap_reps=100, seed=2), nonzero_rows=40)
        data = design.data
        design = vx.build_design(vx.TimeSeriesData(data.first, data.X, np.zeros(data.T), data.names), design.spec)
        with pytest.raises(vx.RankError):
            vx.estimate(design)
        with pytest.raises(vx.VarxError, match="bootstrap aborted: 100 of 100 replications"):
            vx.bootstrap_bands(model, design)

    def test_too_many_failures_abort(self):
        model, design = self._sparse_residual_model(vx.VarxSpec(bootstrap_reps=100, seed=2), nonzero_rows=1)
        failures = design.spec.bootstrap_reps - scalar_bootstrap(model, design)[3].sum()
        assert failures > 5
        with pytest.raises(
            vx.VarxError, match=f"bootstrap aborted: {failures} of 100 replications failed re-estimation"
        ):
            vx.bootstrap_bands(model, design)


class TestChunksAndDraws:
    """Pass sizes and the cached resampled rows leave the bands unchanged."""

    @staticmethod
    def _cases():
        design = vx.build_design(pipeline_data("components"), vx.VarxSpec(bootstrap_reps=150, seed=4))
        yield vx.estimate(design), design
        yield TestBatchedBootstrap._sparse_residual_model(vx.VarxSpec(bootstrap_reps=400, seed=2), nonzero_rows=4)
        spec = vx.VarxSpec(bootstrap_reps=150, seed=6, endogenous_lags=2)  # p = 2, k = 5: the window product
        design = vx.build_design(pipeline_data("control", 168), spec)
        yield vx.estimate(design), design

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
        solves = self._count_calls(monkeypatch, vx, "_solve_lags")
        recursions = self._count_calls(monkeypatch, vx, "_recurse")
        draws, inner = [], vx._bootstrap_draws  # what each bootstrap_bands call drew
        monkeypatch.setattr(vx, "_bootstrap_draws", lambda *args: draws.append(inner(*args)) or draws[-1])
        dropped = []
        for model, design in self._cases():
            p, T_eff, reps = design.spec.endogenous_lags, design.T_eff, design.spec.bootstrap_reps
            results = []
            draws.clear()
            # (replications per regeneration pass, per refit), varied independently
            for regen, refit in ((1, 1), (reps, 1), (7, 7), (7, 3), (reps, 11), (reps, reps), (13, 5)):
                monkeypatch.setattr(vx, "_pass_sizes", lambda *args, sizes=(regen, refit): sizes)
                vx._resample_rows.cache_clear()
                solves.clear()
                recursions.clear()
                results.append(vx.bootstrap_bands(model, design))
                passes = [min(regen, reps - first) for first in range(0, reps, regen)]
                assert sum(X.shape[-2] == p + T_eff for X, *_ in recursions) == len(passes)
                assert len(solves) == sum(-(-n // refit) for n in passes)
            for bands in results[1:]:
                assert np.array_equal(bands.lower, results[0].lower)
                assert np.array_equal(bands.upper, results[0].upper)
                assert bands.dropped == results[0].dropped
            (coefs, kept), *others = draws
            for other, other_kept in others:
                assert np.array_equal(other_kept, kept)
                assert np.array_equal(other[other_kept], coefs[kept])
            dropped.append(results[0].dropped)
        assert dropped[1] > 0

    def test_more_reps_extend_the_draws(self):
        dropped = []
        for model, design in self._cases():
            coefs, kept = vx._bootstrap_draws(model, rebuilt(design, bootstrap_reps=150))
            more, more_kept = vx._bootstrap_draws(model, rebuilt(design, bootstrap_reps=300))
            assert np.array_equal(more_kept[:150], kept)
            assert np.array_equal(more[:150][kept], coefs[kept])
            dropped.append(150 - kept.sum())
        assert dropped[1] > 0

    @pytest.mark.parametrize(
        "target,n_quarters,p,sizes",
        [("total", 81, 1, (1680, 425)), ("components", 81, 1, (420, 106)), ("control", 168, 2, (157, 26))],
    )
    def test_pass_sizes_fill_half_the_budget_each(self, monkeypatch, target, n_quarters, p, sizes):
        spec = vx.VarxSpec(endogenous_lags=p, bootstrap_reps=2000)
        design = vx.build_design(pipeline_data(target, n_quarters), spec)
        k, T_eff = design.data.k, design.T_eff
        assert vx._pass_sizes(2000, p, k, T_eff) == sizes
        path, V = 8 * (p + T_eff) * k, 8 * T_eff * (p * k + k)  # bytes per replication
        for budget in (1, path + 2 * V, 10 * (path + 2 * V), vx._CHUNK_BYTES):
            monkeypatch.setattr(vx, "_CHUNK_BYTES", budget)
            regen, refit = vx._pass_sizes(2000, p, k, T_eff)
            assert 1 <= refit <= regen
            if regen > 1:
                assert regen * path <= budget // 2 < (regen + 1) * path
            if refit > 1:
                assert 2 * refit * V <= budget // 2 < 2 * (refit + 1) * V
        assert vx._pass_sizes(50, p, k, T_eff) == (50, min(50, sizes[1]))

    def test_rows_are_drawn_once_per_seed_reps_and_sample_length(self, monkeypatch):
        model, design = next(self._cases())
        spec, reps = design.spec, design.spec.bootstrap_reps
        vx._resample_rows.cache_clear()
        kernel = self._count_calls(monkeypatch, vx, "_stream_integers")
        first = vx.bootstrap_bands(model, design)
        assert kernel == [(spec.seed, reps, design.T_eff, design.T_eff)]
        rows = vx._resample_rows(spec.seed, reps, design.T_eff)
        assert rows.shape == (reps, design.T_eff) and rows.dtype == np.uint8
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0
        assert_rows_are_streams(rows, spec.seed, design.T_eff)
        kernel.clear()
        again = vx.bootstrap_bands(model, design)
        assert kernel == [] and vx._resample_rows(spec.seed, reps, design.T_eff) is rows
        assert np.array_equal(again.lower, first.lower) and np.array_equal(again.upper, first.upper)

        shorter = vx.build_design(vx.subsample(design.data, design.data.quarters[1], design.data.quarters[-1]), spec)
        vx.bootstrap_bands(vx.estimate(shorter), shorter)
        assert kernel == [(spec.seed, reps, shorter.T_eff, shorter.T_eff)]
        kernel.clear()
        vx.bootstrap_bands(model, rebuilt(design, seed=spec.seed + 1))
        assert kernel == [(spec.seed + 1, reps, design.T_eff, design.T_eff)]
        assert vx._resample_rows.cache_info().misses == 3


def stacked_multipliers(endo, exog, horizon, shock_size):
    """Responses (..., H+1, k) from one recursion over every horizon at once: the reference for _responses."""
    lead, p, k = exog.shape[:-2], endo.shape[-3], exog.shape[-1]
    drive = np.zeros(lead + (horizon + 1, k))
    drive[..., : exog.shape[-2], :] = exog[..., : horizon + 1, :] * shock_size
    return vx._recurse(np.zeros(lead + (p + horizon + 1, k)), endo, drive, p)[..., p:, :]


def whole_stack_bands(model, design):
    """Point, lower and upper bands reduced over the kept replications' whole (reps, H+1, k) responses at once.

    The reference for bootstrap_bands, which reduces one horizon at a time.
    """
    spec = design.spec
    coefs, kept = vx._bootstrap_draws(model, design)
    _, endo, exog = vx._unpack(coefs[kept], design)
    point = stacked_multipliers(model.endo_coefs, model.exog_coefs, spec.horizon, spec.shock_size)
    stack = stacked_multipliers(endo, exog, spec.horizon, spec.shock_size)
    if spec.band_method == "sd":
        sd = stack.std(axis=0, ddof=1)
        return point, point - sd, point + sd
    lower, upper = np.percentile(stack, (15.87, 84.13), axis=0)
    return point, np.minimum(lower, point), np.maximum(upper, point)


def assert_matches_whole_stack(model, design):
    bands = vx.bootstrap_bands(model, design)
    point, lower, upper = whole_stack_bands(model, design)
    assert np.array_equal(bands.point, point)
    if design.spec.band_method == "sd" and design.data.k == 1:
        # numpy sums a contiguous (reps, 1) slice pairwise, where it summed the stack's rows in order:
        # the SD may differ in its last bits
        scale = np.abs(upper) + (upper - point)
        for got, want in ((bands.lower, lower), (bands.upper, upper)):
            assert np.all(np.abs(got - want) <= 32 * np.finfo(float).eps * scale)
    else:
        assert np.array_equal(bands.lower, lower)
        assert np.array_equal(bands.upper, upper)


class TestStreamedBands:
    """Bands reduced horizon by horizon against the reductions of the whole stack of responses."""

    @pytest.mark.parametrize(
        "target,n_quarters,spec_kwargs",
        [
            ("total", 81, {}),
            ("total", 81, {"band_method": "percentile"}),
            ("components", 81, {}),
            ("components", 81, {"band_method": "percentile", "horizon": 40}),
            ("control", 168, {"bootstrap_reps": 1000, "endogenous_lags": 2, "band_method": "percentile"}),
            ("control", 168, {"bootstrap_reps": 300, "endogenous_lags": 3, "exogenous_lags": 0, "horizon": 2}),
        ],
    )
    def test_matches_whole_stack(self, target, n_quarters, spec_kwargs):
        design = vx.build_design(pipeline_data(target, n_quarters), vx.VarxSpec(**spec_kwargs))
        assert_matches_whole_stack(vx.estimate(design), design)

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(1, 5),
        p=st.integers(1, 3),
        q=st.integers(0, 4),
        horizon=st.integers(1, 40),
        seed=st.integers(0, 2**16),
        band_method=st.sampled_from(["sd", "percentile"]),
    )
    def test_property_matches_whole_stack(self, k, p, q, horizon, seed, band_method):
        data = control_data()
        data = vx.TimeSeriesData(data.first, data.X[:, :k], data.d, data.names[:k])
        spec = vx.VarxSpec(endogenous_lags=p, exogenous_lags=q, horizon=horizon, bootstrap_reps=100, seed=seed,
                           band_method=band_method)
        design = vx.build_design(data, spec)
        assert_matches_whole_stack(vx.estimate(design), design)

    @pytest.mark.parametrize("p,q,horizon", [(1, 4, 12), (2, 4, 2), (3, 0, 7)])
    def test_responses_are_fresh_arrays(self, p, q, horizon):
        rng = np.random.default_rng(10 * p + q)
        endo, exog = rng.normal(0.0, 0.3, size=(6, p, 3, 3)), rng.normal(size=(6, q + 1, 3))
        responses = list(vx._responses(endo, exog, horizon, -0.25))
        assert len(responses) == horizon + 1
        assert np.array_equal(np.stack(responses, axis=-2), stacked_multipliers(endo, exog, horizon, -0.25))
        for i, response in enumerate(responses):
            assert response.shape == (6, 3) and response.base is None  # not a view of the rolling window
            assert not any(np.shares_memory(response, other) for other in responses[i + 1 :])

    def test_memory_does_not_grow_with_the_horizon(self):
        data = pipeline_data("components")
        peaks = {}
        for horizon in (10, 10, 3000):  # the first run fills the cache of resampled rows
            design = vx.build_design(data, vx.VarxSpec(bootstrap_reps=200, horizon=horizon))
            model = vx.estimate(design)
            tracemalloc.start()
            try:
                vx.bootstrap_bands(model, design)
                peaks[horizon] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # one (200, 3001, 4) stack of responses alone would be 19 MB
        assert peaks[3000] - peaks[10] < 2**20


@functools.lru_cache(maxsize=1)
def control_data():
    """pipeline_data("control", 168), built once: its first k columns are a k-variable system."""
    return pipeline_data("control", 168)


def assert_rows_are_streams(rows, seed, bound):
    """Row r must equal numpy's own draw from the stream (seed, r)."""
    for r, row in enumerate(rows):
        assert np.array_equal(row, np.random.default_rng((seed, r)).integers(0, bound, rows.shape[1]))


class TestStreamKernel:
    """The vectorised replica of the default_rng((seed, r)) streams."""

    SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**70 + 3, 2**96 + 11, 2**128 + 1, 2**200 + 3]
    SEED_IDS = ["0", "2^32-1", "2^32", "2^64+5", "2^70+3", "2^96+11", "2^128+1", "2^200+3"]

    @pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
    @pytest.mark.parametrize("T_eff, dtype", [(4, np.uint8), (77, np.uint8), (256, np.uint8), (300, np.uint16)])
    def test_resampled_rows_equal_default_rng(self, monkeypatch, seed, T_eff, dtype):
        vx._resample_rows.cache_clear()
        numpy_draws = TestChunksAndDraws._count_calls(monkeypatch, np.random, "default_rng")
        rows = vx._resample_rows(seed, 30, T_eff)
        assert numpy_draws == []  # no rejections at these bounds, so numpy's generator is never used
        assert rows.shape == (30, T_eff) and rows.dtype == dtype
        monkeypatch.undo()
        assert_rows_are_streams(rows, seed, T_eff)

    @pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
    @pytest.mark.parametrize("bound", [65536, 1_000_003, 2**32])
    def test_wide_bounds(self, seed, bound):
        rows = vx._stream_integers(seed, 20, bound, 9)
        assert rows.dtype == np.min_scalar_type(bound - 1)
        assert_rows_are_streams(rows, seed, bound)

    def test_rejected_draws_fall_back_to_numpy(self, monkeypatch):
        bound, reps = 3 << 30, 60  # a quarter of the draws at this bound are rejected
        numpy_draws = TestChunksAndDraws._count_calls(monkeypatch, np.random, "default_rng")
        rows = vx._stream_integers(7, reps, bound, 4)
        assert 0 < len(numpy_draws) < reps
        redrawn = [args[0][1] for args in numpy_draws if args[0][0] == 7]
        assert redrawn == sorted(set(redrawn)) and len(redrawn) == len(numpy_draws)
        monkeypatch.undo()
        assert_rows_are_streams(rows, 7, bound)


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
        pre = vx.TimeSeriesData(sub.first, sub.X, sub.d, sub.names)
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


class TestFirstQuarterIndex:
    """TimeSeriesData holds its first quarter index; subsample is index arithmetic."""

    @pytest.mark.parametrize("first", [-1, 40000 - 3, 8000.0, "2000Q1"])
    def test_rejects_a_first_index_out_of_range_or_not_an_integer(self, first):
        with pytest.raises(vx.VarxError, match="cannot start at quarter index"):
            vx.TimeSeriesData(first, np.zeros((4, 2)), np.zeros(4))

    def test_rejects_an_empty_run(self):
        with pytest.raises(vx.VarxError, match="^a run of quarters needs one quarter or more, not 0$"):
            vx.TimeSeriesData(8000, np.empty((0, 1)), [])

    def test_last_quarter_index_is_accepted(self):
        assert vx.TimeSeriesData(40000 - 4, np.zeros((4, 2)), np.zeros(4)).quarters[-1] == "9999Q4"

    @pytest.mark.parametrize("X, d", [(np.zeros((4, 2)), np.zeros(5)), (np.zeros((4, 2)), np.zeros((4, 1)))])
    def test_rejects_x_and_d_that_disagree(self, X, d):
        with pytest.raises(vx.VarxError, match="rows but d has shape"):
            vx.TimeSeriesData(8000, X, d)

    def test_one_dimensional_x_is_one_variable(self):
        data = vx.TimeSeriesData(8000, np.arange(5.0), np.zeros(5))
        assert data.X.shape == (5, 1)
        assert data.names == ("x0",)

    @pytest.mark.parametrize("names", [("total",), ("total", "between", "extra")])
    def test_rejects_a_name_count_unlike_x_columns(self, names):
        with pytest.raises(vx.VarxError, match="^one name per endogenous variable required$"):
            vx.TimeSeriesData(8000, np.zeros((4, 2)), np.zeros(4), names)

    def test_one_row_x_is_one_quarter(self):
        with pytest.raises(vx.VarxError, match=r"^X has 1 rows but d has shape \(5,\)$"):
            vx.TimeSeriesData(8000, np.zeros((1, 5)), np.zeros(5))
        assert vx.TimeSeriesData(8000, np.zeros((1, 5)), np.zeros(1)).k == 5

    @pytest.mark.parametrize("shape", [(), (4, 2, 1)])
    def test_rejects_x_of_another_rank(self, shape):
        with pytest.raises(vx.VarxError, match=rf"^X of shape {re.escape(str(shape))} is not \(quarters, variables\)$"):
            vx.TimeSeriesData(8000, np.zeros(shape), np.zeros(4))

    def test_rejects_a_non_finite_x_naming_the_variable_and_quarter(self):
        X = np.zeros((8, 2))
        X[3, 1], X[5, 0] = np.nan, np.inf  # the earlier quarter is named
        with pytest.raises(vx.VarxError, match=r"^between is nan in 2000Q4; every value must be finite$"):
            make_data(X, np.ones(8), names=("total", "between"), start="2000Q1")

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_a_non_finite_shock_naming_the_quarter(self, value):
        d = np.ones(8)
        d[6] = value
        with pytest.raises(vx.VarxError, match=rf"^shock is {value} in 2001Q3; every value must be finite$"):
            make_data(np.zeros((8, 2)), d, start="2000Q1")

    def test_non_numeric_input_is_a_varx_error(self):
        with pytest.raises(vx.VarxError, match="^X must be numeric: could not convert string to float: 'a'$"):
            vx.TimeSeriesData(8000, ["a", "1"], np.zeros(2))
        with pytest.raises(vx.VarxError, match="^shock must be numeric: could not convert string to float: 'a'$"):
            vx.TimeSeriesData(8000, np.zeros(2), ["a", "1"])

    @pytest.mark.parametrize("start, end", [("BADQ3", "2005Q1"), ("2000Q1", "2005Q5"), ("2000Q1", "")])
    def test_subsample_junk_label_is_a_varx_error(self, start, end):
        data = make_data(np.zeros((8, 1)), np.arange(8.0), start="2000Q1")
        with pytest.raises(vx.VarxError, match="quarter"):
            vx.subsample(data, start, end)

    @staticmethod
    def label_subsample(data, start, end):
        """subsample by filtering quarter labels: the reference for the index arithmetic."""
        lo = pn.parse_quarter(data.quarters[0] if start is None else start)
        hi = pn.parse_quarter(data.quarters[-1] if end is None else end)
        if lo > hi:
            return "after"
        return [t for t, q in enumerate(data.quarters) if lo <= pn.parse_quarter(q) <= hi] or "intersect"

    @settings(max_examples=200, deadline=None)
    @given(
        T=st.integers(1, 30),
        lo=st.one_of(st.none(), st.integers(-35, 35)),
        hi=st.one_of(st.none(), st.integers(-35, 35)),
    )
    def test_subsample_matches_label_filter(self, T, lo, hi):
        rng = np.random.default_rng(T)
        data = make_data(rng.normal(size=(T, 2)), rng.normal(size=T), start="2000Q1")
        start = None if lo is None else pn.format_quarter(data.first + lo)
        end = None if hi is None else pn.format_quarter(data.first + hi)
        want = self.label_subsample(data, start, end)
        if isinstance(want, str):
            with pytest.raises(vx.VarxError, match=want):
                vx.subsample(data, start, end)
            return
        sub = vx.subsample(data, start, end)
        assert sub.quarters == tuple(data.quarters[t] for t in want)
        assert np.array_equal(sub.X, data.X[want]) and np.array_equal(sub.d, data.d[want])
        assert sub.names == data.names


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
        design = vx.build_design(make_data(X, d, names=("total", "between")), vx.VarxSpec(bootstrap_reps=100, seed=0))
        irf = vx.bootstrap_bands(vx.estimate(design), design)
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

    def test_rejects_a_header_without_rows(self):
        with pytest.raises(vx.VarxError, match="^IRF CSV contains no data rows$"):
            vx.read_irf_csv(io.StringIO(self.HEADER))

    @pytest.mark.parametrize("rows, missing", [
        ("0,total,1,0,2\n2,total,1,0,2\n", "horizon 1, variable total"),  # a horizon skipped
        ("0,total,1,0,2\n0,between,1,0,2\n1,total,1,0,2\n", "horizon 1, variable between"),
    ])
    def test_rejects_a_missing_entry(self, rows, missing):
        with pytest.raises(vx.VarxError, match=f"^missing IRF entry for {missing}$"):
            vx.read_irf_csv(io.StringIO(self.HEADER + rows))

    def test_names_a_missing_entry_before_allocating_the_bands(self):
        # bands up to horizon 10**12 would need terabytes
        text = self.HEADER + "0,total,1,0,2\n1000000000000,total,1,0,2\n"
        with pytest.raises(vx.VarxError, match="^missing IRF entry for horizon 1, variable total$"):
            vx.read_irf_csv(io.StringIO(text))
