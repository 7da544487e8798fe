"""Acceptance suite: one test per exit criterion, with a pass line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines.
"""

import math

import numpy as np
import pytest

from wageineq import panel as pn
from wageineq import varx as vx
from wageineq.cli import run_demo
from wageineq.fixtures import planted_effect_data
from wageineq.theil import Partition, decompose, theil_index


def report(line):
    print(f"\n{line}")


class TestCriterion1FootnoteIdentity:
    """Exact decomposition of (1,3,5,7,3) into {1,3} and {5,7,3}."""

    # frozen from a 50-digit term-by-term evaluation of the index
    TOTAL = 0.15237968787641534
    BETWEEN = 0.08153353372825396

    def test_footnote_decomposition_identity(self):
        res = decompose([1, 3, 5, 7, 3], Partition.from_sizes([2, 3]))
        assert res.groups[0].weight == pytest.approx(4 / 19, abs=1e-15)
        assert res.groups[1].weight == pytest.approx(15 / 19, abs=1e-15)
        assert res.between == pytest.approx(theil_index([2, 2, 5, 5, 5]), abs=1e-15)
        assert res.total == pytest.approx(self.TOTAL, abs=1e-12)
        assert res.between == pytest.approx(self.BETWEEN, abs=1e-12)
        resid = abs(
            res.total
            - (4 / 19) * theil_index([1, 3])
            - (15 / 19) * theil_index([5, 7, 3])
            - res.between
        )
        assert resid < 1e-12
        report(f"PASS criterion 1: footnote identity residual {resid:.2e} < 1e-12")


class TestCriterion2PropertySuite:
    """1,000 randomized distributions and partitions."""

    def test_randomized_properties(self):
        rng = np.random.default_rng(20260824)
        for case in range(1000):
            n = int(rng.integers(2, 51))
            dist = rng.uniform(1e-6, 1e6, size=n)
            l = int(rng.integers(2, min(5, n) + 1))
            labels = np.concatenate([np.arange(l), rng.integers(0, l, size=n - l)])
            rng.shuffle(labels)
            part = Partition(labels.tolist())

            res = decompose(dist, part)
            assert res.identity_residual() / max(res.total, 1e-30) < 1e-10
            assert 0.0 <= res.total <= math.log(n) + 1e-12
            base = theil_index(dist)
            for lam in (0.5, 3.0, 1000.0):
                assert abs(theil_index(lam * dist) - base) < 1e-12
            assert abs(theil_index(np.tile(dist, 2)) - base) < 1e-12
            lo, hi = int(np.argmin(dist)), int(np.argmax(dist))
            if dist[lo] < dist[hi]:
                shifted = dist.copy()
                delta = 0.25 * (dist[hi] - dist[lo])
                shifted[hi] -= delta
                shifted[lo] += delta
                assert theil_index(shifted) < base
        report("PASS criterion 2: 1000 randomized cases (identity, bounds, scale, replication, transfer)")


class TestCriterion3ClosedFormMultipliers:
    """x_t = 0.5 x_{t-1} + d_t gives responses 0.5^h exactly."""

    def test_geometric_recursion(self):
        exog = np.zeros((5, 1))
        exog[0, 0] = 1.0
        model = vx.VarxModel(
            intercept=np.zeros(1),
            endo_coefs=np.array([[[0.5]]]),
            exog_coefs=exog,
            residuals=np.zeros((40, 1)),
            sigma=np.zeros((1, 1)),
        )
        psi = vx.dynamic_multipliers(model, 10, 1.0)
        err = np.abs(psi[:, 0] - 0.5 ** np.arange(11)).max()
        assert err < 1e-12
        report(f"PASS criterion 3: closed-form multipliers, max error {err:.2e} < 1e-12")


class TestCriterion4EstimationRecovery:
    """Bivariate VARX(1) recovery over 20 seeds at T = 5000."""

    B_TRUE = np.array([[[0.6, 0.15], [0.1, 0.55]]])  # companion spectral radius 0.7
    C_TRUE = np.array([[1.0, 0.5], [0.5, 0.25], [0.25, 0.1], [0.1, 0.05], [0.05, 0.02]])
    A0_TRUE = np.array([0.1, -0.1])

    def _true_irf(self, spec):
        model = vx.VarxModel(np.zeros(2), self.B_TRUE, self.C_TRUE, np.zeros((10, 2)), np.zeros((2, 2)))
        return vx.dynamic_multipliers(model, spec.horizon, spec.shock_size)

    def test_monte_carlo_recovery(self):
        spec = vx.VarxSpec(shock_size=1.0)
        truth = self._true_irf(spec)
        peak = np.abs(truth).max()
        coef_errs, irf_rel = [], []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = rng.normal(size=5000)
            X = vx.simulate_varx(self.A0_TRUE, self.B_TRUE, self.C_TRUE, d, noise_sd=0.5, rng=rng)
            data = vx.TimeSeriesData(pn.parse_quarter("0800Q1"), X, d)
            model = vx.estimate(vx.build_design(data, spec))
            coef_errs.append(
                np.mean(
                    np.abs(
                        np.concatenate(
                            [
                                (model.endo_coefs - self.B_TRUE).ravel(),
                                (model.exog_coefs - self.C_TRUE).ravel(),
                                model.intercept - self.A0_TRUE,
                            ]
                        )
                    )
                )
            )
            est = vx.dynamic_multipliers(model, spec.horizon, spec.shock_size)
            irf_rel.append(np.abs(est - truth).max() / peak)
        mean_err = float(np.mean(coef_errs))
        worst_rel = float(max(irf_rel))
        assert mean_err < 0.05
        assert worst_rel < 0.02
        report(
            f"PASS criterion 4: mean |coef error| {mean_err:.4f} < 0.05, "
            f"worst per-horizon IRF error {worst_rel:.4f} of peak < 0.02"
        )


class TestCriterion5BootstrapSanity:
    """Determinism, zero-residual collapse, and band ordering at 2000 reps."""

    def _fit(self, noise_sd, spec):
        rng = np.random.default_rng(0)
        d = rng.normal(size=81)
        C = np.zeros((5, 1))
        C[0, 0] = 1.0
        C[1, 0] = 0.4
        X = vx.simulate_varx([0.0], [[[0.6]]], C, d, noise_sd=noise_sd, rng=rng)
        design = vx.build_design(vx.TimeSeriesData(pn.parse_quarter("2000Q1"), X, d), spec)
        return vx.estimate(design), design

    def test_bootstrap_determinism_and_sanity(self):
        spec = vx.VarxSpec(bootstrap_reps=2000, seed=314)
        model, design = self._fit(noise_sd=0.2, spec=spec)
        a = vx.bootstrap_bands(model, design)
        b = vx.bootstrap_bands(model, design)
        assert a.lower.tobytes() == b.lower.tobytes()
        assert a.upper.tobytes() == b.upper.tobytes()
        assert np.all(a.lower <= a.point) and np.all(a.point <= a.upper)

        z = vx.bootstrap_bands(*self._fit(noise_sd=0.0, spec=spec))
        width = float(np.abs(z.upper - z.lower).max())
        assert width < 1e-8
        report(
            f"PASS criterion 5: identical seed -> byte-identical bands; zero-residual "
            f"band width {width:.1e}; ordering holds at all horizons"
        )


class TestCriterion6PlantedBetweenEffect:
    """Only the between component responds; its band alone excludes zero."""

    def test_between_only_significance_pattern(self):
        data = planted_effect_data(T=240, effect=0.8, seed=9)
        spec = vx.VarxSpec(bootstrap_reps=300, seed=9, shock_size=1.0)
        design = vx.build_design(data, spec)
        model = vx.estimate(design)
        irf = vx.bootstrap_bands(model, design)
        i_between = data.names.index("between")
        peak = int(np.argmax(np.abs(irf.point[:, i_between])))
        assert irf.lower[peak, i_between] > 0.0 or irf.upper[peak, i_between] < 0.0
        for i, name in enumerate(data.names):
            if name == "between":
                continue
            assert np.all(irf.lower[:, i] <= 0.0) and np.all(irf.upper[:, i] >= 0.0), name
        report(
            f"PASS criterion 6: between band excludes 0 at peak horizon {peak}; "
            f"all within-component bands cover 0"
        )


class TestCriterion7DocumentedTargets:
    """The paper-data-only magnitudes are documented, not reproduced."""

    def test_readme_documents_expected_bands(self):
        import pathlib

        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        for needle in ("12%", "88", "94%", "0.5", "0.6", "licensed"):
            assert needle in readme, f"README must document the expected value {needle!r}"
        report(
            "PASS criterion 7: README documents the share and response magnitudes that "
            "need the licensed source data"
        )


class TestCriterion8EndToEnd:
    """demo runs all subcommands on fixtures and every CSV round-trips."""

    def test_demo_and_round_trips(self, tmp_path):
        results = run_demo(tmp_path, reps=200, seed=0)
        assert all(ok for _, ok, _ in results), results
        # outputs must parse back through the package's own readers
        pn.parse_wage_csv(str(tmp_path / "wages.csv"))
        pn.parse_shock_csv(str(tmp_path / "shocks.csv"))
        pn.read_series_csv(str(tmp_path / "series.csv"))
        pn.read_growth_csv(str(tmp_path / "growth.csv"))
        vx.read_irf_csv(str(tmp_path / "irf_total.csv"))
        vx.read_irf_csv(str(tmp_path / "irf_components.csv"))
        report("PASS criterion 8: demo completed all stages; every output CSV round-trips")
