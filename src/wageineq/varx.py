"""VARX estimation and impulse responses to an exogenous shock series.

The model for a k-vector X_t driven by a scalar exogenous series d_t is

    X_t = A0 + B_1 X_{t-1} + ... + B_p X_{t-p}
             + C_0 d_t + C_1 d_{t-1} + ... + C_q d_{t-q} + e_t

estimated equation by equation with ordinary least squares (exact for
multivariate least squares since every equation shares the regressors).
Impulse responses trace the effect of a one-time impulse in d_t with
future shocks held at zero; bands come from a recursive residual
bootstrap that keeps the exogenous path fixed at its observed values.
"""

from dataclasses import dataclass, field

import numpy as np

from .panel import _fmt, _read_rows, _write_rows, parse_quarter

__all__ = [
    "VarxError",
    "RankError",
    "VarxSpec",
    "TimeSeriesData",
    "Design",
    "VarxModel",
    "ImpulseResponse",
    "build_design",
    "estimate",
    "dynamic_multipliers",
    "bootstrap_bands",
    "subsample",
    "simulate_varx",
    "companion_spectral_radius",
    "write_irf_csv",
    "read_irf_csv",
]


_IRF_HEADER = ("horizon", "variable", "point", "lower", "upper")


class VarxError(ValueError):
    """Raised for invalid model specifications or insufficient data."""


class RankError(VarxError):
    """Raised when the design matrix is numerically rank deficient."""


@dataclass(frozen=True)
class VarxSpec:
    """Lag structure, horizon, shock scaling, and bootstrap settings.

    ``shock_size`` defaults to -0.25: a 25 basis point rate cut under the
    convention that negative shocks are accommodative.
    """

    endogenous_lags: int = 1
    exogenous_lags: int = 4
    contemporaneous_shock: bool = True
    horizon: int = 10
    shock_size: float = -0.25
    bootstrap_reps: int = 2000
    seed: int = 0
    band_method: str = "sd"  # "sd" (+/- 1 bootstrap SD) or "percentile"

    def __post_init__(self):
        if self.endogenous_lags < 1:
            raise VarxError("endogenous_lags must be >= 1")
        if self.exogenous_lags < 0:
            raise VarxError("exogenous_lags must be >= 0")
        if self.horizon < 1:
            raise VarxError("horizon must be >= 1")
        if self.bootstrap_reps < 100:
            raise VarxError("bootstrap_reps must be >= 100")
        if self.band_method not in ("sd", "percentile"):
            raise VarxError(f"unknown band_method {self.band_method!r}")


@dataclass(frozen=True)
class TimeSeriesData:
    """Aligned endogenous series X (T, k) and exogenous series d (T,)."""

    quarters: tuple
    X: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    names: tuple = ()

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if X.shape[0] == 1 and len(self.quarters) > 1:
            X = X.T
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float))
        if self.X.shape[0] != len(self.quarters) or self.d.shape != (len(self.quarters),):
            raise VarxError("quarters, X, and d lengths disagree")
        if not self.names:
            object.__setattr__(self, "names", tuple(f"x{i}" for i in range(self.X.shape[1])))
        elif len(self.names) != self.X.shape[1]:
            raise VarxError("one name per endogenous variable required")

    @property
    def k(self) -> int:
        return self.X.shape[1]

    @property
    def T(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class Design:
    """Stacked regression dataset for equation-by-equation least squares.

    Row t of ``Z`` holds [1, X_{t-1..t-p}, d_t (if contemporaneous),
    d_{t-1..t-q}]; ``offset`` rows were dropped from the start of the data
    to make all lags available.
    """

    data: TimeSeriesData
    spec: VarxSpec
    Z: np.ndarray = field(repr=False)
    Y: np.ndarray = field(repr=False)
    columns: tuple
    offset: int

    @property
    def T_eff(self) -> int:
        return self.Z.shape[0]

    @property
    def m(self) -> int:
        return self.Z.shape[1]


def build_design(data: TimeSeriesData, spec: VarxSpec) -> Design:
    """Build the lagged regressor matrix and response block.

    Rows whose lags reach before the sample start are dropped, so the
    effective sample has T - max(p, q) rows (one fewer exogenous lag is
    needed when the contemporaneous term is excluded, but the trim is kept
    at max(p, q) so both variants share the same estimation sample).
    """
    p, q = spec.endogenous_lags, spec.exogenous_lags
    k, T = data.k, data.T
    offset = max(p, q)
    T_eff = T - offset
    if T_eff < k * p + q + 2:
        raise VarxError(
            f"insufficient observations: {T} quarters leave {T_eff} usable rows, "
            f"need at least {k * p + q + 2}"
        )
    columns = ["const"]
    blocks = [np.ones((T_eff, 1))]
    for j in range(1, p + 1):
        blocks.append(data.X[offset - j : T - j])
        columns.extend(f"{name}.lag{j}" for name in data.names)
    if spec.contemporaneous_shock:
        blocks.append(data.d[offset:T, None])
        columns.append("shock.lag0")
    for j in range(1, q + 1):
        blocks.append(data.d[offset - j : T - j, None])
        columns.append(f"shock.lag{j}")
    return Design(
        data=data,
        spec=spec,
        Z=np.hstack(blocks),
        Y=data.X[offset:].copy(),
        columns=tuple(columns),
        offset=offset,
    )


@dataclass(frozen=True)
class VarxModel:
    """Estimated coefficients, residuals, and residual covariance.

    ``endo_coefs[j-1]`` is the (k, k) matrix on X_{t-j}; ``exog_coefs``
    has q+1 rows, row j the k-vector on d_{t-j} (row 0 is zero when the
    contemporaneous term is excluded).
    """

    names: tuple
    endogenous_lags: int
    exogenous_lags: int
    contemporaneous_shock: bool
    intercept: np.ndarray = field(repr=False)
    endo_coefs: np.ndarray = field(repr=False)  # (p, k, k)
    exog_coefs: np.ndarray = field(repr=False)  # (q+1, k)
    residuals: np.ndarray = field(repr=False)  # (T_eff, k)
    sigma: np.ndarray = field(repr=False)  # (k, k)
    stderr: np.ndarray = field(repr=False)  # (m, k), per-equation OLS SEs

    @property
    def k(self) -> int:
        return len(self.names)


def _solve_full_rank(Z: np.ndarray, Y: np.ndarray):
    """QR least squares of stacked responses (n, T, k) on designs (n, T, m).

    Returns the (n, m) mask of R diagonals below eps * largest column norm * T,
    and the coefficients (n_ok, m, k) and R factors of the full-rank fits.
    """
    Q, R = np.linalg.qr(Z)
    tol = np.finfo(float).eps * np.linalg.norm(Z, axis=1).max(axis=1) * Z.shape[1]
    deficient = np.abs(np.diagonal(R, axis1=1, axis2=2)) < tol[:, None]
    ok = ~deficient.any(axis=1)
    # Q^T Y before the selection, so that Q is never copied
    return deficient, np.linalg.solve(R[ok], (Q.swapaxes(1, 2) @ Y)[ok]), R[ok]


def _unpack(coefs: np.ndarray, spec: VarxSpec, k: int):
    """Split (..., m, k) coefficients into the intercept, the (..., p, k, k)
    autoregressive matrices in row-equation form and the (..., q+1, k)
    exogenous rows, row 0 zero when the contemporaneous term is excluded.
    """
    p, q = spec.endogenous_lags, spec.exogenous_lags
    # column i of each lag block is equation i; transpose to row-equation form
    endo = coefs[..., 1 : 1 + p * k, :].reshape(coefs.shape[:-2] + (p, k, k)).swapaxes(-1, -2)
    exog = np.zeros(coefs.shape[:-2] + (q + 1, k))
    exog[..., 0 if spec.contemporaneous_shock else 1 :, :] = coefs[..., 1 + p * k :, :]
    return coefs[..., 0, :], endo, exog


def estimate(design: Design) -> VarxModel:
    """Least-squares fit of every equation on the shared regressor matrix.

    Solves through a QR factorization rather than the normal equations;
    near-collinear inequality series make the design ill-conditioned. Rank
    deficiency is detected from the R diagonal and reported with the first
    dependent column.
    """
    Z, Y = design.Z, design.Y
    T_eff, m = Z.shape
    if T_eff < m + 10:
        raise VarxError(
            f"effective sample of {T_eff} rows is below the floor of {m + 10} "
            f"for {m} regressors"
        )
    deficient, coefs, R = _solve_full_rank(Z[None], Y[None])
    if deficient.any():
        bad = int(np.argmax(deficient[0]))
        raise RankError(f"design matrix is rank deficient at column {design.columns[bad]!r}")
    coefs, R = coefs[0], R[0]  # (m, k), (m, m)
    resid = Y - Z @ coefs
    sigma = resid.T @ resid / (T_eff - m)
    ztz_inv_diag = np.sum(np.linalg.inv(R) ** 2, axis=1)
    stderr = np.sqrt(np.outer(ztz_inv_diag, np.diag(sigma)))

    spec = design.spec
    intercept, endo, exog = _unpack(coefs, spec, design.data.k)
    return VarxModel(
        names=design.data.names,
        endogenous_lags=spec.endogenous_lags,
        exogenous_lags=spec.exogenous_lags,
        contemporaneous_shock=spec.contemporaneous_shock,
        intercept=intercept,
        endo_coefs=endo,
        exog_coefs=exog,
        residuals=resid,
        sigma=sigma,
        stderr=stderr,
    )


@dataclass(frozen=True)
class ImpulseResponse:
    """Responses at horizons 0..H per variable, with lower/upper bands.

    When inputs were standardized the units are standard deviations. For a
    points-only response the bands coincide with the point estimates.
    """

    names: tuple
    point: np.ndarray = field(repr=False)  # (H+1, k)
    lower: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)
    dropped: int = 0  # bootstrap replications left out as rank deficient

    @property
    def horizon(self) -> int:
        return self.point.shape[0] - 1


def dynamic_multipliers(model: VarxModel, spec: VarxSpec) -> ImpulseResponse:
    """Response to a one-time shock of size spec.shock_size, future shocks 0.

    The recursion feeds the shock through the exogenous coefficients and
    propagates it with the autoregressive matrices:
    psi_0 = C_0 s, psi_h = sum_j B_j psi_{h-j} + C_h s (C_h = 0 past q).
    """
    psi = _multipliers(model.endo_coefs, model.exog_coefs, spec.horizon, spec.shock_size)
    return ImpulseResponse(model.names, psi, psi.copy(), psi.copy())


def _recurse(X: np.ndarray, endo_coefs: np.ndarray, drive: np.ndarray, start: int) -> np.ndarray:
    """Fill X[..., t, :] = drive[..., t - start, :] + sum_j B_j X[..., t - j, :] in place.

    Rows before ``start`` hold the pre-sample lags. Leading axes of X, drive
    and endo_coefs (..., p, k, k), such as replications, share one pass.
    """
    for i, t in enumerate(range(start, X.shape[-2])):
        x = drive[..., i, :]
        for j in range(1, endo_coefs.shape[-3] + 1):
            x = x + (endo_coefs[..., j - 1, :, :] @ X[..., t - j, :, None])[..., 0]
        X[..., t, :] = x
    return X


def _multipliers(endo: np.ndarray, exog: np.ndarray, horizon: int, shock_size: float) -> np.ndarray:
    """Responses (..., H+1, k) to blocks endo (..., p, k, k), exog (..., q+1, k)."""
    lead, p, k = exog.shape[:-2], endo.shape[-3], exog.shape[-1]
    drive = np.zeros(lead + (horizon + 1, k))
    drive[..., : exog.shape[-2], :] = exog[..., : horizon + 1, :] * shock_size
    return _recurse(np.zeros(lead + (p + horizon + 1, k)), endo, drive, p)[..., p:, :]


_BOOT_CHUNK = 32  # replications per batched pass; stacked arrays scale with it, not with reps


def bootstrap_bands(model: VarxModel, design: Design, spec: VarxSpec) -> ImpulseResponse:
    """Recursive residual bootstrap bands around the point multipliers.

    Each replication resamples residual rows i.i.d. with replacement,
    regenerates the sample, re-estimates, and recomputes the multipliers.
    Replication r draws from a stream derived from (seed, r), so results
    are identical regardless of evaluation order. Initial lags and the
    whole exogenous path stay at their observed values; d is exogenous by
    assumption and is not resampled. The default bands are the point
    estimate +/- 1 bootstrap standard deviation; the percentile method
    uses the 15.87/84.13 percentiles (clipped to contain the point).
    Replications whose re-estimation is rank deficient are dropped and
    counted in ``dropped``; more than 5% failures aborts.
    """
    point = dynamic_multipliers(model, spec).point
    data, dspec, T_eff = design.data, design.spec, design.T_eff
    p, k, offset = dspec.endogenous_lags, data.k, design.offset
    # intercept plus exogenous term, the same in every replication
    exog_rows = model.exog_coefs[0 if dspec.contemporaneous_shock else 1 :]
    base = model.intercept + design.Z[:, 1 + p * k :] @ exog_rows
    reps = spec.bootstrap_reps
    draws, dropped = [], 0
    for first in range(0, reps, _BOOT_CHUNK):
        chunk = range(first, min(first + _BOOT_CHUNK, reps))
        rows = np.array([np.random.default_rng((spec.seed, r)).integers(0, T_eff, T_eff) for r in chunk])
        Xb = np.repeat(data.X[None], len(chunk), axis=0)
        _recurse(Xb, model.endo_coefs, base + model.residuals[rows], offset)
        Zb = np.repeat(design.Z[None], len(chunk), axis=0)
        for j in range(1, p + 1):
            Zb[:, :, 1 + (j - 1) * k : 1 + j * k] = Xb[:, offset - j : data.T - j]
        deficient, coefs, _ = _solve_full_rank(Zb, Xb[:, offset:])
        dropped += int(deficient.any(axis=1).sum())
        _, endo, exog = _unpack(coefs, dspec, k)
        draws.append(_multipliers(endo, exog, spec.horizon, spec.shock_size))
    if dropped > 0.05 * reps:
        raise VarxError(f"bootstrap aborted: {dropped} of {reps} replications failed re-estimation")
    stack = np.concatenate(draws)
    if spec.band_method == "sd":
        sd = stack.std(axis=0, ddof=1)
        lower, upper = point - sd, point + sd
    else:
        lower = np.minimum(np.percentile(stack, 15.87, axis=0), point)
        upper = np.maximum(np.percentile(stack, 84.13, axis=0), point)
    return ImpulseResponse(model.names, point, lower, upper, dropped)


def subsample(data: TimeSeriesData, start: str, end: str) -> TimeSeriesData:
    """Contiguous restriction of the data to [start, end] by quarter label.

    Lag windows are recomputed inside the subsample by the subsequent
    build_design, so no observations leak across the boundary.
    """
    lo, hi = parse_quarter(start), parse_quarter(end)
    if lo > hi:
        raise VarxError(f"subsample start {start} is after end {end}")
    keep = [t for t, quarter in enumerate(data.quarters) if lo <= parse_quarter(quarter) <= hi]
    if not keep:
        raise VarxError(f"subsample [{start}, {end}] does not intersect the data")
    sl = slice(keep[0], keep[-1] + 1)
    return TimeSeriesData(data.quarters[sl], data.X[sl], data.d[sl], data.names)


def simulate_varx(
    intercept,
    endo_coefs,
    exog_coefs,
    d,
    noise_sd,
    rng,
    burn_in: int = 50,
    contemporaneous_shock: bool = True,
):
    """Simulate a VARX sample driven by the given exogenous path.

    ``endo_coefs`` is (p, k, k), ``exog_coefs`` (q+1, k) with row 0 the
    contemporaneous coefficient (ignored unless the flag is set).
    Burn-in periods start from zero lags, use zero exogenous input and are discarded.
    """
    intercept = np.asarray(intercept, dtype=float)
    endo_coefs = np.asarray(endo_coefs, dtype=float)
    exog_coefs = np.asarray(exog_coefs, dtype=float)
    p, q = endo_coefs.shape[0], exog_coefs.shape[0] - 1
    n = burn_in + len(d)
    d_full = np.concatenate([np.zeros(q + burn_in), d])
    drive = intercept + rng.normal(0.0, noise_sd, size=(n, intercept.shape[0]))
    for j in range(0 if contemporaneous_shock else 1, q + 1):
        drive = drive + exog_coefs[j] * d_full[q - j : q - j + n, None]
    return _recurse(np.zeros((p + n, intercept.shape[0])), endo_coefs, drive, p)[p + burn_in :]


def companion_spectral_radius(model: VarxModel) -> float:
    """Largest eigenvalue modulus of the autoregressive companion matrix."""
    p, k = model.endogenous_lags, model.k
    comp = np.zeros((p * k, p * k))
    for j in range(p):
        comp[:k, j * k : (j + 1) * k] = model.endo_coefs[j]
    if p > 1:
        comp[k:, :-k] = np.eye((p - 1) * k)
    return float(np.abs(np.linalg.eigvals(comp)).max())


def write_irf_csv(irf: ImpulseResponse, path) -> None:
    """Write responses as horizon,variable,point,lower,upper rows."""
    _write_rows(
        path,
        _IRF_HEADER,
        ((h, name, *map(_fmt, (irf.point[h, i], irf.lower[h, i], irf.upper[h, i])))
         for h in range(irf.horizon + 1) for i, name in enumerate(irf.names)),
    )


def read_irf_csv(source) -> ImpulseResponse:
    """Read a response table written by write_irf_csv."""
    entries = {}
    names = []
    for lineno, (h_text, name, *val_texts) in _read_rows(source, _IRF_HEADER, VarxError):
        try:
            key = (int(h_text), name)
            vals = tuple(float(v) for v in val_texts)
        except ValueError:
            raise VarxError(f"row {lineno}: non-numeric value") from None
        if key in entries:
            raise VarxError(f"row {lineno}: duplicate entry for horizon {h_text}, variable {name}")
        if name not in names:
            names.append(name)
        entries[key] = vals
    if not entries:
        raise VarxError("IRF CSV contains no data rows")
    H = max(h for h, _ in entries)
    point = np.empty((H + 1, len(names)))
    lower = np.empty_like(point)
    upper = np.empty_like(point)
    for h in range(H + 1):
        for i, name in enumerate(names):
            if (h, name) not in entries:
                raise VarxError(f"missing IRF entry for horizon {h}, variable {name}")
            point[h, i], lower[h, i], upper[h, i] = entries[(h, name)]
    return ImpulseResponse(tuple(names), point, lower, upper)
