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

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .panel import PanelError, _number, _numeric, _read_rows, _run_labels, _source_lines, _write_grid, parse_quarter

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
        for f in fields(self):  # a numpy scalar becomes its Python value, which the manifest's JSON can hold
            if isinstance(getattr(self, f.name), np.generic):
                object.__setattr__(self, f.name, getattr(self, f.name).item())
        for name, least in (("endogenous_lags", 1), ("exogenous_lags", 0), ("horizon", 1), ("bootstrap_reps", 100)):
            value = getattr(self, name)
            if not np.issubdtype(type(value), np.integer) or value < least:  # an int, not a bool
                raise VarxError(f"{name} must be an integer >= {least}, not {value!r}")
        if not (np.dtype(type(self.shock_size)).kind in "iuf" and math.isfinite(self.shock_size)):  # not a bool
            raise VarxError(f"shock_size must be a finite number, not {self.shock_size!r}")
        if not np.issubdtype(type(self.seed), np.integer) or self.seed < 0:
            raise VarxError(f"seed must be a non-negative integer, not {self.seed!r}")
        if not isinstance(self.contemporaneous_shock, bool):
            raise VarxError(f"contemporaneous_shock must be a bool, not {self.contemporaneous_shock!r}")
        if self.band_method not in ("sd", "percentile"):
            raise VarxError(f"unknown band_method {self.band_method!r}")
        # the shock must move something: all-zero responses with zero-width bands answer nothing
        if self.shock_size == 0:
            raise VarxError("shock_size 0 moves nothing; every response would be zero")
        if self.exogenous_lags == 0 and not self.contemporaneous_shock:
            raise VarxError("exogenous_lags 0 with contemporaneous_shock False leaves the model no shock term")


@dataclass(frozen=True)
class TimeSeriesData:
    """Endogenous series X (T, k) and exogenous series d (T,) over the T quarters from index ``first``."""

    first: int
    X: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    names: tuple = ()
    quarters: tuple = field(init=False, repr=False)

    def __post_init__(self):
        X = _numeric(self.X, "X", VarxError)
        if X.ndim == 1:  # one variable
            X = X[:, None]
        elif X.ndim != 2:
            raise VarxError(f"X of shape {X.shape} is not (quarters, variables)")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "d", _numeric(self.d, "shock", VarxError))
        if self.d.shape != (self.T,):
            raise VarxError(f"X has {self.T} rows but d has shape {self.d.shape}")
        object.__setattr__(self, "quarters", _run_labels(self.first, self.T, VarxError))
        if not self.names:
            object.__setattr__(self, "names", tuple(f"x{i}" for i in range(self.X.shape[1])))
        elif len(self.names) != self.X.shape[1]:
            raise VarxError("one name per endogenous variable required")
        bad = ~np.isfinite(np.column_stack((self.X, self.d)))  # a NaN would pass through every fit unnoticed
        if bad.any():
            t, j = divmod(int(np.argmax(bad)), self.k + 1)
            name, value = (self.names[j], self.X[t, j]) if j < self.k else ("shock", self.d[t])
            raise VarxError(f"{name} is {value} in {self.quarters[t]}; every value must be finite")

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
    to make all lags available. ``spec`` holds every setting of the fit,
    the bootstrap's included.
    """

    data: TimeSeriesData
    spec: VarxSpec
    Z: np.ndarray = field(repr=False)
    Y: np.ndarray = field(repr=False)
    columns: tuple

    @property
    def offset(self) -> int:
        return max(self.spec.endogenous_lags, self.spec.exogenous_lags)

    @property
    def T_eff(self) -> int:
        return self.Z.shape[0]

    @property
    def m(self) -> int:
        return self.Z.shape[1]


def build_design(data: TimeSeriesData, spec: VarxSpec) -> Design:
    """Build the lagged regressor matrix and response block.

    Rows whose lags reach before the sample start are dropped, so the
    effective sample has T_eff = max(T - max(p, q), 0) rows (one fewer
    exogenous lag is needed when the contemporaneous term is excluded, but
    the trim is kept at max(p, q) so both variants share the same estimation
    sample). Only building happens here: ``estimate`` rejects a sample too
    short to fit, one no longer than its lags included.
    """
    p, q = spec.endogenous_lags, spec.exogenous_lags
    offset = max(p, q)
    T_eff = max(data.T - offset, 0)
    columns = ["const"]
    blocks = [np.ones((T_eff, 1))]
    for j in range(1, p + 1):
        blocks.append(data.X[offset - j : offset - j + T_eff])
        columns.extend(f"{name}.lag{j}" for name in data.names)
    if spec.contemporaneous_shock:
        blocks.append(data.d[offset : offset + T_eff, None])
        columns.append("shock.lag0")
    for j in range(1, q + 1):
        blocks.append(data.d[offset - j : offset - j + T_eff, None])
        columns.append(f"shock.lag{j}")
    return Design(
        data=data,
        spec=spec,
        Z=np.hstack(blocks),
        Y=data.X[offset : offset + T_eff].copy(),
        columns=tuple(columns),
    )


@dataclass(frozen=True)
class VarxModel:
    """Estimated coefficients, residuals, and residual covariance.

    ``endo_coefs[j-1]`` is the (k, k) matrix on X_{t-j}; ``exog_coefs``
    has q+1 rows, row j the k-vector on d_{t-j} (row 0 is zero when the
    contemporaneous term is excluded). The lag structure is that of the
    fitted design's ``spec``: p = len(endo_coefs), q = len(exog_coefs) - 1.
    """

    intercept: np.ndarray = field(repr=False)
    endo_coefs: np.ndarray = field(repr=False)  # (p, k, k)
    exog_coefs: np.ndarray = field(repr=False)  # (q+1, k)
    residuals: np.ndarray = field(repr=False)  # (T_eff, k)
    sigma: np.ndarray = field(repr=False)  # (k, k)


def _unpack(coefs: np.ndarray, design: Design):
    """Split (..., m, k) coefficients on ``design``'s columns into the intercept,
    the (..., p, k, k) autoregressive matrices in row-equation form and the
    (..., q+1, k) exogenous rows, row 0 zero when the contemporaneous term is excluded.
    """
    spec, k = design.spec, design.data.k
    p, q = spec.endogenous_lags, spec.exogenous_lags
    # column i of each lag block is equation i; transpose to row-equation form
    endo = coefs[..., 1 : 1 + p * k, :].reshape(coefs.shape[:-2] + (p, k, k)).swapaxes(-1, -2)
    exog = np.zeros(coefs.shape[:-2] + (q + 1, k))
    exog[..., 0 if spec.contemporaneous_shock else 1 :, :] = coefs[..., 1 + p * k :, :]
    return coefs[..., 0, :], endo, exog


def estimate(design: Design) -> VarxModel:
    """Least-squares fit of every equation on the shared regressor matrix.

    Solves through the R-only QR of [Z | Y] rather than the normal equations;
    near-collinear inequality series make the design ill-conditioned. A
    diagonal of Z's R factor below eps * Z's largest column norm * T_eff
    marks the design rank deficient, reported at the first such column.
    """
    Z, Y = design.Z, design.Y
    T_eff, m = Z.shape
    if T_eff < m + 10:
        raise VarxError(f"sample {design.data.quarters[0]}..{design.data.quarters[-1]}: effective sample of {T_eff} "
                        f"rows is below the floor of {m + 10} for {m} regressors")
    R = np.linalg.qr(np.concatenate((Z, Y), axis=1), mode="r")
    R, QtY = R[:m, :m], R[:m, m:]  # Z's R factor, whose column norms are Z's, and Q^T Y
    deficient = np.abs(np.diag(R)) < np.finfo(float).eps * np.linalg.norm(R, axis=0).max() * T_eff
    if deficient.any():
        raise RankError(f"design matrix is rank deficient at column {design.columns[np.argmax(deficient)]!r}")
    coefs = np.linalg.solve(R, QtY)
    resid = Y - Z @ coefs
    sigma = resid.T @ resid / (T_eff - m)
    intercept, endo, exog = _unpack(coefs, design)
    return VarxModel(intercept, endo, exog, resid, sigma)


@dataclass(frozen=True)
class ImpulseResponse:
    """Responses at horizons 0..H per variable, with lower/upper bands.

    When inputs were standardized the units are standard deviations.
    """

    names: tuple
    point: np.ndarray = field(repr=False)  # (H+1, k)
    lower: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)
    dropped: int = 0  # bootstrap replications left out as rank deficient

    @property
    def horizon(self) -> int:
        return self.point.shape[0] - 1


def dynamic_multipliers(model: VarxModel, horizon: int, shock_size: float) -> np.ndarray:
    """Responses (H+1, k) at horizons 0..H to a one-time shock of size s, future shocks 0.

    The recursion feeds the shock through the exogenous coefficients and
    propagates it with the autoregressive matrices:
    psi_0 = C_0 s, psi_h = sum_j B_j psi_{h-j} + C_h s (C_h = 0 past q).
    """
    endo, exog = model.endo_coefs, model.exog_coefs
    return np.fromiter(_responses(endo, exog, horizon, shock_size), (float, exog.shape[-1]), horizon + 1)


def _recurse(X: np.ndarray, endo_coefs: np.ndarray, drive: np.ndarray, start: int) -> np.ndarray:
    """Fill X[..., t, :] = drive[..., t - start, :] + sum_j B_j X[..., t - j, :] in place.

    Rows before ``start`` hold the pre-sample lags. Leading axes of X, drive
    and endo_coefs (..., p, k, k), such as replications, share one pass.
    Each step is one product of the window coefficients [B_p ... B_1]
    (..., k, p k) with the lag window X[..., t-p:t, :] read as a (p k, 1)
    column, stacked over the leading axes, so every replication's result
    is the same whatever it is batched with; for p = 1 it is B_1 X_{t-1}.
    ``drive`` may be X[..., start:, :] itself: each row is read before it is
    overwritten.
    """
    p, k = endo_coefs.shape[-3], endo_coefs.shape[-1]
    window = endo_coefs[..., ::-1, :, :].swapaxes(-3, -2).reshape(endo_coefs.shape[:-3] + (k, p * k))
    lead = X.shape[:-2]
    for i, t in enumerate(range(start, X.shape[-2])):
        lags = X[..., t - p : t, :].reshape(lead + (p * k, 1))
        np.add(drive[..., i, :], (window @ lags)[..., 0], out=X[..., t, :])
    return X


def _responses(endo: np.ndarray, exog: np.ndarray, horizon: int, shock_size: float):
    """Yield fresh (..., k) responses at horizons 0..H to blocks endo (..., p, k, k), exog (..., q+1, k)."""
    lead, p, q, k = exog.shape[:-2], endo.shape[-3], exog.shape[-2] - 1, exog.shape[-1]
    drive = np.concatenate((exog[..., : horizon + 1, :] * shock_size, np.zeros(lead + (1, k))), axis=-2)
    window = np.zeros(lead + (p + 1, k))  # the last p responses and the new one: memory does not grow with H
    for h in range(horizon + 1):  # one _recurse step each; every horizon past q takes drive's zero row q + 1
        yield _recurse(window, endo, drive[..., min(h, q + 1), None, :], p)[..., p, :].copy()
        window[..., :p, :] = window[..., 1:, :]


_CHUNK_BYTES = 2 << 20  # the bootstrap's working set; sets how many replications share a batched pass


def _pass_sizes(reps: int, p: int, k: int, T_eff: int) -> tuple:
    """Replications per regeneration pass and per refit in ``bootstrap_bands``.

    Half of _CHUNK_BYTES holds a pass's regenerated paths (p + T_eff, k),
    which np.take fills through a copy of their residual rows, freed before
    any refit; the other half holds a refit's V = [L | Y] (T_eff, p k + k)
    and one V-sized temporary (a projection, then the QR's copy of V).
    """
    half = _CHUNK_BYTES // 2
    regen = min(reps, max(1, half // (8 * (p + T_eff) * k)))
    return regen, min(regen, max(1, half // (16 * T_eff * (p * k + k))))


_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier as (high, low) words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)


def _seed_state(seed: int, reps: int) -> list:
    """SeedSequence((seed, r)).generate_state(4, np.uint64) for every r < reps, as four (reps,) uint64 words."""
    words = [seed & _M32]  # the entropy is seed's little-endian 32-bit words, then r
    while seed := seed >> 32:
        words.append(seed & _M32)
    entropy = [np.full(reps, w, np.uint32) for w in words] + [np.arange(reps, dtype=np.uint32)]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _M32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ (value >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(reps, np.uint32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))
    const, state = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _M32
        value = value * np.uint32(const)
        state.append((value ^ (value >> 16)).astype(np.uint64))
    return [lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])]


def _pcg_step(high: np.ndarray, low: np.ndarray, inc: tuple) -> tuple:
    """One PCG64 step, state * multiplier + inc mod 2**128, on (high, low) uint64 words."""
    m_hi, m_lo = _PCG_MULT
    lo0, lo1 = low & _M32, low >> 32
    p00, p01, p10 = lo0 * (m_lo & _M32), lo0 * (m_lo >> 32), lo1 * (m_lo & _M32)
    carry = ((p00 >> 32) + (p01 & _M32) + (p10 & _M32)) >> 32
    high = high * np.uint64(m_lo) + low * np.uint64(m_hi) + lo1 * (m_lo >> 32) + (p01 >> 32) + (p10 >> 32) + carry
    low = low * np.uint64(m_lo) + inc[1]
    return high + inc[0] + (low < inc[1]), low


def _stream_integers(seed: int, reps: int, bound: int, size: int) -> np.ndarray:
    """Row r equals np.random.default_rng((seed, r)).integers(0, bound, size), for 1 <= bound <= 2**32.

    A numpy replica of the streams for all r at once: SeedSequence's hash of
    (seed, r), PCG64's seeding and steps as 128-bit arithmetic on uint64
    pairs, and Lemire's bounded draw on each output's low then high 32 bits.
    A row whose draw would take Lemire's rejection branch is redrawn with
    numpy's own generator.
    """
    seed_hi, seed_lo, inc_hi, inc_lo = _seed_state(seed, reps)
    inc = (inc_hi << 1 | inc_lo >> 63, inc_lo << 1 | 1)
    # PCG64's seeding: a step from 0 gives inc; add the seed, then step again
    high, low = _pcg_step(inc[0] + seed_hi + (inc[1] + seed_lo < inc[1]), inc[1] + seed_lo, inc)
    out = np.empty((reps, size), np.min_scalar_type(bound - 1))
    threshold = (_M32 + 1 - bound) % bound  # leftovers below it are rejected
    rejected = np.zeros(reps, bool)
    for j in range(0, size, 2):
        high, low = _pcg_step(high, low, inc)
        x, rot = high ^ low, high >> 58
        x = x >> rot | x << (-rot & 63)
        for col, half in ((j, x & _M32), (j + 1, x >> 32)):
            if col < size:
                m = half * np.uint64(bound)
                out[:, col] = m >> 32
                rejected |= (m & _M32) < threshold
    for r in np.flatnonzero(rejected).tolist():
        out[r] = np.random.default_rng((seed, r)).integers(0, bound, size)
    return out


def _solve_lags(V: np.ndarray, lag_cols: int, Q_F: np.ndarray, R_F: np.ndarray):
    """Least squares of Y on [F | L] for stacked V = [L | Y] (n, T_eff, w), where F = Q_F R_F is fixed.

    By Frisch-Waugh-Lovell the coefficients on the ``lag_cols`` columns L
    are those of Y on L with F partialled out of both. F is projected out of
    V twice, so what is left is orthogonal to F to rounding, and the lag
    coefficients come from the R-only QR of the rest. The coefficients on F
    then solve R_F B_F = Q_F^T (Y - L B_L). With F's columns first, the R
    factor of [F | L] is [[R_F, Q_F^T L], [0, R_L]], R_L that of the
    projected L; a fit is deficient when a diagonal of R_F or R_L is below
    eps * largest column norm * T_eff. Returns that (n,) mask and the
    coefficients on F (n_ok, f, k) and on L (n_ok, lag_cols, k) of the
    full-rank fits. V is overwritten.
    """
    QtV = np.matmul(Q_F.T, V)
    V -= np.matmul(Q_F, QtV)
    again = np.matmul(Q_F.T, V)
    V -= np.matmul(Q_F, again)
    QtV += again
    R = np.linalg.qr(V, mode="r")
    R_L = R[:, :lag_cols, :lag_cols]
    # column norms of [F | L] from the columns of its R factor
    L_norm = np.sqrt(np.sum(QtV[:, :, :lag_cols] ** 2, axis=1) + np.sum(R_L**2, axis=1)).max(axis=1)
    tol = np.finfo(float).eps * np.maximum(L_norm, np.linalg.norm(R_F, axis=0).max()) * V.shape[1]
    deficient = np.abs(np.diagonal(R_L, axis1=1, axis2=2)) < tol[:, None]
    deficient = deficient.any(axis=1) | (np.abs(np.diag(R_F)).min() < tol)
    ok = ~deficient
    B_L = np.linalg.solve(R_L[ok], R[ok, :lag_cols, lag_cols:])
    B_F = np.linalg.solve(R_F, QtV[ok, :, lag_cols:] - QtV[ok, :, :lag_cols] @ B_L)
    return deficient, B_F, B_L


def _bootstrap_draws(model: VarxModel, design: Design) -> tuple:
    """Each replication's refitted coefficients (reps, m, k) in ``design.columns`` order, and a (reps,) kept mask.

    Replication r < ``design.spec.bootstrap_reps`` resamples residual rows
    i.i.d. with replacement from the stream (``design.spec.seed``, r), the
    same rows in every fit of that sample length, then regenerates the sample
    and re-estimates. Initial lags and the exogenous path d stay at their
    observed values, so only the lag columns of the design change: the
    constant and shock columns are factored once and partialled out of each
    refit (``_solve_lags``). Paths are regenerated for many replications per
    pass and each pass is refitted in smaller groups (``_pass_sizes``); every
    product is taken per replication, so no draw depends on either size or on
    evaluation order. A replication whose re-estimation is rank deficient is
    not kept; its row is NaN. A count too large to allocate fails before any draw.
    """
    spec, k, p = design.spec, design.data.k, design.spec.endogenous_lags
    reps, T_eff, lag_cols = spec.bootstrap_reps, design.T_eff, p * k
    lags = slice(1, 1 + lag_cols)
    # intercept plus exogenous term, the same in every replication
    exog_rows = model.exog_coefs[0 if spec.contemporaneous_shock else 1 :]
    base = model.intercept + design.Z[:, lags.stop :] @ exog_rows
    Q_F, R_F = np.linalg.qr(np.delete(design.Z, lags, axis=1))  # [const | shock columns]
    try:
        coefs, kept = np.full((reps, design.m, k), np.nan), np.empty(reps, bool)
        resampled = _stream_integers(spec.seed, reps, T_eff, T_eff)
    except (MemoryError, ValueError):  # numpy's errors for a size past memory or past its index range
        raise VarxError(f"bootstrap_reps {reps} is too large: its draws cannot be allocated") from None
    regen, refit = _pass_sizes(reps, p, k, T_eff)
    path = np.empty((regen, p + T_eff, k))
    path[:, :p] = design.data.X[design.offset - p : design.offset]  # pre-sample lags, never overwritten
    V = np.empty((refit, T_eff, lag_cols + k))
    for first in range(0, reps, regen):
        rows = resampled[first : first + regen]
        X = path[: len(rows)]
        np.take(model.residuals, rows, axis=0, out=X[:, p:], mode="clip")  # no row is clipped: each is < T_eff
        X[:, p:] += base
        _recurse(X, model.endo_coefs, X[:, p:], p)  # in place
        for lo in range(0, len(rows), refit):
            Xs = X[lo : lo + refit]
            Vn = V[: len(Xs)]
            for j in range(1, p + 1):
                Vn[:, :, (j - 1) * k : j * k] = Xs[:, p - j : p - j + T_eff]
            Vn[:, :, lag_cols:] = Xs[:, p:]
            deficient, B_F, B_L = _solve_lags(Vn, lag_cols, Q_F, R_F)
            at = slice(first + lo, first + lo + len(Xs))
            kept[at] = ~deficient
            coefs[at][~deficient] = np.concatenate((B_F[:, :1], B_L, B_F[:, 1:]), axis=1)
    return coefs, kept


def bootstrap_bands(model: VarxModel, design: Design) -> ImpulseResponse:
    """Recursive residual bootstrap bands around the point multipliers of ``model``, fitted to ``design``.

    Horizon, shock size, replications, seed and band method are those of
    ``design.spec``. The point and the responses of the replications
    ``_bootstrap_draws`` kept are stepped together, one horizon at a time,
    and each horizon's draws are reduced: to the point +/- 1 bootstrap
    standard deviation by default, or to the 15.87/84.13 percentiles clipped
    to contain the point. Rank-deficient re-estimations are dropped and
    counted in ``dropped``; more than 5% aborts, and so does the first horizon
    with a point or band value that is not finite (a shock size or an explosive
    fit past float's range), where both stop. A horizon too large to allocate fails before any draw.
    """
    spec, H, s = design.spec, design.spec.horizon, design.spec.shock_size
    try:
        point, lower, upper = np.empty((3, H + 1, design.data.k))
    except (MemoryError, ValueError):  # numpy's errors for a size past memory or past its index range
        raise VarxError(f"horizon {H} is too large: its response table cannot be allocated") from None
    coefs, kept = _bootstrap_draws(model, design)
    dropped = spec.bootstrap_reps - int(kept.sum())
    if dropped > 0.05 * spec.bootstrap_reps:
        raise VarxError(f"bootstrap aborted: {dropped} of {spec.bootstrap_reps} replications failed re-estimation")
    _, endo, exog = _unpack(coefs[kept], design)
    steps = zip(_responses(model.endo_coefs, model.exog_coefs, H, s), _responses(endo, exog, H, s))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below, not warned about
        for h, (point[h], draws) in enumerate(steps):  # point[h] is filled in place; draws is (kept reps, k)
            if spec.band_method == "sd":
                sd = draws.std(axis=0, ddof=1)
                lower[h], upper[h] = point[h] - sd, point[h] + sd
            else:
                lo, up = np.percentile(draws, (15.87, 84.13), axis=0)
                lower[h], upper[h] = np.minimum(lo, point[h]), np.maximum(up, point[h])
            bad = ~np.isfinite((point[h], lower[h], upper[h])).all(axis=0)
            if bad.any():
                i = int(np.argmax(bad))
                raise VarxError(f"response of {design.data.names[i]} at horizon {h} is not finite: point "
                                f"{point[h, i]:.10g}, lower {lower[h, i]:.10g}, upper {upper[h, i]:.10g}")
    return ImpulseResponse(design.data.names, point, lower, upper, dropped)


def subsample(data: TimeSeriesData, start: str | None, end: str | None) -> TimeSeriesData:
    """Contiguous restriction of the data to [start, end] by quarter label; None is the data's own end.

    Lag windows are recomputed inside the subsample by the subsequent
    build_design, so no observations leak across the boundary.
    """
    last = data.first + data.T - 1
    try:
        lo = data.first if start is None else parse_quarter(start)
        hi = last if end is None else parse_quarter(end)
    except PanelError as exc:
        raise VarxError(str(exc)) from None
    if lo > hi:
        raise VarxError(f"subsample start {start or data.quarters[0]} is after end {end or data.quarters[-1]}")
    lo, hi = max(lo, data.first), min(hi, last)
    if lo > hi:
        raise VarxError(f"subsample [{start}, {end}] does not intersect the data")
    rows = slice(lo - data.first, hi + 1 - data.first)
    return TimeSeriesData(lo, data.X[rows], data.d[rows], data.names)


def simulate_varx(intercept, endo_coefs, exog_coefs, d, noise_sd, rng):
    """Simulate a VARX sample driven by the given exogenous path.

    ``endo_coefs`` is (p, k, k), ``exog_coefs`` (q+1, k) with row 0 the
    contemporaneous coefficient (zero for a model without that term).
    50 burn-in periods start from zero lags, use zero exogenous input and are discarded.
    """
    burn_in = 50
    intercept = np.asarray(intercept, dtype=float)
    endo_coefs = np.asarray(endo_coefs, dtype=float)
    exog_coefs = np.asarray(exog_coefs, dtype=float)
    p, q = endo_coefs.shape[0], exog_coefs.shape[0] - 1
    n = burn_in + len(d)
    d_full = np.concatenate([np.zeros(q + burn_in), d])
    drive = intercept + rng.normal(0.0, noise_sd, size=(n, intercept.shape[0]))
    for j in range(q + 1):
        drive = drive + exog_coefs[j] * d_full[q - j : q - j + n, None]
    return _recurse(np.zeros((p + n, intercept.shape[0])), endo_coefs, drive, p)[p + burn_in :]


def companion_spectral_radius(model: VarxModel) -> float:
    """Largest eigenvalue modulus of the autoregressive companion matrix."""
    p, k = model.endo_coefs.shape[:2]
    comp = np.vstack((np.hstack(model.endo_coefs), np.eye((p - 1) * k, p * k)))
    return float(np.abs(np.linalg.eigvals(comp)).max())


def write_irf_csv(irf: ImpulseResponse, path) -> None:
    """Write responses as horizon,variable,point,lower,upper rows."""
    bands = np.stack((irf.point, irf.lower, irf.upper), axis=-1)
    _write_grid(path, _IRF_HEADER, range(irf.horizon + 1), [(name,) for name in irf.names], bands)


def read_irf_csv(source) -> ImpulseResponse:
    """Read a response table written by write_irf_csv.

    ``dropped`` is 0: the CSV holds no count of dropped replications; a
    run's ``manifest.json`` does.
    """
    entries = {}  # (horizon, variable) -> the row's point, lower and upper
    for lineno, (h_text, name, *val_texts) in _read_rows(_source_lines(source, VarxError), _IRF_HEADER, VarxError):
        h_text, name = h_text.strip(), name.strip()
        digits = h_text.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):  # int() also takes '+1', '1_0' and non-ASCII digits
            raise VarxError(f"row {lineno}: non-numeric horizon {h_text!r}")
        key = (int(h_text), name)
        if key[0] < 0:
            raise VarxError(f"row {lineno}: negative horizon {h_text}")
        if key in entries:
            raise VarxError(f"row {lineno}: duplicate entry for horizon {h_text}, variable {name}")
        entries[key] = [_number(v.strip(), lineno, col, error=VarxError) for v, col in zip(val_texts, _IRF_HEADER[2:])]
    if not entries:
        raise VarxError("IRF CSV contains no data rows")
    names = tuple(dict.fromkeys(name for _, name in entries))  # in first-seen order
    H = max(h for h, _ in entries)
    if len(entries) < (H + 1) * len(names):  # the keys are distinct: a short count means an entry is missing
        h, name = next((h, name) for h in range(H + 1) for name in names if (h, name) not in entries)
        raise VarxError(f"missing IRF entry for horizon {h}, variable {name}")
    bands = np.array([[entries[h, name] for name in names] for h in range(H + 1)])  # (H+1, k, 3)
    return ImpulseResponse(names, *np.moveaxis(bands, -1, 0))
