"""Least-squares panel estimation with Driscoll-Kraay covariance.

The point estimator is the within (fixed-effects) estimator: entity-demean
the dependent variable and the regressors, then run OLS. When an intercept
is requested together with fixed effects, grand means are added back to the
demeaned data so the constant is estimated directly (the usual add-back
construction); slopes are unchanged by this and equal the plain within
estimates.

The covariance follows Driscoll and Kraay (1998): collapse the moment
conditions cross-sectionally into one score vector per period,

    h_t = sum_i x_it * e_it,

then apply a Bartlett-kernel HAC estimator to the T x k table h, its only
input, and sandwich the result between (X'X)^-1 factors. The automatic
bandwidth is the Newey-West rule floor(4 * (T/100)^(2/9)) on the number of
periods, and the bandwidth actually used is always reported.

Small-sample behaviour matters here: with a handful of periods the kernel
matrix is built from very few score vectors and the plain estimator is
noticeably downward biased (the same few-clusters problem as cluster-robust
covariance with clusters = periods). The default therefore applies the
standard few-cluster treatment: Bell-McCaffrey style leverage adjustment of
the per-period scores plus the usual T/(T-1) * (n-1)/(n-p) degrees-of-freedom
factor. Pass small_sample=False for the plain textbook estimator.

The leverage adjustment (CR2; Bell and McCaffrey 2002, Pustejovsky and Tipton
2018) replaces each period's residuals r_t by M_t^(+1/2) r_t, where M_t is
the period-t diagonal block of the residual maker I - H. The N_t x N_t block
is never built: it is a diagonal matrix minus a rank-k term, so its
pseudo-inverse square root is exact from a reduced QR per group of entities
with equal T_i and one eigendecomposition of size at most (groups x k). The
cost is O(n k^2) time and O(n k) memory. Eigenvalues at most PINV_RTOL
are zeroed, and a fit that zeroes any logs one warning with the count.

Specs fitted together by fit_within_dk_many (as model.fit_system does)
that keep the same rows share one assembly of those rows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Sequence

import numpy as np

from .errors import DataError, EstimationError
from .panel import PanelDataset, entity_demean

log = logging.getLogger(__name__)

RANK_RTOL = 1e-10  # smallest/largest singular value ratio below this = rank deficient
# Leverage eigenvalues at or below this are zeroed. Every period block of
# I - H has its eigenvalues in [0, 1], so the bound is relative to 1, not to
# the block's own largest, which may itself be rounding noise.
PINV_RTOL = 1e-8


def newey_west_auto_bandwidth(n_periods: int) -> int:
    """Automatic kernel bandwidth floor(4 * (T/100)^(2/9))."""
    return int(math.floor(4.0 * (n_periods / 100.0) ** (2.0 / 9.0)))


@dataclass(frozen=True, slots=True)
class RegressionSpec:
    """What to regress on what, and how to build the DK covariance.

    dk_bandwidth is either "auto" or an explicit non-negative lag count.
    small_sample toggles the few-period adjustment described in the module
    docstring; it has no effect on point estimates.
    """

    dependent: str
    regressors: tuple[str, ...]
    include_intercept: bool = True
    fixed_effects: bool = True
    dk_bandwidth: int | str = "auto"
    small_sample: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "regressors", tuple(self.regressors))
        if not self.regressors:
            raise DataError("at least one regressor is required")
        if len(set(self.regressors)) != len(self.regressors):
            raise DataError(f"regressors must be distinct, got {self.regressors}")
        if self.dependent in self.regressors:
            raise DataError(f"dependent {self.dependent!r} cannot also be a regressor")
        if self.dk_bandwidth != "auto":
            if not isinstance(self.dk_bandwidth, int) or self.dk_bandwidth < 0:
                raise DataError(
                    f"dk_bandwidth must be 'auto' or a non-negative integer, "
                    f"got {self.dk_bandwidth!r}"
                )


@dataclass(frozen=True, slots=True)
class FitResult:
    """Estimates, covariance, and diagnostics for one regression."""

    param_names: tuple[str, ...]
    coefficients: np.ndarray
    covariance: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    residuals: np.ndarray
    r_squared_within: float
    n_obs: int
    n_entities: int
    n_periods_used: int
    df_resid: int
    bandwidth_used: int
    small_sample: bool
    dropped_entities: tuple[str, ...] = field(default=())
    row_entities: tuple[str, ...] = field(default=(), repr=False)
    row_periods: tuple[int, ...] = field(default=(), repr=False)

    def coef(self, name: str) -> float:
        return float(self.coefficients[self.param_names.index(name)])

    def se(self, name: str) -> float:
        return float(self.std_errors[self.param_names.index(name)])

    def to_dict(self) -> dict:
        return {
            "params": [
                {
                    "name": n,
                    "estimate": _json_float(b),
                    "std_error": _json_float(s),
                    "t_stat": _json_float(t),
                    "p_value": _json_float(p),
                }
                for n, b, s, t, p in zip(
                    self.param_names, self.coefficients, self.std_errors,
                    self.t_stats, self.p_values,
                )
            ],
            "covariance": [[_json_float(v) for v in row] for row in self.covariance],
            "r_squared_within": _json_float(self.r_squared_within),
            "n_obs": self.n_obs,
            "n_entities": self.n_entities,
            "n_periods_used": self.n_periods_used,
            "df_resid": self.df_resid,
            "bandwidth_used": self.bandwidth_used,
            "cov_type": "driscoll_kraay",
            "small_sample": self.small_sample,
            "dropped_entities": list(self.dropped_entities),
        }

    def summary(self) -> str:
        """Aligned text table: estimate with the p-value beneath it."""
        width = max(12, *(len(n) + 2 for n in self.param_names))
        header = "".join(f"{n:>{width}}" for n in self.param_names)
        est = "".join(f"{b:>{width}.4g}" for b in self.coefficients)
        pv = "".join(f"{('(%.2f)' % p):>{width}}" for p in self.p_values)
        se = "".join(f"{('[%.4g]' % s):>{width}}" for s in self.std_errors)
        lines = [
            header,
            est,
            pv,
            se,
            f"n_obs={self.n_obs}  entities={self.n_entities}  periods={self.n_periods_used}"
            f"  R2(within)={self.r_squared_within:.4g}  dk_lags={self.bandwidth_used}",
        ]
        return "\n".join(lines)


# -- internals ----------------------------------------------------------------


def _json_float(v) -> float | None:
    """`v` as a float, or None (JSON null) where JSON cannot hold it: NaN, +-inf."""
    v = float(v)
    return v if math.isfinite(v) else None


def _usable_rows(
    ds: PanelDataset, spec: RegressionSpec
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Listwise-complete cells of the spec's columns, (n_entities, n_periods).

    Under fixed effects, entities left with fewer than 2 usable periods are
    removed with a logged warning; their ids are returned alongside.
    """
    for name in (spec.dependent, *spec.regressors):
        ds.column(name)  # raises DataError if absent
    keep = ~np.isnan(ds.column(spec.dependent))
    for name in spec.regressors:
        keep &= ~np.isnan(ds.column(name))

    dropped: tuple[str, ...] = ()
    if spec.fixed_effects:
        thin = np.flatnonzero(keep.sum(axis=1) == 1)
        keep[thin] = False
        dropped = tuple(ds.entities[i] for i in thin)
        if dropped:
            log.warning(
                "dropping %d entit%s with fewer than 2 usable periods: %s",
                len(dropped), "y" if len(dropped) == 1 else "ies", list(dropped),
            )
    return keep, dropped


class _Rows:
    """The rows one keep mask selects, in entity-major order, shared by the
    specs fitted on them: entity and period codes, labels, one stable sort by
    (period, d) cut into per-period slices of equal-d groups (d = 1 - 1/T_i
    under fixed effects, 1 pooled), and a memo of each column's values and
    entity-demeaned values at the rows. Built afresh by every fitting call.
    """

    def __init__(self, ds: PanelDataset, keep: np.ndarray, dropped: tuple[str, ...],
                 fixed_effects: bool) -> None:
        ei, pj = np.nonzero(keep)
        if ei.size == 0:
            raise EstimationError("no usable observations after listwise deletion")
        self.n, self.dropped = ei.size, dropped
        self.row_entities = tuple(np.array(ds.entities, dtype=object)[ei].tolist())
        self.row_periods = tuple(np.array(ds.periods, dtype=object)[pj].tolist())
        # compact codes over the entities and periods that keep any row
        ent_used, per_used = keep.any(axis=1), keep.any(axis=0)
        self.ent_code = (np.cumsum(ent_used) - 1)[ei]
        per_code = (np.cumsum(per_used) - 1)[pj]
        self.n_ent, self.n_per = int(ent_used.sum()), int(per_used.sum())
        self.counts = np.bincount(self.ent_code).astype(float)  # T_i per entity
        d = 1.0 - 1.0 / self.counts[self.ent_code] if fixed_effects else np.ones(self.n)

        self.order = np.lexsort((d, per_code))
        p, self.d = per_code[self.order], d[self.order]
        starts = np.flatnonzero(np.r_[True, (p[1:] != p[:-1]) | (self.d[1:] != self.d[:-1])])
        spans = zip(starts.tolist(), np.r_[starts[1:], p.size].tolist())
        # per period, the slices of the sorted rows that share one d
        self.groups = [[slice(a, b) for a, b in period_spans]
                       for _, period_spans in groupby(spans, key=lambda span: p[span[0]])]
        self.periods = [slice(g[0].start, g[-1].stop) for g in self.groups]

        self._ds, self._ei, self._pj = ds, ei, pj
        self._values: dict[str, np.ndarray] = {}
        self._demeaned: dict[str, np.ndarray] = {}

    def values(self, name: str) -> np.ndarray:
        """Column `name` at the rows."""
        if name not in self._values:
            self._values[name] = self._ds.column(name)[self._ei, self._pj]
        return self._values[name]

    def demeaned(self, name: str) -> np.ndarray:
        """Column `name` at the rows less each entity's mean over its rows."""
        if name not in self._demeaned:
            self._demeaned[name] = entity_demean(self.values(name), self.ent_code, self.counts)
        return self._demeaned[name]


def _check_rank(Z: np.ndarray, svals: np.ndarray, names: Sequence[str]) -> None:
    """Raise naming the collinear columns if Z's singular values `svals`
    (largest first) fall below RANK_RTOL relative to the largest."""
    if svals[0] == 0 or svals[-1] / svals[0] < RANK_RTOL:
        _, _, vh = np.linalg.svd(Z)
        load = np.abs(vh[-1])
        guilty = [n for n, w in zip(names, load) if w > 0.25 * load.max()]
        raise EstimationError(f"design matrix is rank deficient; collinear columns: {guilty}")


def _dk_middle(h: np.ndarray, bandwidth: int) -> np.ndarray:
    """Bartlett-weighted HAC matrix of the per-period score sums h (T x k)."""
    S = h.T @ h
    for j in range(1, bandwidth + 1):
        w = 1.0 - j / (bandwidth + 1.0)
        omega = h[j:].T @ h[:-j]
        S += w * (omega + omega.T)
    return S


def _leverage_adjusted_residuals(X: np.ndarray, rows: _Rows, resid: np.ndarray) -> np.ndarray:
    """Per-period leverage adjustment M_t^(+1/2) r_t, in the period-sorted row order.

    M_t = diag(d_t) - U_t U_t' is the period-t block of the residual maker,
    with U = X L and L L' = pinv(X'X), taken on unit-norm columns so that its
    cutoff ignores units. Under fixed effects X is the demeaned design and
    d = 1 - 1/T_i (each entity appears at most once per period); in a pooled
    fit X is the full design and d = 1.

    The block is never formed. Grouping the period's rows by d, span{Q_j},
    with Q_j from a reduced QR of group j's rows of U, is invariant under M_t;
    on its orthogonal complement M_t acts as d_j >= 1/2 on group j. So one
    eigh of size at most (groups x k) gives the exact pseudo-inverse square
    root. Eigenvalues at most PINV_RTOL are zeroed, and the number zeroed is
    logged.
    """
    gram = X.T @ X
    scale = np.sqrt(np.diag(gram))  # nonzero: the rank check has passed
    w, v = np.linalg.eigh(gram / np.outer(scale, scale))
    keep = w > 1e-15 * w[-1]  # np.linalg.pinv's cutoff
    U = X[rows.order] @ (v[:, keep] / np.sqrt(w[keep]) / scale[:, None])
    r = resid[rows.order]

    out = np.empty_like(r)
    n_zeroed = 0
    for groups in rows.groups:
        dj = rows.d[[g.start for g in groups]]
        qs = [np.linalg.qr(U[g])[0] for g in groups]
        sizes = [q.shape[1] for q in qs]
        qtu = np.vstack([q.T @ U[g] for q, g in zip(qs, groups)])
        lam, W = np.linalg.eigh(np.diag(np.repeat(dj, sizes)) - qtu @ qtu.T)
        n_zeroed += int((lam <= PINV_RTOL).sum())
        f_lam = np.where(lam > PINV_RTOL, 1.0 / np.sqrt(np.clip(lam, PINV_RTOL, None)), 0.0)

        qtr = [q.T @ r[g] for q, g in zip(qs, groups)]
        coords = np.split(W @ (f_lam * (W.T @ np.concatenate(qtr))), np.cumsum(sizes)[:-1])
        for q, g, c, a, f in zip(qs, groups, qtr, coords, 1.0 / np.sqrt(dj)):
            out[g] = q @ a + f * (r[g] - q @ c)
    if n_zeroed:
        log.warning(
            "small-sample covariance: %d leverage eigenvalue%s at or below %g "
            "zeroed (pseudo-inverse)",
            n_zeroed, "" if n_zeroed == 1 else "s", PINV_RTOL,
        )
    return out


def _score_table(rows: _Rows, Z: np.ndarray, X: np.ndarray, resid: np.ndarray,
                 small_sample: bool) -> np.ndarray:
    """The T x kz table h of score sums h_t = Z_t' s_t over the periods that keep
    a row: s is resid, or with small_sample its leverage adjustment on X."""
    s = _leverage_adjusted_residuals(X, rows, resid) if small_sample else resid[rows.order]
    return np.array([Z[rows.order[t]].T @ s[t] for t in rows.periods])


def _t_pvalue(t: float, df: int) -> float:
    """Two-sided p-value 2 * P(T_df <= -|t|) of Student's t with df >= 1.

    This is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t^2), from the even contraction of its continued fraction
    (modified Lentz). Past the fraction's switch point the symmetric form
    1 - I_y(1/2, df/2) on y = t^2 / (df + t^2) converges instead. The terms
    1 - c_k x, which cancel where x is close to 1, are built from y, so a
    large df loses no digits to the rounding of x. nan gives nan, +-inf
    gives 0.
    """
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    a = 0.5 * df
    t2 = t * t
    log1p_r = math.log1p(t2 / df)  # -ln x
    # ln Gamma(a + 1/2) - ln Gamma(a); the plain lgamma difference cancels
    # about 1e-12 of its digits by a = 1000, so large a takes the asymptotic
    # series (Bernoulli terms through a^-9, error below 1e-16 at a = 20).
    if a < 20.0:
        lg_ratio = math.lgamma(a + 0.5) - math.lgamma(a)
    else:
        r = 1.0 / (a * a)
        lg_ratio = 0.5 * math.log(a) - (
            1.0 / 8.0 - r * (1.0 / 192.0 - r * (1.0 / 640.0 - r * (
                17.0 / 14336.0 - r * 31.0 / 18432.0)))) / a
    # x^a y^(1/2) / B(a, 1/2), with B(a, 1/2) = Gamma(a) sqrt(pi) / Gamma(a + 1/2)
    front = math.exp(-a * log1p_r
                     + 0.5 * (2.0 * math.log(abs(t)) - math.log(df) - log1p_r)
                     + lg_ratio - 0.5 * math.log(math.pi))
    y = t2 / (df + t2)
    flip = (a + 2.5) * y <= 1.5  # x >= (a + 1) / (a + 2.5)
    p, q, z = (0.5, a, y) if flip else (a, 0.5, df / (df + t2))
    # f = 1 / (B_0 + g_0 / (B_1 + g_1 / (B_2 + ...))), with c_k and e_k as below,
    # B_k = 1 - (c_k - e_k) z and g_k = c_k z^2 (k + 1)(q - k - 1) / ((s + 1)(s + 2)).
    # On either side of the switch point it converges within 60 steps for any
    # df up to 1e9.
    tiny = 1e-300
    f, c, d, num = tiny, tiny, 0.0, 1.0
    k = 0
    while True:
        s = p + 2 * k
        ck = (p + k) * (p + q + k) / (s * (s + 1.0))
        ek = k * (q - k) / ((s - 1.0) * s) if k else 0.0
        if flip:
            den = 1.0 - (ck - ek) * z
        else:  # 1 - c_k in closed form, so B_k = (1 - c_k + e_k) + (c_k - e_k) y
            den = ((p * (2 * k + 1.0 - q) + k * (3 * k + 2.0 - q)) / (s * (s + 1.0))
                   + ek + (ck - ek) * y)
        d = den + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = den + num / c
        c = c if abs(c) > tiny else tiny
        f = f * c * d  # f * c first: c * d overflows on the first step if B_0 is small
        if abs(c * d - 1.0) < 1e-15:
            break
        num = ck * z * z * (k + 1) * (q - k - 1) / ((s + 1.0) * (s + 2.0))
        k += 1
    value = front * f / p
    return 1.0 - value if flip else value


def _fit_core(rows: _Rows, spec: RegressionSpec) -> FitResult:
    n, k, n_per = rows.n, len(spec.regressors), rows.n_per
    y = rows.values(spec.dependent)
    X = np.column_stack([rows.values(r) for r in spec.regressors])
    if spec.fixed_effects:
        y_dm = rows.demeaned(spec.dependent)
        X_dm = np.column_stack([rows.demeaned(r) for r in spec.regressors])
        Z, y_reg = X_dm, y_dm
        if spec.include_intercept:  # add the grand means back
            Z, y_reg = X_dm + X.mean(axis=0), y_dm + y.mean()
        tss = float(y_dm @ y_dm)
        n_params = k + rows.n_ent
    else:
        Z, y_reg = X, y
        tss = float(((y - y.mean()) ** 2).sum()) if spec.include_intercept else float(y @ y)
        n_params = k + int(spec.include_intercept)
    names = spec.regressors
    if spec.include_intercept:
        names, Z = ("const", *names), np.column_stack([np.ones(n), Z])

    # A pooled fit may be exact (df = 0); a within fit needs a residual degree
    # of freedom beyond the absorbed entity means.
    df = n - n_params
    if df < (1 if spec.fixed_effects else 0):
        absorbed = " (including absorbed entity means)" if spec.fixed_effects else ""
        raise EstimationError(
            f"too few observations: {n} rows for {n_params} parameters{absorbed}")

    theta, _, _, svals = np.linalg.lstsq(Z, y_reg, rcond=None)
    _check_rank(Z, svals, names)
    resid = y_reg - Z @ theta
    ssr = float(resid @ resid)

    bandwidth = spec.dk_bandwidth
    if bandwidth == "auto":
        bandwidth = newey_west_auto_bandwidth(n_per)
    bandwidth = min(int(bandwidth), n_per - 1)

    kz = Z.shape[1]
    if df == 0:
        # exact fit: coefficients are well defined, inference is not
        cov = np.full((kz, kz), np.nan)
    else:
        ztz_inv = np.linalg.inv(Z.T @ Z)
        h = _score_table(rows, Z, X_dm if spec.fixed_effects else Z, resid, spec.small_sample)
        factor = ((n - 1.0) / df * (n_per / (n_per - 1.0) if n_per > 1 else 1.0)
                  if spec.small_sample else 1.0)
        S = _dk_middle(h, bandwidth) * factor
        cov = ztz_inv @ S @ ztz_inv
        cov = (cov + cov.T) / 2.0

    with np.errstate(invalid="ignore"):
        se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = theta / se  # +-inf for exact zero SEs, nan when undefined
    pvals = np.array([_t_pvalue(t, df) for t in tstat.tolist()])  # nan t at df = 0
    r2 = 1.0 - ssr / tss if tss > 0 else math.nan

    return FitResult(
        param_names=names,
        coefficients=theta,
        covariance=cov,
        std_errors=se,
        t_stats=tstat,
        p_values=pvals,
        residuals=resid,
        r_squared_within=r2,
        n_obs=n,
        n_entities=rows.n_ent,
        n_periods_used=n_per,
        df_resid=df,
        bandwidth_used=bandwidth,
        small_sample=spec.small_sample,
        dropped_entities=rows.dropped,
        row_entities=rows.row_entities,
        row_periods=rows.row_periods,
    )


# -- public fitters -----------------------------------------------------------


def fit_within_dk_many(ds: PanelDataset, specs: Sequence[RegressionSpec]) -> list[FitResult]:
    """fit_within_dk for each spec in turn, assembling shared rows once.

    Specs that keep the same rows (same listwise mask, dropped entities and
    fixed-effects setting) share one assembly: row codes and labels, the
    period sort, and each column's values and entity-demeaned values. Each
    result equals that of a separate fit_within_dk call.
    """
    assembled: dict = {}
    fits = []
    for spec in specs:
        keep, dropped = _usable_rows(ds, spec)
        key = (spec.fixed_effects, keep.tobytes(), dropped)
        if key not in assembled:
            assembled[key] = _Rows(ds, keep, dropped, spec.fixed_effects)
        fits.append(_fit_core(assembled[key], spec))
    return fits


def fit_within_dk(ds: PanelDataset, spec: RegressionSpec) -> FitResult:
    """Fixed-effects (within) least squares with Driscoll-Kraay covariance.

    Rows with any missing value among the dependent and regressors are
    dropped listwise; entities left with fewer than 2 usable periods are
    removed with a logged warning. Set spec.fixed_effects=False for a pooled
    fit through the same covariance machinery.
    """
    return fit_within_dk_many(ds, (spec,))[0]
