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

then apply a Bartlett-kernel HAC estimator to the h_t series and sandwich it
between (X'X)^-1 factors. The automatic bandwidth is the Newey-West rule
floor(4 * (T/100)^(2/9)) on the number of periods, and the bandwidth
actually used is always reported.

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
times a block's largest are zeroed, and a fit that zeroes any logs one
warning with the count.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Sequence

import numpy as np
from scipy.special import stdtr

from .errors import DataError, EstimationError
from .panel import PanelDataset

log = logging.getLogger(__name__)

COV_TYPES = ("driscoll_kraay", "conventional")
RANK_RTOL = 1e-10  # smallest/largest singular value ratio below this = rank deficient
PINV_RTOL = 1e-8  # leverage eigenvalues at or below this share of the largest are zeroed


def newey_west_auto_bandwidth(n_periods: int) -> int:
    """Automatic kernel bandwidth floor(4 * (T/100)^(2/9))."""
    return int(math.floor(4.0 * (n_periods / 100.0) ** (2.0 / 9.0)))


@dataclass(frozen=True)
class RegressionSpec:
    """What to regress on what, and how to build the covariance.

    dk_bandwidth is either "auto" or an explicit non-negative lag count.
    small_sample toggles the few-period adjustment described in the module
    docstring; it has no effect on point estimates.
    """

    dependent: str
    regressors: tuple[str, ...]
    include_intercept: bool = True
    fixed_effects: bool = True
    dk_bandwidth: int | str = "auto"
    cov_type: str = "driscoll_kraay"
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
        if self.cov_type not in COV_TYPES:
            raise DataError(f"cov_type must be one of {COV_TYPES}, got {self.cov_type!r}")


@dataclass(frozen=True)
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
    cov_type: str
    small_sample: bool
    dropped_entities: tuple[str, ...] = field(default=())
    row_entities: tuple[str, ...] = field(default=(), repr=False)
    row_periods: tuple[int, ...] = field(default=(), repr=False)

    def coef(self, name: str) -> float:
        return float(self.coefficients[self.param_names.index(name)])

    def se(self, name: str) -> float:
        return float(self.std_errors[self.param_names.index(name)])

    def p_value(self, name: str) -> float:
        return float(self.p_values[self.param_names.index(name)])

    def to_dict(self) -> dict:
        return {
            "params": [
                {
                    "name": n,
                    "estimate": float(b),
                    "std_error": float(s),
                    "t_stat": float(t),
                    "p_value": float(p),
                }
                for n, b, s, t, p in zip(
                    self.param_names, self.coefficients, self.std_errors,
                    self.t_stats, self.p_values,
                )
            ],
            "covariance": [[float(v) for v in row] for row in self.covariance],
            "r_squared_within": self.r_squared_within,
            "n_obs": self.n_obs,
            "n_entities": self.n_entities,
            "n_periods_used": self.n_periods_used,
            "df_resid": self.df_resid,
            "bandwidth_used": self.bandwidth_used,
            "cov_type": self.cov_type,
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


def _assemble(ds: PanelDataset, spec: RegressionSpec, fixed_effects: bool):
    """Listwise-complete rows for the regression, entity-major order."""
    for name in (spec.dependent, *spec.regressors):
        ds.column(name)  # raises DataError if absent
    dep = ds.column(spec.dependent)
    regs = np.stack([ds.column(r) for r in spec.regressors], axis=-1)  # (nE, nP, k)
    keep = ~np.isnan(dep) & ~np.isnan(regs).any(axis=-1)  # (nE, nP)

    dropped: list[str] = []
    if fixed_effects:
        counts = keep.sum(axis=1)
        for i, c in enumerate(counts):
            if 0 < c < 2:
                dropped.append(ds.entities[i])
                keep[i] = False
        if dropped:
            log.warning(
                "dropping %d entit%s with fewer than 2 usable periods: %s",
                len(dropped), "y" if len(dropped) == 1 else "ies", dropped,
            )

    ei, pj = np.nonzero(keep)
    if ei.size == 0:
        raise EstimationError("no usable observations after listwise deletion")
    y = dep[ei, pj]
    X = regs[ei, pj, :]
    ent_labels = [ds.entities[i] for i in ei]
    per_labels = [ds.periods[j] for j in pj]
    # compact integer codes for kept entities / periods
    _, ent_code = np.unique(ei, return_inverse=True)
    upers, per_code = np.unique(pj, return_inverse=True)
    return y, X, ent_code, per_code, len(upers), ent_labels, per_labels, tuple(dropped)


def _entity_demean(v: np.ndarray, ent_code: np.ndarray) -> np.ndarray:
    """Subtract per-entity means (v is (n,) or (n,k))."""
    n_ent = int(ent_code.max()) + 1
    counts = np.bincount(ent_code, minlength=n_ent).astype(float)
    if v.ndim == 1:
        sums = np.bincount(ent_code, weights=v, minlength=n_ent)
        return v - (sums / counts)[ent_code]
    out = np.empty_like(v, dtype=float)
    for c in range(v.shape[1]):
        sums = np.bincount(ent_code, weights=v[:, c], minlength=n_ent)
        out[:, c] = v[:, c] - (sums / counts)[ent_code]
    return out


def _check_rank(Z: np.ndarray, names: Sequence[str]) -> None:
    svals = np.linalg.svd(Z, compute_uv=False)
    if svals[0] == 0 or svals[-1] / svals[0] < RANK_RTOL:
        _, _, vh = np.linalg.svd(Z)
        load = np.abs(vh[-1])
        guilty = [n for n, w in zip(names, load) if w > 0.25 * load.max()]
        raise EstimationError(f"design matrix is rank deficient; collinear columns: {guilty}")


def _dk_middle(
    Z: np.ndarray,
    resid: np.ndarray,
    per_code: np.ndarray,
    n_periods: int,
    bandwidth: int,
) -> np.ndarray:
    """Bartlett-weighted HAC matrix of the per-period score sums."""
    kz = Z.shape[1]
    h = np.zeros((n_periods, kz))
    for t in range(n_periods):
        rows = per_code == t
        h[t] = Z[rows].T @ resid[rows]
    S = h.T @ h
    for j in range(1, bandwidth + 1):
        w = 1.0 - j / (bandwidth + 1.0)
        omega = h[j:].T @ h[:-j]
        S += w * (omega + omega.T)
    return S


def _leverage_adjusted_residuals(
    X: np.ndarray,
    d: np.ndarray,
    resid: np.ndarray,
    per_code: np.ndarray,
) -> np.ndarray:
    """Per-period leverage adjustment M_t^(+1/2) r_t, stacked in row order.

    M_t = diag(d_t) - U_t U_t' is the period-t block of the residual maker,
    with U = X L and L L' = pinv(X'X). Under fixed effects X is the demeaned
    design and d = 1 - 1/T_i (each entity appears at most once per period);
    in a pooled fit X is the full design and d = 1.

    The block is never formed. Grouping the period's rows by d, span{Q_j},
    with Q_j from a reduced QR of group j's rows of U, is invariant under M_t;
    on its orthogonal complement M_t acts as d_j on group j. So one eigh of
    size at most (groups x k) gives the exact pseudo-inverse square root.
    Eigenvalues at most PINV_RTOL times the largest are zeroed, and the number
    zeroed is logged.
    """
    w, v = np.linalg.eigh(X.T @ X)
    keep = w > 1e-15 * w[-1]  # np.linalg.pinv's cutoff
    # sort rows by (period, d) so every group is a contiguous slice
    order = np.lexsort((d, per_code))
    U = X[order] @ (v[:, keep] / np.sqrt(w[keep]))
    d, r, p = d[order], resid[order], per_code[order]
    starts = np.flatnonzero(np.r_[True, (p[1:] != p[:-1]) | (d[1:] != d[:-1])])
    spans = zip(starts, np.r_[starts[1:], p.size])

    out = np.empty_like(r)
    n_zeroed = 0
    for _, period_spans in groupby(spans, key=lambda span: p[span[0]]):
        groups = [slice(a, b) for a, b in period_spans]
        dj = d[[g.start for g in groups]]
        qs = [np.linalg.qr(U[g])[0] for g in groups]
        sizes = [q.shape[1] for q in qs]
        qtu = np.vstack([q.T @ U[g] for q, g in zip(qs, groups)])
        lam, W = np.linalg.eigh(np.diag(np.repeat(dj, sizes)) - qtu @ qtu.T)
        # d_j is an eigenvalue only where group j has complement dimension left
        n_rest = np.array([g.stop - g.start for g in groups]) - sizes
        tol = PINV_RTOL * max(lam[-1], *dj[n_rest > 0], 1e-300)
        n_zeroed += int((lam <= tol).sum() + n_rest[dj <= tol].sum())
        f_lam = np.where(lam > tol, 1.0 / np.sqrt(np.clip(lam, tol, None)), 0.0)
        f_d = np.where(dj > tol, 1.0 / np.sqrt(np.clip(dj, tol, None)), 0.0)

        qtr = [q.T @ r[g] for q, g in zip(qs, groups)]
        coords = np.split(W @ (f_lam * (W.T @ np.concatenate(qtr))), np.cumsum(sizes)[:-1])
        for q, g, c, a, f in zip(qs, groups, qtr, coords, f_d):
            out[g] = q @ a + f * (r[g] - q @ c)
    if n_zeroed:
        log.warning(
            "small-sample covariance: %d leverage eigenvalue%s at or below %g "
            "of the largest zeroed (pseudo-inverse)",
            n_zeroed, "" if n_zeroed == 1 else "s", PINV_RTOL,
        )
    adjusted = np.empty_like(out)
    adjusted[order] = out
    return adjusted


def _fit_core(ds: PanelDataset, spec: RegressionSpec, fixed_effects: bool) -> FitResult:
    y, X, ent_code, per_code, n_per, ent_labels, per_labels, dropped = _assemble(
        ds, spec, fixed_effects
    )
    n = y.size
    k = X.shape[1]
    n_ent = int(ent_code.max()) + 1

    if fixed_effects and n <= k + 1:
        raise EstimationError(
            f"too few observations: {n} rows for {k} regressors"
        )

    names: tuple[str, ...]
    if fixed_effects:
        y_dm = _entity_demean(y, ent_code)
        X_dm = _entity_demean(X, ent_code)
        if spec.include_intercept:
            Z = np.column_stack([np.ones(n), X_dm + X.mean(axis=0)])
            y_reg = y_dm + y.mean()
            names = ("const", *spec.regressors)
        else:
            Z = X_dm
            y_reg = y_dm
            names = spec.regressors
        tss = float(y_dm @ y_dm)
        n_params = k + n_ent
    else:
        X_dm = X
        if spec.include_intercept:
            Z = np.column_stack([np.ones(n), X])
            names = ("const", *spec.regressors)
            tss = float(((y - y.mean()) ** 2).sum())
            n_params = k + 1
        else:
            Z = X
            names = spec.regressors
            tss = float(y @ y)
            n_params = k
        y_reg = y

    _check_rank(Z, names)
    theta, *_ = np.linalg.lstsq(Z, y_reg, rcond=None)
    resid = y_reg - Z @ theta
    ssr = float(resid @ resid)
    df = n - n_params
    if fixed_effects and df < 1:
        raise EstimationError(
            f"too few observations: {n} rows leave no residual degrees of freedom "
            f"after {n_params} parameters (including absorbed entity means)"
        )
    if df < 0:
        raise EstimationError(f"too few observations: {n} rows for {n_params} parameters")

    if spec.dk_bandwidth == "auto":
        bandwidth = newey_west_auto_bandwidth(n_per)
    else:
        bandwidth = int(spec.dk_bandwidth)
    bandwidth = min(bandwidth, n_per - 1)

    kz = Z.shape[1]
    if df == 0:
        # exact fit: coefficients are well defined, inference is not
        cov = np.full((kz, kz), np.nan)
        if spec.cov_type == "conventional":
            bandwidth = 0
    elif spec.cov_type == "conventional":
        cov = (ssr / df) * np.linalg.inv(Z.T @ Z)
        bandwidth = 0
    else:
        ztz_inv = np.linalg.inv(Z.T @ Z)
        if spec.small_sample:
            if fixed_effects:
                x_lev, d = X_dm, 1.0 - 1.0 / np.bincount(ent_code)[ent_code]
            else:
                x_lev, d = Z, np.ones(n)
            resid_scores = _leverage_adjusted_residuals(x_lev, d, resid, per_code)
        else:
            resid_scores = resid
        S = _dk_middle(Z, resid_scores, per_code, n_per, bandwidth)
        if spec.small_sample:
            factor = (n - 1.0) / df
            if n_per > 1:
                factor *= n_per / (n_per - 1.0)
            S = S * factor
        cov = ztz_inv @ S @ ztz_inv
        cov = (cov + cov.T) / 2.0

    with np.errstate(invalid="ignore"):
        se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = theta / se  # +-inf for exact zero SEs, nan when undefined
    if df >= 1:
        pvals = 2.0 * stdtr(df, -np.abs(tstat))
    else:
        pvals = np.full(kz, np.nan)
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
        n_entities=n_ent,
        n_periods_used=n_per,
        df_resid=df,
        bandwidth_used=bandwidth,
        cov_type=spec.cov_type,
        small_sample=spec.small_sample,
        dropped_entities=dropped,
        row_entities=tuple(ent_labels),
        row_periods=tuple(per_labels),
    )


# -- public fitters -----------------------------------------------------------


def fit_within_dk(ds: PanelDataset, spec: RegressionSpec) -> FitResult:
    """Fixed-effects (within) least squares with Driscoll-Kraay covariance.

    Rows with any missing value among the dependent and regressors are
    dropped listwise; entities left with fewer than 2 usable periods are
    removed with a logged warning. Set spec.fixed_effects=False for a pooled
    fit through the same covariance machinery.
    """
    return _fit_core(ds, spec, fixed_effects=spec.fixed_effects)

