"""Least-squares panel estimation with Driscoll-Kraay covariance.

The point estimator is the within (fixed-effects) estimator: entity-demean
the dependent variable and the regressors, then run OLS; a pooled fit
demeans by the grand mean instead. Every fit has a constant, that of the
usual add-back construction (grand means added back to the demeaned data):
mean(y) - m'b for the regressors' grand means m and the slopes b.

Each fit factors its design once: a thin SVD of the demeaned regressors,
each column divided by the norm of its raw values. The same factors give the
rank check, the solve, the leverage basis and the covariance's bread; Z'Z is
never formed. Every column is first divided by a power of two, which is
exact, so nothing overflows on the way; an estimate or variance a double
cannot hold is refused.

The covariance follows Driscoll and Kraay (1998): collapse the moment
conditions cross-sectionally into one score vector per period,

    h_t = sum_i z_it * e_it,

and apply a Bartlett-kernel HAC estimator. The bread (Z'Z)^-1 is folded into
the table first, so the kernel's only input is the T x p table of
per-period influences g_t = (Z'Z)^-1 h_t, and its output is the covariance.
The automatic bandwidth is the Newey-West rule floor(4 * (T/100)^(2/9)) on
the number of periods, and the bandwidth actually used is always reported.

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
pseudo-inverse square root is exact from small factors. A period whose rows
share one diagonal value (every period of a pooled fit, or of a
fixed-effects fit on a balanced panel) and outnumber the k columns needs only
the eigendecomposition of its k x k Gram matrix. Any other period takes a
reduced QR per group of entities with equal T_i and one eigendecomposition of
size at most (groups x k): the only exact route when T_i differ, and the one
that gives an exactly zero adjusted residual for a block that is zero, which
can only happen at N_t <= k. The cost is O(n k^2) time and O(n k) memory.
Eigenvalues at most PINV_RTOL are zeroed, and a fit that zeroes any and is
not refused logs one warning with the count.

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

from ._checks import flag, integer
from .errors import DataError, EstimationError
from .panel import PanelDataset, entity_demean, pow2_normalise

log = logging.getLogger(__name__)

# A design whose smallest singular value, on columns of unit raw (not
# demeaned) norm, is below this is rank deficient.
RANK_RTOL = 1e-10
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

    Every fit has a constant, "const", added back from the means (module
    docstring), so include_intercept accepts only True. dk_bandwidth is
    "auto" or a non-negative int, not a bool or a float. small_sample
    toggles the few-period adjustment described in the module docstring;
    it has no effect on point estimates. fixed_effects and small_sample must
    be bools, and regressors neither a str nor a set (else a DataError).
    """

    dependent: str
    regressors: tuple[str, ...]
    include_intercept: bool = True
    fixed_effects: bool = True
    dk_bandwidth: int | str = "auto"
    small_sample: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.regressors, (str, set, frozenset)):  # letters; a hash-seeded order
            raise DataError(f"regressors must be a sequence of names, got {self.regressors!r}")
        object.__setattr__(self, "regressors", tuple(self.regressors))
        if not self.regressors:
            raise DataError("at least one regressor is required")
        if len(set(self.regressors)) != len(self.regressors):
            raise DataError(f"regressors must be distinct, got {self.regressors}")
        if self.dependent in self.regressors:
            raise DataError(f"dependent {self.dependent!r} cannot also be a regressor")
        if self.include_intercept is not True:
            raise DataError(f"include_intercept must be True (every fit has a constant), "
                            f"got {self.include_intercept!r}")
        flag("fixed_effects", self.fixed_effects)
        flag("small_sample", self.small_sample)
        if self.dk_bandwidth != "auto":
            object.__setattr__(self, "dk_bandwidth", integer("dk_bandwidth", self.dk_bandwidth, 0))


@dataclass(frozen=True, slots=True)
class FitResult:
    """Estimates, covariance, and diagnostics for one regression. std_errors,
    t_stats and p_values are computed from them on each access."""

    param_names: tuple[str, ...]
    coefficients: np.ndarray
    covariance: np.ndarray
    residuals: np.ndarray  # on the dataset's entities x periods, NaN where no row
    r_squared_within: float
    n_obs: int
    n_entities: int
    n_periods_used: int
    df_resid: int
    bandwidth_used: int
    small_sample: bool
    dropped_entities: tuple[str, ...] = field(default=())

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))  # nan stays nan

    @property
    def t_stats(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.coefficients / self.std_errors  # +-inf for zero SEs, nan if undefined

    @property
    def p_values(self) -> np.ndarray:
        """Two-sided, against Student's t on df_resid (nan at df_resid = 0)."""
        return np.array([_t_pvalue(t, self.df_resid) for t in self.t_stats.tolist()])

    def coef(self, name: str) -> float:
        return float(self.coefficients[self.param_names.index(name)])

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
    keep = ~np.isnan(ds.column(spec.dependent))  # ds.column raises DataError if absent
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
    """The rows one keep mask selects, shared by the specs fitted on them.

    The rows are stored in order of (period, d, entity), with d = 1 - 1/T_i
    under fixed effects and 1 pooled: group codes, d, and each column's
    memoised values and values demeaned within its group (its entity under
    fixed effects, all rows pooled) are in that order, cut into per-period
    slices of equal-d groups. Stored row s is the cell at flat index _flat[s]
    of the dataset's entities x periods grid, and grid() puts a row vector
    back on that grid. Built afresh by every fitting call.
    """

    def __init__(self, ds: PanelDataset, keep: np.ndarray, dropped: tuple[str, ...],
                 fixed_effects: bool) -> None:
        pj, ei = np.nonzero(keep.T)  # period-major, so already by (period, entity)
        if ei.size == 0:
            raise EstimationError("no usable observations after listwise deletion")
        self.n, self.dropped = ei.size, dropped
        # compact codes over the entities and periods that keep any row
        ent_used, per_used = keep.any(axis=1), keep.any(axis=0)
        ent_code = (np.cumsum(ent_used) - 1)[ei]
        p = (np.cumsum(per_used) - 1)[pj]
        self.n_ent, self.n_per = int(ent_used.sum()), int(per_used.sum())
        group = ent_code if fixed_effects else np.zeros_like(ent_code)
        self.counts = np.bincount(group).astype(float)  # rows per group, T_i under FE
        d = 1.0 - 1.0 / self.counts[group] if fixed_effects else np.ones(self.n)
        flat = ei * keep.shape[1] + pj
        if fixed_effects and self.counts.min() < self.counts.max():  # d varies
            order = np.lexsort((d, p))  # stable, so entities stay in order
            p, d, group, flat = p[order], d[order], group[order], flat[order]
        self.d, self.group, self._flat, self._shape = d, group, flat, keep.shape

        cuts = (np.flatnonzero((p[1:] != p[:-1]) | (d[1:] != d[:-1])) + 1).tolist()
        spans = zip([0, *cuts], [*cuts, self.n])
        # per period, the slices of the rows that share one d
        self.groups = [[slice(a, b) for a, b in period_spans]
                       for _, period_spans in groupby(spans, key=lambda span: p[span[0]])]
        self.periods = [slice(g[0].start, g[-1].stop) for g in self.groups]

        self._ds = ds
        self._values: dict[str, np.ndarray] = {}
        self._demeaned: dict[str, np.ndarray] = {}
        self.scale: dict[str, int] = {}

    def values(self, name: str) -> np.ndarray:
        """Column `name` at the rows over 2**scale[name], from `pow2_normalise`."""
        if name not in self._values:
            v = self._ds.column(name).ravel().take(self._flat)
            self._values[name], self.scale[name] = pow2_normalise(v)
        return self._values[name]

    def grid(self, v: np.ndarray) -> np.ndarray:
        """Row vector v on the dataset's entities x periods grid, NaN where no row."""
        out = np.full(self._shape, np.nan)
        np.put(out, self._flat, v)
        return out

    def demeaned(self, name: str) -> np.ndarray:
        """values(name) less its group's mean: the entity's, or pooled the grand mean."""
        if name not in self._demeaned:
            self._demeaned[name] = entity_demean(self.values(name), self.group, self.counts)
        return self._demeaned[name]


def _dk_middle(h: np.ndarray, bandwidth: int) -> np.ndarray:
    """Bartlett-weighted HAC matrix of a T x p table h of per-period sums."""
    S = h.T @ h
    for j in range(1, bandwidth + 1):
        w = 1.0 - j / (bandwidth + 1.0)
        omega = h[j:].T @ h[:-j]
        S += w * (omega + omega.T)
    return S


def _leverage_adjusted_residuals(U: np.ndarray, rows: _Rows,
                                 resid: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-period leverage adjustment M_t^(+1/2) r_t of the rows in `rows`' order,
    and the number of block eigenvalues zeroed on the way.

    M_t = diag(d_t) - U_t U_t' is the period-t block of the residual maker,
    with U an orthonormal basis of the part of the design's column space that
    d does not account for. Under fixed effects that is the demeaned
    regressors, whose left singular vectors from the fit's SVD are U, and
    d = 1 - 1/T_i takes the entity means and with them the constant (each
    entity appears at most once per period). In a pooled fit d = 1, and U is
    those singular vectors with the constant's direction n^-1/2 (1, ..., 1)
    appended; the demeaned columns sum to zero, so U stays orthonormal. The
    block is never formed, and eigenvalues at most PINV_RTOL are zeroed.

    A period of N_t > k rows that share one d (as in pooled fits, and in
    fixed-effects fits on a balanced panel) needs only the k x k Gram matrix
    C_t = U_t'U_t = V diag(mu) V'. M_t acts as lam = d - mu on the columns of
    U_t V and as d on their orthogonal complement, so M_t^(+1/2) r_t =
    r_t / sqrt(d) + U_t V diag(phi) V'U_t' r_t with phi = (lam^-1/2 - d^-1/2) / mu,
    taken in the closed form 1 / (sqrt(lam) sqrt(d) (sqrt(d) + sqrt(lam))) that
    nothing cancels in, and phi = -1 / (sqrt(d) mu) for a zeroed lam, where
    mu >= d - PINV_RTOL >= 1/2. A direction of tiny mu enters through a bounded
    phi, so no rank cut is needed, and a rank-deficient U_t only adds kept
    eigenvalues lam = d: the zeroed count is the QR route's.

    Every other period takes an orthonormal basis per group of equal d:
    span{Q_j}, with Q_j from a reduced QR of group j's rows of U, is invariant
    under M_t, and on its orthogonal complement M_t acts as d_j >= 1/2 on
    group j, so one eigh of size at most (groups x k) gives the exact
    pseudo-inverse square root. This is the only exact route for a period with
    several d, and at N_t <= k, where a block can be exactly zero (one row of
    leverage 1), Q_j is square and the adjusted residual comes out exactly zero
    rather than rounding noise.
    """
    out = np.empty_like(resid)
    n_zeroed = 0
    k = U.shape[1]
    by_gram = [len(g) == 1 and t.stop - t.start > k for t, g in zip(rows.periods, rows.groups)]
    gram = [t for t, b in zip(rows.periods, by_gram) if b]
    if gram:  # from the Gram matrices, all periods' in one batched eigh
        d = rows.d[[t.start for t in gram]]
        mu, V = np.linalg.eigh(np.array([U[t].T @ U[t] for t in gram]))
        lam, sd = d[:, None] - mu, np.sqrt(d)[:, None]
        kept = lam > PINV_RTOL
        root = np.sqrt(np.maximum(lam, PINV_RTOL))  # sqrt(lam) wherever kept
        phi = 1.0 / (root * sd * (sd + root))
        if not kept.all():
            n_zeroed += kept.size - int(kept.sum())
            np.divide(-1.0, sd * mu, out=phi, where=~kept)
        for t, s, V_t, phi_t in zip(gram, sd.ravel().tolist(), V, phi):
            Ut = U[t]
            out[t] = resid[t] / s + Ut @ (V_t @ (phi_t * (V_t.T @ (Ut.T @ resid[t]))))

    for t, groups, b in zip(rows.periods, rows.groups, by_gram):
        if b:
            continue
        # from an orthonormal basis per group of equal d
        dj = rows.d[[g.start for g in groups]]
        qs = [np.linalg.qr(U[g])[0] for g in groups]
        sizes = [q.shape[1] for q in qs]
        qtu = np.vstack([q.T @ U[g] for q, g in zip(qs, groups)])
        lam, W = np.linalg.eigh(np.diag(np.repeat(dj, sizes)) - qtu @ qtu.T)
        n_zeroed += int((lam <= PINV_RTOL).sum())
        f_lam = np.where(lam > PINV_RTOL, 1.0 / np.sqrt(np.clip(lam, PINV_RTOL, None)), 0.0)

        qtr = [q.T @ resid[g] for q, g in zip(qs, groups)]
        coords = np.split(W @ (f_lam * (W.T @ np.concatenate(qtr))), np.cumsum(sizes)[:-1])
        for q, g, c, a, f in zip(qs, groups, qtr, coords, 1.0 / np.sqrt(dj)):
            out[g] = q @ a + f * (resid[g] - q @ c)
    return out, n_zeroed


def _influence_table(rows: _Rows, U: np.ndarray, M: np.ndarray, s: np.ndarray,
                     means: np.ndarray) -> np.ndarray:
    """The T x p table g of per-period influences g_t = (Z'Z)^-1 Z_t' s_t over
    the periods that keep a row, for s the residuals or their leverage
    adjustment. With the fit's thin SVD A / c = U S V' of the demeaned
    regressors A (by entity, or pooled by the grand mean), the slopes' rows
    are M U_t' s_t, M = V S^-1 / c. `means` are the regressors' grand means
    m; Z = [1, A + m], and since A's columns sum to zero the constant's row,
    put first, is sum(s_t) / n - m' M U_t' s_t. U and s are in `rows`'
    (period, d) order."""
    g = np.array([U[t].T @ s[t] for t in rows.periods]) @ M.T
    sums = np.array([s[t].sum() for t in rows.periods])
    return np.column_stack([sums / rows.n - g @ means, g])


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
    if front == 0.0:  # underflow: front * f / p below is 0 whatever f is
        return 1.0 if flip else 0.0
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
    A = np.column_stack([rows.demeaned(r) for r in spec.regressors])
    y = rows.demeaned(spec.dependent)
    raw = [rows.values(r) for r in spec.regressors]
    names = ("const", *spec.regressors)
    # The columns are stored over powers of two (_Rows.values), so each
    # parameter is found as 2**-shift times its value in the data's units.
    ey = rows.scale[spec.dependent]
    shift = np.array([ey, *(ey - rows.scale[r] for r in spec.regressors)])
    n_params = k + (rows.n_ent if spec.fixed_effects else 1)

    # A pooled fit may be exact (df = 0); a within fit needs a residual degree
    # of freedom beyond the absorbed entity means.
    df = n - n_params
    if df < (1 if spec.fixed_effects else 0):
        absorbed = " (including absorbed entity means)" if spec.fixed_effects else ""
        raise EstimationError(
            f"too few observations: {n} rows for {n_params} parameters{absorbed}")

    # One thin SVD of the demeaned regressors on columns of unit raw norm gives
    # the rank check, the solve, the leverage basis and the covariance's bread.
    c = np.array([math.sqrt(v @ v) for v in raw])
    c[c == 0.0] = 1.0  # an all-zero column stays zero and fails the rank check
    U, sv, Vt = np.linalg.svd(A / c, full_matrices=False)
    if sv[-1] < RANK_RTOL:
        load = np.abs(Vt[-1])
        guilty = [name for name, w in zip(spec.regressors, load) if w > 0.25 * load.max()]
        raise EstimationError(f"design matrix is rank deficient; collinear columns: {guilty}")
    M = Vt.T / sv / c[:, None]  # theta = M U'y, and (A'A)^-1 A' = M U'
    uy = U.T @ y
    theta = M @ uy
    resid = y - U @ uy
    ssr, tss = float(resid @ resid), float(y @ y)
    # the constant of the fit on [1, A + m]: A's columns sum to zero
    means = np.array([v.sum() for v in raw]) / n  # mean()'s bits, with less overhead
    theta = np.concatenate(([rows.values(spec.dependent).sum() / n - means @ theta], theta))

    bandwidth = spec.dk_bandwidth
    if bandwidth == "auto":
        bandwidth = newey_west_auto_bandwidth(n_per)
    bandwidth = min(int(bandwidth), n_per - 1)

    n_zeroed = 0
    if df == 0:
        # exact fit: coefficients are well defined, inference is not
        cov = np.full((theta.size, theta.size), np.nan)
    else:
        s = resid
        if spec.small_sample:
            # a pooled fit's d = 1 leaves the constant's direction to the basis
            basis = U if spec.fixed_effects else np.column_stack([U, np.full(n, n ** -0.5)])
            s, n_zeroed = _leverage_adjusted_residuals(basis, rows, resid)
        g = _influence_table(rows, U, M, s, means)
        factor = ((n - 1.0) / df * (n_per / (n_per - 1.0) if n_per > 1 else 1.0)
                  if spec.small_sample else 1.0)
        cov = _dk_middle(g, bandwidth) * factor

    # Back to the data's units. An estimate that overflows, or a nonzero
    # variance that a double cannot hold as a normal number, is refused;
    # nothing before this can overflow.
    scaled_var = np.diag(cov)
    with np.errstate(over="ignore"):
        theta, cov = np.ldexp(theta, shift), np.ldexp(cov, shift[:, None] + shift)
    var = np.diag(cov)
    normal = (var >= np.finfo(float).tiny) & (var < np.inf)
    lost = ~np.isfinite(theta) | (scaled_var > 0) & ~normal
    if lost.any():
        raise EstimationError(
            f"estimate or variance of {[name for name, b in zip(names, lost) if b]} is "
            "outside the range of a double; rescale the column")
    if n_zeroed:  # only for a covariance that is reported
        log.warning(
            "small-sample covariance: %d leverage eigenvalue%s at or below %g "
            "zeroed (pseudo-inverse)",
            n_zeroed, "" if n_zeroed == 1 else "s", PINV_RTOL,
        )

    return FitResult(
        param_names=names,
        coefficients=theta,
        covariance=cov,
        residuals=rows.grid(np.ldexp(resid, ey)),
        r_squared_within=1.0 - ssr / tss if tss > 0 else math.nan,
        n_obs=n,
        n_entities=rows.n_ent,
        n_periods_used=n_per,
        df_resid=df,
        bandwidth_used=bandwidth,
        small_sample=spec.small_sample,
        dropped_entities=rows.dropped,
    )


# -- public fitters -----------------------------------------------------------


def fit_within_dk_many(ds: PanelDataset, specs: Sequence[RegressionSpec]) -> list[FitResult]:
    """fit_within_dk for each spec in turn, assembling shared rows once.

    Specs that keep the same rows (same listwise mask, dropped entities and
    fixed-effects setting) share one assembly: row codes, the period sort,
    and each column's values and entity-demeaned values. Each
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
