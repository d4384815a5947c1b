"""Estimator tests against independent oracles.

The within estimator is checked against a least-squares-with-entity-dummies
regression built directly from the definition, the Driscoll-Kraay
covariance against a literal direct-summation sandwich, and its small-sample
leverage adjustment against dense per-period blocks of the full hat matrix.
The oracles live here in the test module and share no code with the
implementation.
"""

import dataclasses
import itertools
import logging
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import stdtr

from baselcost import (
    PAPER_PRESET,
    DataError,
    EstimationError,
    PanelDataset,
    RegressionSpec,
    fit_system,
    fit_within_dk,
    newey_west_auto_bandwidth,
    simulate_panel,
)
from baselcost import estimation
from baselcost.model import EQUATIONS

NAN = float("nan")


def make_panel(entities, periods, **columns):
    return PanelDataset(tuple(entities), tuple(periods),
                        {k: np.array(v, dtype=float) for k, v in columns.items()})


def random_panel(rng, n_ent, n_per, n_reg, missing_frac=0.0):
    cols = {}
    effects = rng.normal(0, 2, (n_ent, 1))
    X = rng.normal(0, 1, (n_ent, n_per, n_reg))
    beta = rng.normal(0, 1, n_reg)
    y = effects + X @ beta + rng.normal(0, 0.5, (n_ent, n_per))
    if missing_frac > 0:
        holes = rng.random((n_ent, n_per)) < missing_frac
        y = np.where(holes, np.nan, y)
    cols["y"] = y
    for j in range(n_reg):
        cols[f"x{j}"] = X[:, :, j]
    return make_panel([f"E{i}" for i in range(n_ent)], list(range(n_per)), **cols)


def mixed_length_panel(rng, n_ent=12, n_per=5, n_reg=2):
    """Random panel in which entity i is observed in 2 + i % 4 of 5 periods."""
    ds = random_panel(rng, n_ent, n_per, n_reg)
    y = ds.column("y").copy()
    for i in range(n_ent):
        y[i, rng.choice(n_per, size=n_per - (2 + i % 4), replace=False)] = np.nan
    return ds.with_column("y", y)


def with_first_period_dummy(ds):
    """`ds` with column d0, 1 in the first period and 0 elsewhere."""
    first = np.zeros((ds.n_entities, ds.n_periods))
    first[:, 0] = 1.0
    return ds.with_column("d0", first)


def near_collinear_panel(seed):
    """8 x 6 panel in which x1 = x0 + 1e-9 * z: the design's singular-value
    ratio is about 1e-9, inside the rank bound, and Z'Z's about 1e-18."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(8, 6))
    z = rng.normal(size=(8, 6))
    y = rng.normal(size=(8, 6)) + x0
    return make_panel([f"B{i}" for i in range(8)], range(2010, 2016),
                      y=y, x0=x0, x1=x0 + 1e-9 * z)


def lsdv_oracle(ds, dep, regs):
    """Slopes from OLS of dep on entity dummies plus regressors (listwise rows)."""
    y = ds.column(dep)
    X = np.stack([ds.column(r) for r in regs], axis=-1)
    keep = ~np.isnan(y) & ~np.isnan(X).any(axis=-1)
    ei, pj = np.nonzero(keep)
    yv = y[ei, pj]
    Xv = X[ei, pj, :]
    dummies = np.zeros((len(yv), ds.n_entities))
    dummies[np.arange(len(yv)), ei] = 1.0
    used = dummies.sum(axis=0) > 0
    design = np.column_stack([dummies[:, used], Xv])
    theta, *_ = np.linalg.lstsq(design, yv, rcond=None)
    return theta[used.sum():]


def dk_sandwich_oracle(Z, resid, periods, bandwidth):
    """Direct-summation Bartlett sandwich middle and full covariance."""
    uniq = sorted(set(periods))
    h = []
    for t in uniq:
        rows = [i for i, p in enumerate(periods) if p == t]
        h.append(sum(resid[i] * Z[i] for i in rows))
    k = Z.shape[1]
    S = np.zeros((k, k))
    for t in range(len(uniq)):
        S += np.outer(h[t], h[t])
    for j in range(1, bandwidth + 1):
        w = 1.0 - j / (bandwidth + 1.0)
        om = np.zeros((k, k))
        for t in range(j, len(uniq)):
            om += np.outer(h[t], h[t - j])
        S += w * (om + om.T)
    bread = np.linalg.inv(Z.T @ Z)
    return bread @ S @ bread


def cr2_dk_oracle(ds, spec):
    """Small-sample DK covariance from the dense n x n residual maker.

    Each period's block (I - H)_tt is cut from the hat matrix of the full
    design: entity dummies plus regressors under fixed effects, the pooled
    design otherwise. Nothing uses the 1/T_i form of the dummy part. The
    block's inverse square root comes from eigh, with eigenvalues at most
    1e-8 set to zero (every block of I - H has its eigenvalues in [0, 1]).
    Returns the covariance, the smallest eigenvalue kept, which bounds how
    far rounding can move it, and the iid OLS covariance s^2 (Z'Z)^-1 as a
    scale. Needs a residual degree of freedom.
    """
    y = ds.column(spec.dependent)
    X = np.stack([ds.column(r) for r in spec.regressors], axis=-1)
    keep = ~np.isnan(y) & ~np.isnan(X).any(axis=-1)
    if spec.fixed_effects:
        keep &= keep.sum(axis=1, keepdims=True) >= 2
    ei, pj = np.nonzero(keep)
    yv, Xv = y[ei, pj], X[ei, pj, :]
    n = yv.size
    ones = np.ones((n, 1))
    if spec.fixed_effects:
        dummies = (ei[:, None] == np.unique(ei)[None, :]).astype(float)
        X_dm = Xv - dummies @ np.linalg.pinv(dummies) @ Xv
        Z = np.column_stack([ones, X_dm + Xv.mean(axis=0)])
        design = np.column_stack([dummies, Xv])
        n_params = dummies.shape[1] + Xv.shape[1]
    else:
        Z = design = np.column_stack([ones, Xv])
        n_params = Z.shape[1]
    M = np.eye(n) - design @ np.linalg.pinv(design)
    resid = M @ yv
    adjusted = np.empty(n)
    smallest_kept = np.inf
    periods = np.unique(pj)
    for t in periods:
        rows = np.flatnonzero(pj == t)
        w, v = np.linalg.eigh(M[np.ix_(rows, rows)])
        inv = np.where(w > 1e-8, 1.0 / np.sqrt(np.clip(w, 1e-8, None)), 0.0)
        adjusted[rows] = (v * inv) @ v.T @ resid[rows]
        smallest_kept = min(smallest_kept, w[w > 1e-8].min())
    n_per = periods.size
    bandwidth = spec.dk_bandwidth
    if bandwidth == "auto":
        bandwidth = newey_west_auto_bandwidth(n_per)
    bandwidth = min(bandwidth, n_per - 1)
    factor = (n - 1.0) / (n - n_params)
    if n_per > 1:
        factor *= n_per / (n_per - 1.0)
    iid = (resid @ resid) / (n - n_params) * np.linalg.inv(Z.T @ Z)
    return factor * dk_sandwich_oracle(Z, adjusted, list(pj), bandwidth), smallest_kept, iid


def reparametrized_cr2_oracle(ds, spec, eps):
    """cr2_dk_oracle's covariance of a fit on (..., x0, x1), x1 = x0 + eps * z,
    from the well-conditioned fit on (..., x0, z) mapped back: the slopes
    (b0, bz) there are (b0 - bz / eps, bz / eps) here. z is taken from the
    stored columns, where x1 - x0 is exact, so the two fits are of one design."""
    names = ("const",) + spec.regressors
    i0, i1 = names.index("x0"), names.index("x1")
    ds = ds.with_column("z", (ds.column("x1") - ds.column("x0")) / eps)
    regs = tuple("z" if r == "x1" else r for r in spec.regressors)
    cov, _, _ = cr2_dk_oracle(ds, replace(spec, regressors=regs))
    T_inv = np.eye(len(names))
    T_inv[i0, i1], T_inv[i1, i1] = -1.0 / eps, 1.0 / eps
    return T_inv @ cov @ T_inv.T


class TestPointEstimates:
    def test_noiseless_fixed_effects_recovery(self):
        rng = np.random.default_rng(11)
        n_ent, n_per = 6, 8
        effects = rng.normal(0, 3, (n_ent, 1))
        x = rng.normal(0, 1, (n_ent, n_per))
        ds = make_panel([f"E{i}" for i in range(n_ent)], list(range(n_per)),
                        x=x, y=effects + 2.0 * x)
        fit = fit_within_dk(ds, RegressionSpec("y", ("x",)))
        assert fit.coef("x") == pytest.approx(2.0, abs=1e-10)
        assert fit.std_errors[fit.param_names.index("x")] < 1e-8
        assert fit.r_squared_within == pytest.approx(1.0, abs=1e-10)

    def test_matches_dummy_variable_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            ds = random_panel(rng, n_ent=5, n_per=10, n_reg=2)
            fit = fit_within_dk(ds, RegressionSpec("y", ("x0", "x1")))
            oracle = lsdv_oracle(ds, "y", ("x0", "x1"))
            np.testing.assert_allclose(
                [fit.coef("x0"), fit.coef("x1")], oracle, atol=1e-8, rtol=0
            )

    def test_matches_oracle_with_missing_cells(self):
        rng = np.random.default_rng(13)
        ds = random_panel(rng, n_ent=6, n_per=9, n_reg=2, missing_frac=0.15)
        fit = fit_within_dk(ds, RegressionSpec("y", ("x0", "x1")))
        oracle = lsdv_oracle(ds, "y", ("x0", "x1"))
        np.testing.assert_allclose(
            [fit.coef("x0"), fit.coef("x1")], oracle, atol=1e-8, rtol=0
        )

    def test_translation_invariance_under_fixed_effects(self):
        rng = np.random.default_rng(14)
        ds = random_panel(rng, n_ent=5, n_per=6, n_reg=1)
        shifted = ds.with_column(
            "y", ds.column("y") + rng.normal(0, 50, (5, 1))
        )
        a = fit_within_dk(ds, RegressionSpec("y", ("x0",)))
        b = fit_within_dk(shifted, RegressionSpec("y", ("x0",)))
        assert a.coef("x0") == pytest.approx(b.coef("x0"), abs=1e-10)

    def test_residuals_orthogonal_to_demeaned_regressors(self):
        rng = np.random.default_rng(15)
        ds = random_panel(rng, n_ent=5, n_per=7, n_reg=2)
        fit = fit_within_dk(ds, RegressionSpec("y", ("x0", "x1")))
        assert fit.residuals.shape == (5, 7)
        assert np.isfinite(fit.residuals).all()  # balanced: every cell is a row
        for name in ("x0", "x1"):
            col = ds.column(name)
            demeaned = col - col.mean(axis=1, keepdims=True)
            assert abs(float((demeaned * fit.residuals).sum())) < 1e-8

    @pytest.mark.parametrize("fixed_effects", [True, False])
    @pytest.mark.parametrize("seed", range(5))
    def test_residuals_match_dummy_variable_oracle_on_the_grid(self, seed, fixed_effects):
        # unbalanced: several d-groups per period, so rows left in the fit's
        # internal order would put residuals in the wrong cells
        ds = mixed_length_panel(np.random.default_rng(seed))
        fit = fit_within_dk(ds, RegressionSpec("y", ("x0", "x1"), fixed_effects=fixed_effects))
        y = ds.column("y")
        ei, pj = np.nonzero(~np.isnan(y))
        effects = (ei[:, None] == np.unique(ei)).astype(float) if fixed_effects else \
            np.ones((ei.size, 1))
        design = np.column_stack([effects, ds.column("x0")[ei, pj], ds.column("x1")[ei, pj]])
        theta, *_ = np.linalg.lstsq(design, y[ei, pj], rcond=None)
        expected = np.full(y.shape, np.nan)
        expected[ei, pj] = y[ei, pj] - design @ theta
        np.testing.assert_array_equal(np.isnan(fit.residuals), np.isnan(expected))
        np.testing.assert_allclose(fit.residuals, expected,
                                   atol=1e-10 * np.nanmax(np.abs(expected)), rtol=0)

    @pytest.mark.parametrize("fixed_effects, kept, dropped", [
        # C keeps one usable cell, which a within fit drops with the entity
        (True, [[1, 0, 1], [1, 1, 0], [0, 0, 0]], ("C",)),
        (False, [[1, 0, 1], [1, 1, 0], [1, 0, 0]], ()),
    ])
    def test_residual_grid_is_nan_exactly_where_the_fit_has_no_row(
            self, fixed_effects, kept, dropped):
        ds = make_panel(["A", "B", "C"], [2010, 2011, 2012],
                        y=[[1.0, NAN, 2.0], [0.5, 1.5, 3.0], [0.2, NAN, NAN]],
                        x0=[[0.1, 0.2, 0.7], [0.4, 0.3, NAN], [0.6, 0.8, 0.1]])
        fit = fit_within_dk(ds, RegressionSpec("y", ("x0",), fixed_effects=fixed_effects))
        assert fit.dropped_entities == dropped
        assert fit.residuals.shape == (3, 3)
        np.testing.assert_array_equal(np.isfinite(fit.residuals), np.array(kept, dtype=bool))
        assert np.isnan(fit.residuals[~np.array(kept, dtype=bool)]).all()


class TestCovariance:
    def test_degenerate_single_entity_matches_direct_sum(self):
        rng = np.random.default_rng(21)
        n = 30
        x = rng.normal(0, 1, (1, n))
        y = 1.5 + 0.7 * x + rng.normal(0, 0.3, (1, n))
        ds = make_panel(["solo"], list(range(n)), x=x, y=y)
        spec = RegressionSpec(
            "y", ("x",), include_intercept=True, fixed_effects=False,
            dk_bandwidth=0, small_sample=False,
        )
        fit = fit_within_dk(ds, spec)
        Z = np.column_stack([np.ones(n), x.ravel()])
        resid = y.ravel() - Z @ np.array([fit.coef("const"), fit.coef("x")])
        V = dk_sandwich_oracle(Z, resid, list(range(n)), bandwidth=0)
        np.testing.assert_allclose(fit.covariance, V, atol=1e-10, rtol=0)

    def test_bartlett_lags_match_direct_sum(self):
        rng = np.random.default_rng(22)
        n_ent, n_per = 4, 12
        x = rng.normal(0, 1, (n_ent, n_per))
        y = 0.5 * x + rng.normal(0, 1, (n_ent, n_per))
        ds = make_panel([f"E{i}" for i in range(n_ent)], list(range(n_per)), x=x, y=y)
        spec = RegressionSpec(
            "y", ("x",), include_intercept=True, fixed_effects=False,
            dk_bandwidth=3, small_sample=False,
        )
        fit = fit_within_dk(ds, spec)
        Z = np.column_stack([np.ones(n_ent * n_per), x.ravel()])
        resid = y.ravel() - Z @ fit.coefficients
        # rows are entity-major: periods cycle within each entity
        periods = [p for _ in range(n_ent) for p in range(n_per)]
        V = dk_sandwich_oracle(Z, resid, periods, bandwidth=3)
        np.testing.assert_allclose(fit.covariance, V, atol=1e-10, rtol=0)
        assert fit.bandwidth_used == 3

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_bartlett_kernel_is_direct_sum_and_psd(self, data):
        n_per, k = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 4))
        exponents = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        h = rng.normal(0, 1, (n_per, k)) * 10.0 ** np.array(exponents)
        bw = data.draw(st.integers(0, n_per - 1))
        S = estimation._dk_middle(h, bw)
        direct = sum((1.0 - abs(t - s) / (bw + 1.0)) * np.outer(h[t], h[s])
                     for t in range(n_per) for s in range(n_per) if abs(t - s) <= bw)
        top = np.abs(direct).max()
        np.testing.assert_allclose(S, direct, atol=1e-12 * top, rtol=0)
        assert np.linalg.eigvalsh(S).min() >= -1e-12 * top

    def test_small_sample_factor_is_exact_scalar_without_leverage_adjustment(self):
        # the plain and adjusted modes differ only by leverage rescaling and
        # the df factor; the leverage adjustment is checked against the dense
        # oracle in TestSmallSampleCovariance, so here only check that both
        # modes give a finite, symmetric PSD covariance
        rng = np.random.default_rng(23)
        ds = random_panel(rng, n_ent=6, n_per=6, n_reg=1)
        plain = fit_within_dk(
            ds, RegressionSpec("y", ("x0",), dk_bandwidth=0, small_sample=False)
        )
        assert np.all(np.isfinite(plain.covariance))
        adjusted = fit_within_dk(
            ds, RegressionSpec("y", ("x0",), dk_bandwidth=0, small_sample=True)
        )
        # adjusted covariance must stay symmetric PSD and exceed zero
        eigvals = np.linalg.eigvalsh(adjusted.covariance)
        assert eigvals.min() > -1e-12
        assert np.all(adjusted.std_errors > 0)

    def test_scale_equivariance_of_t_stats(self):
        rng = np.random.default_rng(24)
        ds = random_panel(rng, n_ent=5, n_per=8, n_reg=2)
        for factor, small_sample in itertools.product((250.0, 1e8, 1e12), (True, False)):
            scaled = ds.with_column("x0", ds.column("x0") * factor)
            a = fit_within_dk(ds, RegressionSpec("y", ("x0", "x1"),
                                                 small_sample=small_sample))
            b = fit_within_dk(scaled, RegressionSpec("y", ("x0", "x1"),
                                                     small_sample=small_sample))
            assert b.coef("x0") == pytest.approx(a.coef("x0") / factor, rel=1e-10)
            i = a.param_names.index("x0")
            assert b.std_errors[i] == pytest.approx(a.std_errors[i] / factor, rel=1e-10)
            assert b.t_stats[i] == pytest.approx(a.t_stats[i], rel=1e-10)
            assert b.p_values[i] == pytest.approx(a.p_values[i], rel=1e-10)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(k=st.integers(-1100, 1100), fixed_effects=st.booleans())
    @example(k=300, fixed_effects=True)  # well inside the exact range
    # where this panel moves from refused (all-zero x0, infinite variance) to
    # exact to refused (underflowing variance) to a dataset that holds an inf
    @example(k=-1077, fixed_effects=True)
    @example(k=-515, fixed_effects=False)
    @example(k=-514, fixed_effects=True)
    @example(k=508, fixed_effects=False)
    @example(k=509, fixed_effects=True)
    @example(k=1022, fixed_effects=False)
    @example(k=1023, fixed_effects=True)
    def test_power_of_two_scaling_is_exact_or_refused(self, k, fixed_effects):
        # x0 times 2**k: its estimate and SE scale by exactly 2**-k and every
        # other bit stays, while x0's variance is a normal double; past that
        # the fit is refused, naming x0 (as rank deficient once x0 is all 0)
        ds = random_panel(np.random.default_rng(5), 6, 5, 2)
        spec = RegressionSpec("y", ("x0", "x1"), fixed_effects=fixed_effects)
        base = fit_within_dk(ds, spec)
        i = base.param_names.index("x0")
        with np.errstate(over="ignore"):
            x0 = np.ldexp(ds.column("x0"), k)
        if not np.isfinite(x0).all():
            with pytest.raises(DataError, match="'x0'"):
                ds.with_column("x0", x0)
            return
        exponent = math.frexp(base.covariance[i, i])[1] - 2 * k
        if not -1021 <= exponent <= 1024:
            with pytest.raises(EstimationError, match=r"\['x0'\]"):
                fit_within_dk(ds.with_column("x0", x0), spec)
            return
        fit = fit_within_dk(ds.with_column("x0", x0), spec)
        for got, want in ((fit.coefficients, base.coefficients),
                          (fit.std_errors, base.std_errors)):
            assert got[i] == math.ldexp(want[i], -k)
            assert np.array_equal(np.delete(got, i), np.delete(want, i))
        assert np.array_equal(fit.t_stats, base.t_stats)
        assert np.array_equal(fit.p_values, base.p_values)

    def test_se_is_sqrt_of_diagonal(self):
        rng = np.random.default_rng(25)
        ds = random_panel(rng, n_ent=5, n_per=6, n_reg=2)
        fit = fit_within_dk(ds, RegressionSpec("y", ("x0", "x1")))
        np.testing.assert_allclose(
            fit.std_errors, np.sqrt(np.diag(fit.covariance)), rtol=1e-12
        )
        np.testing.assert_allclose(fit.covariance, fit.covariance.T, atol=1e-14)

    def test_auto_bandwidth_rule(self):
        assert newey_west_auto_bandwidth(5) == 2
        assert newey_west_auto_bandwidth(25) == 2
        assert newey_west_auto_bandwidth(100) == 4
        assert newey_west_auto_bandwidth(500) == 5

    def test_auto_bandwidth_capped_by_periods(self):
        rng = np.random.default_rng(26)
        ds = random_panel(rng, n_ent=8, n_per=3, n_reg=1)
        fit = fit_within_dk(ds, RegressionSpec("y", ("x0",), dk_bandwidth="auto"))
        assert fit.bandwidth_used <= 2

    def test_explicit_bandwidth_echoed(self):
        rng = np.random.default_rng(27)
        ds = random_panel(rng, n_ent=5, n_per=10, n_reg=1)
        fit = fit_within_dk(ds, RegressionSpec("y", ("x0",), dk_bandwidth=2))
        assert fit.bandwidth_used == 2


class TestCompactFitResult:
    """Standard errors, t-statistics and p-values are read from the stored
    coefficients, covariance and df_resid on each access, never stored."""

    FIELDS = ("param_names", "coefficients", "covariance", "residuals", "r_squared_within",
              "n_obs", "n_entities", "n_periods_used", "df_resid", "bandwidth_used",
              "small_sample", "dropped_entities")

    @pytest.fixture(scope="class")
    def fit(self):
        ds = random_panel(np.random.default_rng(33), n_ent=6, n_per=5, n_reg=2)
        return fit_within_dk(ds, RegressionSpec("y", ("x0", "x1")))

    def test_fields(self):
        assert tuple(f.name for f in dataclasses.fields(estimation.FitResult)) == self.FIELDS

    def test_p_values_computed_only_when_read(self, monkeypatch):
        calls = []
        t_pvalue = estimation._t_pvalue
        monkeypatch.setattr(estimation, "_t_pvalue",
                            lambda t, df: calls.append(t) or t_pvalue(t, df))
        fits = fit_system(simulate_panel(PAPER_PRESET, 22, 5, 0.05, 7)).fits
        assert len(calls) == 0
        for fit in fits:
            fit.p_values
        assert len(calls) == 10

    def test_properties_follow_the_covariance(self, fit):
        se = np.sqrt(np.clip(np.diag(fit.covariance), 0.0, None))
        assert np.array_equal(fit.std_errors, se)
        assert np.array_equal(fit.t_stats, fit.coefficients / se)
        want = [estimation._t_pvalue(t, fit.df_resid) for t in (fit.coefficients / se).tolist()]
        assert np.array_equal(fit.p_values, np.array(want))

    def test_read_only(self, fit):
        # TypeError, not AttributeError, on Python 3.11 (see README "Result objects")
        for name in ("std_errors", "t_stats", "p_values"):
            with pytest.raises((AttributeError, TypeError)):
                setattr(fit, name, np.zeros(3))

    def test_asdict_carries_only_fields(self, fit):
        d = dataclasses.asdict(fit)
        assert tuple(d) == self.FIELDS
        assert "std_errors" not in d


def estimation_warnings(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "baselcost.estimation"]


@st.composite
def small_panels(draw):
    """A random panel with a drawn missing-cell mask, and a spec to fit it."""
    n_ent = draw(st.integers(2, 8))
    n_per = draw(st.integers(2, 5))
    n_reg = draw(st.integers(1, 3))
    missing = draw(st.lists(st.sampled_from((False, False, False, True)),
                            min_size=n_ent * n_per, max_size=n_ent * n_per))
    ds = random_panel(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                      n_ent, n_per, n_reg)
    y = ds.column("y").copy()
    y[np.reshape(missing, (n_ent, n_per))] = np.nan
    spec = RegressionSpec(
        "y", tuple(f"x{j}" for j in range(n_reg)),
        fixed_effects=draw(st.booleans()),
        dk_bandwidth=draw(st.sampled_from((0, 1, "auto"))),
    )
    return ds.with_column("y", y), spec


@st.composite
def keep_masks(draw):
    """A keep mask over a small grid: balanced, or with cells, whole entities
    and whole periods missing."""
    n_ent, n_per = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        return np.ones((n_ent, n_per), dtype=bool)
    cells = draw(st.lists(st.booleans(), min_size=n_ent * n_per, max_size=n_ent * n_per))
    keep = np.reshape(cells, (n_ent, n_per))
    assume(keep.any())
    return keep


class TestRows:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(keep_masks(), st.booleans())
    def test_row_order_is_an_explicit_sort_by_period_d_entity(self, keep, fixed_effects):
        # _Rows sorts only when d varies; its rows must be those of a full sort
        n_ent, n_per = keep.shape
        ds = make_panel([f"E{i}" for i in range(n_ent)], range(n_per),
                        x=np.arange(keep.size, dtype=float).reshape(keep.shape))
        rows = estimation._Rows(ds, keep.copy(), (), fixed_effects)

        ei, pj = np.nonzero(keep)
        ent_code = np.unique(ei, return_inverse=True)[1]
        per_code = np.unique(pj, return_inverse=True)[1]
        group = ent_code if fixed_effects else np.zeros_like(ent_code)
        counts = np.bincount(group)
        d = 1.0 - 1.0 / counts[group] if fixed_effects else np.ones(ei.size)
        order = np.lexsort((ei, d, per_code))
        ei, pj, p, d, group = ei[order], pj[order], per_code[order], d[order], group[order]

        cells = rows.grid(np.arange(rows.n, dtype=float))
        np.testing.assert_array_equal(cells[ei, pj], np.arange(ei.size))
        assert np.isnan(cells[~keep]).all()
        np.testing.assert_array_equal(rows.values("x"), np.ldexp(ds.column("x")[ei, pj],
                                                                 -rows.scale["x"]))
        np.testing.assert_array_equal(rows.d, d)
        np.testing.assert_array_equal(rows.group, group)
        np.testing.assert_array_equal(rows.counts, counts)
        assert (rows.n, rows.n_ent, rows.n_per) == (ei.size, ent_code.max() + 1, p.max() + 1)
        groups, periods = [], []
        for s in range(ei.size):
            if s == 0 or p[s] != p[s - 1]:
                groups.append([slice(s, s + 1)])
                periods.append(slice(s, s + 1))
            elif d[s] != d[s - 1]:
                groups[-1].append(slice(s, s + 1))
            groups[-1][-1] = slice(groups[-1][-1].start, s + 1)
            periods[-1] = slice(periods[-1].start, s + 1)
        assert rows.groups == groups
        assert rows.periods == periods


class TestSmallSampleCovariance:
    @pytest.mark.parametrize("bandwidth", [0, 1, "auto"])
    @pytest.mark.parametrize("fixed_effects", [True, False])
    def test_matches_dense_oracle(self, fixed_effects, bandwidth, caplog):
        # the balanced panel's periods each have one d, the mixed panel's several
        rng = np.random.default_rng(51)
        spec = RegressionSpec("y", ("x0", "x1"), fixed_effects=fixed_effects,
                              dk_bandwidth=bandwidth)
        for ds in (mixed_length_panel(rng), random_panel(rng, 12, 5, 2)):
            with caplog.at_level(logging.WARNING, logger="baselcost.estimation"):
                fit = fit_within_dk(ds, spec)
            oracle, _, _ = cr2_dk_oracle(ds, spec)
            np.testing.assert_allclose(
                fit.covariance, oracle, atol=1e-10 * np.abs(oracle).max(), rtol=0
            )
            assert estimation_warnings(caplog) == []

    @pytest.mark.parametrize("fixed_effects", [True, False])
    def test_period_dummy_truncation_matches_oracle_and_warns(self, fixed_effects, caplog):
        # a first-period dummy lies in the design's column space, so the
        # period-0 block has one zero eigenvalue that the 1e-8 rule drops, on
        # the mixed panel's per-group bases and the balanced panel's Gram matrix
        rng = np.random.default_rng(52)
        spec = RegressionSpec("y", ("x0", "d0"), fixed_effects=fixed_effects)
        for ds in (mixed_length_panel(rng), random_panel(rng, 12, 5, 2)):
            ds = with_first_period_dummy(ds)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="baselcost.estimation"):
                fit = fit_within_dk(ds, spec)
            oracle, _, _ = cr2_dk_oracle(ds, spec)
            np.testing.assert_allclose(
                fit.covariance, oracle, atol=1e-10 * np.abs(oracle).max(), rtol=0
            )
            [message] = estimation_warnings(caplog)
            assert "1 leverage eigenvalue " in message

    @pytest.mark.parametrize("fixed_effects", [True, False])
    def test_adjustment_is_each_blocks_pseudo_inverse_square_root(self, fixed_effects):
        # A residual has no component in a block's null space, so the
        # covariance cannot show how that space is treated; a random vector
        # does. With the first-period dummy the period-0 block has one zero
        # eigenvalue; the mixed panel's fixed-effects periods have several d.
        rng = np.random.default_rng(54)
        spec = RegressionSpec("y", ("x0", "d0"), fixed_effects=fixed_effects)
        for ds in (mixed_length_panel(rng), random_panel(rng, 12, 5, 2)):
            ds = with_first_period_dummy(ds)
            rows = estimation._Rows(ds, *estimation._usable_rows(ds, spec), fixed_effects)
            column = rows.demeaned if fixed_effects else rows.values
            design = [column("x0"), column("d0")]
            if not fixed_effects:
                design.append(np.ones(rows.n))
            U = np.linalg.svd(np.column_stack(design), full_matrices=False)[0]
            r = rng.normal(size=rows.n)
            out, n_zeroed = estimation._leverage_adjusted_residuals(U, rows, r)
            assert n_zeroed == 1
            for t in rows.periods:
                lam, W = np.linalg.eigh(np.diag(rows.d[t]) - U[t] @ U[t].T)
                f = np.where(lam > 1e-8, 1.0 / np.sqrt(np.clip(lam, 1e-8, None)), 0.0)
                np.testing.assert_allclose(out[t], W @ (f * (W.T @ r[t])), atol=1e-10, rtol=0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(small_panels())
    def test_random_panels_match_dense_oracle(self, panel):
        ds, spec = panel
        try:
            fit = fit_within_dk(ds, spec)
        except EstimationError:
            assume(False)  # rank deficient or too few rows: nothing to compare
        # The 1e-10 agreement is a claim about well-posed fits. Rounding moves
        # a block eigenvalue lam by about eps * cond(X)^2 in both computations,
        # and lam^(-1/2) by that over lam, so two correct results drift apart
        # on near-singular blocks or with one residual degree of freedom; a
        # covariance that is zero in exact arithmetic is rounding on both
        # sides.
        assume(fit.df_resid >= 2)
        oracle, smallest_kept, iid = cr2_dk_oracle(ds, spec)
        assume(smallest_kept >= 1e-3)
        assume(np.abs(oracle).max() > 1e-6 * np.abs(iid).max())
        np.testing.assert_allclose(
            fit.covariance, oracle, atol=1e-10 * np.abs(oracle).max(), rtol=0
        )

    def test_zero_leverage_block_gives_exact_zero_residual(self, monkeypatch, caplog):
        # pooled y ~ x0 + p0, p0 marking the first period, in which only E0 is
        # observed: that row has leverage 1, so its period block of I - H is
        # exactly 0 and the block's one eigenvalue is rounding noise
        seen = []
        dk_middle = estimation._dk_middle

        def spy(h, bandwidth):
            seen.append(h)
            return dk_middle(h, bandwidth)

        monkeypatch.setattr(estimation, "_dk_middle", spy)
        spec = RegressionSpec("y", ("x0", "p0"), fixed_effects=False)
        for seed in range(40):
            ds = random_panel(np.random.default_rng(seed), 6, 4, 1)
            y = ds.column("y").copy()
            y[1:, 0] = np.nan
            p0 = np.zeros((6, 4))
            p0[:, 0] = 1.0
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="baselcost.estimation"):
                fit_within_dk(ds.with_column("y", y).with_column("p0", p0), spec)
            # the first period's score sum is that one row's, so exactly zero
            assert np.all(seen[-1][0] == 0.0), seed
            [message] = estimation_warnings(caplog)
            assert "1 leverage eigenvalue " in message

    @pytest.mark.parametrize("fixed_effects", [True, False])
    def test_one_d_periods_take_no_qr(self, fixed_effects, monkeypatch):
        # every period of a balanced panel has one d and 8 rows > k = 3 columns
        def no_qr(*args, **kwargs):
            raise AssertionError("np.linalg.qr called")

        monkeypatch.setattr(estimation.np.linalg, "qr", no_qr)
        ds = random_panel(np.random.default_rng(53), 8, 4, 2)
        fit = fit_within_dk(ds, RegressionSpec("y", ("x0", "x1"), fixed_effects=fixed_effects))
        assert np.all(np.isfinite(fit.std_errors))

    @pytest.mark.parametrize("eps", [3e-8, 1e-8, 1e-9])
    @pytest.mark.parametrize("fixed_effects", [True, False])
    def test_near_collinear_design_matches_oracle(self, fixed_effects, eps, caplog):
        # x1 = x0 + eps * z passes the rank check; a leverage basis from the
        # Gram matrix, whose condition number is the design's squared, would
        # cut a direction of it at these eps
        ds = random_panel(np.random.default_rng(3), 8, 6, 2)
        ds = ds.with_column("x1", ds.column("x0") + eps * ds.column("x1"))
        spec = RegressionSpec("y", ("x0", "x1"), fixed_effects=fixed_effects, dk_bandwidth=0)
        with caplog.at_level(logging.WARNING, logger="baselcost.estimation"):
            fit = fit_within_dk(ds, spec)
        oracle = reparametrized_cr2_oracle(ds, spec, eps)
        np.testing.assert_allclose(
            fit.covariance, oracle, atol=1e-6 * np.abs(oracle).max(), rtol=0
        )
        assert estimation_warnings(caplog) == []

    def test_wide_fit_never_builds_period_blocks(self):
        # one dense 3000 x 3000 block alone is 69 MiB; the low-rank form
        # needs O(n k) memory
        ds = simulate_panel(PAPER_PRESET, 3000, 4, 0.05, seed=3000)
        spec = RegressionSpec("roe", dict(EQUATIONS)["roe"])
        tracemalloc.start()
        try:
            fit_within_dk(ds, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


T_GRID = (0.0, 1e-8, 0.5, 1.0, 2.0, 5.0, 30.0, 200.0, 1e5)


def t_pvalue_oracle(t, df):
    """2 * P(T_df <= -|t|): scipy's stdtr, or for df = 1 the Cauchy closed
    form, because stdtr(1, -t) is off by about 3e-9 near t = 1e-8."""
    if df == 1:
        return 2.0 / math.pi * math.atan2(1.0, abs(t))
    return float(2.0 * stdtr(df, -abs(t)))


class TestTPValue:
    """estimation._t_pvalue against scipy, and its shape."""

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 10, 30, 100, 1000, 3997, 10**4,
                                    10**5, 10**6])
    def test_grid_matches_reference(self, df):
        for t in T_GRID + tuple(np.linspace(0.05, 8.0, 160)):
            ref = t_pvalue_oracle(t, df)
            for signed in (t, -t):
                got = estimation._t_pvalue(float(signed), df)
                if ref < 1e-300:
                    assert got < 1e-300, (df, signed, got)
                else:
                    assert got == pytest.approx(ref, rel=1e-12, abs=0), (df, signed)

    @pytest.mark.parametrize("df", [1, 2, 5, 30, 3997, 10**6, 10**9])
    def test_switch_point_matches_reference(self, df):
        # The continued fraction changes form at t^2 = 3 df / (df + 2).
        for step in (-1e-3, -1e-9, 0.0, 1e-9, 1e-3):
            t = math.sqrt(3.0 * df / (df + 2.0)) * (1.0 + step)
            assert estimation._t_pvalue(t, df) == pytest.approx(
                t_pvalue_oracle(t, df), rel=1e-12, abs=0), (df, step)

    def test_non_finite_and_zero(self):
        for df in (1, 7, 4000):
            assert estimation._t_pvalue(math.inf, df) == 0.0
            assert estimation._t_pvalue(-math.inf, df) == 0.0
            assert math.isnan(estimation._t_pvalue(math.nan, df))
            assert estimation._t_pvalue(0.0, df) == 1.0
            assert estimation._t_pvalue(-0.0, df) == 1.0

    def test_underflowed_prefactor(self):
        # The prefactor x^a y^(1/2) / B(a, 1/2) underflows to 0 at |t| = 120,
        # df = 3998, where the p-value is below the smallest double too, and at
        # the subnormal |t| = 5e-324 on the flipped form, where the p-value
        # rounds to 1. At |t| = 1e6, df = 5 it does not, and p is about 2e-29.
        for t, df in ((120.0, 3998), (1e6, 5)):
            for signed in (t, -t):
                assert estimation._t_pvalue(signed, df) == pytest.approx(
                    t_pvalue_oracle(t, df), rel=1e-12, abs=0), (df, signed)
        for df in (1, 5, 3998):
            assert estimation._t_pvalue(5e-324, df) == 1.0
            assert estimation._t_pvalue(-5e-324, df) == 1.0

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 10**6),
           st.floats(-1e6, 1e6, allow_nan=False), st.floats(-1e6, 1e6, allow_nan=False))
    def test_bounded_symmetric_and_falling_in_abs_t(self, df, t1, t2):
        p1, p2 = estimation._t_pvalue(t1, df), estimation._t_pvalue(t2, df)
        assert 0.0 <= p1 <= 1.0
        assert estimation._t_pvalue(-t1, df) == p1
        # Non-increasing up to the 1e-12 accuracy of either value.
        if abs(t1) <= abs(t2):
            assert p1 >= p2 * (1.0 - 1e-12)
        else:
            assert p2 >= p1 * (1.0 - 1e-12)

    @pytest.mark.parametrize("fixed_effects", [True, False])
    def test_fit_p_values_match_scipy(self, fixed_effects):
        rng = np.random.default_rng(11)
        for n_ent, n_per in ((6, 4), (40, 5), (300, 3)):
            ds = random_panel(rng, n_ent, n_per, 3)
            fit = fit_within_dk(ds, RegressionSpec("y", ("x0", "x1", "x2"),
                                                   fixed_effects=fixed_effects))
            want = 2.0 * stdtr(fit.df_resid, -np.abs(fit.t_stats))
            np.testing.assert_allclose(fit.p_values, want, rtol=1e-12, atol=0)


class TestPooledOls:
    def test_constant_fit(self):
        ds = make_panel(["A"], list(range(4)),
                        x=[[1.0, 2.0, 3.0, 4.0]], y=[[3.0, 3.0, 3.0, 3.0]])
        fit = fit_within_dk(ds, RegressionSpec("y", ("x",), fixed_effects=False))
        assert fit.coef("const") == pytest.approx(3.0, abs=1e-12)
        assert fit.coef("x") == pytest.approx(0.0, abs=1e-12)

    def test_identity_fit(self):
        ds = make_panel(["A"], list(range(5)),
                        x=[[0.0, 1.0, 2.0, 3.0, 4.0]], y=[[0.0, 1.0, 2.0, 3.0, 4.0]])
        fit = fit_within_dk(ds, RegressionSpec("y", ("x",), fixed_effects=False))
        assert fit.coef("x") == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared_within == pytest.approx(1.0, abs=1e-12)

    def test_two_point_line(self):
        # normal equations by hand: intercept 1, slope 2 through (0,1), (1,3)
        ds = make_panel(["A", "B"], [2000],
                        x=[[0.0], [1.0]], y=[[1.0], [3.0]])
        fit = fit_within_dk(ds, RegressionSpec("y", ("x",), fixed_effects=False))
        assert fit.coef("const") == pytest.approx(1.0, abs=1e-12)
        assert fit.coef("x") == pytest.approx(2.0, abs=1e-12)
        # an exact fit leaves no residual degree of freedom for inference
        assert fit.df_resid == 0
        assert np.isnan(fit.covariance).all()
        assert np.isnan(fit.std_errors).all()
        assert np.isnan(fit.p_values).all()


class TestErrors:
    @pytest.mark.parametrize("f", [1.0, 1e6, 1e12])
    def test_rank_deficiency_names_columns(self, f):
        rng = np.random.default_rng(41)
        x = rng.normal(0, 1, (4, 6))
        y = rng.normal(0, 1, (4, 6))
        ds = make_panel([f"E{i}" for i in range(4)], list(range(6)),
                        x=x, x_copy=f * x, w=rng.normal(0, 1, (4, 6)), y=y)
        with pytest.raises(EstimationError, match=r"collinear columns: \['x', 'x_copy'\]$"):
            fit_within_dk(ds, RegressionSpec("y", ("x", "x_copy", "w")))

    def test_rank_deficient_fit_refused_in_linear_memory(self):
        # an n x n factor of this 3000-row design alone would be 69 MiB
        rng = np.random.default_rng(44)
        x = rng.normal(0, 1, (1000, 3))
        ds = make_panel([f"E{i}" for i in range(1000)], list(range(3)),
                        x=x, x2=2.0 * x, y=rng.normal(0, 1, (1000, 3)))
        tracemalloc.start()
        try:
            with pytest.raises(EstimationError, match=r"collinear columns: \['x', 'x2'\]$"):
                fit_within_dk(ds, RegressionSpec("y", ("x", "x2"), fixed_effects=False))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_near_collinear_design_matches_oracle(self):
        # cond(Z) about 1e9 passes the rank check; the fit on (x0, x1) is the
        # well-conditioned fit on (x0, z) in other coordinates
        for seed in range(40):
            ds = near_collinear_panel(seed)
            for fixed_effects in (True, False):
                spec = RegressionSpec("y", ("x0", "x1"), fixed_effects=fixed_effects)
                fit = fit_within_dk(ds, spec)
                oracle = np.sqrt(np.diag(reparametrized_cr2_oracle(ds, spec, 1e-9)))
                np.testing.assert_allclose(fit.std_errors, oracle,
                                           atol=1e-5 * oracle.max(), rtol=0)

    @pytest.mark.parametrize("fixed_effects", [True, False])
    @pytest.mark.parametrize("factor", [1e160, 1e-160, pytest.param(-1076, id="2**-1076")])
    def test_variance_outside_the_double_range_names_the_column(self, factor, fixed_effects,
                                                                caplog):
        # x0's variance would be a few times 1e-322 (subnormal) or 1e318 (inf).
        # An int factor is a power-of-two exponent: at 2**-1076 x0 keeps one
        # subnormal cell and the fit zeroes a leverage eigenvalue, which is
        # not reported for a fit that is refused.
        ds = random_panel(np.random.default_rng(5), 6, 5, 2)
        x0 = ds.column("x0")
        ds = ds.with_column("x0", np.ldexp(x0, factor) if isinstance(factor, int) else x0 * factor)
        spec = RegressionSpec("y", ("x0", "x1"), fixed_effects=fixed_effects)
        with caplog.at_level(logging.WARNING, logger="baselcost.estimation"):
            with pytest.raises(EstimationError, match=r"^estimate or variance of \['x0'\] is "
                               r"outside the range of a double; rescale the column$"):
                fit_within_dk(ds, spec)
        assert estimation_warnings(caplog) == []

    def test_time_invariant_regressor_under_fe_is_collinear(self):
        rng = np.random.default_rng(42)
        fixed = np.repeat(rng.normal(0, 1, (4, 1)), 6, axis=1)
        ds = make_panel([f"E{i}" for i in range(4)], list(range(6)),
                        w=fixed, y=rng.normal(0, 1, (4, 6)))
        with pytest.raises(EstimationError, match="rank deficient"):
            fit_within_dk(ds, RegressionSpec("y", ("w",)))

    def test_constant_regressor_in_pooled_fit_is_collinear(self):
        # the constant is taken by demeaning, so only w is left to name
        rng = np.random.default_rng(42)
        ds = make_panel([f"E{i}" for i in range(4)], list(range(6)), x=rng.normal(0, 1, (4, 6)),
                        w=np.full((4, 6), 2.5), y=rng.normal(0, 1, (4, 6)))
        with pytest.raises(EstimationError, match=r"collinear columns: \['w'\]$"):
            fit_within_dk(ds, RegressionSpec("y", ("x", "w"), fixed_effects=False))

    def test_too_few_observations(self):
        ds = make_panel(["A"], [1, 2], x=[[1.0, 2.0]], w=[[0.5, 3.0]], y=[[1.0, 2.0]])
        with pytest.raises(EstimationError, match=r"^too few observations: 2 rows for "
                           r"2 parameters \(including absorbed entity means\)$"):
            fit_within_dk(ds, RegressionSpec("y", ("x",)))
        with pytest.raises(EstimationError, match=r"^too few observations: 2 rows for "
                           r"3 parameters$"):
            fit_within_dk(ds, RegressionSpec("y", ("x", "w"), fixed_effects=False))

    def test_unknown_column(self):
        ds = make_panel(["A", "B"], [1, 2, 3],
                        x=np.ones((2, 3)), y=np.ones((2, 3)))
        with pytest.raises(DataError, match="nope"):
            fit_within_dk(ds, RegressionSpec("y", ("nope",)))

    def test_spec_validation(self):
        with pytest.raises(DataError):
            RegressionSpec("y", ())
        with pytest.raises(DataError):
            RegressionSpec("y", ("x", "x"))
        with pytest.raises(DataError):
            RegressionSpec("y", ("y", "x"))
        with pytest.raises(DataError):
            RegressionSpec("y", ("x",), dk_bandwidth=-1)
        with pytest.raises(DataError, match="dk_bandwidth"):
            RegressionSpec("y", ("x",), dk_bandwidth=True)
        with pytest.raises(DataError, match="include_intercept"):
            RegressionSpec("y", ("x",), include_intercept=False)
        with pytest.raises(DataError, match="regressors"):
            RegressionSpec("y", "liq")  # not ("l", "i", "q")
        with pytest.raises(DataError, match="regressors"):
            RegressionSpec("y", {"x0", "x1"})  # a set's order follows the hash seed

    def test_thin_entities_dropped_with_warning(self, caplog):
        rng = np.random.default_rng(43)
        y = rng.normal(0, 1, (3, 4))
        y[2, 1:] = np.nan  # entity E2 keeps a single usable row
        ds = make_panel(["E0", "E1", "E2"], list(range(4)),
                        x=rng.normal(0, 1, (3, 4)), y=y)
        with caplog.at_level(logging.WARNING, logger="baselcost.estimation"):
            fit = fit_within_dk(ds, RegressionSpec("y", ("x",)))
        assert fit.dropped_entities == ("E2",)
        assert fit.n_entities == 2
        assert any("E2" in m for m in caplog.messages)


class TestListwiseDeletion:
    def test_rows_with_any_missing_value_are_dropped(self):
        ds = make_panel(
            ["A", "B"], [1, 2, 3],
            x=[[1.0, NAN, 3.0], [1.0, 2.0, 3.0]],
            y=[[2.0, 4.0, 6.0], [NAN, 4.0, 6.0]],
        )
        fit = fit_within_dk(ds, RegressionSpec("y", ("x",)))
        assert fit.n_obs == 4
