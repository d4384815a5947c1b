"""Estimator tests against independent oracles.

The within estimator is checked against a least-squares-with-entity-dummies
regression built directly from the definition, the Driscoll-Kraay
covariance against a literal direct-summation sandwich, and its small-sample
leverage adjustment against dense per-period blocks of the full hat matrix.
The oracles live here in the test module and share no code with the
implementation.
"""

import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import stdtr

from baselcost import (
    PAPER_PRESET,
    DataError,
    EstimationError,
    PanelDataset,
    RegressionSpec,
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
        Z = np.column_stack([ones, X_dm + Xv.mean(axis=0)]) if spec.include_intercept else X_dm
        design = np.column_stack([dummies, Xv])
        n_params = dummies.shape[1] + Xv.shape[1]
    else:
        Z = np.column_stack([ones, Xv]) if spec.include_intercept else Xv
        design = Z
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
        assert fit.se("x") < 1e-8
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
        # reconstruct demeaned regressors on the kept rows
        ents = np.array(fit.row_entities)
        for name in ("x0", "x1"):
            col = ds.column(name)
            idx = {e: i for i, e in enumerate(ds.entities)}
            rows = np.array([
                col[idx[e], list(ds.periods).index(p)]
                for e, p in zip(fit.row_entities, fit.row_periods)
            ])
            demeaned = rows - np.array(
                [rows[ents == e].mean() for e in ents]
            )
            assert abs(float(demeaned @ fit.residuals)) < 1e-8

    def test_row_labels_name_the_kept_cells(self):
        ds = make_panel(["A", "B"], [2010, 2011, 2012],
                        y=[[1.0, NAN, 2.0], [0.5, 1.5, 3.0]],
                        x0=[[0.1, 0.2, 0.7], [0.4, 0.3, 0.9]])
        fit = fit_within_dk(ds, RegressionSpec("y", ("x0",)))
        assert fit.row_entities == ("A", "A", "B", "B", "B")
        assert fit.row_periods == (2010, 2012, 2010, 2011, 2012)
        assert {type(e) for e in fit.row_entities} == {str}
        assert {type(p) for p in fit.row_periods} == {int}


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
        for factor, small_sample in itertools.product((250.0, 1e8), (True, False)):
            scaled = ds.with_column("x0", ds.column("x0") * factor)
            a = fit_within_dk(ds, RegressionSpec("y", ("x0", "x1"),
                                                 small_sample=small_sample))
            b = fit_within_dk(scaled, RegressionSpec("y", ("x0", "x1"),
                                                     small_sample=small_sample))
            assert b.coef("x0") == pytest.approx(a.coef("x0") / factor, rel=1e-10)
            assert b.se("x0") == pytest.approx(a.se("x0") / factor, rel=1e-10)
            i = a.param_names.index("x0")
            assert b.t_stats[i] == pytest.approx(a.t_stats[i], rel=1e-10)
            assert b.p_values[i] == pytest.approx(a.p_values[i], rel=1e-10)

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
        include_intercept=draw(st.booleans()),
        fixed_effects=draw(st.booleans()),
        dk_bandwidth=draw(st.sampled_from((0, 1, "auto"))),
    )
    return ds.with_column("y", y), spec


class TestSmallSampleCovariance:
    @pytest.mark.parametrize("bandwidth", [0, 1, "auto"])
    @pytest.mark.parametrize("include_intercept", [True, False])
    @pytest.mark.parametrize("fixed_effects", [True, False])
    def test_matches_dense_oracle(self, fixed_effects, include_intercept, bandwidth, caplog):
        rng = np.random.default_rng(51)
        ds = mixed_length_panel(rng)
        spec = RegressionSpec("y", ("x0", "x1"), include_intercept=include_intercept,
                              fixed_effects=fixed_effects, dk_bandwidth=bandwidth)
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
        # period-0 block has one zero eigenvalue that the 1e-8 rule drops
        rng = np.random.default_rng(52)
        ds = mixed_length_panel(rng)
        first = np.zeros((ds.n_entities, ds.n_periods))
        first[:, 0] = 1.0
        ds = ds.with_column("d0", first)
        spec = RegressionSpec("y", ("x0", "d0"), fixed_effects=fixed_effects)
        with caplog.at_level(logging.WARNING, logger="baselcost.estimation"):
            fit = fit_within_dk(ds, spec)
        oracle, _, _ = cr2_dk_oracle(ds, spec)
        np.testing.assert_allclose(
            fit.covariance, oracle, atol=1e-10 * np.abs(oracle).max(), rtol=0
        )
        [message] = estimation_warnings(caplog)
        assert "1 leverage eigenvalue " in message

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
        # covariance that is zero in exact arithmetic (fixed effects without
        # intercept on two periods) is rounding on both sides.
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
    def test_rank_deficiency_names_columns(self):
        rng = np.random.default_rng(41)
        x = rng.normal(0, 1, (4, 6))
        ds = make_panel([f"E{i}" for i in range(4)], list(range(6)),
                        x=x, x_copy=x.copy(), y=rng.normal(0, 1, (4, 6)))
        with pytest.raises(EstimationError, match="x.*x_copy|x_copy.*x"):
            fit_within_dk(ds, RegressionSpec("y", ("x", "x_copy")))

    def test_time_invariant_regressor_under_fe_is_collinear(self):
        rng = np.random.default_rng(42)
        fixed = np.repeat(rng.normal(0, 1, (4, 1)), 6, axis=1)
        ds = make_panel([f"E{i}" for i in range(4)], list(range(6)),
                        w=fixed, y=rng.normal(0, 1, (4, 6)))
        with pytest.raises(EstimationError, match="rank deficient"):
            fit_within_dk(ds, RegressionSpec("y", ("w",)))

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
