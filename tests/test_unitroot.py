"""Harris-Tzavalis test: frozen hand cases, moments, and sampling behaviour."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from baselcost import (PAPER_PRESET, DataError, EstimationError, PanelDataset,
                       harris_tzavalis, simulate_panel)
from baselcost.unitroot import ht_moments, ht_statistic


def panel_from(levels, first_year=2010):
    levels = np.asarray(levels, dtype=float)
    ents = tuple(f"E{i}" for i in range(levels.shape[0]))
    years = tuple(range(first_year, first_year + levels.shape[1]))
    return PanelDataset(ents, years, {"y": levels})


class TestMoments:
    def test_two_transitions(self):
        mu, sigma = ht_moments(2)
        assert mu == pytest.approx(-1.0)
        assert sigma == pytest.approx(1.0)  # 3*(68-40+17)/(5*1*27) = 1

    def test_four_transitions(self):
        mu, sigma = ht_moments(4)
        assert mu == pytest.approx(-0.6)
        assert sigma == pytest.approx(math.sqrt(627.0 / 1875.0))

    def test_minimum_transitions(self):
        with pytest.raises(DataError):
            ht_moments(1)


class TestFrozenCase:
    def test_hand_computed_two_by_three(self):
        # A: (0,1,2), B: (1,0,1). Demeaned window products give rho = 0, and
        # with m = 2 transitions mu = -1, sigma = 1, so z = sqrt(2)*(0-1+1) = 0
        # and the left-tail p-value is exactly one half.
        rho, z, p = ht_statistic(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]]))
        assert rho == pytest.approx(0.0, abs=1e-15)
        assert z == pytest.approx(0.0, abs=1e-15)
        assert p == pytest.approx(0.5, abs=1e-15)

    def test_left_tail_matches_ndtr(self):
        # Two entities (0, 1, 1 + c) with m = 2 transitions: rho = c, mu = -1,
        # sigma = 1, so z = sqrt(2) * c.
        for z in np.linspace(-37.0, 37.0, 149):
            c = z / math.sqrt(2.0)
            _, got_z, p = ht_statistic([[0.0, 1.0, 1.0 + c], [0.0, 1.0, 1.0 + c]])
            assert got_z == pytest.approx(z, rel=1e-9, abs=1e-12)
            assert p == pytest.approx(float(ndtr(got_z)), rel=1e-12, abs=0), z


def rectangular_oracle(levels):
    """The statistic from its rectangular windows, each row less its own mean."""
    dep, reg = levels[:, 1:], levels[:, :-1]
    dep_dm = dep - dep.mean(axis=1, keepdims=True)
    reg_dm = reg - reg.mean(axis=1, keepdims=True)
    rho = (math.fsum((reg_dm * dep_dm).ravel().tolist())
           / math.fsum((reg_dm * reg_dm).ravel().tolist()))
    mu, sigma = ht_moments(levels.shape[1] - 1)
    z = math.sqrt(levels.shape[0]) * (rho - 1.0 - mu) / sigma
    return rho, z, 0.5 * math.erfc(-z / math.sqrt(2.0))


class TestRectangularOracle:
    @pytest.mark.parametrize("t", range(3, 41))
    def test_flat_transition_rows_match_row_means(self, t):
        """Both windows go through entity_demean as flat transition rows; the
        sums may differ from the row means' pairwise sums in the last bits."""
        for n, seed in ((22, 3), (300, 4)):
            ds = simulate_panel(PAPER_PRESET, n, t, 0.05, seed)
            for column in ("liq", "cap", "gdp", "spread", "lending", "roe"):
                levels = ds.column(column)
                got, want = ht_statistic(levels), rectangular_oracle(levels)
                assert got == pytest.approx(want, rel=1e-12, abs=0), (n, column)


class TestContracts:
    def test_deterministic_and_order_invariant(self):
        rng = np.random.default_rng(5)
        levels = rng.normal(0, 1, (10, 6)).cumsum(axis=1)
        a = ht_statistic(levels)
        b = ht_statistic(levels[::-1])
        assert a == b
        assert a == ht_statistic(levels)

    def test_unbalanced_column_rejected_with_guidance(self):
        levels = np.array([[1.0, 2.0, 3.0], [1.0, np.nan, 2.0]])
        with pytest.raises(DataError, match="balance"):
            harris_tzavalis(panel_from(levels), "y")

    def test_calendar_gap_names_first_missing_year(self):
        levels = np.random.default_rng(7).normal(0, 1, (6, 4)).cumsum(axis=1)
        ds = PanelDataset(tuple(f"E{i}" for i in range(6)), (2010, 2012, 2013, 2015),
                          {"y": levels})
        with pytest.raises(DataError, match="year 2011 is missing"):
            harris_tzavalis(ds, "y")

    def test_too_few_periods(self):
        with pytest.raises(DataError, match="3 periods"):
            ht_statistic(np.ones((5, 2)))

    def test_levels_not_a_matrix(self):
        with pytest.raises(DataError,
                           match=r"^levels must be a 2-d \(entities x periods\) array$"):
            ht_statistic(np.ones(5))

    def test_missing_level(self):
        levels = np.ones((4, 5))
        levels[2, 3] = np.nan
        with pytest.raises(DataError,
                           match="^levels contain missing values; balance the panel first$"):
            ht_statistic(levels)

    def test_too_few_entities(self):
        with pytest.raises(DataError, match="2 entities"):
            ht_statistic(np.random.default_rng(0).normal(0, 1, (1, 5)))

    def test_degenerate_variance(self):
        # every entity series identically its own mean
        levels = np.array([[2.0, 2.0, 2.0], [7.0, 7.0, 7.0]])
        with pytest.raises(EstimationError, match="degenerate variance"):
            ht_statistic(levels)

    def test_result_fields(self):
        rng = np.random.default_rng(6)
        ds = panel_from(rng.normal(0, 1, (8, 5)))
        res = harris_tzavalis(ds, "y")
        assert res.variable == "y"
        assert res.n_entities == 8
        assert res.n_periods == 5
        assert res.to_dict()["case"] == "panel-specific means"
        assert 0.0 <= res.p_value <= 1.0


class TestFloatRange:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 40), t=st.integers(3, 12),
           column=st.sampled_from(["liq", "cap", "gdp", "spread", "lending", "roe"]),
           k=st.integers(-1000, 1000))
    def test_power_of_two_rescaling_moves_no_bit(self, seed, n, t, column, k):
        """Exact while every nonzero cell stays a normal double; the unscaled
        arithmetic overflowed from about |k| = 510 on unit-scale data."""
        levels = simulate_panel(PAPER_PRESET, n, t, 1.0, seed).column(column)
        assert np.abs(levels[levels != 0]).min() * 2.0**k >= np.finfo(float).tiny
        assert ht_statistic(np.ldexp(levels, k)) == ht_statistic(levels)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_level(self, bad):
        levels = np.random.default_rng(3).normal(0, 1, (4, 5)).cumsum(axis=1)
        levels[1, 2] = bad
        with pytest.raises(DataError, match="^levels contain infinite values$"):
            ht_statistic(levels)
        levels[0, 0] = np.nan  # a missing cell is named first
        with pytest.raises(DataError, match="^levels contain missing values"):
            ht_statistic(levels)


class TestSamplingBehaviour:
    def test_random_walk_rho_sits_in_the_bias_band(self):
        # under the null the estimator concentrates near 1 + mu = 0.4 for
        # panels with 4 transitions; a single large-N draw should land nearby
        rng = np.random.default_rng(1234)
        levels = rng.standard_normal((800, 5)).cumsum(axis=1)
        rho, z, p = ht_statistic(levels)
        assert abs(rho - 0.4) < 0.08

    def test_stationary_panel_rejects(self):
        rng = np.random.default_rng(99)
        a = rng.normal(0, 2, (150, 1))
        v = np.empty((150, 6))
        v[:, 0] = rng.standard_normal(150)
        for t in range(1, 6):
            v[:, t] = 0.3 * v[:, t - 1] + rng.standard_normal(150)
        _, _, p = ht_statistic(a + v)
        assert p < 0.01

    def test_size_quick_check(self):
        # coarse size sanity at modest replication count; the acceptance
        # suite runs the full calibrated experiment
        rng = np.random.default_rng(777)
        rejections = 0
        reps = 400
        for _ in range(reps):
            levels = rng.standard_normal((100, 5)).cumsum(axis=1)
            _, _, p = ht_statistic(levels)
            rejections += p < 0.05
        assert 0.01 <= rejections / reps <= 0.12

    def test_null_z_is_roughly_standard_normal(self):
        rng = np.random.default_rng(4242)
        zs = []
        for _ in range(300):
            levels = rng.standard_normal((300, 5)).cumsum(axis=1)
            _, z, _ = ht_statistic(levels)
            zs.append(z)
        zs = np.array(zs)
        assert abs(zs.mean()) < 0.15
        assert 0.75 < zs.std() < 1.25
        # two-sided tail count consistent with the normal at a loose level
        assert (norm.cdf(zs) < 0.05).mean() < 0.12
