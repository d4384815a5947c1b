"""Structural system tests: preset fidelity, propagation arithmetic,
simulation determinism, and system fitting."""

import json
import logging
import tracemalloc
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from baselcost import (
    CoefficientSet,
    DataError,
    EstimationError,
    PAPER_PRESET,
    PanelDataset,
    RegressionSpec,
    ScenarioInput,
    fit_system,
    fit_within_dk,
    phase_in_scenario,
    propagate_shock,
    simulate_panel,
)
from baselcost.model import EQUATIONS

COEFF_NAMES = (
    "spread_const", "spread_liq", "spread_cap",
    "lending_const", "lending_gdp", "lending_spread",
    "roe_const", "roe_lgdp", "roe_liq", "roe_cap",
)


class TestPreset:
    def test_values_cell_for_cell(self):
        assert PAPER_PRESET.spread_const == 1.617
        assert PAPER_PRESET.spread_liq == 0.639
        assert PAPER_PRESET.spread_cap == 0.169
        assert PAPER_PRESET.lending_const == 3.29
        assert PAPER_PRESET.lending_gdp == 1.352
        assert PAPER_PRESET.lending_spread == -0.306
        assert PAPER_PRESET.roe_const == 0.0
        assert PAPER_PRESET.roe_lgdp == 1.36
        assert PAPER_PRESET.roe_liq == -1.06
        assert PAPER_PRESET.roe_cap == -0.49
        assert PAPER_PRESET.provenance == "paper-preset"

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "coeffs.json"
        PAPER_PRESET.to_json(str(path))
        again = CoefficientSet.from_json(str(path))
        assert again == PAPER_PRESET

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"spread": {"const": 1.0}}')
        with pytest.raises(DataError):
            CoefficientSet.from_json(str(path))

    def test_nonfinite_coefficient_rejected(self):
        with pytest.raises(DataError):
            CoefficientSet(*([float("nan")] + [0.0] * 9))

    def test_unknown_provenance_rejected(self):
        with pytest.raises(DataError):
            CoefficientSet(*([0.0] * 10), provenance="guess")

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw.pop("spread"), "missing spread.const"),
        (lambda raw: raw["lending"].pop("gdp"), "missing lending.gdp"),
        (lambda raw: raw.update(roe=[1.0]), "missing roe.const"),
        (lambda raw: raw["spread"].update(liq="0.5"),
         "spread.liq must be a JSON number, got '0.5'"),
        (lambda raw: raw["spread"].update(liq=None), "spread.liq must be a JSON number, got None"),
        (lambda raw: raw["spread"].update(liq=10**400), "spread.liq is too large for a float"),
        (lambda raw: raw["spread"].update(liq=float("inf")),
         "coefficient spread_liq must be finite, got inf"),
        (lambda raw: raw.update(provenance="guess"),
         "provenance must be one of ('paper-preset', 'fitted', 'user'), got 'guess'"),
    ], ids=["block", "key", "block-not-object", "string", "null", "huge-int", "inf",
            "provenance"])
    def test_malformed_dict_names_the_field(self, edit, message):
        raw = PAPER_PRESET.to_dict()
        edit(raw)
        with pytest.raises(DataError) as info:
            CoefficientSet.from_dict(raw)
        assert str(info.value) == f"malformed coefficient set: {message}"

    @pytest.mark.parametrize("raw", [[], "spread", 1.0, None])
    def test_non_object_rejected(self, raw):
        with pytest.raises(DataError) as info:
            CoefficientSet.from_dict(raw)
        assert str(info.value) == "malformed coefficient set: missing spread.const"


class TestEquationTable:
    def test_field_names_follow_table(self):
        derived = tuple(f"{eq}_{term}" for eq, regs in EQUATIONS
                        for term in ("const", *regs))
        assert derived == COEFF_NAMES
        assert tuple(f.name for f in fields(CoefficientSet))[:-1] == derived

    def test_dict_round_trip_random_sets(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            coeffs = CoefficientSet(*rng.normal(0, 3, 10).tolist(), provenance="fitted")
            assert CoefficientSet.from_dict(coeffs.to_dict()) == coeffs
            again = CoefficientSet.from_dict(json.loads(json.dumps(coeffs.to_dict())))
            assert again == coeffs

    @staticmethod
    def _hand_map(c):
        """Rows (spread, lending, lgdp, roe) against (d_cap, d_liq), chained."""
        spread = np.array([c.spread_cap, c.spread_liq])
        lending = c.lending_spread * spread
        return np.vstack([spread, lending, lending,
                          c.roe_lgdp * lending + np.array([c.roe_cap, c.roe_liq])])

    def test_propagation_equals_linear_map(self):
        rng = np.random.default_rng(62)
        sets = [PAPER_PRESET] + [
            CoefficientSet(*rng.normal(0, 2, 10).tolist()) for _ in range(5)
        ]
        for c in sets:
            m = self._hand_map(c)
            for d_cap, d_liq, d_lgdp in rng.uniform(-5, 5, (40, 3)):
                shock = np.array([d_cap, d_liq])
                res = propagate_shock(c, ScenarioInput(delta_cap=d_cap, delta_liq=d_liq))
                got = np.array([res.delta_spread, res.delta_lending, res.delta_lgdp,
                                res.delta_roe])
                np.testing.assert_allclose(got, m @ shock, rtol=1e-12, atol=1e-12)

                res = propagate_shock(c, ScenarioInput(delta_cap=d_cap, delta_liq=d_liq,
                                                       mode="exogenous", delta_lgdp=d_lgdp))
                got = np.array([res.delta_spread, res.delta_lending, res.delta_lgdp,
                                res.delta_roe])
                want = np.array([m[0] @ shock, m[1] @ shock, d_lgdp,
                                 c.roe_lgdp * d_lgdp + c.roe_cap * d_cap + c.roe_liq * d_liq])
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestPropagation:
    def test_liquidity_shock(self):
        res = propagate_shock(PAPER_PRESET, ScenarioInput(delta_liq=1.0))
        assert res.delta_spread == pytest.approx(0.639, abs=1e-12)

    def test_capital_shock_hand_arithmetic(self):
        res = propagate_shock(PAPER_PRESET, ScenarioInput(delta_cap=1.0))
        assert res.delta_spread == pytest.approx(0.169, abs=1e-12)
        assert res.delta_lending == pytest.approx(-0.306 * 0.169, abs=1e-12)
        assert res.delta_roe == pytest.approx(1.36 * (-0.306 * 0.169) - 0.49, abs=1e-12)
        assert res.delta_roe == pytest.approx(-0.560331, abs=5e-7)

    def test_zero_shock(self):
        res = propagate_shock(PAPER_PRESET, ScenarioInput())
        assert (res.delta_spread, res.delta_lending, res.delta_lgdp, res.delta_roe) == \
            (0.0, 0.0, 0.0, 0.0)

    def test_linearity_and_additivity(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            dl, dc, a = rng.uniform(-3, 3, 3)
            x = propagate_shock(PAPER_PRESET, ScenarioInput(delta_liq=dl, delta_cap=dc))
            sx = propagate_shock(
                PAPER_PRESET, ScenarioInput(delta_liq=a * dl, delta_cap=a * dc)
            )
            for f in ("delta_spread", "delta_lending", "delta_lgdp", "delta_roe"):
                assert getattr(sx, f) == pytest.approx(a * getattr(x, f), abs=1e-12)
            dl2, dc2 = rng.uniform(-3, 3, 2)
            y = propagate_shock(PAPER_PRESET, ScenarioInput(delta_liq=dl2, delta_cap=dc2))
            xy = propagate_shock(
                PAPER_PRESET,
                ScenarioInput(delta_liq=dl + dl2, delta_cap=dc + dc2),
            )
            for f in ("delta_spread", "delta_lending", "delta_lgdp", "delta_roe"):
                assert getattr(xy, f) == pytest.approx(
                    getattr(x, f) + getattr(y, f), abs=1e-12
                )

    def test_sign_structure(self):
        for dl, dc in ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (2.5, 0.1)):
            res = propagate_shock(PAPER_PRESET, ScenarioInput(delta_liq=dl, delta_cap=dc))
            assert res.delta_spread > 0
            assert res.delta_lending < 0
            assert res.delta_roe < 0

    def test_exogenous_lgdp_mode(self):
        res = propagate_shock(
            PAPER_PRESET,
            ScenarioInput(delta_cap=1.0, mode="exogenous", delta_lgdp=-0.2),
        )
        assert res.delta_lgdp == -0.2
        assert res.delta_roe == pytest.approx(1.36 * -0.2 - 0.49, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(DataError, match=r"^shock input delta_cap must be finite, got inf$"):
            ScenarioInput(delta_cap=float("inf"))
        with pytest.raises(DataError, match=r"^shock input delta_liq must be finite, got nan$"):
            ScenarioInput(delta_cap=1.0, delta_liq=float("nan"))
        with pytest.raises(DataError):
            ScenarioInput(mode="exogenous")
        with pytest.raises(DataError):
            ScenarioInput(mode="chained", delta_lgdp=0.1)
        with pytest.raises(DataError):
            ScenarioInput(mode="levels")

    def test_overflowing_response_is_refused(self):
        with pytest.raises(DataError) as info:
            propagate_shock(PAPER_PRESET, ScenarioInput(delta_cap=1e308, delta_liq=1e308))
        assert str(info.value) == ("response delta_roe overflows to -inf; "
                                   "use a smaller shock or smaller coefficients")

    def test_trace_is_self_consistent(self):
        res = propagate_shock(PAPER_PRESET, ScenarioInput(delta_liq=0.7, delta_cap=1.3))
        for step in res.trace:
            if step["step"] in ("spread", "roe"):
                assert sum(step["terms"].values()) == pytest.approx(
                    step["value"], abs=1e-12
                )
        assert res.trace[0]["value"] == pytest.approx(res.delta_spread, abs=1e-15)
        assert res.trace[-1]["value"] == pytest.approx(res.delta_roe, abs=1e-15)

    def test_result_serializes(self):
        res = propagate_shock(PAPER_PRESET, ScenarioInput(delta_liq=1.0))
        payload = json.dumps(res.to_dict())
        assert "delta_spread" in payload


class TestCompactResult:
    def test_result_is_hashable(self):
        shock = ScenarioInput(delta_liq=0.7, delta_cap=1.3)
        a, b = propagate_shock(PAPER_PRESET, shock), propagate_shock(PAPER_PRESET, shock)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_editing_the_trace_leaves_the_result_alone(self):
        res = propagate_shock(PAPER_PRESET, ScenarioInput(delta_liq=0.7, delta_cap=1.3))
        before = json.dumps(res.to_dict())
        trace = res.trace
        trace[0]["value"] = 99.0
        trace[0]["terms"]["spread_liq*d_liq"] = 99.0
        assert json.dumps(res.to_dict()) == before
        assert res.trace[0]["value"] == res.delta_spread

    def test_ten_thousand_results_stay_small(self):
        # a result refers to its inputs; terms and trace are built on access
        shocks = [ScenarioInput(delta_cap=i / 100.0, delta_liq=j / 100.0)
                  for i in range(100) for j in range(100)]
        tracemalloc.start()
        try:
            kept = [propagate_shock(PAPER_PRESET, s) for s in shocks]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kept) == 10_000
        assert held < 200 * len(kept)


def _by_hand(c, shock):
    """to_dict() of a result written out term by term from the equations."""
    dl, dc = shock.delta_liq, shock.delta_cap
    spread = c.spread_liq * dl + c.spread_cap * dc
    lending = c.lending_spread * spread
    lgdp = lending if shock.mode == "chained" else shock.delta_lgdp
    roe = c.roe_lgdp * lgdp + c.roe_liq * dl + c.roe_cap * dc
    terms = (c.spread_liq * dl, c.spread_cap * dc, c.lending_spread * spread,
             c.roe_lgdp * lgdp, c.roe_liq * dl, c.roe_cap * dc)
    trace = [
        {"step": "spread", "formula": "d_spread = spread_liq*d_liq + spread_cap*d_cap",
         "terms": {"spread_liq*d_liq": terms[0], "spread_cap*d_cap": terms[1]},
         "value": spread},
        {"step": "lending", "formula": "d_lending = lending_spread*d_spread (GDP held fixed)",
         "terms": {"lending_spread*d_spread": terms[2]}, "value": lending},
        {"step": "lending_to_gdp",
         "formula": "d_lgdp = d_lending" if shock.mode == "chained" else "d_lgdp exogenous",
         "terms": {"d_lgdp": lgdp}, "value": lgdp},
        {"step": "roe", "formula": "d_roe = roe_lgdp*d_lgdp + roe_liq*d_liq + roe_cap*d_cap",
         "terms": {"roe_lgdp*d_lgdp": terms[3], "roe_liq*d_liq": terms[4],
                   "roe_cap*d_cap": terms[5]},
         "value": roe},
    ]
    return trace, {"delta_spread": spread, "delta_lending": lending,
                   "delta_lgdp": lgdp, "delta_roe": roe,
                   "provenance": c.provenance, "trace": trace}


SIGNED_SHOCKS = [
    ScenarioInput(delta_cap=-0.0, delta_liq=-0.0),
    ScenarioInput(delta_cap=1.3, delta_liq=-0.0),
    ScenarioInput(delta_cap=-0.0, delta_liq=0.7),
    ScenarioInput(delta_cap=-2.5, delta_liq=0.4),
    ScenarioInput(delta_cap=-0.0, delta_liq=-0.0, mode="exogenous", delta_lgdp=-0.0),
    ScenarioInput(delta_cap=1.3, delta_liq=-0.0, mode="exogenous", delta_lgdp=-0.2),
    ScenarioInput(delta_cap=-0.0, delta_liq=0.7, mode="exogenous", delta_lgdp=0.0),
]


class TestResultInputs:
    @pytest.mark.parametrize("coeffs", [
        PAPER_PRESET,
        CoefficientSet(*np.random.default_rng(4).normal(0, 2, 10).tolist(),
                       provenance="fitted"),
    ])
    @pytest.mark.parametrize("shock", SIGNED_SHOCKS)
    def test_derived_fields_match_the_formulas(self, coeffs, shock):
        res = propagate_shock(coeffs, shock)
        assert res.coefficients is coeffs and res.shock is shock
        trace, payload = _by_hand(coeffs, shock)
        # repr and json tell -0.0 from 0.0, which == does not
        assert repr(res.trace) == repr(tuple(trace))
        got = res.to_dict()
        assert got.pop("note").startswith("shock units follow the scenario narrative")
        assert json.dumps(got) == json.dumps(payload)

    def test_asdict_nests_the_inputs(self):
        shock = ScenarioInput(delta_cap=1.3, delta_liq=0.7)
        raw = asdict(propagate_shock(PAPER_PRESET, shock))
        assert list(raw) == ["delta_spread", "delta_lending", "delta_lgdp", "delta_roe",
                             "coefficients", "shock"]
        assert raw["coefficients"] == asdict(PAPER_PRESET)
        assert raw["shock"] == asdict(shock)

    def test_equality_compares_the_inputs(self):
        # roe_const never enters a response, so only the inputs tell these apart
        other = replace(PAPER_PRESET, roe_const=1.0)
        shock = ScenarioInput(delta_cap=1.3, delta_liq=0.7)
        a, b = propagate_shock(PAPER_PRESET, shock), propagate_shock(other, shock)
        assert (a.delta_spread, a.delta_lending, a.delta_roe, a.trace) == \
            (b.delta_spread, b.delta_lending, b.delta_roe, b.trace)
        assert a != b
        assert a == propagate_shock(PAPER_PRESET, ScenarioInput(delta_cap=1.3, delta_liq=0.7))


class TestPhaseIn:
    def test_cumulative_spread_over_full_window(self):
        series = phase_in_scenario(PAPER_PRESET, 2015, 2019)
        assert series.cumulative.delta_spread == pytest.approx(0.169 * 2.5, abs=1e-12)
        assert len(series.steps) == 4

    def test_yearly_deltas_sum_to_cumulative(self):
        series = phase_in_scenario(
            PAPER_PRESET, 2015, 2019, delta_liq_per_year=0.3
        )
        for f in ("delta_spread", "delta_lending", "delta_roe"):
            total = sum(getattr(r, f) for _, r in series.steps)
            assert total == pytest.approx(getattr(series.cumulative, f), abs=1e-12)

    def test_same_year_is_empty(self):
        series = phase_in_scenario(PAPER_PRESET, 2017, 2017)
        assert series.steps == ()
        assert series.cumulative.delta_spread == 0.0

    def test_overflow_names_the_step(self):
        with pytest.raises(DataError) as info:
            phase_in_scenario(PAPER_PRESET, delta_liq_per_year=1e308)
        assert str(info.value) == ("phase-in cumulative: shock input delta_liq must be "
                                   "finite, got inf")
        big = replace(PAPER_PRESET, spread_liq=1e308)
        with pytest.raises(DataError, match=r"^phase-in 2016: response delta_spread overflows"):
            phase_in_scenario(big, 2015, 2019, delta_liq_per_year=2.0)

    def test_years_outside_schedule_rejected(self):
        with pytest.raises(DataError):
            phase_in_scenario(PAPER_PRESET, 2014, 2019)
        with pytest.raises(DataError):
            phase_in_scenario(PAPER_PRESET, 2016, 2015)


class TestSimulatePanel:
    def test_deterministic_for_seed(self):
        a = simulate_panel(PAPER_PRESET, 5, 4, 0.1, seed=123)
        b = simulate_panel(PAPER_PRESET, 5, 4, 0.1, seed=123)
        for name in a.columns:
            np.testing.assert_array_equal(a.column(name), b.column(name))

    def test_neighbouring_seeds_differ(self):
        a = simulate_panel(PAPER_PRESET, 5, 4, 0.1, seed=123)
        b = simulate_panel(PAPER_PRESET, 5, 4, 0.1, seed=124)
        assert any(
            not np.array_equal(a.column(n), b.column(n)) for n in a.columns
        )

    def test_zero_noise_satisfies_equations_exactly(self):
        ds = simulate_panel(PAPER_PRESET, 6, 5, 0.0, seed=9)
        liq, cap, gdp = (ds.column(n) for n in ("liq", "cap", "gdp"))
        spread, lending, lgdp, roe = (
            ds.column(n) for n in ("spread", "lending", "lgdp", "roe")
        )
        np.testing.assert_allclose(
            spread, 1.617 + 0.639 * liq + 0.169 * cap, atol=1e-12
        )
        np.testing.assert_allclose(
            lending, 3.29 + 1.352 * gdp - 0.306 * spread, atol=1e-12
        )
        np.testing.assert_allclose(lgdp, lending - gdp, atol=1e-12)
        np.testing.assert_allclose(
            roe, 1.36 * lgdp - 1.06 * liq - 0.49 * cap, atol=1e-12
        )

    def test_dimension_validation(self):
        with pytest.raises(DataError):
            simulate_panel(PAPER_PRESET, 1, 5, 0.1, seed=1)
        with pytest.raises(DataError):
            simulate_panel(PAPER_PRESET, 5, 2, 0.1, seed=1)
        with pytest.raises(DataError):
            simulate_panel(PAPER_PRESET, 5, 5, -0.1, seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="seed must be a non-negative integer, got -1"):
            simulate_panel(PAPER_PRESET, 5, 5, 0.1, seed=-1)

    def test_shape_and_names(self):
        ds = simulate_panel(PAPER_PRESET, 7, 4, 0.05, seed=2)
        assert ds.entities == tuple(f"B{i:02d}" for i in range(1, 8))
        assert ds.periods == (2010, 2011, 2012, 2013)
        assert set(ds.columns) == {"liq", "cap", "gdp", "spread", "lending",
                                   "lgdp", "roe"}


class TestFitSystem:
    def test_zero_noise_exact_recovery(self):
        ds = simulate_panel(PAPER_PRESET, 10, 6, 0.0, seed=31)
        system = fit_system(ds)
        for name in COEFF_NAMES:
            assert getattr(system.coefficients, name) == pytest.approx(
                getattr(PAPER_PRESET, name), abs=1e-8
            ), name
        assert system.coefficients.provenance == "fitted"

    def test_recovery_within_two_standard_errors_typical_run(self):
        ds = simulate_panel(PAPER_PRESET, 22, 5, 0.01, seed=38000)
        system = fit_system(ds)
        fits = dict(zip(("spread", "lending", "roe"), system.fits))
        checks = [
            ("spread", "liq", PAPER_PRESET.spread_liq),
            ("spread", "cap", PAPER_PRESET.spread_cap),
            ("lending", "gdp", PAPER_PRESET.lending_gdp),
            ("lending", "spread", PAPER_PRESET.lending_spread),
            ("roe", "lgdp", PAPER_PRESET.roe_lgdp),
            ("roe", "liq", PAPER_PRESET.roe_liq),
            ("roe", "cap", PAPER_PRESET.roe_cap),
        ]
        for eq, pname, truth in checks:
            fit = fits[eq]
            assert abs(fit.coef(pname) - truth) <= \
                2.0 * fit.std_errors[fit.param_names.index(pname)], (eq, pname)

    def test_missing_columns_rejected(self):
        ds = simulate_panel(PAPER_PRESET, 5, 4, 0.0, seed=3)
        cols = dict(ds.columns)
        del cols["roe"]
        broken = PanelDataset(ds.entities, ds.periods, cols)
        with pytest.raises(DataError, match="roe"):
            fit_system(broken)

    def test_bandwidth_passthrough(self):
        ds = simulate_panel(PAPER_PRESET, 8, 5, 0.02, seed=5)
        system = fit_system(ds, dk_bandwidth="auto")
        assert system.fits[0].bandwidth_used == 2  # auto rule at T=5
        system0 = fit_system(ds)
        assert system0.fits[0].bandwidth_used == 0

    @staticmethod
    def _mean_max_rel_err(n_banks, n_years, noise_sd, seeds):
        slopes = ("spread_liq", "spread_cap", "lending_gdp", "lending_spread",
                  "roe_lgdp", "roe_liq", "roe_cap")
        errs = []
        for seed in seeds:
            ds = simulate_panel(PAPER_PRESET, n_banks, n_years, noise_sd, seed=seed)
            fitted = fit_system(ds).coefficients
            errs.append(max(
                abs(getattr(fitted, n) - getattr(PAPER_PRESET, n))
                / abs(getattr(PAPER_PRESET, n))
                for n in slopes
            ))
        return float(np.mean(errs))

    def test_round_trip_error_shrinks_with_noise(self):
        seeds = range(100, 105)
        ladder = [self._mean_max_rel_err(22, 5, sd, seeds)
                  for sd in (0.2, 0.02, 0.002)]
        assert ladder[0] > ladder[1] > ladder[2]

    def test_round_trip_error_shrinks_with_sample_size(self):
        seeds = range(200, 205)
        ladder = [self._mean_max_rel_err(nb, ny, 0.05, seeds)
                  for nb, ny in ((10, 5), (40, 10), (160, 20))]
        assert ladder[0] > ladder[1] > ladder[2]

    @pytest.mark.parametrize("holes, dropping, n_obs", [
        ({}, [], [60, 60, 60]),
        # lending alone uses gdp: it loses one cell of B01 and all but one of
        # B02, which it then drops; spread and roe keep every row
        ({"gdp": [(0, 2), (1, 1), (1, 2), (1, 3), (1, 4)]}, ["lending"], [60, 54, 60]),
        # B02 keeps one liq cell, so spread and roe drop it; lending has no
        # B02 row at all, so all three keep the same cells but drop different
        # entities
        ({"liq": [(1, 1), (1, 2), (1, 3), (1, 4)], "gdp": [(1, j) for j in range(5)]},
         ["spread", "roe"], [55, 55, 55]),
    ])
    def test_each_equation_equals_its_standalone_fit(self, holes, dropping, n_obs, caplog):
        ds = simulate_panel(PAPER_PRESET, 12, 5, 0.05, seed=61)
        for name, cells in holes.items():
            col = ds.column(name).copy()
            col[tuple(zip(*cells))] = np.nan
            ds = ds.with_column(name, col)
        with caplog.at_level(logging.WARNING, logger="baselcost.estimation"):
            system = fit_system(ds)
        message = "dropping 1 entity with fewer than 2 usable periods: ['B02']"
        assert [m for m in caplog.messages if m.startswith("dropping")] == \
            [message] * len(dropping)
        for (eq, regs), fit in zip(EQUATIONS, system.fits):
            alone = fit_within_dk(ds, RegressionSpec(eq, regs, dk_bandwidth=0))
            assert np.array_equal(fit.coefficients, alone.coefficients), eq
            assert (fit.n_obs, fit.dropped_entities) == (alone.n_obs, alone.dropped_entities)
            np.testing.assert_array_equal(fit.residuals, alone.residuals)  # NaN where no row
            assert fit.dropped_entities == (("B02",) if eq in dropping else ())
            np.testing.assert_allclose(fit.covariance, alone.covariance, rtol=0,
                                       atol=1e-12 * np.abs(alone.covariance).max())
        assert [fit.n_obs for fit in system.fits] == n_obs

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n_banks=st.integers(4, 12), n_years=st.integers(3, 6),
           seed=st.integers(0, 2**32 - 1), holes=st.integers(0, 4), data=st.data())
    def test_estimates_invariant_to_entity_order(self, n_banks, n_years, seed, holes, data):
        ds = simulate_panel(PAPER_PRESET, n_banks, n_years, 0.05, seed=seed)
        rng = np.random.default_rng(seed)
        for name in rng.choice(list(ds.columns), size=holes):
            col = ds.column(name).copy()
            col[rng.integers(n_banks), rng.integers(n_years)] = np.nan
            ds = ds.with_column(name, col)
        perm = data.draw(st.permutations(range(n_banks)))
        shuffled = PanelDataset(tuple(ds.entities[i] for i in perm), ds.periods,
                                {k: v[list(perm)] for k, v in ds.columns.items()})
        try:
            a = fit_system(ds)
        except EstimationError:
            assume(False)  # too few rows left: nothing to compare
        b = fit_system(shuffled)
        for fa, fb in zip(a.fits, b.fits):
            np.testing.assert_allclose(fb.coefficients, fa.coefficients, rtol=0,
                                       atol=1e-10 * np.abs(fa.coefficients).max())
            assert fb.n_obs == fa.n_obs
