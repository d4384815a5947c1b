"""CLI contract tests: outputs, exit codes, format round trips."""

import csv
import io
import json
import logging
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from baselcost import PAPER_PRESET, PanelDataset, load_panel, simulate_panel, write_panel
from baselcost.cli import main

BS_HEADER = (
    "bank_id,year,common_equity,debt_ge_1y,other_liabilities_ge_1y,"
    "stable_deposits_lt_1y,less_stable_deposits_lt_1y,govt_debt,"
    "corp_loans_lt_1y,retail_loans_lt_1y,other_assets,intangibles,goodwill,rwa"
)
WORKED_ROW = "B01,2014,100,50,0,200,100,100,300,100,100,10,5,850"
ROOT = Path(__file__).resolve().parent.parent
BUNDLED_PANEL = str(ROOT / "data" / "synthetic_panel.csv")
FULL = "error: cannot write {}: No space left on device\n"  # a write to /dev/full
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@pytest.fixture
def worked_csv(tmp_path):
    p = tmp_path / "bs.csv"
    p.write_text(BS_HEADER + "\n" + WORKED_ROW + "\n")
    return str(p)


@pytest.fixture
def panel_csv(tmp_path):
    ds = simulate_panel(PAPER_PRESET, 12, 6, 0.05, seed=1001)
    p = tmp_path / "panel.csv"
    write_panel(ds, str(p))
    return str(p)


class TestRatios:
    def test_worked_example_printed(self, worked_csv, capsys):
        assert main(["ratios", "--balance-sheets", worked_csv]) == 0
        out = capsys.readouterr().out
        assert "1.14706" in out
        assert "0.10000" in out

    def test_negative_tce_is_logged_once_per_row(self, tmp_path, capsys):
        """The table is as usual; stderr carries one logged line per negative
        row and nothing else (no warnings-module text)."""
        p = tmp_path / "neg.csv"
        p.write_text(BS_HEADER + "\nB01,2014,100,50,0,200,100,100,300,100,100,60,50,850"
                     "\nB02,2014,100,50,0,200,100,100,300,100,100,90,30,850\n")
        assert main(["ratios", "--balance-sheets", str(p)]) == 0
        expected = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "baselcost.cli", "ratios",
                               "--balance-sheets", str(p)], capture_output=True, text=True,
                              cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              timeout=300)
        assert proc.returncode == 0
        assert proc.stdout == expected
        assert proc.stderr == ("B01 2014: tangible common equity is negative (-10.0)\n"
                               "B02 2014: tangible common equity is negative (-20.0)\n")

    def test_header_only_file(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text(BS_HEADER + "\n")
        assert main(["ratios", "--balance-sheets", str(p)]) == 0
        out = capsys.readouterr().out
        assert "bank_id" in out

    def test_missing_rwa_with_tce_requested(self, tmp_path, capsys):
        p = tmp_path / "no_rwa.csv"
        header = BS_HEADER.rsplit(",", 3)[0]  # drop intangibles,goodwill,rwa
        p.write_text(header + "\nB01,2014,100,50,0,200,100,100,300,100,100\n")
        assert main(["ratios", "--balance-sheets", str(p), "--tce"]) == 2
        assert "rwa" in capsys.readouterr().err

    def test_no_tce_works_without_rwa(self, tmp_path, capsys):
        p = tmp_path / "no_rwa.csv"
        header = BS_HEADER.rsplit(",", 3)[0]
        p.write_text(header + "\nB01,2014,100,50,0,200,100,100,300,100,100\n")
        assert main(["ratios", "--balance-sheets", str(p), "--no-tce"]) == 0
        assert "1.14706" in capsys.readouterr().out

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text(BS_HEADER + "\nB01,2014,abc" + ",0" * 11 + "\n")
        assert main(["ratios", "--balance-sheets", str(p)]) == 2
        assert "error" in capsys.readouterr().err

    def test_weights_override(self, worked_csv, tmp_path, capsys):
        w = tmp_path / "w.json"
        w.write_text(json.dumps({
            "asf": {"ge_1y": 1.0, "stable_deposits": 1.0, "less_stable_deposits": 1.0},
            "rsf": {"govt_debt": 1.0, "corp_loans": 1.0, "retail_loans": 1.0,
                    "other_assets": 1.0},
        }))
        assert main(["ratios", "--balance-sheets", worked_csv,
                     "--weights", str(w), "--no-tce"]) == 0
        out = capsys.readouterr().out
        assert "0.75000" in out  # 450/600 under unit weights

    def test_unknown_weight_key_exits_2(self, worked_csv, tmp_path, capsys):
        w = tmp_path / "w.json"
        w.write_text(json.dumps({"asf": {"stable_deposit": 1.0}}))
        assert main(["ratios", "--balance-sheets", worked_csv,
                     "--weights", str(w), "--no-tce"]) == 2
        assert "stable_deposit" in capsys.readouterr().err
        w.write_text(json.dumps({"asf": {"stable_deposits": 1.0}}))
        assert main(["ratios", "--balance-sheets", worked_csv,
                     "--weights", str(w), "--no-tce"]) == 0
        assert "1.23529" in capsys.readouterr().out  # 420/340, other weights default

    def test_json_format_round_trips(self, worked_csv, capsys):
        assert main(["ratios", "--balance-sheets", worked_csv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["nsfr"] == pytest.approx(390 / 340, abs=1e-12)


class TestPhasein:
    def test_schedule_table(self, capsys):
        assert main(["phasein"]) == 0
        out = capsys.readouterr().out
        assert "10.625" in out and "12.5" in out and "5.125" in out

    def test_deltas(self, capsys):
        assert main(["phasein", "--deltas", "2015:2019"]) == 0
        out = capsys.readouterr().out
        assert "+2.5" in out

    def test_compliance_positions(self, tmp_path, capsys):
        p = tmp_path / "pos.csv"
        p.write_text(
            "bank_id,year,cet1_ratio_pct,tier1_ratio_pct,total_car_pct,"
            "leverage_pct,lcr,nsfr\n"
            "B01,2019,7.0,9.0,12.5,3.0,1.0,1.01\n"
        )
        assert main(["phasein", "--positions", str(p)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_blank_position_cell_exits_2(self, tmp_path, capsys):
        p = tmp_path / "pos.csv"
        p.write_text(
            "bank_id,year,cet1_ratio_pct,tier1_ratio_pct,total_car_pct,"
            "leverage_pct,lcr,nsfr\n"
            "B01,2019,,9.0,12.5,3.0,1.0,1.01\n"
        )
        assert main(["phasein", "--positions", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pos.csv:2: blank cell in required column 'cet1_ratio_pct'" in captured.err

    def test_bad_deltas_range_exits_2(self, capsys):
        assert main(["phasein", "--deltas", "2015-2019"]) == 2

    def test_csv_schedule_and_deltas(self, capsys):
        assert main(["phasein", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("year,min_cet1_pct,")
        assert lines[2].startswith("2016,4.5,0.625,5.125,")
        assert main(["phasein", "--deltas", "2015:2019", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "requirement,delta"
        assert "total_plus_buffer_pct,+2.5" in lines

    def test_positions_csv_exits_2(self, tmp_path, capsys):
        p = tmp_path / "pos.csv"
        p.write_text(
            "bank_id,year,cet1_ratio_pct,tier1_ratio_pct,total_car_pct,"
            "leverage_pct,lcr,nsfr\n"
            "B01,2019,7.0,9.0,12.5,3.0,1.0,1.01\n"
        )
        assert main(["phasein", "--positions", str(p), "--format", "csv"]) == 2
        assert "--format text or json" in capsys.readouterr().err


class TestUnitroot:
    def test_stationary_variable_rejects(self, panel_csv, capsys):
        assert main(["unitroot", "--panel", panel_csv, "--vars", "liq,cap"]) == 0
        out = capsys.readouterr().out
        assert "liq" in out and "p_value" in out
        payload_lines = [l for l in out.splitlines() if l.strip().startswith("liq")]
        p_val = float(payload_lines[0].split()[-1])
        assert p_val < 0.05

    def test_unknown_variable_exits_2(self, panel_csv, capsys):
        assert main(["unitroot", "--panel", panel_csv, "--vars", "bogus"]) == 2

    def test_no_variables_exits_2(self, panel_csv, capsys):
        assert main(["unitroot", "--panel", panel_csv, "--vars", ",,"]) == 2
        assert capsys.readouterr() == ("", "error: no variables requested; pass --vars a,b,c\n")

    def test_unbalanced_exits_2(self, tmp_path, capsys):
        p = tmp_path / "holes.csv"
        p.write_text(
            "bank_id,year,x\nB01,2010,1\nB01,2011,2\nB01,2012,3\n"
            "B02,2010,1\nB02,2011,\nB02,2012,2\n"
        )
        assert main(["unitroot", "--panel", str(p), "--vars", "x"]) == 2
        assert "balance" in capsys.readouterr().err

    def test_calendar_gap_exits_2(self, tmp_path, capsys):
        p = tmp_path / "gap.csv"
        p.write_text("bank_id,year,x\n" + "".join(
            f"{b},{y},{v}\n" for b in ("B01", "B02")
            for y, v in zip((2012, 2014, 2015), (1.0, 2.5, 2.0))
        ))
        assert main(["unitroot", "--panel", str(p), "--vars", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "year 2013 is missing" in captured.err

    def test_csv_format(self, panel_csv, capsys):
        assert main(["unitroot", "--panel", panel_csv, "--vars", "liq,cap",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "variable,rho,z,p_value"
        assert [l.split(",")[0] for l in lines[1:]] == ["liq", "cap"]

    @pytest.mark.parametrize("k", [600, -600])
    def test_power_of_two_rescaling_keeps_the_bytes(self, tmp_path, k, capsys):
        """Every cell of the bundled panel times 2**k: the same JSON, byte for byte."""
        argv = ["--vars", "liq,cap,gdp,spread,lending,roe", "--format", "json"]
        assert main(["unitroot", "--panel", BUNDLED_PANEL, *argv]) == 0
        plain = capsys.readouterr()
        ds = load_panel(BUNDLED_PANEL, [])
        p = str(tmp_path / "scaled.csv")
        write_panel(PanelDataset(ds.entities, ds.periods,
                                 {n: np.ldexp(m, k) for n, m in ds.columns.items()}), p)
        assert main(["unitroot", "--panel", p, *argv]) == 0
        assert capsys.readouterr() == plain


class TestFit:
    @pytest.mark.parametrize("model, bandwidths", [("spread", [2]), ("all", [0, 0, 0])])
    def test_default_bandwidths(self, model, bandwidths, capsys):
        """Without --dk-lags a single equation takes RegressionSpec's "auto"
        (2 on five periods) and the system takes fit_system's 0."""
        assert main(["fit", "--panel", BUNDLED_PANEL, "--model", model,
                     "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        fits = [out["fit"]] if model == "spread" else list(out["equations"].values())
        assert [fit["bandwidth_used"] for fit in fits] == bandwidths

    def test_single_model_with_lag_override(self, panel_csv, capsys):
        assert main(["fit", "--panel", panel_csv, "--model", "spread",
                     "--dk-lags", "2"]) == 0
        out = capsys.readouterr().out
        assert "dk_lags=2" in out

    def test_non_integer_lags_exit_2(self, panel_csv, capsys):
        assert main(["fit", "--panel", panel_csv, "--model", "spread", "--dk-lags", "x"]) == 2
        assert capsys.readouterr() == (
            "", "error: --dk-lags must be 'auto' or an integer, got 'x'\n")

    def test_fit_all_writes_coefficients(self, panel_csv, tmp_path, capsys):
        coeffs_path = tmp_path / "fitted.json"
        assert main(["fit", "--panel", panel_csv, "--model", "all",
                     "--coeffs-out", str(coeffs_path)]) == 0
        raw = json.loads(coeffs_path.read_text())
        assert raw["provenance"] == "fitted"
        assert raw["spread"]["liq"] == pytest.approx(0.639, abs=0.15)
        assert raw["lending"]["gdp"] == pytest.approx(1.352, abs=0.15)

    def test_collinear_regressor_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        ds = simulate_panel(PAPER_PRESET, 6, 5, 0.05, seed=77)
        dup = ds.with_column("liq2", ds.column("liq"))
        p = tmp_path / "dup.csv"
        write_panel(dup, str(p))
        assert main(["fit", "--panel", str(p), "--model", "custom",
                     "--dep", "spread", "--regressors", "liq,liq2"]) == 3
        assert "collinear" in capsys.readouterr().err

    @pytest.mark.parametrize("y, opts, thin", [
        (("", "", "", ""), [], False),
        (("", "", "", ""), ["--no-fe"], False),
        (("1", "", "", "4"), [], True),  # one usable year per bank
    ], ids=["blank-dep", "blank-dep-pooled", "one-year-each"])
    def test_no_usable_observations_exits_3(self, tmp_path, caplog, capsys, y, opts, thin):
        p = tmp_path / "p.csv"
        p.write_text("bank_id,year,y,x\n" + "".join(
            f"{b},{t},{v},{x}\n" for (b, t, x), v in
            zip([("A", 2010, 1), ("A", 2011, 2), ("B", 2010, 3), ("B", 2011, 4)], y)))
        with caplog.at_level(logging.WARNING, logger="baselcost.estimation"):
            assert main(["fit", "--panel", str(p), "--model", "custom", "--dep", "y",
                         "--regressors", "x", *opts]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("no usable observations after listwise deletion\n")
        assert [r.getMessage() for r in caplog.records] == (
            ["dropping 2 entities with fewer than 2 usable periods: ['A', 'B']"] if thin else [])

    def test_near_collinear_design_exits_0(self, tmp_path, capsys):
        # x1 = x0 + 1e-9 * noise passes the rank check, so every fit succeeds
        # with every standard error finite and positive
        codes = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x0 = rng.normal(size=(8, 6))
            x1 = rng.normal(size=(8, 6))
            y = rng.normal(size=(8, 6)) + x0
            ds = PanelDataset(tuple(f"B{i}" for i in range(8)), tuple(range(2010, 2016)),
                              {"y": y, "x0": x0, "x1": x0 + 1e-9 * x1})
            p = tmp_path / f"near_{seed}.csv"
            write_panel(ds, str(p))
            for opts in ([], ["--plain-cov"], ["--no-fe"]):
                codes.append(main(["fit", "--panel", str(p), "--model", "custom", "--dep", "y",
                                   "--regressors", "x0,x1", *opts, "--format", "json"]))
                se = [q["std_error"] for q in json.loads(capsys.readouterr().out)["fit"]["params"]]
                assert all(s is not None and math.isfinite(s) and s > 0 for s in se), (seed, opts)
        assert codes == [0] * 120

    def test_custom_needs_dep_and_regressors(self, panel_csv, capsys):
        assert main(["fit", "--panel", panel_csv, "--model", "custom"]) == 2

    def test_bundled_fit_all_zeroes_no_leverage_eigenvalue(self, caplog, capsys):
        with caplog.at_level(logging.WARNING, logger="baselcost.estimation"):
            assert main(["fit", "--panel", BUNDLED_PANEL, "--model", "all",
                         "--format", "json"]) == 0
        assert [r for r in caplog.records if r.name == "baselcost.estimation"] == []
        assert json.loads(capsys.readouterr().out)["coefficients"]["provenance"] == "fitted"

    def test_truncation_warning_leaves_stdout_unchanged(self, tmp_path, caplog, capsys):
        ds = simulate_panel(PAPER_PRESET, 12, 5, 0.05, seed=1002)
        first = np.zeros((ds.n_entities, ds.n_periods))
        first[:, 0] = 1.0
        p = tmp_path / "dummy.csv"
        write_panel(ds.with_column("d0", first), str(p))
        argv = ["fit", "--panel", str(p), "--model", "custom", "--dep", "spread",
                "--regressors", "liq,d0", "--format", "json"]
        with caplog.at_level(logging.WARNING, logger="baselcost.estimation"):
            assert main(argv) == 0
        warned = capsys.readouterr().out
        assert any("leverage eigenvalue" in r.getMessage() for r in caplog.records)
        with caplog.at_level(logging.ERROR, logger="baselcost.estimation"):
            assert main(argv) == 0
        assert capsys.readouterr().out == warned
        json.loads(warned)

    def test_schema_log_transform_is_applied(self, panel_csv, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text('{"variables": [{"name": "lending", "transform": "log"}]}')
        ds = simulate_panel(PAPER_PRESET, 12, 6, 0.05, seed=1001)
        exp = ds.with_column("lending", np.exp(ds.column("lending")))
        exp_csv = tmp_path / "exp.csv"
        write_panel(exp, str(exp_csv))
        base = ["--model", "custom", "--regressors", "gdp,spread", "--format", "json"]
        assert main(["fit", "--panel", panel_csv, "--dep", "lending", *base]) == 0
        direct = json.loads(capsys.readouterr().out)["fit"]
        assert main(["fit", "--panel", str(exp_csv), "--schema", str(schema),
                     "--dep", "lending__log", *base]) == 0
        logged = json.loads(capsys.readouterr().out)["fit"]
        for a, b in zip(direct["params"], logged["params"]):
            assert a["estimate"] == pytest.approx(b["estimate"], rel=1e-9, abs=1e-12)

    def test_csv_format_rejected(self, panel_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--panel", panel_csv, "--model", "all", "--format", "csv"])
        assert exc.value.code == 2


class TestSimulate:
    def test_liquidity_shock_value(self, capsys):
        assert main(["simulate", "--dliq", "1", "--coeffs", "paper"]) == 0
        assert "0.639" in capsys.readouterr().out

    def test_capital_phase_in_value(self, capsys):
        assert main(["simulate", "--dcap", "2.5", "--coeffs", "paper"]) == 0
        assert "0.4225" in capsys.readouterr().out

    def test_no_shock_zero_deltas(self, capsys):
        assert main(["simulate"]) == 0
        out = capsys.readouterr().out
        assert "d_spread=+0" in out

    def test_phase_in_series(self, capsys):
        assert main(["simulate", "--phase-in", "2015:2019"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out and "0.4225" in out

    def test_bad_coeff_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{")
        assert main(["simulate", "--dliq", "1", "--coeffs", str(p)]) == 2

    def test_json_identical_across_runs(self, capsys):
        assert main(["simulate", "--dliq", "1", "--dcap", "0.5",
                     "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--dliq", "1", "--dcap", "0.5",
                     "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["delta_spread"] == pytest.approx(0.639 + 0.5 * 0.169, abs=1e-12)

    def test_csv_format(self, capsys):
        assert main(["simulate", "--dcap", "1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "delta_spread,delta_lending,delta_lgdp,delta_roe"

    def test_make_panel_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "panel.csv"
        assert main(["simulate", "--make-panel", "--banks", "4", "--years", "4",
                     "--noise", "0.05", "--seed", "5", "--out", str(out_path)]) == 0
        text = out_path.read_text()
        assert text.startswith("bank_id,year,")
        assert main(["unitroot", "--panel", str(out_path), "--vars", "liq"]) == 0

    def test_bundled_panel_regenerates_byte_for_byte(self, tmp_path):
        # the command data/README.md gives for the bundled panel, into tmp_path
        readme = (ROOT / "data" / "README.md").read_text()
        argv = re.search(r"`baselcost (simulate --make-panel[^`]*)`", readme).group(1).split()
        argv[argv.index("--out") + 1] = str(tmp_path / "panel.csv")
        assert main(argv) == 0
        assert (tmp_path / "panel.csv").read_bytes() == Path(BUNDLED_PANEL).read_bytes()

    def test_make_panel_without_out_exits_2(self, capsys):
        assert main(["simulate", "--make-panel"]) == 2

    def test_empty_phase_in_exits_2(self, capsys):
        assert main(["simulate", "--phase-in", ""]) == 2
        assert capsys.readouterr().err == "error: expected FROM:TO years, got ''\n"


class TestFileOutput:
    def test_out_writes_file_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["simulate", "--dliq", "1", "--format", "json", "--out", str(a)])
        main(["simulate", "--dliq", "1", "--format", "json", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def _under_hash_seeds(argv, cwd):
    """stdout of `baselcost argv --format json` in fresh interpreters under
    PYTHONHASHSEED 1 and 2."""
    outs = []
    for seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-m", "baselcost.cli", *argv, "--format", "json"],
                              capture_output=True, cwd=cwd, timeout=300,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                                   "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    return outs


class TestHashSeed:
    """The JSON bytes do not depend on the interpreter's string hashing."""

    @pytest.mark.parametrize("argv", [
        ["fit", "--panel", BUNDLED_PANEL, "--model", "all"],
        ["fit", "--panel", BUNDLED_PANEL, "--model", "roe", "--no-fe"],
        ["unitroot", "--panel", BUNDLED_PANEL, "--vars", "liq,cap,gdp,spread,lending,roe"],
    ], ids=["fit-all", "fit-roe-pooled", "unitroot"])
    def test_bundled_panel(self, argv):
        first, second = _under_hash_seeds(argv, ROOT)
        assert first == second

    def test_unbalanced_fixed_effects_fit(self, tmp_path):
        # 200 banks x 6 years with 10% of bank-years blank in every column
        rng = np.random.default_rng(6)
        n, t = 200, 6
        a = rng.normal(0, 2, (n, 1))
        x0, x1, e = rng.normal(size=(3, n, t))
        blank = rng.random((n, t)) < 0.1
        cols = {"y": a + 0.5 * x0 - 0.3 * x1 + 0.5 * e, "x0": x0, "x1": x1}
        write_panel(PanelDataset(tuple(f"B{i:03d}" for i in range(n)),
                                 tuple(range(2010, 2010 + t)),
                                 {k: np.where(blank, np.nan, v) for k, v in cols.items()}),
                    str(tmp_path / "unbalanced.csv"))
        first, second = _under_hash_seeds(["fit", "--panel", "unbalanced.csv", "--model",
                                           "custom", "--dep", "y", "--regressors", "x0,x1"],
                                          tmp_path)
        assert first == second
        fit = json.loads(first)["fit"]
        se = [p["std_error"] for p in fit["params"]]
        assert fit["small_sample"] and fit["n_obs"] < 1200
        assert all(s is not None and math.isfinite(s) and s > 0 for s in se), se


class TestOutputWriteErrors:
    """A failed output write exits 2 with one error line naming the path."""

    def _assert_write_error(self, argv, path, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and str(path) in lines[0]
        assert not path.exists()

    def test_out(self, tmp_path, capsys):
        path = tmp_path / "missing" / "schedule.json"
        self._assert_write_error(["phasein", "--format", "json", "--out", str(path)],
                                 path, capsys)

    def test_coeffs_out(self, panel_csv, tmp_path, capsys):
        path = tmp_path / "missing" / "coeffs.json"
        self._assert_write_error(["fit", "--panel", panel_csv, "--model", "all",
                                  "--coeffs-out", str(path)], path, capsys)

    def test_make_panel_out(self, tmp_path, capsys):
        path = tmp_path / "missing" / "panel.csv"
        self._assert_write_error(["simulate", "--make-panel", "--banks", "4", "--years", "4",
                                  "--out", str(path)], path, capsys)

    def test_closed_stdout(self):
        # stdout is a pipe whose read end is already closed, as in `| head -0`
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "baselcost.cli", "phasein"],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                                  timeout=300)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write stdout: Broken pipe\n"

    def test_out_file_named_stdout(self, tmp_path):
        # --out names a directory called "stdout": the failed write is to that
        # path, so the process's own stdout must stay usable afterwards
        (tmp_path / "stdout").mkdir()
        script = ("import sys; from baselcost.cli import main; "
                  "code = main(['phasein', '--format', 'json', '--out', 'stdout']); "
                  "print('marker'); sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              cwd=tmp_path, timeout=300,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write stdout: Is a directory\n"
        assert proc.stdout == "marker\n"

    @needs_dev_full
    @pytest.mark.parametrize("argv", [
        ["phasein", "--format", "json", "--out"],
        ["fit", "--panel", BUNDLED_PANEL, "--model", "all", "--coeffs-out"],
        ["simulate", "--make-panel", "--out"],
    ], ids=["out", "coeffs-out", "make-panel-out"])
    def test_full_disk(self, argv, capsys):
        assert main([*argv, "/dev/full"]) == 2
        assert capsys.readouterr() == ("", FULL.format("/dev/full"))
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)

    @needs_dev_full
    @pytest.mark.parametrize("argv", [
        ["phasein", "--format", "json"],
        ["simulate", "--make-panel", "--banks", "4", "--years", "4", "--out", "panel.csv"],
    ], ids=["phasein", "make-panel-note"])
    def test_full_stdout(self, argv, tmp_path):
        # In a subprocess: the guard points fd 1 at devnull, which in-process
        # would redirect pytest's own output. Block-buffered stdout, as by default.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        full = os.open("/dev/full", os.O_WRONLY)
        try:
            proc = subprocess.run([sys.executable, "-m", "baselcost.cli", *argv],
                                  stdout=full, stderr=subprocess.PIPE, text=True,
                                  cwd=tmp_path, timeout=300,
                                  env={**env, "PYTHONPATH": str(ROOT / "src")})
        finally:
            os.close(full)
        assert proc.returncode == 2
        assert proc.stderr == FULL.format("stdout")
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)


class TestRefusedFlags:
    def test_coeffs_out_needs_model_all(self, panel_csv, tmp_path, capsys):
        path = tmp_path / "coeffs.json"
        assert main(["fit", "--panel", panel_csv, "--model", "spread",
                     "--coeffs-out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--coeffs-out needs --model all" in captured.err
        assert not path.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--model", "all", "--no-fe"], "--no-fe is not allowed with --model all"),
        (["--model", "spread", "--dep", "roe", "--regressors", "liq"],
         "--dep and --regressors need --model custom"),
        (["--model", "all", "--dep", "roe"], "--dep and --regressors need --model custom"),
        (["--model", "lending", "--regressors", "liq"],
         "--dep and --regressors need --model custom"),
    ])
    def test_ignored_fit_flags_exit_2(self, panel_csv, argv, message, capsys):
        assert main(["fit", "--panel", panel_csv, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("model", ["spread", "lending", "roe", "all"])
    def test_schema_log_on_system_column_exit_2(self, panel_csv, tmp_path, model, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text('{"variables": [{"name": "lending", "transform": "log"}]}')
        assert main(["fit", "--panel", panel_csv, "--schema", str(schema),
                     "--model", model]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --schema declares a log transform on "
                                       "['lending']")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["--phase-in", "2015:2019", "--dcap", "2.5", "--dliq", "3", "--mode", "exogenous",
          "--dlgdp", "1"], "--phase-in takes its shocks from the schedule and --phase-liq, "
         "not --dliq, --dcap, --mode, --dlgdp"),
        (["--phase-in", "2015:2019", "--mode", "chained"], "--phase-in takes its shocks"),
        (["--dcap", "1", "--phase-liq", "4"], "--phase-liq needs --phase-in"),
        (["--make-panel", "--phase-liq", "4", "--out", "{tmp}/p.csv"],
         "--phase-liq needs --phase-in"),
        (["--dcap", "1", "--banks", "3", "--seed", "9", "--noise", "1"],
         "only --make-panel takes --banks, --noise, --seed"),
        (["--phase-in", "2015:2019", "--years", "3"], "only --make-panel takes --years"),
        (["--make-panel", "--dcap", "3", "--out", "{tmp}/p.csv"],
         "--make-panel runs no scenario and takes no --dcap"),
        (["--make-panel", "--phase-in", "2015:2019", "--out", "{tmp}/p.csv"],
         "--make-panel runs no scenario and takes no --phase-in"),
        (["--make-panel", "--format", "json", "--out", "{tmp}/p.csv"],
         "--make-panel writes its CSV to --out and takes no --format json"),
        (["--make-panel", "--banks", "2", "--format", "csv", "--out", "{tmp}/p.csv"],
         "--make-panel writes its CSV to --out and takes no --format csv"),
        (["--make-panel", "--seed", "-1", "--out", "{tmp}/p.csv"],
         "seed must be a non-negative integer, got -1"),
        (["--make-panel", "--banks", "1", "--out", "{tmp}/p.csv"],
         "n_banks must be an integer >= 2, got 1"),
        (["--make-panel", "--years", "2", "--out", "{tmp}/p.csv"],
         "n_years must be an integer >= 3, got 2"),
    ])
    def test_ignored_simulate_flags_exit_2(self, tmp_path, argv, message, capsys):
        assert main(["simulate", *(a.format(tmp=tmp_path) for a in argv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "p.csv").exists()

    def test_make_panel_checks_out_before_simulating(self, monkeypatch, capsys):
        from baselcost import model

        def fail(*args):
            raise AssertionError("simulated without --out")

        monkeypatch.setattr(model, "simulate_panel", fail)
        assert main(["simulate", "--make-panel", "--banks", "3"]) == 2
        assert "--make-panel needs --out" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--panel", "{tmp}/nope.csv", "--model", "custom"],
         "--model custom needs --dep and --regressors"),
        (["fit", "--panel", "{tmp}/nope.csv", "--model", "all", "--dk-lags", "x"],
         "--dk-lags must be 'auto' or an integer, got 'x'"),
        (["unitroot", "--panel", "{tmp}/nope.csv", "--vars", ",,"],
         "no variables requested; pass --vars a,b,c"),
        (["phasein", "--positions", "{tmp}/nope.csv", "--format", "csv"],
         "this output has no flat table; use --format text or json"),
        (["simulate", "--coeffs", "{tmp}/nope.json", "--phase-in", "x"],
         "expected FROM:TO years, got 'x'"),
        (["fit", "--panel", "{tmp}/nope.csv", "--model", "all", "--dk-lags", "-1"],
         "dk_bandwidth must be a non-negative integer, got -1"),
        (["simulate", "--coeffs", "{tmp}/nope.json", "--phase-in", "2019:2015"],
         "FROM year 2019 is after TO year 2015"),
        (["simulate", "--coeffs", "{tmp}/nope.json", "--phase-in", "2010:2012"],
         "both years must lie in the schedule (2015-2019); got 2010, 2012"),
    ], ids=["fit-custom", "fit-dk-lags", "unitroot-vars", "phasein-csv", "simulate-phase-in",
            "fit-dk-lags-negative", "simulate-phase-in-reversed", "simulate-phase-in-outside"])
    def test_flag_fault_is_refused_before_any_input_is_opened(self, tmp_path, argv, message,
                                                               capsys):
        """The named input does not exist; the flag fault is still the one reported."""
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["--positions", "", "--format", "json"], "cannot open : "),
        (["--deltas", ""], "expected FROM:TO years, got ''"),
    ])
    def test_empty_phasein_value_exits_2(self, argv, message, capsys):
        assert main(["phasein", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1

    def test_positions_and_deltas_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["phasein", "--positions", str(tmp_path / "pos.csv"),
                  "--deltas", "2015:2019"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument --positions" in captured.err


def _strict_json(text):
    """json.loads that refuses the NaN and Infinity tokens RFC 8259 lacks."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def _degenerate_panels(tmp_path):
    """An exactly fitted pooled regression and a dependent constant in each bank."""
    exact = tmp_path / "exact.csv"
    exact.write_text("bank_id,year,y,x\nA,2010,1,0.5\nA,2011,2,0.7\n")
    flat = tmp_path / "flat.csv"
    flat.write_text("bank_id,year,y,x\nA,2010,1,0.5\nA,2011,1,0.7\nA,2012,1,0.2\n"
                    "B,2010,3,0.1\nB,2011,3,0.9\nB,2012,3,0.4\n")
    return str(exact), str(flat)


class TestStrictOutput:
    def test_every_subcommand_writes_strict_json(self, tmp_path, capsys):
        exact, flat = _degenerate_panels(tmp_path)
        data = ROOT / "data"
        runs = [
            ["ratios", "--balance-sheets", str(data / "balance_sheets.csv")],
            ["phasein"],
            ["phasein", "--positions", str(data / "positions.csv")],
            ["phasein", "--deltas", "2015:2019"],
            ["unitroot", "--panel", BUNDLED_PANEL, "--vars", "liq,cap,gdp,spread,lending,roe"],
            ["fit", "--panel", BUNDLED_PANEL, "--model", "all"],
            ["fit", "--panel", BUNDLED_PANEL, "--model", "roe", "--no-fe"],
            ["fit", "--panel", exact, "--model", "custom", "--dep", "y",
             "--regressors", "x", "--no-fe"],
            ["fit", "--panel", flat, "--model", "custom", "--dep", "y", "--regressors", "x"],
            ["simulate", "--dliq", "1", "--dcap", "1"],
            ["simulate", "--mode", "exogenous", "--dlgdp", "-0.0"],
            ["simulate", "--phase-in", "2015:2019"],
            ["simulate", "--phase-in", "2015:2019", "--phase-liq", "0.3"],
        ]
        for argv in runs:
            assert main([*argv, "--format", "json"]) == 0, argv
            _strict_json(capsys.readouterr().out)

    def test_undefined_fit_statistics_are_null(self, tmp_path, capsys):
        exact, flat = _degenerate_panels(tmp_path)
        assert main(["fit", "--panel", exact, "--model", "custom", "--dep", "y",
                     "--regressors", "x", "--no-fe", "--format", "json"]) == 0
        fit = _strict_json(capsys.readouterr().out)["fit"]
        assert fit["df_resid"] == 0
        assert fit["covariance"] == [[None, None], [None, None]]
        for p in fit["params"]:
            assert math.isfinite(p["estimate"])
            assert p["std_error"] is p["t_stat"] is p["p_value"] is None
        assert main(["fit", "--panel", flat, "--model", "custom", "--dep", "y",
                     "--regressors", "x", "--format", "json"]) == 0
        fit = _strict_json(capsys.readouterr().out)["fit"]
        assert fit["r_squared_within"] is None

    def test_csv_cells_are_quoted_as_needed(self, tmp_path, capsys):
        p = tmp_path / "quoted.csv"
        p.write_text(BS_HEADER + '\n"Bank ""A"", Ltd"' + WORKED_ROW[3:] + "\n")
        assert main(["ratios", "--balance-sheets", str(p), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("0.10000\n") and not out.endswith("\n\n")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["bank_id", "year", "nsfr", "tce_rwa"],
                        ['Bank "A", Ltd', "2014", "1.14706", "0.10000"]]

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    @pytest.mark.parametrize("argv, coeffs, message", [
        (["--dcap", "1e308", "--dliq", "1e308"], None,
         "response delta_roe overflows to -inf"),
        (["--dcap", "2", "--dliq", "2"], 1e308,
         "response delta_spread overflows to inf"),
        (["--phase-in", "2015:2019", "--phase-liq", "2"], 1e308,
         "phase-in 2016: response delta_spread overflows to inf"),
    ], ids=["large-shock", "large-coefficient", "phase-in-step"])
    def test_overflowing_response_exits_2(self, tmp_path, fmt, argv, coeffs, message,
                                          capsys):
        """Finite inputs whose responses overflow are refused, in every format,
        before anything is written."""
        if coeffs is not None:
            raw = PAPER_PRESET.to_dict()
            raw["spread"]["liq"] = coeffs
            p = tmp_path / "coeffs.json"
            p.write_text(json.dumps(raw))
            argv = [*argv, "--coeffs", str(p)]
        assert main(["simulate", *argv, "--format", fmt]) == 2
        assert capsys.readouterr() == (
            "", f"error: {message}; use a smaller shock or smaller coefficients\n")

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_unrepresentable_ratio_exits_2(self, tmp_path, fmt, capsys):
        """A ratio or check a double cannot hold is refused, in every format, before
        anything is written: JSON would get Infinity or NaN, and a check would pass.
        Checks have no csv form, and that flag fault is reported before the file is read."""
        sheets = tmp_path / "bs.csv"
        big = WORKED_ROW.replace("2014,100,50,", "2014,1e308,1e308,")  # equity, debt
        sheets.write_text(f"{BS_HEADER}\n{big}\n")
        positions = tmp_path / "pos.csv"
        positions.write_text("bank_id,year,cet1_ratio_pct,tier1_ratio_pct,total_car_pct,"
                             "leverage_pct,lcr,nsfr\nB01,2019,8,7,13,4,1e307,1.1\n")
        for argv, message in (
            (["ratios", "--balance-sheets", str(sheets)],
             "B01 2014: NSFR is outside the range of a double"),
            (["phasein", "--positions", str(positions)],
             "this output has no flat table; use --format text or json" if fmt == "csv"
             else "B01 2019: a compliance check is outside the range of a double"),
        ):
            assert main([*argv, "--format", fmt]) == 2, argv
            assert capsys.readouterr() == ("", f"error: {message}\n"), argv

    def test_overflowing_cumulative_names_the_step(self, capsys):
        """Each yearly liquidity shock is finite; only their sum is not."""
        assert main(["simulate", "--phase-in", "2015:2019", "--phase-liq", "1e308"]) == 2
        assert capsys.readouterr() == (
            "", "error: phase-in cumulative: shock input delta_liq must be finite, got inf\n")

    def test_phase_in_outside_the_schedule_reads_like_deltas(self, capsys):
        """A window outside the schedule, or reversed, is refused alike by both
        subcommands."""
        for window, message in (
            ("2014:2019", "both years must lie in the schedule (2015-2019); got 2014, 2019"),
            ("2019:2015", "FROM year 2019 is after TO year 2015"),
        ):
            for argv in (["simulate", "--phase-in", window], ["phasein", "--deltas", window]):
                assert main(argv) == 2, argv
                assert capsys.readouterr() == ("", f"error: {message}\n"), argv


class TestJsonInputs:
    @pytest.mark.parametrize("argv, what", [
        (["fit", "--panel", BUNDLED_PANEL, "--model", "all", "--schema"], "schema"),
        (["ratios", "--balance-sheets", str(ROOT / "data" / "balance_sheets.csv"),
          "--weights"], "weights"),
        (["simulate", "--dcap", "1", "--coeffs"], "coefficient"),
    ])
    def test_non_utf8_file_exits_2(self, tmp_path, argv, what, capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"variables": []}\xff')
        assert main([*argv, str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {what} file {p}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("value", [True, "0.5"])
    @pytest.mark.parametrize("what", ["weights", "coefficients"])
    def test_value_that_is_no_json_number_exits_2(self, tmp_path, what, value, capsys):
        """float() would read true as 1.0 and a numeric string as its number."""
        p = tmp_path / "in.json"
        if what == "weights":
            p.write_text(json.dumps({"asf": {"stable_deposits": value}}))
            argv = ["ratios", "--balance-sheets", str(ROOT / "data" / "balance_sheets.csv"),
                    "--weights", str(p)]
            message = (f"malformed weights file {p}: asf weight 'stable_deposits' must be "
                       f"a JSON number, got {value!r}")
        else:
            raw = PAPER_PRESET.to_dict()
            raw["spread"]["liq"] = value
            p.write_text(json.dumps(raw))
            argv = ["simulate", "--dcap", "1", "--coeffs", str(p)]
            message = f"malformed coefficient set: spread.liq must be a JSON number, got {value!r}"
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("text, fault", [
        ('{"rsf": {"govt_debt": 1.5}}', "weight rsf_govt_debt must lie in [0, 1], got 1.5"),
        ('{"rsf": {"govt_debt": NaN}}', "weight rsf_govt_debt must be finite, got nan"),
        ('{"asf": {"ge_1y": 1' + "0" * 400 + '}}', "asf weight 'ge_1y' is too large for a float"),
    ], ids=["out-of-range", "nan", "huge-int"])
    def test_weight_value_fault_names_the_file(self, tmp_path, text, fault, capsys):
        p = tmp_path / "w.json"
        p.write_text(text)
        assert main(["ratios", "--balance-sheets", str(ROOT / "data" / "balance_sheets.csv"),
                     "--weights", str(p)]) == 2
        assert capsys.readouterr() == ("", f"error: malformed weights file {p}: {fault}\n")

    @pytest.mark.parametrize("text, fault", [
        ("[]", "malformed weights file {}: expected a JSON object"),
        ('{"xsf": {}}', "weights file {}: unknown group 'xsf'"),
        ('{"asf": 1}', "weights file {}: asf must be a JSON object"),
    ], ids=["list", "unknown-group", "group-not-object"])
    def test_weights_file_shape_exits_2(self, tmp_path, text, fault, capsys):
        p = tmp_path / "w.json"
        p.write_text(text)
        assert main(["ratios", "--balance-sheets", str(ROOT / "data" / "balance_sheets.csv"),
                     "--weights", str(p)]) == 2
        assert capsys.readouterr() == ("", f"error: {fault.format(p)}\n")

    @pytest.mark.parametrize("entry", [
        {"name": "lending", "transfrom": "log"},
        {"transform": "log"},
        "lending",
    ])
    def test_malformed_schema_entry_exits_2(self, tmp_path, entry, capsys):
        p = tmp_path / "schema.json"
        p.write_text(json.dumps({"variables": [entry]}))
        assert main(["fit", "--panel", BUNDLED_PANEL, "--model", "lending",
                     "--schema", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured == ("", f"error: malformed schema entry in {p}: {entry!r}\n")


class TestByteOrderMark:
    """Excel's "CSV UTF-8" files start with the UTF-8 byte-order mark
    EF BB BF; every input file reads as if the mark were not there."""

    DATA = ROOT / "data"

    @pytest.mark.parametrize("argv, content", [
        (["fit", "--model", "all", "--format", "json", "--panel"],
         (DATA / "synthetic_panel.csv").read_bytes()),
        (["ratios", "--format", "json", "--balance-sheets"],
         (DATA / "balance_sheets.csv").read_bytes()),
        (["phasein", "--format", "json", "--positions"], (DATA / "positions.csv").read_bytes()),
        (["unitroot", "--panel", BUNDLED_PANEL, "--vars", "liq,cap", "--schema"],
         (DATA / "panel_schema.json").read_bytes()),
        (["ratios", "--balance-sheets", str(DATA / "balance_sheets.csv"), "--weights"],
         b'{"asf": {"stable_deposits": 0.9}, "rsf": {"govt_debt": 0.1}}'),
        (["simulate", "--dcap", "1", "--coeffs"], json.dumps(PAPER_PRESET.to_dict()).encode()),
    ], ids=["panel", "balance_sheets", "positions", "schema", "weights", "coefficients"])
    def test_marked_file_gives_the_plain_output(self, tmp_path, argv, content, capsys):
        path, outputs = tmp_path / "input", []
        for mark in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(mark + content)
            assert main([*argv, str(path)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[0]
