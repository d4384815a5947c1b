"""CLI contract tests: outputs, exit codes, format round trips."""

import json
import logging
from pathlib import Path

import numpy as np
import pytest

from baselcost import PAPER_PRESET, simulate_panel, write_panel
from baselcost.cli import main

BS_HEADER = (
    "bank_id,year,common_equity,debt_ge_1y,other_liabilities_ge_1y,"
    "stable_deposits_lt_1y,less_stable_deposits_lt_1y,govt_debt,"
    "corp_loans_lt_1y,retail_loans_lt_1y,other_assets,intangibles,goodwill,rwa"
)
WORKED_ROW = "B01,2014,100,50,0,200,100,100,300,100,100,10,5,850"
BUNDLED_PANEL = str(Path(__file__).resolve().parent.parent / "data" / "synthetic_panel.csv")


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

    def test_unbalanced_exits_2(self, tmp_path, capsys):
        p = tmp_path / "holes.csv"
        p.write_text(
            "bank_id,year,x\nB01,2010,1\nB01,2011,2\nB01,2012,3\n"
            "B02,2010,1\nB02,2011,\nB02,2012,2\n"
        )
        assert main(["unitroot", "--panel", str(p), "--vars", "x"]) == 2
        assert "balance" in capsys.readouterr().err

    def test_csv_format(self, panel_csv, capsys):
        assert main(["unitroot", "--panel", panel_csv, "--vars", "liq,cap",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "variable,rho,z,p_value"
        assert [l.split(",")[0] for l in lines[1:]] == ["liq", "cap"]


class TestFit:
    def test_single_model_with_lag_override(self, panel_csv, capsys):
        assert main(["fit", "--panel", panel_csv, "--model", "spread",
                     "--dk-lags", "2"]) == 0
        out = capsys.readouterr().out
        assert "dk_lags=2" in out

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

    def test_make_panel_without_out_exits_2(self, capsys):
        assert main(["simulate", "--make-panel"]) == 2


class TestFileOutput:
    def test_out_writes_file_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["simulate", "--dliq", "1", "--format", "json", "--out", str(a)])
        main(["simulate", "--dliq", "1", "--format", "json", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
