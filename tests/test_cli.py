import csv
import json
import re

import numpy as np
import pytest

import vecmkit as vk
from vecmkit.cli import execute, main, parse_config
from vecmkit.errors import ConfigError
from vecmkit.formatting import from_jsonable, to_jsonable

from conftest import cointegrated_panel


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "panel.csv"
    vk.write_frame(cointegrated_panel(), path)
    return path


def run_cli(*argv, expect=0, capsys=None):
    code = main(list(argv))
    assert code == expect
    return code


LQ_HEADER = "year,industry_region,employment_region,industry_nation,employment_nation\n"


class TestParseConfig:
    def test_defaults(self):
        config = parse_config()
        assert config.horizon == 20
        assert config.variables == list(vk.DEFAULT_SCHEMA)
        assert config.shock["factor"] == 1.15

    def test_each_call_builds_independent_defaults(self):
        config = parse_config()
        config.variables.append("extra")
        config.shock["factor"] = 9.0
        config.lq["csv"] = "lq.csv"
        fresh = parse_config()
        assert fresh.variables == list(vk.DEFAULT_SCHEMA)
        assert fresh.shock["factor"] == 1.15
        assert fresh.lq["csv"] is None

    def test_file_values(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"horizon": 20, "rank": 1}))
        config = parse_config(str(path))
        assert config.horizon == 20 and config.rank == 1

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"rank": 1}))
        config = parse_config(str(path), overrides={"rank": 2})
        assert config.rank == 2

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"speling": 3}))
        with pytest.raises(ConfigError, match="speling"):
            parse_config(str(path))

    def test_unknown_nested_key(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"shock": {"strength": 2}}))
        with pytest.raises(ConfigError, match="strength"):
            parse_config(str(path))

    def test_type_mismatch_named(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"horizon": "twenty"}))
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(str(path))

    def test_seed_is_not_a_key(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 3}))
        with pytest.raises(ConfigError, match="unknown config key 'seed'"):
            parse_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("no/such/config.json")

    def test_shock_overrides_merge(self):
        config = parse_config(overrides={"shock.factor": 1.3})
        assert config.shock["factor"] == 1.3
        assert config.shock["target"] == "exchange_rate"

    @pytest.mark.parametrize(
        "file_values, overrides, message",
        [
            ({"lags": True}, {}, "'lags' must be an integer"),
            ({"variables": ["a", 1]}, {}, "'variables' must be a list of names"),
            ({"shock": 3}, {}, "'shock' must be dict"),
            ({"shock": None}, {}, "'shock' must be dict"),
            ({}, {"foo.bar": 1}, "unknown config key 'foo.bar'"),
            ({"shock": {"factor": 2}}, {}, None),
            ({"lags": None}, {}, "'lags' must be int, got None"),
            ({"variables": None}, {}, "'variables' must be list, got None"),
            ({"shock": {"target": None}}, {}, "'shock.target' must be str, got None"),
            ({"n_eff": None, "shock": {"factor": 2}}, {}, None),
            ({"shock": {"factor": 2, "stage2_lags": None}}, {}, None),
            ({"shock": {"factor": True}}, {}, "'shock.factor' must be number, got True"),
            ({"lq": {"industry_region": False}}, {}, "'lq.industry_region' must be number, got False"),
        ],
    )
    def test_value_checks(self, tmp_path, file_values, overrides, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(file_values))
        if message is None:
            assert parse_config(str(path), overrides).shock["factor"] == 2
        else:
            with pytest.raises(ConfigError, match=message):
                parse_config(str(path), overrides)


class TestDescribe:
    def test_toy_csv(self, tmp_path, capsys):
        toy = tmp_path / "toy.csv"
        toy.write_text("quarter,value\n2001Q1,1.0\n2001Q2,2.0\n2001Q3,3.0\n")
        run_cli(
            "--dataset", str(toy), "--output", str(tmp_path / "out"),
            "--variables", "value", "describe",
        )
        out = capsys.readouterr().out
        assert "value" in out and "mean" in out
        stats = json.loads((tmp_path / "out" / "describe.json").read_text())
        assert stats["columns"][0]["count"] == 3
        assert (tmp_path / "out" / "describe.csv").exists()
        assert (tmp_path / "out" / "audit.json").exists()

    def test_audit_records_digest_and_versions(self, dataset, tmp_path):
        run_cli("--dataset", str(dataset), "-o", str(tmp_path / "out"), "describe")
        audit = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert audit["command"] == "describe"
        assert len(audit["dataset_sha256"]) == 64
        assert audit["versions"]["vecmkit"] == vk.__version__
        assert "describe.json" in audit["artifacts"]


def printed_tables(text):
    """(title, header, rows) of each table in a command's stdout; cells are
    cut at the column spans of the dashed rule under the header."""
    tables = []
    for block in text.split("\n\n"):
        lines = block.strip("\n").splitlines()
        if len(lines) < 3 or not re.fullmatch(r"-+(  -+)*", lines[2]):
            continue
        spans = [m.span() for m in re.finditer(r"-+", lines[2])]
        cells = [[line[a:b].strip() for a, b in spans] for line in lines[1:]]
        tables.append((lines[0], cells[0], cells[2:]))
    return tables


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def assert_cells(printed, expected):
    """Each printed cell shows its expected value: blank for a blank or
    None, within 6 significant digits for a number, else the same text."""
    assert len(printed) == len(expected)
    for cell, value in zip(printed, expected):
        if value in ("", None):
            assert cell == ""
            continue
        try:
            number = float(value)
        except ValueError:
            assert cell == value
        else:
            assert float(cell) == pytest.approx(number, rel=5e-6, abs=0), (cell, value)


class TestStdout:
    """The printed tables against the artifacts each command writes."""

    def run(self, dataset, tmp_path, capsys, *argv):
        out = tmp_path / "out"
        run_cli("--dataset", str(dataset), "-o", str(out), *argv)
        return out, printed_tables(capsys.readouterr().out)

    def test_johansen(self, dataset, tmp_path, capsys):
        out, [(title, header, rows)] = self.run(dataset, tmp_path, capsys, "johansen", "--lags", "3")
        assert title == "Trace test for cointegration rank (T_eff=66, lags=3, trend: constant)"
        assert header == ["rank", "eigenvalue", "trace statistic", "5% critical value", ""]
        _, expected = read_csv(out / "johansen.csv")
        assert len(rows) == len(expected) == 7
        for row, want in zip(rows, expected):
            assert_cells(row, want)
        selected = json.loads((out / "johansen.json").read_text())["selected_rank"]
        assert [int(row[0]) for row in rows if row[-1] == "*"] == [selected]

    def test_lagselect(self, dataset, tmp_path, capsys):
        out, [(title, header, rows)] = self.run(dataset, tmp_path, capsys, "lagselect", "--max-lag", "4")
        assert title == "Lag-order selection (T_eff=65, * = selected)"
        assert header == ["lag", "LL", "LR", "df", "p", "FPE", "AIC", "HQIC", "SBIC"]
        csv_header, expected = read_csv(out / "lagselect.csv")
        assert len(rows) == len(expected) == 5
        for row, want in zip(rows, expected):
            assert_cells([c.rstrip("*") for c in row], want)
        selected = json.loads((out / "lagselect.json").read_text())["selected"]
        assert set(selected) == {"lr", "fpe", "aic", "hqic", "sbic"}
        for criterion, lag in selected.items():
            column = csv_header.index(criterion)
            marked = [int(row[0]) for row in rows if row[column].endswith("*")]
            assert marked == ([] if lag is None else [lag]), criterion
        assert not any(c.endswith("*") for row in rows for c in row[:2] + row[3:5])

    def test_describe(self, dataset, tmp_path, capsys):
        out, [(title, header, rows)] = self.run(dataset, tmp_path, capsys, "describe")
        assert title == "Summary statistics (2001Q1..2018Q1)"
        assert header == ["variable", "mean", "sd", "min", "max", "n"]
        _, expected = read_csv(out / "describe.csv")
        assert len(rows) == len(expected) == 6
        for row, want in zip(rows, expected):
            assert_cells(row, want)

    def test_diagnose(self, dataset, tmp_path, capsys):
        out, [lm, normality] = self.run(dataset, tmp_path, capsys, "diagnose", "--lm-lags", "3")
        title, header, rows = lm
        assert title == "Residual autocorrelation (LM)"
        assert header == ["lag", "chi2", "df", "p"]
        _, expected = read_csv(out / "lm.csv")
        assert len(rows) == len(expected) == 3
        for row, want in zip(rows, expected):
            assert_cells(row, want)

        title, header, rows = normality
        assert title == "Normality tests (n_eff=67)"
        assert header == ["equation", "JB", "df", "p", "skew", "skew chi2", "p", "kurt", "kurt chi2", "p"]
        _, expected = read_csv(out / "normality.csv")
        assert len(rows) == len(expected) + 1 == 7
        for row, (name, skew, kurt, skew_chi2, skew_p, kurt_chi2, kurt_p, jb, jb_p) in zip(rows, expected):
            assert_cells(row, [name, jb, 2, jb_p, skew, skew_chi2, skew_p, kurt, kurt_chi2, kurt_p])
        joint = json.loads((out / "diagnose.json").read_text())["normality"]["joint"]
        assert_cells(
            rows[-1],
            ["ALL", joint["jb"], joint["jb_df"], joint["jb_p"], None, joint["skew_chi2"], joint["skew_p"],
             None, joint["kurt_chi2"], joint["kurt_p"]],
        )

    @pytest.mark.parametrize("horizon,step", [(1, 1), (2, 2), (12, 4)])
    def test_shock_names_the_step_it_shows(self, dataset, tmp_path, capsys, horizon, step):
        out, [(title, header, rows)] = self.run(dataset, tmp_path, capsys, "shock", "--horizon", str(horizon))
        assert header == ["response", "impact (step 0)", f"step {step}"]
        assert len(rows) == 6
        for name, *row in rows:
            _, irf = read_csv(out / f"irf_exchange_rate_{name}.csv")
            assert len(irf) == horizon + 1
            assert_cells([name, *row], [name, irf[0][1], irf[step][1]])

    def test_irf(self, dataset, tmp_path, capsys):
        out, tables = self.run(dataset, tmp_path, capsys, "irf", "--impulse", "price", "--horizon", "8")
        assert len(tables) == 6
        for name, (title, header, rows) in zip(vk.DEFAULT_SCHEMA, tables):
            assert title == f"Orthogonalized IRF: price -> {name}"
            assert header == ["step", "response"]
            _, expected = read_csv(out / f"irf_price_{name}.csv")
            assert len(rows) == len(expected) == 9
            for row, want in zip(rows, expected):
                assert_cells(row, want)

    def test_forecast(self, dataset, tmp_path, capsys):
        out, [(title, header, rows)] = self.run(dataset, tmp_path, capsys, "forecast", "--horizon", "6")
        assert title == "Dynamic forecast 2018Q2..2019Q3"
        assert header == ["quarter", *vk.DEFAULT_SCHEMA]
        _, expected = read_csv(out / "forecast.csv")
        assert len(rows) == len(expected) == 6
        for row, want in zip(rows, expected):
            assert_cells(row, want)


class TestCommands:
    def test_adf(self, dataset, tmp_path):
        run_cli("--dataset", str(dataset), "-o", str(tmp_path / "out"), "adf", "--lags", "2")
        payload = json.loads((tmp_path / "out" / "adf.json").read_text())
        assert set(payload) == set(vk.DEFAULT_SCHEMA)
        # string keys, written in their sorted order
        assert list(payload["output"]["critical_values"]) == ["1", "10", "5"]
        for name, record in payload.items():
            assert record["reject_5pct"] == (record["statistic"] < record["critical_values"]["5"])

    def test_lagselect(self, dataset, tmp_path):
        run_cli("--dataset", str(dataset), "-o", str(tmp_path / "out"), "lagselect", "--max-lag", "4")
        payload = json.loads((tmp_path / "out" / "lagselect.json").read_text())
        assert payload["t_eff"] == 65
        assert len(payload["rows"]) == 5

    def test_johansen_marks_selected_rank(self, dataset, tmp_path, capsys):
        run_cli("--dataset", str(dataset), "-o", str(tmp_path / "out"), "johansen", "--lags", "2")
        payload = json.loads((tmp_path / "out" / "johansen.json").read_text())
        selected = payload["selected_rank"]
        marked = [
            row for row in (tmp_path / "out" / "johansen.csv").read_text().splitlines()[1:]
            if row.endswith("*")
        ]
        assert len(marked) == 1
        assert marked[0].split(",")[0] == str(selected)
        assert "*" in capsys.readouterr().out

    def test_fit_vec_and_reload(self, dataset, tmp_path):
        run_cli("--dataset", str(dataset), "-o", str(tmp_path / "out"), "fit-vec", "--lags", "4", "--rank", "2")
        text = (tmp_path / "out" / "vecm_fit.json").read_text()
        fit = from_jsonable(vk.VecmFit, json.loads(text))
        assert fit.lags == 4 and fit.rank == 2
        assert fit.residuals.shape == (65, 6)
        original = vk.fit_vecm(vk.load_frame(dataset), 4, 2)
        assert vk.forecast_vecm(fit, 12).values.tobytes() == vk.forecast_vecm(original, 12).values.tobytes()
        assert json.dumps(to_jsonable(fit), indent=2, sort_keys=True) + "\n" == text

    def test_diagnose(self, dataset, tmp_path):
        run_cli("--dataset", str(dataset), "-o", str(tmp_path / "out"), "diagnose", "--lm-lags", "2")
        payload = json.loads((tmp_path / "out" / "diagnose.json").read_text())
        assert [r["lag"] for r in payload["lm"]] == [1, 2]
        assert payload["normality"]["n_eff"] == 67
        assert payload["stability"]["expected_unit_count"] == 4
        for name in ("lm.csv", "normality.csv", "stability.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_diagnose_n_eff_override(self, dataset, tmp_path):
        run_cli("--dataset", str(dataset), "-o", str(tmp_path / "out"), "diagnose", "--n-eff", "65")
        payload = json.loads((tmp_path / "out" / "diagnose.json").read_text())
        assert payload["normality"]["n_eff"] == 65

    def test_irf_single_pair(self, dataset, tmp_path):
        run_cli(
            "--dataset", str(dataset), "-o", str(tmp_path / "out"),
            "irf", "--impulse", "price", "--response", "employment", "--horizon", "12",
        )
        lines = (tmp_path / "out" / "irf_price_employment.csv").read_text().splitlines()
        assert lines[0] == "step,response"
        assert len(lines) == 14  # header + steps 0..12

    def test_irf_all_responses(self, dataset, tmp_path):
        run_cli("--dataset", str(dataset), "-o", str(tmp_path / "out"), "irf", "--impulse", "output")
        written = sorted(p.name for p in (tmp_path / "out").glob("irf_output_*.csv"))
        assert len(written) == 6

    def test_forecast_window(self, dataset, tmp_path):
        run_cli("--dataset", str(dataset), "-o", str(tmp_path / "out"), "forecast", "--horizon", "20")
        rows = (tmp_path / "out" / "forecast.csv").read_text().splitlines()
        assert rows[1].split(",")[0] == "2018Q2"
        assert rows[-1].split(",")[0] == "2023Q1"
        assert (tmp_path / "out" / "forecast_employment.csv").exists()

    def test_forecast_json_is_the_library_forecast(self, dataset, tmp_path):
        run_cli("--dataset", str(dataset), "-o", str(tmp_path / "out"), "forecast", "--horizon", "6")
        payload = json.loads((tmp_path / "out" / "forecast.json").read_text())
        forecast = vk.forecast_vecm(vk.fit_vecm(vk.load_frame(dataset), 2, 2), 6)
        assert payload == {
            "start": str(forecast.start),
            "names": list(forecast.names),
            "values": forecast.values.tolist(),
        }

    def test_backtest_artifacts(self, dataset, tmp_path):
        run_cli("--dataset", str(dataset), "-o", str(tmp_path / "out"), "backtest", "--holdout", "8")
        for name in vk.DEFAULT_SCHEMA:
            lines = (tmp_path / "out" / f"backtest_{name}.csv").read_text().splitlines()
            assert lines[0] == "quarter,actual,forecast"
            assert len(lines) == 9
        metrics = json.loads((tmp_path / "out" / "backtest.json").read_text())
        assert metrics["holdout"] == 8

    def test_shock_artifact_set(self, dataset, tmp_path):
        run_cli(
            "--dataset", str(dataset), "-o", str(tmp_path / "out"),
            "shock", "--factor", "1.15", "--horizon", "12",
        )
        out = tmp_path / "out"
        expected = {
            "stage1_forecast.csv",
            "shocked_path.csv",
            "stage2_forecast.csv",
            "stage3_model.json",
            "audit.json",
        } | {f"irf_exchange_rate_{name}.csv" for name in vk.DEFAULT_SCHEMA}
        assert expected <= {p.name for p in out.iterdir()}
        audit = json.loads((out / "audit.json").read_text())
        assert audit["pipeline"]["stage2"]["rows_used"] == audit["pipeline"]["stage2"]["n_rows"] - audit["pipeline"]["stage2"]["lag_order"]
        text = (out / "stage3_model.json").read_text()
        fit = from_jsonable(vk.VarFit, json.loads(text))
        assert fit.names == vk.DEFAULT_SCHEMA
        frame = vk.load_frame(dataset)
        scenario = vk.ShockScenario("exchange_rate", 1.15, frame.end.next(), horizon=12, rank=2)
        original = vk.run_three_stage(frame, scenario).stage3_fit
        assert vk.forecast_var(fit, 12).values.tobytes() == vk.forecast_var(original, 12).values.tobytes()
        assert json.dumps(to_jsonable(fit), indent=2, sort_keys=True) + "\n" == text

    def test_shocked_path_has_one_row_per_forecast_quarter(self, dataset, tmp_path):
        run_cli("--dataset", str(dataset), "-o", str(tmp_path / "out"), "shock", "--horizon", "12")
        lines = (tmp_path / "out" / "shocked_path.csv").read_text().splitlines()
        forecast_quarters = vk.load_frame(dataset).end.next()
        assert lines[0] == "quarter,exchange_rate"
        assert [line.split(",")[0] for line in lines[1:]] == [str(forecast_quarters.shift(i)) for i in range(12)]

    def test_lq_flags(self, tmp_path, capsys):
        run_cli(
            "-o", str(tmp_path / "out"), "lq",
            "--industry-region", "10", "--employment-region", "100",
            "--industry-nation", "1", "--employment-nation", "100",
        )
        assert "10" in capsys.readouterr().out
        payload = json.loads((tmp_path / "out" / "lq.json").read_text())
        assert payload["lq"] == pytest.approx(10.0)

    def test_lq_csv(self, tmp_path):
        src = tmp_path / "lq_in.csv"
        src.write_text(LQ_HEADER + "2001,10,100,1,100\n2002,20,100,1,100\n")
        run_cli("-o", str(tmp_path / "out"), "lq", "--csv", str(src))
        lines = (tmp_path / "out" / "lq.csv").read_text().splitlines()
        assert lines[1].startswith("2001,")
        assert float(lines[2].split(",")[1]) == pytest.approx(20.0)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2002,abc,100,1,100", "row 3, column 'industry_region': non-numeric cell 'abc'"),
            ("2002,20,,1,100", "row 3, column 'employment_region': non-numeric cell ''"),
            ("2002,20,100", "row 3, column 'industry_nation': missing cell"),
        ],
        ids=["text", "empty", "short"],
    )
    def test_lq_csv_bad_cell_names_row_and_column(self, tmp_path, capsys, row, message):
        src = tmp_path / "lq_in.csv"
        src.write_text(LQ_HEADER + "2001,10,100,1,100\n" + row + "\n")
        run_cli("-o", str(tmp_path / "out"), "lq", "--csv", str(src), expect=1)
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "NonNumericCellError", "message": f"{src}: {message}"}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_lq_non_finite_input_fails(self, tmp_path, capsys, value):
        src = tmp_path / "lq_in.csv"
        src.write_text(LQ_HEADER + f"2001,10,{value},1,100\n")
        for argv in (
            ["lq", "--csv", str(src)],
            ["lq", "--industry-region", "10", f"--employment-region={value}",
             "--industry-nation", "1", "--employment-nation", "100"],
        ):
            out = tmp_path / f"out_{argv[1]}"
            run_cli("-o", str(out), *argv, expect=1)
            err = json.loads(capsys.readouterr().err)["error"]
            assert err["type"] == "DomainError" and "finite" in err["message"]
            assert not (out / "lq.json").exists()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["describe"], {}),
        (["adf", "--lags", "3", "--spec", "none"], {"adf_lags": 3, "adf_spec": "none"}),
        (["lagselect", "--max-lag", "3"], {"max_lag": 3}),
        (["johansen", "--lags", "3"], {"lags": 3}),
        (["fit-vec", "--lags", "3", "--rank", "1"], {"lags": 3, "rank": 1}),
        (["diagnose", "--lm-lags", "3", "--n-eff", "60"], {"lm_lags": 3, "n_eff": 60}),
        (
            ["irf", "--impulse", "price", "--response", "employment", "--horizon", "8"],
            {"impulse": "price", "response": "employment", "horizon": 8},
        ),
        (["forecast", "--horizon", "6"], {"horizon": 6}),
        (["backtest", "--holdout", "6"], {"holdout": 6}),
        (
            [
                "shock", "--target", "exchange_rate", "--factor", "1.1", "--start", "2018Q3",
                "--stage2-lags", "2", "--stage3-lags", "2", "--exog-lags", "1",
            ],
            {
                "shock.target": "exchange_rate",
                "shock.factor": 1.1,
                "shock.start": "2018Q3",
                "shock.stage2_lags": 2,
                "shock.stage3_lags": 2,
                "shock.exog_lags": 1,
            },
        ),
        (
            [
                "lq", "--industry-region", "10", "--employment-region", "100",
                "--industry-nation", "1", "--employment-nation", "100",
            ],
            {
                "lq.industry_region": 10.0,
                "lq.employment_region": 100.0,
                "lq.industry_nation": 1.0,
                "lq.employment_nation": 100.0,
            },
        ),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else "",
)
def test_flags_reach_config_keys(dataset, tmp_path, argv, expected):
    out = tmp_path / "out"
    run_cli("--dataset", str(dataset), "-o", str(out), *argv)
    audit = json.loads((out / "audit.json").read_text())
    for key, value in expected.items():
        block, _, sub = key.rpartition(".")
        got = audit["parameters"][block][sub] if block else audit["parameters"][key]
        assert got == value and type(got) is type(value), key
    assert audit["artifacts"] == sorted({p.name for p in out.iterdir()} - {"audit.json"})


SCHEMA = set(vk.DEFAULT_SCHEMA)
AUDIT_KEYS = {"command", "versions", "parameters", "dataset_sha256", "artifacts"}
LQ_FLAGS = ["--industry-region", "10", "--employment-region", "100", "--industry-nation", "1", "--employment-nation", "100"]


def reached(payload, path):
    """The values a dotted key path reaches; ``*`` steps into every value."""
    nodes = [payload]
    for part in filter(None, path.split(".")):
        nodes = [v for node in nodes for v in (node.values() if part == "*" else [node[part]])]
    return nodes


@pytest.mark.parametrize(
    "argv, artifact, keys",
    [
        (["describe"], "describe.json", {"": {"start", "end", "columns"}}),
        (["describe"], "audit.json", {"": AUDIT_KEYS, "versions": {"vecmkit", "numpy", "python"}}),
        (
            ["adf"],
            "adf.json",
            {
                "": SCHEMA,
                "*": {"statistic", "lags", "spec", "critical_values", "nobs", "reject_5pct"},
                "*.critical_values": {"1", "5", "10"},
            },
        ),
        (["lagselect"], "lagselect.json", {"": {"rows", "t_eff", "n_vars", "selected"}}),
        (
            ["johansen"],
            "johansen.json",
            {
                "": {
                    "names", "eigenvalues", "trace_stats", "critical_values_5pct",
                    "t_eff", "lags", "deterministic", "selected_rank",
                }
            },
        ),
        (
            ["fit-vec"],
            "vecm_fit.json",
            {
                "": {
                    "rank", "names", "lags", "alpha", "beta", "gammas", "const", "residuals",
                    "sigma", "sample_start", "n_sample", "tail", "beta_pivot",
                }
            },
        ),
        (
            ["diagnose"],
            "diagnose.json",
            {
                "": {"lm", "normality", "stability"},
                "normality": {"rows", "n_eff", "joint"},
                "stability": {"moduli", "unit_count", "expected_unit_count", "passed"},
            },
        ),
        (
            ["irf"],
            "irf.json",
            {"": SCHEMA, "*": {"horizon", "impulse", "response", "values", "ordering"}},
        ),
        (["forecast"], "forecast.json", {"": {"start", "names", "values"}}),
        (["backtest"], "backtest.json", {"": {"holdout", "metrics"}, "metrics": SCHEMA, "metrics.*": {"rmse", "mae"}}),
        (
            ["shock"],
            "stage3_model.json",
            {
                "": {
                    "p", "names", "coef_matrices", "const", "residuals", "sigma", "sample_start",
                    "n_sample", "tail", "exog_names", "exog_lags", "exog_coef", "exog_values",
                }
            },
        ),
        (
            ["shock"],
            "audit.json",
            {
                "": AUDIT_KEYS | {"pipeline"},
                "pipeline": {"scenario", "lag_order_source", "stage1", "stage2", "stage3"},
                "pipeline.scenario": {
                    "target", "factor", "start", "horizon", "vecm_lags", "rank",
                    "stage2_lags", "stage3_lags", "exog_lags",
                },
            },
        ),
        (["lq", *LQ_FLAGS], "lq.json", {"": {"lq", "inputs"}, "inputs": {
            "industry_region", "employment_region", "industry_nation", "employment_nation"}}),
        (["lq", "--csv", "{lq_csv}"], "lq.json", {"": {"rows"}}),
    ],
    ids=[
        "describe", "audit", "adf", "lagselect", "johansen", "vecm_fit", "diagnose", "irf",
        "forecast", "backtest", "stage3_model", "shock-audit", "lq", "lq-csv",
    ],
)
def test_artifact_key_sets(dataset, tmp_path, argv, artifact, keys):
    lq_csv = tmp_path / "lq_in.csv"
    lq_csv.write_text(LQ_HEADER + "2001,10,100,1,100\n")
    out = tmp_path / "out"
    run_cli("--dataset", str(dataset), "-o", str(out), *(a.format(lq_csv=lq_csv) for a in argv))
    payload = json.loads((out / artifact).read_text())
    for path, expected in keys.items():
        nodes = reached(payload, path)
        assert nodes and all(set(node) == expected for node in nodes), path


class TestErrorReporting:
    @pytest.mark.parametrize("via", ["flag", "file"])
    def test_non_finite_shock_factor_named(self, dataset, tmp_path, capsys, via):
        if via == "flag":
            run_cli("--dataset", str(dataset), "-o", str(tmp_path / "out"), "shock", "--factor", "inf", expect=1)
            factor = "inf"
        else:
            conf = tmp_path / "nan.json"
            conf.write_text('{"shock": {"factor": NaN}}')  # Python's json reads NaN
            run_cli("--config", str(conf), "--dataset", str(dataset), "-o", str(tmp_path / "out"), "shock", expect=1)
            factor = "nan"
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "DomainError", "message": f"shock factor must be finite, got {factor}"}

    @pytest.mark.filterwarnings("error")
    def test_overflowing_shock_factor_named(self, dataset, tmp_path, capsys):
        conf = tmp_path / "huge.json"
        conf.write_text('{"shock": {"factor": 1e308}}')
        run_cli("--config", str(conf), "--dataset", str(dataset), "-o", str(tmp_path / "out"), "shock", expect=1)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == {
            "type": "PipelineStageError",
            "message": "stage 1 failed: shock factor 1e+308 overflows the shocked path",
        }

    @pytest.mark.filterwarnings("error")
    def test_huge_shock_factor_named(self, dataset, tmp_path, capsys):
        conf = tmp_path / "huge.json"
        conf.write_text('{"shock": {"factor": 1e300}}')
        run_cli("--config", str(conf), "--dataset", str(dataset), "-o", str(tmp_path / "out"), "shock", expect=1)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == {
            "type": "PipelineStageError",
            "message": "stage 3 failed: design matrix is rank deficient (column pivot 0) under "
            "shock factor 1e+300: the target's shocked differences reach 8.81e+300, its "
            "in-sample ones 0.558",
        }

    @pytest.mark.parametrize("lm_lags", ["0", "-2"])
    def test_lm_lags_below_one_rejected(self, dataset, tmp_path, capsys, lm_lags):
        out = tmp_path / "out"
        run_cli("--dataset", str(dataset), "-o", str(out), "diagnose", "--lm-lags", lm_lags, expect=1)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        err = json.loads(captured.err)["error"]
        assert err == {"type": "DomainError", "message": f"lm_lags must be >= 1, got {lm_lags}"}
        assert list(out.iterdir()) == []

    def test_missing_dataset_is_machine_readable(self, tmp_path, capsys):
        run_cli("-o", str(tmp_path / "out"), "describe", expect=1)
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert "dataset" in err["error"]["message"]

    def test_bad_rank_fails_cleanly(self, dataset, tmp_path, capsys):
        run_cli(
            "--dataset", str(dataset), "-o", str(tmp_path / "out"),
            "fit-vec", "--rank", "6", expect=1,
        )
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "RankError"

    def test_unknown_config_key_via_file(self, dataset, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"speling": 1}))
        run_cli("--config", str(bad), "describe", expect=1)
        err = json.loads(capsys.readouterr().err)
        assert "speling" in err["error"]["message"]

    def test_env_var_supplies_config(self, dataset, tmp_path, monkeypatch, capsys):
        conf = tmp_path / "env.json"
        conf.write_text(json.dumps({"dataset": str(dataset), "output_dir": str(tmp_path / "out")}))
        monkeypatch.setenv("VECMKIT_CONFIG", str(conf))
        run_cli("describe")
        assert (tmp_path / "out" / "describe.json").exists()


class TestExecute:
    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            execute(parse_config(), "sing")

    def test_returns_zero_on_success(self, dataset, tmp_path):
        config = parse_config(
            overrides={"dataset": str(dataset), "output_dir": str(tmp_path / "out")}
        )
        assert execute(config, "describe") == 0
