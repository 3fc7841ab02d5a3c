"""Command-line entry point wiring the library into one workflow:

    describe -> adf -> lagselect -> johansen -> fit-vec -> diagnose
             -> irf -> forecast / backtest -> shock

plus ``lq`` for location quotients. Every command reads a JSON config file
(overridable per-flag), writes JSON + CSV artifacts into the output
directory, prints an aligned text table, and records an ``audit.json``
(versions, parameters, input digest) that fully determines a re-run.

Every printed table is laid out here and nowhere else: its title, columns
and marks. A handler builds one row list from the result record, writes it
as CSV and prints it (or a column selection of it) through ``_table``, which
shows reals at 6 significant digits and None as blank, so a table cannot
drift from its CSV. The library's result records carry no text layout.
Each JSON artifact is ``to_jsonable`` of a result record plus only what is
not one of its fields: ``selected_rank`` in ``johansen.json``, the string
keys of the ADF critical values, and the shock pipeline's scenario in its
audit.

Two tables drive it. ``_SCHEMA`` gives every config key's accepted type and
default (a nested dict is a block such as ``shock``): each run's config is a
namespace over fresh copies of the defaults, and the table validates config
files and overrides and sets each flag's argparse type. ``_COMMANDS`` gives
each command's handler, help text and flags; a flag is its config key spelt
``--key-with-dashes`` without the block prefix, unless a ``(flag, key)``
pair says otherwise. Handlers receive a ``_Run``, which loads the dataset,
fits the VECM, writes the artifacts and builds the audit.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import os
import platform
import sys
from dataclasses import astuple, dataclass, field
from functools import cached_property, reduce
from operator import getitem
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import adf_test, lag_order_selection, lm_autocorrelation, normality_suite, vecm_stability
from .errors import ConfigError, DomainError, MissingColumnError, NonNumericCellError, VecmkitError
from .formatting import format_table, sig6, to_jsonable, write_csv, write_frame, write_json
from .irf import orthogonalized_irfs
from .quarterly import DEFAULT_SCHEMA, Frame, load_frame, location_quotient, parse_quarter, summary_stats
from .shock import ShockScenario, run_three_stage
from .vecm import VecmFit, fit_vecm, forecast_vecm, johansen_trace, select_rank, vecm_to_levels_var

CONFIG_ENV_VAR = "VECMKIT_CONFIG"

_NUMBER = (int, float)
_LQ_INPUTS = ("industry_region", "employment_region", "industry_nation", "employment_nation")
# config key -> (accepted type, default); a nested dict is a block such as ``shock``
_SCHEMA = {
    "dataset": (str, None),
    "output_dir": (str, "out"),
    "variables": (list, list(DEFAULT_SCHEMA)),
    "lags": (int, 2),
    "rank": (int, 2),
    "max_lag": (int, 4),
    "adf_lags": (int, 4),
    "adf_spec": (str, "constant"),
    "lm_lags": (int, 2),
    "n_eff": (int, None),
    "horizon": (int, 20),
    "holdout": (int, 8),
    "impulse": (str, None),
    "response": (str, None),
    # the scenario's own fields, passed to ``ShockScenario`` by name
    "shock": {
        "target": (str, "exchange_rate"),
        "factor": (_NUMBER, 1.15),
        "start": (str, None),
        "stage2_lags": (int, None),
        "stage3_lags": (int, None),
        "exog_lags": (int, 0),
    },
    "lq": {**dict.fromkeys(_LQ_INPUTS, (_NUMBER, None)), "csv": (str, None)},
}


def _defaults(schema: dict) -> dict:
    """Fresh copies of ``schema``'s defaults, so no run shares a list or block."""
    return {
        key: _defaults(spec) if isinstance(spec, dict) else copy.copy(spec[1]) for key, spec in schema.items()
    }


def _apply(values: dict, schema: dict, key: str, value, name: str) -> None:
    """Check ``value`` against ``schema`` and store it in ``values``; a dotted
    key or a dict value descends into a block. ``name`` is the full key.
    Null is accepted only where the key's default is null, and a boolean
    is never a number."""
    head, _, rest = key.partition(".")
    spec = schema.get(head)
    if spec is None or (rest and not isinstance(spec, dict)):
        raise ConfigError(f"unknown config key {name!r}")
    if rest:
        _apply(values[head], spec, rest, value, name)
    elif isinstance(spec, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config key {name!r} must be dict, got {value!r}")
        for sub, sub_value in value.items():
            _apply(values[head], spec, sub, sub_value, f"{name}.{sub}")
    else:
        expected, default = spec
        if value is not None or default is not None:
            if expected is int and isinstance(value, bool):
                raise ConfigError(f"config key {name!r} must be an integer, got {value!r}")
            if isinstance(value, bool) or not isinstance(value, expected):
                kind = expected.__name__ if isinstance(expected, type) else "number"
                raise ConfigError(f"config key {name!r} must be {kind}, got {value!r}")
            if expected is list:
                if not all(isinstance(v, str) for v in value):
                    raise ConfigError(f"config key {name!r} must be a list of names")
                value = list(value)
        values[head] = value


def parse_config(path: str | None = None, overrides: dict | None = None) -> argparse.Namespace:
    """Build a run's config, one attribute per ``_SCHEMA`` key, from the
    defaults, an optional JSON file and flag overrides.

    Unknown keys are rejected by name; flag values win over file values.
    """
    config = argparse.Namespace(**_defaults(_SCHEMA))
    if path:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in data.items():
            _apply(vars(config), _SCHEMA, key, value, key)
    for key, value in (overrides or {}).items():
        if value is not None:
            _apply(vars(config), _SCHEMA, key, value, key)
    return config


@dataclass
class _Run:
    """One command's run: its config, the artifacts it wrote, and the shock
    pipeline's audit when there is one."""

    config: argparse.Namespace
    out: Path
    artifacts: list[Path] = field(default_factory=list)
    pipeline: dict | None = None

    @cached_property
    def frame(self) -> Frame:
        dataset = self.config.dataset
        if not dataset:
            raise ConfigError("no dataset given (config key 'dataset' or --dataset)")
        if not Path(dataset).exists():
            raise ConfigError(f"dataset not found: {dataset}")
        return load_frame(dataset, schema=self.config.variables)

    def fit(self, frame: Frame | None = None) -> VecmFit:
        return fit_vecm(self.frame if frame is None else frame, self.config.lags, self.config.rank)

    def json(self, name: str, payload: dict) -> None:
        self.artifacts.append(write_json(self.out / name, payload))

    def csv(self, name: str, header: list[str], rows) -> None:
        self.artifacts.append(write_csv(self.out / name, header, rows))

    def frame_csv(self, name: str, frame: Frame) -> None:
        self.artifacts.append(write_frame(frame, self.out / name))

    def audit(self, command: str) -> dict:
        dataset = self.config.dataset
        digest = None
        if dataset and Path(dataset).exists():
            digest = hashlib.sha256(Path(dataset).read_bytes()).hexdigest()
        audit = {
            "command": command,
            "versions": {
                "vecmkit": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
            "parameters": vars(self.config),
            "dataset_sha256": digest,
            "artifacts": sorted(a.name for a in self.artifacts),
        }
        if self.pipeline is not None:
            audit["pipeline"] = self.pipeline
        return audit


def _table(title: str, header: list[str], rows) -> None:
    """Print rows as an aligned table: reals at 6 significant digits, None
    blank, anything else as ``str`` gives it."""
    cells = ([sig6(c) if c is None or isinstance(c, float) else c for c in row] for row in rows)
    print(format_table(header, cells, title=title))


def _cmd_describe(run: _Run) -> None:
    report = summary_stats(run.frame)
    header = ["variable", "mean", "sd", "min", "max", "n"]
    rows = list(map(astuple, report.columns))
    _table(f"Summary statistics ({report.start}..{report.end})", header, rows)
    run.json("describe.json", to_jsonable(report))
    run.csv("describe.csv", header, rows)


def _cmd_adf(run: _Run) -> None:
    config = run.config
    results = {name: adf_test(run.frame.column(name), config.adf_lags, config.adf_spec) for name in run.frame.names}
    rows = [[n, r.statistic, *r.critical_values.values(), r.reject_5pct] for n, r in results.items()]
    _table(
        f"ADF tests (lags={config.adf_lags}, spec={config.adf_spec})",
        ["variable", "statistic", "5% critical value", "reject unit root"],
        [[n, stat, cv5, "yes" if reject else "no"] for n, stat, _, cv5, _, reject in rows],
    )
    # string keys, so the critical values sort as "1", "10", "5"
    run.json(
        "adf.json",
        {
            n: {**to_jsonable(r), "critical_values": {str(k): v for k, v in r.critical_values.items()}}
            for n, r in results.items()
        },
    )
    run.csv("adf.csv", ["variable", "statistic", "cv_1pct", "cv_5pct", "cv_10pct", "reject_5pct"], rows)


def _cmd_lagselect(run: _Run) -> None:
    report = lag_order_selection(run.frame, run.config.max_lag)
    header = ["lag", "ll", "lr", "lr_df", "lr_p", "fpe", "aic", "hqic", "sbic"]
    rows = list(map(astuple, report.rows))
    # a criterion's column, named as its key in ``selected``, marks the lag it picks
    picks = [report.selected.get(h) for h in header]
    _table(
        f"Lag-order selection (T_eff={report.t_eff}, * = selected)",
        ["lag", "LL", "LR", "df", "p", "FPE", "AIC", "HQIC", "SBIC"],
        ([f"{sig6(c)}*" if lag == row[0] else c for c, lag in zip(row, picks)] for row in rows),
    )
    run.json("lagselect.json", to_jsonable(report))
    run.csv("lagselect.csv", header, rows)


def _cmd_johansen(run: _Run) -> None:
    result = johansen_trace(run.frame, run.config.lags)
    selected = select_rank(result)
    n = result.n_vars
    rows = [
        [
            r,
            result.eigenvalues[r - 1] if r >= 1 else "",
            result.trace_stats[r] if r < n else "",
            result.critical_values_5pct[r] if r < n else "",
            "*" if r == selected else "",
        ]
        for r in range(n + 1)
    ]
    _table(
        f"Trace test for cointegration rank "
        f"(T_eff={result.t_eff}, lags={result.lags}, trend: {result.deterministic})",
        ["rank", "eigenvalue", "trace statistic", "5% critical value", ""],
        rows,
    )
    run.json("johansen.json", {**to_jsonable(result), "selected_rank": selected})
    run.csv("johansen.csv", ["rank", "eigenvalue", "trace_stat", "cv_5pct", "selected"], rows)


def _cmd_fit_vec(run: _Run) -> None:
    fit = run.fit()
    r = fit.rank
    rows = [[name, *fit.beta[i], *fit.alpha[i]] for i, name in enumerate(fit.names)]
    _table(
        f"Cointegrating vectors (lags={fit.lags}, rank={r}, residual rows={fit.residuals.shape[0]})",
        ["variable", *[f"relation {j + 1}" for j in range(r)]],
        [row[: 1 + r] for row in rows],
    )
    run.json("vecm_fit.json", to_jsonable(fit))
    run.csv(
        "cointegration.csv",
        ["variable", *[f"beta_{j + 1}" for j in range(r)], *[f"alpha_{j + 1}" for j in range(r)]],
        rows,
    )


def _cmd_diagnose(run: _Run) -> None:
    lm_lags = run.config.lm_lags
    if lm_lags < 1:
        raise DomainError(f"lm_lags must be >= 1, got {lm_lags}")
    fit = run.fit()
    lm_results = [lm_autocorrelation(fit.residuals, lag) for lag in range(1, lm_lags + 1)]
    names = tuple(f"D_{n}" for n in fit.names)
    normality = normality_suite(fit.residuals, n_eff=run.config.n_eff, names=names)
    stability = vecm_stability(fit)

    lm_rows = list(map(astuple, lm_results))
    _table("Residual autocorrelation (LM)", ["lag", "chi2", "df", "p"], lm_rows)
    print()
    rows = list(map(astuple, normality.rows))
    j = normality.joint
    _table(
        f"Normality tests (n_eff={normality.n_eff})",
        ["equation", "JB", "df", "p", "skew", "skew chi2", "p", "kurt", "kurt chi2", "p"],
        [
            *(
                [name, jb, 2, jb_p, skew, skew_chi2, skew_p, kurt, kurt_chi2, kurt_p]
                for name, skew, kurt, skew_chi2, skew_p, kurt_chi2, kurt_p, jb, jb_p in rows
            ),
            ["ALL", j["jb"], j["jb_df"], j["jb_p"], None, j["skew_chi2"], j["skew_p"],
             None, j["kurt_chi2"], j["kurt_p"]],
        ],
    )
    print()
    status = "PASS" if stability.passed else "FAIL"
    print(
        f"Stability: {stability.unit_count} unit moduli "
        f"(expected {stability.expected_unit_count}) -> {status}"
    )
    run.json("diagnose.json", to_jsonable({"lm": lm_results, "normality": normality, "stability": stability}))
    run.csv("lm.csv", ["lag", "chi2", "df", "p_value"], lm_rows)
    run.csv(
        "normality.csv",
        ["equation", "skewness", "kurtosis", "skew_chi2", "skew_p", "kurt_chi2", "kurt_p", "jb", "jb_p"],
        rows,
    )
    run.csv("stability.csv", ["modulus"], [[m] for m in stability.moduli])


def _cmd_irf(run: _Run) -> None:
    config = run.config
    fit = vecm_to_levels_var(run.fit())
    impulse = config.impulse or run.frame.names[0]
    responses = [config.response] if config.response else None
    irfs = orthogonalized_irfs(fit, config.horizon, impulse, responses)
    for response, irf in irfs.items():
        rows = list(enumerate(irf.values.tolist()))
        run.csv(f"irf_{impulse}_{response}.csv", ["step", "response"], rows)
        _table(f"Orthogonalized IRF: {impulse} -> {response}", ["step", "response"], rows)
        print()
    run.json("irf.json", to_jsonable(irfs))


def _cmd_forecast(run: _Run) -> None:
    forecast = forecast_vecm(run.fit(), run.config.horizon)
    _table(
        f"Dynamic forecast {forecast.start}..{forecast.end}",
        ["quarter", *forecast.names],
        ([str(q), *row] for q, row in zip(forecast.quarters(), forecast.values)),
    )
    run.json("forecast.json", to_jsonable(forecast))
    run.frame_csv("forecast.csv", forecast)
    for name in forecast.names:
        run.frame_csv(f"forecast_{name}.csv", forecast.select([name]))


def _cmd_backtest(run: _Run) -> None:
    frame = run.frame
    holdout = run.config.holdout
    if not 0 < holdout < len(frame):
        raise ConfigError(f"holdout must be in 1..{len(frame) - 1}, got {holdout}")
    forecast = forecast_vecm(run.fit(frame.head(len(frame) - holdout)), holdout)
    actual = frame.values[len(frame) - holdout :]

    metrics = {}
    for j, name in enumerate(frame.names):
        err = actual[:, j] - forecast.values[:, j]
        metrics[name] = {
            "rmse": float(np.sqrt(np.mean(err**2))),
            "mae": float(np.mean(np.abs(err))),
        }
        pair = np.column_stack([actual[:, j], forecast.values[:, j]])
        run.frame_csv(f"backtest_{name}.csv", Frame(forecast.start, ("actual", "forecast"), pair))
    _table(
        f"Backtest over {holdout} held-out quarters ({forecast.start}..{forecast.end})",
        ["variable", "rmse", "mae"],
        [[n, m["rmse"], m["mae"]] for n, m in metrics.items()],
    )
    run.json("backtest.json", {"holdout": holdout, "metrics": metrics})


def _cmd_shock(run: _Run) -> None:
    config, shock = run.config, run.config.shock
    frame = run.frame
    scenario = ShockScenario(
        **{
            **shock,
            "factor": float(shock["factor"]),
            "start": parse_quarter(shock["start"]) if shock["start"] else frame.end.next(),
        },
        horizon=config.horizon,
        vecm_lags=config.lags,
        rank=config.rank,
    )
    result = run_three_stage(frame, scenario)
    run.pipeline = {"scenario": to_jsonable(result.scenario), **result.audit}

    shocked = result.shocked_path
    run.frame_csv("stage1_forecast.csv", result.stage1_forecast)
    run.frame_csv("shocked_path.csv", Frame(shocked.start, (shocked.name,), shocked.values[:, None]))
    run.frame_csv("stage2_forecast.csv", result.stage2_forecast)
    run.json("stage3_model.json", to_jsonable(result.stage3_fit))
    for name, irf in result.irfs.items():
        run.csv(f"irf_{scenario.target}_{name}.csv", ["step", "response"], enumerate(irf.values.tolist()))
    step = min(4, scenario.horizon)
    _table(
        f"Shock pipeline: {scenario.target} x{scenario.factor} from {scenario.start} (differenced-scale IRFs)",
        ["response", "impact (step 0)", f"step {step}"],
        [[name, irf.values[0], irf.values[step]] for name, irf in result.irfs.items()],
    )


def _cmd_lq(run: _Run) -> None:
    lq = run.config.lq
    if lq["csv"]:
        path = Path(lq["csv"])
        if not path.exists():
            raise ConfigError(f"lq input not found: {path}")
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for col in _LQ_INPUTS:
                if col not in (reader.fieldnames or []):
                    raise MissingColumnError(f"{path}: missing column {col!r}")
            rows = []
            for record in reader:
                label = record.get("label") or record.get("year") or record.get("quarter") or str(len(rows))
                inputs = []
                for col in _LQ_INPUTS:
                    cell = record[col]  # None when the row is short
                    try:
                        inputs.append(float(cell))
                    except (TypeError, ValueError):
                        problem = "missing cell" if cell is None else f"non-numeric cell {cell!r}"
                        raise NonNumericCellError(
                            f"{path}: row {reader.line_num}, column {col!r}: {problem}"
                        ) from None
                rows.append([label, location_quotient(*inputs)])
        _table("Location quotients", ["label", "lq"], rows)
        run.csv("lq.csv", ["label", "lq"], rows)
        run.json("lq.json", {"rows": [{"label": l, "lq": v} for l, v in rows]})
        return

    missing = [k for k in _LQ_INPUTS if lq[k] is None]
    if missing:
        raise ConfigError(f"lq needs {', '.join(missing)} (flags or config)")
    value = location_quotient(*(float(lq[k]) for k in _LQ_INPUTS))
    print(f"location quotient: {sig6(value)}")
    run.json("lq.json", {"lq": value, "inputs": {k: lq[k] for k in _LQ_INPUTS}})


_FIT = ("lags", "rank")
# command -> (handler, help, flags); a flag is a config key or a (flag, key) pair
_COMMANDS = {
    "describe": (_cmd_describe, "summary statistics", ()),
    "adf": (
        _cmd_adf,
        "augmented Dickey-Fuller unit-root tests",
        (("--lags", "adf_lags"), ("--spec", "adf_spec")),
    ),
    "lagselect": (_cmd_lagselect, "lag-order selection criteria", ("max_lag",)),
    "johansen": (_cmd_johansen, "trace test for cointegration rank", ("lags",)),
    "fit-vec": (_cmd_fit_vec, "estimate the VECM", _FIT),
    "diagnose": (_cmd_diagnose, "LM autocorrelation, normality, and stability checks", (*_FIT, "lm_lags", "n_eff")),
    "irf": (_cmd_irf, "orthogonalized impulse responses", (*_FIT, "horizon", "impulse", "response")),
    "forecast": (_cmd_forecast, "dynamic out-of-sample forecast", (*_FIT, "horizon")),
    "backtest": (_cmd_backtest, "hold out trailing quarters and compare actual vs forecast", ("holdout", *_FIT)),
    "shock": (
        _cmd_shock,
        "three-stage multiplicative shock pipeline",
        (*(f"shock.{k}" for k in _SCHEMA["shock"]), "horizon", *_FIT),
    ),
    "lq": (
        _cmd_lq,
        "location quotient (ratio of regional to national industry share)",
        tuple(f"lq.{k}" for k in _SCHEMA["lq"]),
    ),
}


def execute(config: argparse.Namespace, command: str) -> int:
    """Run one command; returns 0 iff every requested artifact was written."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = _Run(config, out)
    _COMMANDS[command][0](run)
    write_json(out / "audit.json", run.audit(command))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecmkit",
        description="Cointegration-aware multivariate time-series toolkit",
    )
    parser.add_argument("--config", default=None, help=f"JSON config file (default: ${CONFIG_ENV_VAR})")
    parser.add_argument("--dataset", help="quarterly CSV panel")
    parser.add_argument("--output", "-o", dest="output_dir", help="artifact directory")
    parser.add_argument(
        "--variables",
        type=lambda names: [v.strip() for v in names.split(",") if v.strip()],
        help="comma-separated column order",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        for flag in flags:
            flag, key = flag if isinstance(flag, tuple) else ("--" + flag.split(".")[-1].replace("_", "-"), flag)
            expected = reduce(getitem, key.split("."), _SCHEMA)[0]
            p.add_argument(flag, dest=key, type=float if expected is _NUMBER else expected)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config") or os.environ.get(CONFIG_ENV_VAR)
    try:
        config = parse_config(config_path, args)
        return execute(config, command)
    except VecmkitError as exc:
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
