"""Command-line entry point wiring the library into one workflow:

    describe -> adf -> lagselect -> johansen -> fit-vec -> diagnose
             -> irf -> forecast / backtest -> shock

plus ``lq`` for location quotients. Every command reads a JSON config file
(overridable per-flag), writes JSON + CSV artifacts into the output
directory, prints an aligned text table, and records an ``audit.json``
(versions, parameters, input digest) that fully determines a re-run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import adf_test, lag_order_selection, lm_autocorrelation, normality_suite, vecm_stability
from .errors import ConfigError, MissingColumnError, VecmkitError
from .formatting import format_table, frame_csv_rows, sig6, write_csv, write_json
from .irf import orthogonalized_irfs
from .quarterly import (
    DEFAULT_SCHEMA,
    Frame,
    QuarterIndex,
    load_frame,
    location_quotient,
    parse_quarter,
    summary_stats,
)
from .shock import ShockScenario, run_three_stage
from .var import forecast_var
from .vecm import fit_vecm, forecast_vecm, johansen_trace, select_rank, vecm_to_levels_var

CONFIG_ENV_VAR = "VECMKIT_CONFIG"

_SHOCK_DEFAULTS = {
    "target": "exchange_rate",
    "factor": 1.15,
    "start": None,
    "stage2_lags": None,
    "stage3_lags": None,
    "exog_lags": 0,
}
_LQ_DEFAULTS = {
    "industry_region": None,
    "employment_region": None,
    "industry_nation": None,
    "employment_nation": None,
    "csv": None,
}


@dataclass
class RunConfig:
    """Validated run parameters; flags override file values."""

    dataset: str | None = None
    output_dir: str = "out"
    variables: list[str] = field(default_factory=lambda: list(DEFAULT_SCHEMA))
    lags: int = 2
    rank: int = 2
    max_lag: int = 4
    adf_lags: int = 4
    adf_spec: str = "constant"
    lm_lags: int = 2
    n_eff: int | None = None
    horizon: int = 20
    holdout: int = 8
    impulse: str | None = None
    response: str | None = None
    seed: int = 0
    shock: dict = field(default_factory=lambda: dict(_SHOCK_DEFAULTS))
    lq: dict = field(default_factory=lambda: dict(_LQ_DEFAULTS))

    def to_dict(self) -> dict:
        return {k: (dict(v) if isinstance(v, dict) else v) for k, v in vars(self).items()}


_TYPES = {
    "dataset": str,
    "output_dir": str,
    "variables": list,
    "lags": int,
    "rank": int,
    "max_lag": int,
    "adf_lags": int,
    "adf_spec": str,
    "lm_lags": int,
    "n_eff": int,
    "horizon": int,
    "holdout": int,
    "impulse": str,
    "response": str,
    "seed": int,
    "shock": dict,
    "lq": dict,
}
_SHOCK_TYPES = {
    "target": str,
    "factor": (int, float),
    "start": str,
    "stage2_lags": int,
    "stage3_lags": int,
    "exog_lags": int,
}
_LQ_TYPES = {
    "industry_region": (int, float),
    "employment_region": (int, float),
    "industry_nation": (int, float),
    "employment_nation": (int, float),
    "csv": str,
}


def _check_value(key: str, value, expected) -> None:
    if value is None:
        return
    if expected is int and isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    if not isinstance(value, expected):
        name = expected.__name__ if isinstance(expected, type) else "number"
        raise ConfigError(f"config key {key!r} must be {name}, got {value!r}")


def _apply(config: RunConfig, key: str, value) -> None:
    if "." in key:
        block, sub = key.split(".", 1)
        if block == "shock":
            if sub not in _SHOCK_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            _check_value(key, value, _SHOCK_TYPES[sub])
            config.shock[sub] = value
        elif block == "lq":
            if sub not in _LQ_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            _check_value(key, value, _LQ_TYPES[sub])
            config.lq[sub] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
        return
    if key not in _TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    _check_value(key, value, _TYPES[key])
    if key == "shock":
        for sub, sub_value in value.items():
            _apply(config, f"shock.{sub}", sub_value)
    elif key == "lq":
        for sub, sub_value in value.items():
            _apply(config, f"lq.{sub}", sub_value)
    elif key == "variables":
        if not all(isinstance(v, str) for v in value):
            raise ConfigError("config key 'variables' must be a list of names")
        config.variables = list(value)
    else:
        setattr(config, key, value)


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus flag overrides.

    Unknown keys are rejected by name; flag values win over file values.
    """
    config = RunConfig()
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
            _apply(config, key, value)
    for key, value in (overrides or {}).items():
        if value is not None:
            _apply(config, key, value)
    return config


def _load_dataset(config: RunConfig) -> Frame:
    if not config.dataset:
        raise ConfigError("no dataset given (config key 'dataset' or --dataset)")
    if not Path(config.dataset).exists():
        raise ConfigError(f"dataset not found: {config.dataset}")
    return load_frame(config.dataset, schema=config.variables)


def _audit(config: RunConfig, command: str, artifacts: list[Path]) -> dict:
    digest = None
    if config.dataset and Path(config.dataset).exists():
        digest = hashlib.sha256(Path(config.dataset).read_bytes()).hexdigest()
    return {
        "command": command,
        "versions": {
            "vecmkit": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "parameters": config.to_dict(),
        "dataset_sha256": digest,
        "artifacts": sorted(a.name for a in artifacts),
    }


def _cmd_describe(config: RunConfig, out: Path) -> list[Path]:
    frame = _load_dataset(config)
    report = summary_stats(frame)
    print(report.format_table())
    return [
        write_json(out / "describe.json", report.to_dict()),
        write_csv(
            out / "describe.csv",
            ["variable", "mean", "sd", "min", "max", "n"],
            [[c.name, c.mean, c.sd, c.minimum, c.maximum, c.count] for c in report.columns],
        ),
    ]


def _cmd_adf(config: RunConfig, out: Path) -> list[Path]:
    frame = _load_dataset(config)
    results = {name: adf_test(frame.series(name), config.adf_lags, config.adf_spec) for name in frame.names}
    rows = [
        [n, sig6(r.statistic), sig6(r.critical_values[5]), "yes" if r.reject_5pct else "no"]
        for n, r in results.items()
    ]
    print(
        format_table(
            ["variable", "statistic", "5% critical value", "reject unit root"],
            rows,
            title=f"ADF tests (lags={config.adf_lags}, spec={config.adf_spec})",
        )
    )
    return [
        write_json(out / "adf.json", {n: r.to_dict() for n, r in results.items()}),
        write_csv(
            out / "adf.csv",
            ["variable", "statistic", "cv_1pct", "cv_5pct", "cv_10pct", "reject_5pct"],
            [
                [n, r.statistic, r.critical_values[1], r.critical_values[5], r.critical_values[10], r.reject_5pct]
                for n, r in results.items()
            ],
        ),
    ]


def _cmd_lagselect(config: RunConfig, out: Path) -> list[Path]:
    frame = _load_dataset(config)
    report = lag_order_selection(frame, config.max_lag)
    print(report.format_table())
    return [
        write_json(out / "lagselect.json", report.to_dict()),
        write_csv(
            out / "lagselect.csv",
            ["lag", "ll", "lr", "lr_df", "lr_p", "fpe", "aic", "hqic", "sbic"],
            [
                [r.lag, r.log_likelihood, r.lr, r.lr_df, r.lr_p, r.fpe, r.aic, r.hqic, r.sbic]
                for r in report.rows
            ],
        ),
    ]


def _cmd_johansen(config: RunConfig, out: Path) -> list[Path]:
    frame = _load_dataset(config)
    result = johansen_trace(frame, config.lags)
    print(result.format_table())
    selected = select_rank(result)
    return [
        write_json(out / "johansen.json", result.to_dict()),
        write_csv(
            out / "johansen.csv",
            ["rank", "eigenvalue", "trace_stat", "cv_5pct", "selected"],
            [
                [
                    r,
                    result.eigenvalues[r - 1] if r >= 1 else "",
                    result.trace_stats[r] if r < result.n_vars else "",
                    result.critical_values[r] if r < result.n_vars else "",
                    "*" if r == selected else "",
                ]
                for r in range(result.n_vars + 1)
            ],
        ),
    ]


def _cmd_fit_vec(config: RunConfig, out: Path) -> list[Path]:
    frame = _load_dataset(config)
    fit = fit_vecm(frame, config.lags, config.rank)
    rows = [
        [name, *[sig6(fit.beta[i, j]) for j in range(fit.rank)]]
        for i, name in enumerate(fit.names)
    ]
    print(
        format_table(
            ["variable", *[f"relation {j + 1}" for j in range(fit.rank)]],
            rows,
            title=f"Cointegrating vectors (lags={fit.k}, rank={fit.rank}, residual rows={fit.residuals.shape[0]})",
        )
    )
    return [
        write_json(out / "vecm_fit.json", fit.to_dict()),
        write_csv(
            out / "cointegration.csv",
            ["variable", *[f"beta_{j + 1}" for j in range(fit.rank)], *[f"alpha_{j + 1}" for j in range(fit.rank)]],
            [
                [name, *fit.beta[i], *fit.alpha[i]]
                for i, name in enumerate(fit.names)
            ],
        ),
    ]


def _cmd_diagnose(config: RunConfig, out: Path) -> list[Path]:
    frame = _load_dataset(config)
    fit = fit_vecm(frame, config.lags, config.rank)
    lm_results = [lm_autocorrelation(fit.residuals, lag) for lag in range(1, config.lm_lags + 1)]
    names = tuple(f"D_{n}" for n in fit.names)
    normality = normality_suite(fit.residuals, n_eff=config.n_eff, names=names)
    stability = vecm_stability(fit)

    print(
        format_table(
            ["lag", "chi2", "df", "p"],
            [[r.lag, sig6(r.statistic), r.df, sig6(r.p_value)] for r in lm_results],
            title="Residual autocorrelation (LM)",
        )
    )
    print()
    print(normality.format_table())
    print()
    status = "PASS" if stability.passed else "FAIL"
    print(
        f"Stability: {stability.unit_count} unit moduli "
        f"(expected {stability.expected_unit_count}) -> {status}"
    )
    return [
        write_json(
            out / "diagnose.json",
            {
                "lm": [r.to_dict() for r in lm_results],
                "normality": normality.to_dict(),
                "stability": stability.to_dict(),
            },
        ),
        write_csv(
            out / "lm.csv",
            ["lag", "chi2", "df", "p_value"],
            [[r.lag, r.statistic, r.df, r.p_value] for r in lm_results],
        ),
        write_csv(
            out / "normality.csv",
            ["equation", "skewness", "kurtosis", "skew_chi2", "skew_p", "kurt_chi2", "kurt_p", "jb", "jb_p"],
            [
                [r.name, r.skewness, r.kurtosis, r.skew_chi2, r.skew_p, r.kurt_chi2, r.kurt_p, r.jb, r.jb_p]
                for r in normality.rows
            ],
        ),
        write_csv(
            out / "stability.csv",
            ["modulus"],
            [[m] for m in stability.moduli],
        ),
    ]


def _cmd_irf(config: RunConfig, out: Path) -> list[Path]:
    frame = _load_dataset(config)
    fit = vecm_to_levels_var(fit_vecm(frame, config.lags, config.rank))
    impulse = config.impulse or frame.names[0]
    responses = [config.response] if config.response else None
    artifacts = []
    payload = {}
    for response, irf in orthogonalized_irfs(fit, config.horizon, impulse, responses).items():
        payload[response] = irf.to_dict()
        artifacts.append(
            write_csv(out / f"irf_{impulse}_{response}.csv", ["step", "response"], irf.csv_rows())
        )
        print(
            format_table(
                ["step", "response"],
                [[h, sig6(v)] for h, v in irf.csv_rows()],
                title=f"Orthogonalized IRF: {impulse} -> {response}",
            )
        )
        print()
    artifacts.append(write_json(out / "irf.json", payload))
    return artifacts


def _cmd_forecast(config: RunConfig, out: Path) -> list[Path]:
    frame = _load_dataset(config)
    fit = fit_vecm(frame, config.lags, config.rank)
    forecast = forecast_vecm(fit, config.horizon)
    print(
        format_table(
            ["quarter", *forecast.names],
            [[str(q), *[sig6(v) for v in row]] for q, row in zip(forecast.quarters(), forecast.values)],
            title=f"Dynamic forecast {forecast.start}..{forecast.end}",
        )
    )
    artifacts = [
        write_json(
            out / "forecast.json",
            {
                "start": str(forecast.start),
                "names": list(forecast.names),
                "values": forecast.values.tolist(),
            },
        ),
        write_csv(out / "forecast.csv", ["quarter", *forecast.names], frame_csv_rows(forecast)),
    ]
    for name in forecast.names:
        artifacts.append(
            write_csv(
                out / f"forecast_{name}.csv",
                ["quarter", name],
                [[str(q), v] for q, v in zip(forecast.quarters(), forecast.column(name))],
            )
        )
    return artifacts


def _cmd_backtest(config: RunConfig, out: Path) -> list[Path]:
    frame = _load_dataset(config)
    holdout = config.holdout
    if not 0 < holdout < len(frame):
        raise ConfigError(f"holdout must be in 1..{len(frame) - 1}, got {holdout}")
    train = frame.head(len(frame) - holdout)
    fit = fit_vecm(train, config.lags, config.rank)
    forecast = forecast_vecm(fit, holdout)
    actual = frame.values[len(frame) - holdout :]

    artifacts = []
    metrics = {}
    for j, name in enumerate(frame.names):
        err = actual[:, j] - forecast.values[:, j]
        metrics[name] = {
            "rmse": float(np.sqrt(np.mean(err**2))),
            "mae": float(np.mean(np.abs(err))),
        }
        artifacts.append(
            write_csv(
                out / f"backtest_{name}.csv",
                ["quarter", "actual", "forecast"],
                [
                    [str(q), actual[i, j], forecast.values[i, j]]
                    for i, q in enumerate(forecast.quarters())
                ],
            )
        )
    print(
        format_table(
            ["variable", "rmse", "mae"],
            [[n, sig6(m["rmse"]), sig6(m["mae"])] for n, m in metrics.items()],
            title=f"Backtest over {holdout} held-out quarters ({forecast.start}..{forecast.end})",
        )
    )
    artifacts.append(
        write_json(out / "backtest.json", {"holdout": holdout, "metrics": metrics})
    )
    return artifacts


def _cmd_shock(config: RunConfig, out: Path) -> list[Path]:
    frame = _load_dataset(config)
    shock_conf = config.shock
    start = parse_quarter(shock_conf["start"]) if shock_conf.get("start") else frame.end.next()
    scenario = ShockScenario(
        target=shock_conf["target"],
        factor=float(shock_conf["factor"]),
        start=start,
        horizon=config.horizon,
        vecm_lags=config.lags,
        rank=config.rank,
        stage2_lags=shock_conf.get("stage2_lags"),
        stage3_lags=shock_conf.get("stage3_lags"),
        exog_lags=int(shock_conf.get("exog_lags") or 0),
    )
    result = run_three_stage(frame, scenario)

    artifacts = [
        write_csv(
            out / "stage1_forecast.csv",
            ["quarter", *result.stage1_forecast.names],
            frame_csv_rows(result.stage1_forecast),
        ),
        write_csv(
            out / "shocked_path.csv",
            ["quarter", scenario.target],
            [
                [str(q), v]
                for q, v in zip(result.shocked_path.quarters(), result.shocked_path.values)
            ],
        ),
        write_csv(
            out / "stage2_forecast.csv",
            ["quarter", *result.stage2_forecast.names],
            frame_csv_rows(result.stage2_forecast),
        ),
        write_json(out / "stage3_model.json", result.stage3_fit.to_dict()),
    ]
    for name, irf in result.irfs.items():
        artifacts.append(
            write_csv(
                out / f"irf_{scenario.target}_{name}.csv",
                ["step", "response"],
                irf.csv_rows(),
            )
        )
    rows = [
        [name, sig6(irf.values[0]), sig6(irf.values[min(4, len(irf.values) - 1)])]
        for name, irf in result.irfs.items()
    ]
    print(
        format_table(
            ["response", "impact (step 0)", "step 4"],
            rows,
            title=(
                f"Shock pipeline: {scenario.target} x{scenario.factor} from {scenario.start} "
                f"(differenced-scale IRFs)"
            ),
        )
    )
    return artifacts, result.audit


def _cmd_lq(config: RunConfig, out: Path) -> list[Path]:
    lq_conf = config.lq
    if lq_conf.get("csv"):
        frame_path = Path(lq_conf["csv"])
        if not frame_path.exists():
            raise ConfigError(f"lq input not found: {frame_path}")
        import csv as _csv

        with frame_path.open(newline="", encoding="utf-8") as fh:
            reader = _csv.DictReader(fh)
            needed = ["industry_region", "employment_region", "industry_nation", "employment_nation"]
            for col in needed:
                if col not in (reader.fieldnames or []):
                    raise MissingColumnError(f"{frame_path}: missing column {col!r}")
            rows = []
            for record in reader:
                label = record.get("label") or record.get("year") or record.get("quarter") or str(len(rows))
                rows.append([label, location_quotient(*(float(record[c]) for c in needed))])
        print(format_table(["label", "lq"], [[l, sig6(v)] for l, v in rows], title="Location quotients"))
        return [
            write_csv(out / "lq.csv", ["label", "lq"], rows),
            write_json(out / "lq.json", {"rows": [{"label": l, "lq": v} for l, v in rows]}),
        ]

    needed = ["industry_region", "employment_region", "industry_nation", "employment_nation"]
    missing = [k for k in needed if lq_conf.get(k) is None]
    if missing:
        raise ConfigError(f"lq needs {', '.join(missing)} (flags or config)")
    value = location_quotient(*(float(lq_conf[k]) for k in needed))
    print(f"location quotient: {sig6(value)}")
    return [write_json(out / "lq.json", {"lq": value, "inputs": {k: lq_conf[k] for k in needed}})]


_COMMANDS = {
    "describe": _cmd_describe,
    "adf": _cmd_adf,
    "lagselect": _cmd_lagselect,
    "johansen": _cmd_johansen,
    "fit-vec": _cmd_fit_vec,
    "diagnose": _cmd_diagnose,
    "irf": _cmd_irf,
    "forecast": _cmd_forecast,
    "backtest": _cmd_backtest,
    "shock": _cmd_shock,
    "lq": _cmd_lq,
}


def execute(config: RunConfig, command: str) -> int:
    """Run one command; returns 0 iff every requested artifact was written."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    produced = _COMMANDS[command](config, out)
    if isinstance(produced, tuple):
        artifacts, pipeline_audit = produced
    else:
        artifacts, pipeline_audit = produced, None
    audit = _audit(config, command, artifacts)
    if pipeline_audit is not None:
        audit["pipeline"] = pipeline_audit
    write_json(out / "audit.json", audit)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecmkit",
        description="Cointegration-aware multivariate time-series toolkit",
    )
    parser.add_argument("--config", default=None, help=f"JSON config file (default: ${CONFIG_ENV_VAR})")
    parser.add_argument("--dataset", help="quarterly CSV panel")
    parser.add_argument("--output", "-o", dest="output_dir", help="artifact directory")
    parser.add_argument("--variables", help="comma-separated column order")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, helptext: str, *flags):
        p = sub.add_parser(name, help=helptext)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        return p

    add("describe", "summary statistics")
    add(
        "adf",
        "augmented Dickey-Fuller unit-root tests",
        ("--lags", {"dest": "adf_lags", "type": int}),
        ("--spec", {"dest": "adf_spec"}),
    )
    add("lagselect", "lag-order selection criteria", ("--max-lag", {"dest": "max_lag", "type": int}))
    add("johansen", "trace test for cointegration rank", ("--lags", {"dest": "lags", "type": int}))
    add("fit-vec", "estimate the VECM", ("--lags", {"dest": "lags", "type": int}), ("--rank", {"dest": "rank", "type": int}))
    add(
        "diagnose",
        "LM autocorrelation, normality, and stability checks",
        ("--lags", {"dest": "lags", "type": int}),
        ("--rank", {"dest": "rank", "type": int}),
        ("--lm-lags", {"dest": "lm_lags", "type": int}),
        ("--n-eff", {"dest": "n_eff", "type": int}),
    )
    add(
        "irf",
        "orthogonalized impulse responses",
        ("--lags", {"dest": "lags", "type": int}),
        ("--rank", {"dest": "rank", "type": int}),
        ("--horizon", {"dest": "horizon", "type": int}),
        ("--impulse", {"dest": "impulse"}),
        ("--response", {"dest": "response"}),
    )
    add(
        "forecast",
        "dynamic out-of-sample forecast",
        ("--lags", {"dest": "lags", "type": int}),
        ("--rank", {"dest": "rank", "type": int}),
        ("--horizon", {"dest": "horizon", "type": int}),
    )
    add(
        "backtest",
        "hold out trailing quarters and compare actual vs forecast",
        ("--holdout", {"dest": "holdout", "type": int}),
        ("--lags", {"dest": "lags", "type": int}),
        ("--rank", {"dest": "rank", "type": int}),
    )
    add(
        "shock",
        "three-stage multiplicative shock pipeline",
        ("--target", {"dest": "shock.target"}),
        ("--factor", {"dest": "shock.factor", "type": float}),
        ("--start", {"dest": "shock.start"}),
        ("--stage2-lags", {"dest": "shock.stage2_lags", "type": int}),
        ("--stage3-lags", {"dest": "shock.stage3_lags", "type": int}),
        ("--exog-lags", {"dest": "shock.exog_lags", "type": int}),
        ("--horizon", {"dest": "horizon", "type": int}),
        ("--lags", {"dest": "lags", "type": int}),
        ("--rank", {"dest": "rank", "type": int}),
    )
    add(
        "lq",
        "location quotient (ratio of regional to national industry share)",
        ("--industry-region", {"dest": "lq.industry_region", "type": float}),
        ("--employment-region", {"dest": "lq.employment_region", "type": float}),
        ("--industry-nation", {"dest": "lq.industry_nation", "type": float}),
        ("--employment-nation", {"dest": "lq.employment_nation", "type": float}),
        ("--csv", {"dest": "lq.csv"}),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    raw = vars(args)
    command = raw.pop("command")
    config_path = raw.pop("config") or os.environ.get(CONFIG_ENV_VAR)
    overrides = {}
    for key, value in raw.items():
        if value is None:
            continue
        if key == "variables":
            overrides[key] = [v.strip() for v in value.split(",") if v.strip()]
        else:
            overrides[key] = value
    try:
        config = parse_config(config_path, overrides)
        return execute(config, command)
    except VecmkitError as exc:
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
