"""The three benchmark workloads: seeded set-up, one unit of work, and the
check each unit's output must pass.

A workload is built once (its set-up), then ``unit(i)`` runs unit i and
returns its output, and ``check(i, output)`` raises ``CheckFailed`` when the
output is wrong. ``inprocess_unit`` is the form the traced run wraps; it is
``unit`` itself except for cli69, whose timed form is a fresh subprocess.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

import vecmkit as vk

import inputs

TARGET = "exchange_rate"
SHOCK_FACTORS = (1.00, 1.05, 1.10, 1.15, 1.20)
HORIZON = 20

STUDY_POOL = 4096
ROLLING_PANELS = 16
ROLLING_ORIGINS = range(400, 793)
ROLLING_HOLDOUT = 8


class CheckFailed(Exception):
    """A unit's output is not what the library promises."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _finite(name: str, *arrays) -> None:
    for a in arrays:
        _require(np.all(np.isfinite(np.asarray(a, dtype=float))), f"{name} is not finite")


def _zero_impact_names(names) -> tuple[str, ...]:
    """Variables ordered before the target: the Cholesky ordering forces a
    zero impact response in each of them."""
    return tuple(names[: names.index(TARGET)])


class Workload:
    """Set-up happens in ``__init__``; a unit is ``unit(i)``."""

    name = ""
    cycle = 1  # units in one round of distinct unit kinds

    def prepare(self, i: int) -> None:
        """Untimed work before unit i."""

    def inprocess_unit(self, i: int):
        return self.unit(i)


@dataclass
class StudyOutput:
    johansen: vk.JohansenResult
    fit: vk.VecmFit
    lm: list
    normality: vk.NormalityReport
    stability: vk.StabilityReport
    irfs: list
    forecast: vk.Frame
    lags: vk.LagSelectionReport
    shocks: list


class Study69(Workload):
    """The paper's study on a pool of distinct 69x6 rank-2 panels."""

    name = "study69"

    def __init__(self, seed: int, workdir: Path):
        self.pool = inputs.study_pool(seed, STUDY_POOL)

    def unit(self, i: int) -> StudyOutput:
        frame = self.pool[i % len(self.pool)]
        johansen = vk.johansen_trace(frame, 2)
        fit = vk.fit_vecm(frame, 2, 2)
        lm = [vk.lm_autocorrelation(fit.residuals, lag) for lag in (1, 2)]
        normality = vk.normality_suite(fit.residuals, names=frame.names)
        stability = vk.vecm_stability(fit)
        levels = vk.vecm_to_levels_var(fit)
        irfs = [vk.orthogonalized_irf(levels, HORIZON, TARGET, name) for name in frame.names]
        forecast = vk.forecast_vecm(fit, HORIZON)
        lags = vk.lag_order_selection(frame, 4)
        start = frame.end.next()
        shocks = [
            vk.run_three_stage(
                frame,
                vk.ShockScenario(TARGET, factor, start, horizon=HORIZON, vecm_lags=2, rank=2),
            )
            for factor in SHOCK_FACTORS
        ]
        return StudyOutput(johansen, fit, lm, normality, stability, irfs, forecast, lags, shocks)

    def check(self, i: int, out: StudyOutput) -> None:
        lam = out.johansen.eigenvalues
        _require(np.all((lam >= 0) & (lam < 1)), "Johansen eigenvalues outside [0, 1)")
        _require(np.all(np.diff(lam) <= 0), "Johansen eigenvalues do not descend")

        direct = vk.forecast_var(vk.vecm_to_levels_var(out.fit), HORIZON)
        _require(
            out.forecast.start == direct.start
            and np.array_equal(out.forecast.values, direct.values),
            "forecast_vecm differs from forecast_var(vecm_to_levels_var(fit))",
        )

        baseline = out.shocks[0]  # factor 1.00
        _require(
            np.array_equal(
                baseline.shocked_path.values, baseline.stage1_forecast.column(TARGET)
            ),
            "factor-1.00 shocked path differs from the stage-1 forecast",
        )

        zero = _zero_impact_names(out.fit.names)
        for irf in out.irfs:
            if irf.response in zero:
                _require(irf.values[0] == 0.0, f"IRF {TARGET}->{irf.response} impact is not 0")
        for shock in out.shocks:
            for name in zero:
                _require(
                    shock.irfs[name].values[0] == 0.0,
                    f"stage-3 IRF {TARGET}->{name} impact is not 0",
                )

        _finite("Johansen statistics", lam, out.johansen.trace_stats)
        _finite("VECM fit", out.fit.alpha, out.fit.beta, out.fit.const, out.fit.sigma, *out.fit.gammas)
        _finite("LM tests", *[(r.statistic, r.p_value) for r in out.lm])
        _finite("normality suite", *[list(vars(r).values())[1:] for r in out.normality.rows])
        _finite("stability moduli", out.stability.moduli)
        _finite("IRFs", *[irf.values for irf in out.irfs])
        _finite("forecast", out.forecast.values)
        _finite("lag criteria", *[(r.log_likelihood, r.aic, r.hqic, r.sbic, r.fpe) for r in out.lags.rows])
        for shock in out.shocks:
            _finite(
                "shock pipeline",
                shock.stage1_forecast.values,
                shock.shocked_path.values,
                shock.stage2_forecast.values,
                *[irf.values for irf in shock.irfs.values()],
            )


class RollingK12(Workload):
    """Expanding-window backtest over distinct origins of seeded 800x12 panels."""

    name = "rolling_k12"

    def __init__(self, seed: int, workdir: Path):
        self.panels = inputs.rolling_panels(seed, ROLLING_PANELS)
        # A seeded order keeps the mix of short and long windows the same
        # however far a run gets, so throughput does not depend on speed.
        rng = np.random.default_rng(seed)
        self.origins = [rng.permutation(np.array(ROLLING_ORIGINS)) for _ in self.panels]

    def _origin(self, i: int) -> tuple[vk.Frame, int]:
        n = len(ROLLING_ORIGINS)
        p = (i // n) % len(self.panels)
        return self.panels[p], int(self.origins[p][i % n])

    def unit(self, i: int):
        panel, origin = self._origin(i)
        train = panel.head(origin)
        lags = vk.lag_order_selection(train, 6)
        johansen = vk.johansen_trace(train, 4)
        fit = vk.fit_vecm(train, 4, 4)
        forecast = vk.forecast_vecm(fit, ROLLING_HOLDOUT)
        actual = panel.values[origin : origin + ROLLING_HOLDOUT]
        rmse = float(np.sqrt(np.mean((actual - forecast.values) ** 2)))
        return lags, johansen, forecast, rmse

    def check(self, i: int, out) -> None:
        lags, johansen, forecast, rmse = out
        _require(np.all(np.diff(johansen.trace_stats) <= 0), "trace statistics increase")
        _finite("trace statistics", johansen.trace_stats)
        _finite("forecast", forecast.values, rmse)
        _finite("lag criteria", *[(r.log_likelihood, r.aic) for r in lags.rows])


CLI_COMMANDS = (
    "describe", "adf", "lagselect", "johansen", "fit-vec",
    "diagnose", "irf", "forecast", "backtest", "shock",
)


def _expected_artifacts(command: str, names) -> set[str]:
    per_name = {
        "irf": [f"irf_{names[0]}_{n}.csv" for n in names] + ["irf.json"],
        "forecast": ["forecast.json", "forecast.csv"] + [f"forecast_{n}.csv" for n in names],
        "backtest": [f"backtest_{n}.csv" for n in names] + ["backtest.json"],
        "shock": ["stage1_forecast.csv", "shocked_path.csv", "stage2_forecast.csv", "stage3_model.json"]
        + [f"irf_{TARGET}_{n}.csv" for n in names],
    }
    fixed = {
        "describe": ["describe.json", "describe.csv"],
        "adf": ["adf.json", "adf.csv"],
        "lagselect": ["lagselect.json", "lagselect.csv"],
        "johansen": ["johansen.json", "johansen.csv"],
        "fit-vec": ["vecm_fit.json", "cointegration.csv"],
        "diagnose": ["diagnose.json", "lm.csv", "normality.csv", "stability.csv"],
    }
    return {"audit.json", *fixed.get(command, []), *per_name.get(command, [])}


@dataclass
class CliOutput:
    command: str
    exit_code: int
    stderr: str
    maxrss_kb: int = 0


class Cli69(Workload):
    """Fresh `python -m vecmkit.cli` processes on one 69x6 CSV."""

    name = "cli69"
    cycle = len(CLI_COMMANDS)

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.dataset = workdir / "panel69.csv"
        self.outdir = workdir / "out"
        self.stderr_path = workdir / "stderr.txt"
        self.env = child_env()
        workdir.mkdir(parents=True, exist_ok=True)
        vk.write_frame(inputs.study_pool(seed, 1)[0], self.dataset)

    def argv(self, i: int) -> list[str]:
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        return ["--dataset", str(self.dataset), "--output", str(self.outdir), command]

    def prepare(self, i: int) -> None:
        """Untimed: every unit starts from an empty output directory."""
        shutil.rmtree(self.outdir, ignore_errors=True)

    def unit(self, i: int) -> CliOutput:
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "vecmkit.cli", *self.argv(i)],
                stdout=subprocess.DEVNULL,
                stderr=err,
                env=self.env,
            )
            # wait4 gives this child's own peak RSS, which Popen.wait drops.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return CliOutput(CLI_COMMANDS[i % len(CLI_COMMANDS)], proc.returncode, "", usage.ru_maxrss)

    def inprocess_unit(self, i: int) -> CliOutput:
        import vecmkit.cli

        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = vecmkit.cli.main(self.argv(i))
        return CliOutput(CLI_COMMANDS[i % len(CLI_COMMANDS)], code, stderr.getvalue())

    @cached_property
    def reference(self):
        """In-process library results on the same CSV the CLI reads."""
        frame = vk.load_frame(self.dataset)
        return {
            "names": frame.names,
            "trace_stats": vk.johansen_trace(frame, 2).trace_stats,
            "stage1": vk.forecast_vecm(vk.fit_vecm(frame, 2, 2), HORIZON),
        }

    def check(self, i: int, out: CliOutput) -> None:
        if out.exit_code != 0:
            err = out.stderr or self.stderr_path.read_text(encoding="utf-8", errors="replace")
            raise CheckFailed(f"{out.command} exited {out.exit_code}: {err.strip()[-300:]}")
        ref = self.reference
        produced = {p.name for p in self.outdir.iterdir()}
        missing = _expected_artifacts(out.command, ref["names"]) - produced
        _require(not missing, f"{out.command} did not write {sorted(missing)}")
        if out.command == "johansen":
            payload = json.loads((self.outdir / "johansen.json").read_text(encoding="utf-8"))
            _require(
                payload["trace_stats"] == ref["trace_stats"].tolist(),
                "johansen.json trace statistics differ from the library",
            )
        elif out.command == "shock":
            with (self.outdir / "stage1_forecast.csv").open(newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            stage1 = ref["stage1"]
            _require(
                rows[0] == ["quarter", *stage1.names]
                and [r[0] for r in rows[1:]] == [str(q) for q in stage1.quarters()]
                and np.array_equal(np.array([r[1:] for r in rows[1:]], dtype=float), stage1.values),
                "stage1_forecast.csv differs from the library",
            )


WORKLOADS = {w.name: w for w in (Study69, RollingK12, Cli69)}


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src first on the path."""
    env = dict(os.environ)
    src = str(Path(vk.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env

