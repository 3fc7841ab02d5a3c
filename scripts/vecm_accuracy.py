"""Accuracy of fit_vecm's regression and of the VAR recursion it feeds.

Two shapes, both from the benchmark's seeded generators: the study shape
(69x6 panels, k=2, r=2) and the rolling shape (expanding windows of 800x12
panels ending at origins 400..792, k=4, r=4). For each frame the script
takes the fit's own normalized beta, builds the regression of z0 = dX_t on
[z1 beta, dX_{t-1} .. dX_{t-k+1}, 1] from the levels, and refines its
least-squares solution on the augmented system [I A; A' 0][r; x] = [b; 0]
(Bjorck 1967), with every residual formed in np.longdouble (80-bit extended
on x86-64; where longdouble is plain double, the reference is no better
than the fit). Per shape it prints, per coefficient block (alpha, each
Gamma_i, the constant), the median and the worst over the frames of the
fit's largest error relative to the block's largest reference entry, and
the median and the worst over all blocks.

On the study panels it also checks the two propagations of each fit's
levels VAR (``vecm_to_levels_var``) over HORIZON steps, ``forecast_vecm``
and the orthogonalized MA stack Phi_h P that ``orthogonalized_irfs``
slices, and the stage-2 forecast of ``run_three_stage`` (factor
SHOCK_FACTOR), whose drive carries the shocked exogenous path. On the
rolling shape it checks ``forecast_vecm`` over ROLLING_HOLDOUT steps. Each
is compared with the same fit's recursion run as a per-lag loop in
np.longdouble (P, the fit's Cholesky factor, is shared). The study
propagations have K p of 5 to 12 over 20 steps, so ``var._recursion``
evaluates them by doubling; the rolling one has K p = 48 over 8 steps and
takes the step loop. The script prints the median and the worst over the
frames of the largest error relative to the largest reference entry, and
exits 1 when any worst exceeds RECURSION_BOUND.

On the rolling shape it runs ``lag_order_selection(frame, ROLLING_MAX_LAG)``
before each fit, as the benchmark's rolling backtest does, so the fits it
judges read R off the lag search's factor. Before that search it runs the
trace test cold, from the QR of [z2 | z0 | z1] itself, and after it again
off the search's factor. It prints the median and the worst gap between the
two sets of trace statistics, relative to the largest cold statistic, and
exits 1 when the worst exceeds SHARED_TRACE_BOUND.

    python3 scripts/vecm_accuracy.py [--panels 200] [--origins 100] [--seed 1]

It imports vecmkit from this checkout's ``src`` and the panel generator
from ``bench/inputs.py``. It is not a tier-1 test.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402
import vecmkit as vk  # noqa: E402

SWEEPS = 4
STUDY_LAGS, STUDY_RANK = 2, 2
ROLLING_LAGS, ROLLING_RANK = 4, 4
ROLLING_MAX_LAG = 6
ROLLING_PANELS = 4
ROLLING_ORIGINS = range(400, 793)
ROLLING_HOLDOUT = 8
HORIZON = 20
TARGET = "exchange_rate"
SHOCK_FACTOR = 1.1
RECURSION_BOUND = 1e-13
SHARED_TRACE_BOUND = 1e-10


def refined_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solution of a x = b, refined on the augmented system
    with residuals accumulated in extended precision."""
    q, r = np.linalg.qr(a)
    al = a.astype(np.longdouble)
    x = np.linalg.solve(r, q.T @ b).astype(np.longdouble)
    res = b - al @ x
    for _ in range(SWEEPS):
        f = (b - res - al @ x).astype(float)  # first block: b - r - A x
        g = (-(al.T @ res)).astype(float)  # second block: 0 - A' r
        h = np.linalg.solve(r.T, g)
        d = q.T @ f
        dx = np.linalg.solve(r, d - h)
        dr = q @ h + f - q @ d
        x += dx
        res += dr
    return x


def block_errors(frame: vk.Frame, lags: int, rank: int) -> dict[str, float]:
    fit = vk.fit_vecm(frame, lags, rank)
    x, t = frame.values, len(frame)
    dx = np.diff(x, axis=0)
    z0 = dx[lags - 1 :]
    lagged = [dx[lags - 1 - i : t - 1 - i] for i in range(1, lags)]
    design = np.column_stack([x[lags - 1 : t - 1] @ fit.beta, *lagged, np.ones(t - lags)])
    ref = refined_lstsq(design, z0)
    k = frame.n_columns
    blocks = {"alpha": (fit.alpha, ref[:rank].T)}
    for i, gamma in enumerate(fit.gammas):
        blocks[f"gamma_{i + 1}"] = (gamma, ref[rank + k * i : rank + k * (i + 1)].T)
    blocks["const"] = (fit.const, ref[-1])
    return {
        name: float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        for name, (got, want) in blocks.items()
    }


def extended_recursion(var: vk.VarFit, start: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """y_h = drive_h + sum_i A_i y_{h-i}, one lag at a time in np.longdouble,
    from the p rows of ``start`` (oldest first); rows are vectors or blocks."""
    mats = [a.astype(np.longdouble) for a in var.coef_matrices]
    history = list(start.astype(np.longdouble))
    for step in drive.astype(np.longdouble):
        y = step.copy()
        for i, a in enumerate(mats, start=1):
            y += a @ history[-i]
        history.append(y)
    return np.array(history[var.p :])


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def forecast_error(fit: vk.VecmFit, horizon: int) -> float:
    """Largest error of ``forecast_vecm`` against its extended-precision
    reference, relative to the reference's largest entry."""
    var = vk.vecm_to_levels_var(fit)
    want = extended_recursion(var, var.tail, np.tile(var.const, (horizon, 1)))
    return relative_error(vk.forecast_vecm(fit, horizon).values, want)


def stage2_error(frame: vk.Frame) -> float:
    """Largest error of the shock pipeline's stage-2 forecast against the
    stage-2 VAR's recursion in np.longdouble, driven by its constant and the
    shocked target differences, relative to the reference's largest entry.
    The VAR is refitted here as the pipeline fits it."""
    scenario = vk.ShockScenario(
        TARGET, SHOCK_FACTOR, frame.end.next(), HORIZON, STUDY_LAGS, STUDY_RANK
    )
    result = vk.run_three_stage(frame, scenario)
    d_frame = vk.first_difference(frame)
    fit = vk.fit_var(
        d_frame.drop(TARGET), result.audit["stage2"]["lag_order"], exog=d_frame.select([TARGET])
    )
    path = np.diff(np.concatenate([frame.column(TARGET)[-1:], result.shocked_path.values]))
    ld = np.longdouble
    drive = fit.const.astype(ld) + np.outer(path.astype(ld), fit.exog_coef[:, 0].astype(ld))
    want = extended_recursion(fit, fit.tail, drive)
    return relative_error(result.stage2_forecast.values, want)


def recursion_errors(frame: vk.Frame) -> dict[str, float]:
    """Largest error of the forecast, of the Phi_h P stack and of the
    stage-2 forecast, each relative to the largest entry of its
    extended-precision reference."""
    fit = vk.fit_vecm(frame, STUDY_LAGS, STUDY_RANK)
    var = vk.vecm_to_levels_var(fit)
    k = var.n_vars
    stack = np.empty((HORIZON + 1, k, k))
    for i, impulse in enumerate(var.names):
        for j, irf in enumerate(vk.orthogonalized_irfs(var, HORIZON, impulse).values()):
            stack[:, j, i] = irf.values
    impulse = np.zeros((HORIZON + 1, k, k))
    impulse[0] = np.eye(k)
    phis = extended_recursion(var, np.zeros((var.p, k, k)), impulse)
    want_stack = phis @ vk.cholesky_lower(var.sigma).astype(np.longdouble)
    return {
        "forecast": forecast_error(fit, HORIZON),
        "phi_p": relative_error(stack, want_stack),
        "stage2": stage2_error(frame),
    }


def shared_trace_gap(frame: vk.Frame) -> float:
    """Largest gap between the trace statistics read off the lag search's
    factor and those from a cold concentration, run on an equal frame built
    apart, relative to the largest cold statistic. The search stays kept
    with ``frame``, so the next fit of the frame reads its factor too."""
    twin = vk.Frame(frame.start, frame.names, np.array(frame.values))
    cold = vk.johansen_trace(twin, ROLLING_LAGS).trace_stats
    vk.lag_order_selection(frame, ROLLING_MAX_LAG)
    shared = vk.johansen_trace(frame, ROLLING_LAGS).trace_stats
    return float(np.max(np.abs(shared - cold)) / np.max(np.abs(cold)))


def rolling_frames(seed: int, n: int) -> list[vk.Frame]:
    """n expanding windows, cycling over ROLLING_PANELS panels, each ending
    at a seeded origin drawn from ROLLING_ORIGINS."""
    panels = inputs.rolling_panels(seed, ROLLING_PANELS)
    origins = np.random.default_rng(seed).choice(np.array(ROLLING_ORIGINS), size=n)
    return [panels[i % ROLLING_PANELS].head(int(o)) for i, o in enumerate(origins)]


def report(title: str, errors: list[dict[str, float]]) -> float:
    """Print the median and the worst error of each block and of all
    blocks over the frames; return the worst."""
    print(f"{title}: block, median and worst relative error")
    for name in errors[0]:
        column = [e[name] for e in errors]
        print(f"{name:8s} {np.median(column):.2e} {max(column):.2e}")
    every = [v for e in errors for v in e.values()]
    print(f"all      {np.median(every):.2e} {max(every):.2e}")
    return max(every)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--panels", type=int, default=200, help="study panels")
    parser.add_argument("--origins", type=int, default=100, help="rolling origins")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    study = inputs.study_pool(args.seed, args.panels)
    report(
        f"study, {args.panels} 69x6 panels (k={STUDY_LAGS}, r={STUDY_RANK}, seed {args.seed})",
        [block_errors(frame, STUDY_LAGS, STUDY_RANK) for frame in study],
    )
    worst = report(
        f"study recursion, {HORIZON} steps", [recursion_errors(frame) for frame in study]
    )
    gaps, errors, forecasts = [], [], []
    for frame in rolling_frames(args.seed, args.origins):
        gaps.append(shared_trace_gap(frame))
        errors.append(block_errors(frame, ROLLING_LAGS, ROLLING_RANK))
        fit = vk.fit_vecm(frame, ROLLING_LAGS, ROLLING_RANK)
        forecasts.append({"forecast": forecast_error(fit, ROLLING_HOLDOUT)})
    report(
        f"rolling, {args.origins} origins of 800x12 panels (k={ROLLING_LAGS}, "
        f"r={ROLLING_RANK}, after lag_order_selection to {ROLLING_MAX_LAG}, seed {args.seed})",
        errors,
    )
    worst = max(worst, report(f"rolling recursion, {ROLLING_HOLDOUT} steps", forecasts))
    print(
        f"rolling trace statistics, shared against cold factor: median and worst "
        f"relative gap {np.median(gaps):.2e} {max(gaps):.2e}"
    )
    code = 0
    if worst > RECURSION_BOUND:
        print(f"recursion error {worst:.2e} exceeds {RECURSION_BOUND:.0e}", file=sys.stderr)
        code = 1
    if max(gaps) > SHARED_TRACE_BOUND:
        print(
            f"shared trace statistic gap {max(gaps):.2e} exceeds {SHARED_TRACE_BOUND:.0e}",
            file=sys.stderr,
        )
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
