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
levels VAR (``vecm_to_levels_var``) over HORIZON steps: ``forecast_vecm``
and the orthogonalized MA stack Phi_h P that ``orthogonalized_irfs``
slices, each against the same fit's recursion run as a per-lag loop in
np.longdouble (P, the fit's Cholesky factor, is shared). It prints the
median and the worst over the panels of the largest error relative to the
largest reference entry, and exits 1 when either worst exceeds
RECURSION_BOUND.

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
ROLLING_PANELS = 4
ROLLING_ORIGINS = range(400, 793)
HORIZON = 20
RECURSION_BOUND = 1e-13


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


def recursion_errors(frame: vk.Frame) -> dict[str, float]:
    """Largest error of the forecast and of the Phi_h P stack, relative to
    the largest entry of its extended-precision reference."""
    fit = vk.fit_vecm(frame, STUDY_LAGS, STUDY_RANK)
    var = vk.vecm_to_levels_var(fit)
    k = var.n_vars
    forecast = vk.forecast_vecm(fit, HORIZON).values
    want_forecast = extended_recursion(var, var.tail, np.tile(var.const, (HORIZON, 1)))
    stack = np.empty((HORIZON + 1, k, k))
    for i, impulse in enumerate(var.names):
        for j, irf in enumerate(vk.orthogonalized_irfs(var, HORIZON, impulse).values()):
            stack[:, j, i] = irf.values
    impulse = np.zeros((HORIZON + 1, k, k))
    impulse[0] = np.eye(k)
    phis = extended_recursion(var, np.zeros((var.p, k, k)), impulse)
    want_stack = phis @ vk.cholesky_lower(var.sigma).astype(np.longdouble)
    return {
        name: float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        for name, got, want in (
            ("forecast", forecast, want_forecast),
            ("phi_p", stack, want_stack),
        )
    }


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
    report(
        f"rolling, {args.origins} origins of 800x12 panels "
        f"(k={ROLLING_LAGS}, r={ROLLING_RANK}, seed {args.seed})",
        [
            block_errors(frame, ROLLING_LAGS, ROLLING_RANK)
            for frame in rolling_frames(args.seed, args.origins)
        ],
    )
    if worst > RECURSION_BOUND:
        print(f"recursion error {worst:.2e} exceeds {RECURSION_BOUND:.0e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
