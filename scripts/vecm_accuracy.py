"""Accuracy of fit_vecm's regression against an iteratively refined reference.

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


def rolling_frames(seed: int, n: int) -> list[vk.Frame]:
    """n expanding windows, cycling over ROLLING_PANELS panels, each ending
    at a seeded origin drawn from ROLLING_ORIGINS."""
    panels = inputs.rolling_panels(seed, ROLLING_PANELS)
    origins = np.random.default_rng(seed).choice(np.array(ROLLING_ORIGINS), size=n)
    return [panels[i % ROLLING_PANELS].head(int(o)) for i, o in enumerate(origins)]


def report(title: str, frames: list[vk.Frame], lags: int, rank: int) -> None:
    errors = [block_errors(frame, lags, rank) for frame in frames]
    print(f"{title}: block, median and worst relative error")
    for name in errors[0]:
        column = [e[name] for e in errors]
        print(f"{name:8s} {np.median(column):.2e} {max(column):.2e}")
    every = [v for e in errors for v in e.values()]
    print(f"all      {np.median(every):.2e} {max(every):.2e}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--panels", type=int, default=200, help="study panels")
    parser.add_argument("--origins", type=int, default=100, help="rolling origins")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    report(
        f"study, {args.panels} 69x6 panels (k={STUDY_LAGS}, r={STUDY_RANK}, seed {args.seed})",
        inputs.study_pool(args.seed, args.panels),
        STUDY_LAGS,
        STUDY_RANK,
    )
    report(
        f"rolling, {args.origins} origins of 800x12 panels "
        f"(k={ROLLING_LAGS}, r={ROLLING_RANK}, seed {args.seed})",
        rolling_frames(args.seed, args.origins),
        ROLLING_LAGS,
        ROLLING_RANK,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
