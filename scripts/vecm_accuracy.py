"""Accuracy of fit_vecm's regression against an iteratively refined reference.

For each of the benchmark's seeded 69x6 study panels (k=2, r=2) the script
takes the fit's own normalized beta, builds the regression of z0 = dX_t on
[z1 beta, dX_{t-1}, 1] from the levels, and refines its least-squares
solution on the augmented system [I A; A' 0][r; x] = [b; 0] (Bjorck 1967),
with every residual formed in np.longdouble (80-bit extended on x86-64;
where longdouble is plain double, the reference is no better than the
fit). It prints, per coefficient
block (alpha, Gamma_1, the constant), the median and the worst over the
panels of the fit's largest error relative to the block's largest
reference entry, and the worst over all blocks.

    python3 scripts/vecm_accuracy.py [--panels 200] [--seed 1]

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

LAGS, RANK, SWEEPS = 2, 2, 4


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


def block_errors(frame: vk.Frame) -> dict[str, float]:
    fit = vk.fit_vecm(frame, LAGS, RANK)
    x, t = frame.values, len(frame)
    dx = np.diff(x, axis=0)
    z0 = dx[LAGS - 1 :]
    lags = [dx[LAGS - 1 - i : t - 1 - i] for i in range(1, LAGS)]
    design = np.column_stack([x[LAGS - 1 : t - 1] @ fit.beta, *lags, np.ones(t - LAGS)])
    ref = refined_lstsq(design, z0)
    k = frame.n_columns
    blocks = {
        "alpha": (fit.alpha, ref[:RANK].T),
        "gamma_1": (fit.gammas[0], ref[RANK : RANK + k].T),
        "const": (fit.const, ref[-1]),
    }
    return {
        name: float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        for name, (got, want) in blocks.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--panels", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    errors = [block_errors(frame) for frame in inputs.study_pool(args.seed, args.panels)]
    print(f"{args.panels} panels (seed {args.seed}): block, median and worst relative error")
    for name in errors[0]:
        column = [e[name] for e in errors]
        print(f"{name:8s} {np.median(column):.2e} {max(column):.2e}")
    print(f"worst    {max(max(e.values()) for e in errors):.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
