"""Seeded input generators for the benchmark.

Panels come from a cointegrated VECM simulator,
dX_t = alpha beta' X_{t-1} + sum_i Gamma_i dX_{t-i} + e_t, run for many
panels at once. The library only ever sees the finished frames; the same
seed always gives the same panels.
"""

from __future__ import annotations

import numpy as np

import vecmkit as vk

BURN_IN = 60
START = "2001Q1"
LEVEL = 10.0
NOISE_SD = 0.25


def simulate_vecm(rng, alpha, beta, gammas, n_panels, t):
    """n_panels x t x K levels from one VECM, after BURN_IN discarded steps."""
    k = beta.shape[0]
    total = t + BURN_IN
    pi_t = (alpha @ beta.T).T
    noise = NOISE_SD * rng.standard_normal((n_panels, total, k))
    x = np.empty((n_panels, total, k))
    x[:, 0] = LEVEL
    for s in range(1, total):
        dx = x[:, s - 1] @ pi_t + noise[:, s]
        for i, gamma in enumerate(gammas, start=1):
            if s - 1 - i >= 0:
                dx += (x[:, s - i] - x[:, s - 1 - i]) @ gamma.T
        x[:, s] = x[:, s - 1] + dx
    return x[:, BURN_IN:]


def study_pool(seed: int, n_panels: int) -> list[vk.Frame]:
    """Distinct K=6, r=2 panels in DEFAULT_SCHEMA order starting 2001Q1.

    The two cointegrating relations tie output to price and employment to
    wages, the shape of the paper's six-variable study.
    """
    k = len(vk.DEFAULT_SCHEMA)
    beta = np.zeros((k, 2))
    beta[0, 0], beta[1, 0] = 1.0, -1.0
    beta[2, 1], beta[3, 1] = 1.0, -0.5
    alpha = np.zeros((k, 2))
    alpha[0, 0], alpha[1, 0] = -0.3, 0.2
    alpha[2, 1], alpha[3, 1] = -0.25, 0.15
    gammas = (0.15 * np.eye(k),)
    data = simulate_vecm(np.random.default_rng(seed), alpha, beta, gammas, n_panels, 69)
    start = vk.parse_quarter(START)
    return [vk.Frame(start, vk.DEFAULT_SCHEMA, panel) for panel in data]


def rolling_panels(seed: int, n_panels: int) -> list[vk.Frame]:
    """800x12, r=4 panels: orthonormal beta, alpha = -beta diag(d), d in (0.25, 0.75).

    The error-correction directions are stable and the K - r common trends
    stay on the unit circle. K=12 is the largest K the 5% trace table
    (TRACE_CRIT_5PCT, K - r <= 12) covers; K=13 raises DomainError by design.
    """
    t, k, r = 800, 12, 4
    rng = np.random.default_rng(seed)
    beta, _ = np.linalg.qr(rng.standard_normal((k, r)))
    alpha = -beta @ np.diag(rng.uniform(0.25, 0.75, size=r))
    gammas = (0.15 * np.eye(k),)
    data = simulate_vecm(rng, alpha, beta, gammas, n_panels, t)
    start = vk.parse_quarter(START)
    names = tuple(f"x{i + 1:02d}" for i in range(k))
    return [vk.Frame(start, names, panel) for panel in data]
