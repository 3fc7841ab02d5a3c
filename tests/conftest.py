import dataclasses
import json

import numpy as np
import pytest

import vecmkit as vk
from vecmkit import vecm
from vecmkit.formatting import to_jsonable


def make_frame(values, start="2001Q1", names=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1 and values.shape[1] > 1 and names is None:
        values = values.T
    if names is None:
        names = tuple(f"x{i + 1}" for i in range(values.shape[1]))
    return vk.Frame(vk.parse_quarter(start), tuple(names), values)


def assert_arrays_survive_json(record):
    """Every array field of ``record``, and every array of a tuple field,
    reads back bit for bit from the JSON text of its artifact."""
    payload = json.loads(json.dumps(to_jsonable(record), indent=2, sort_keys=True))
    checked = 0
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, np.ndarray):
            pairs = [(payload[f.name], value)]
        elif isinstance(value, tuple) and all(isinstance(v, np.ndarray) for v in value):
            pairs = zip(payload[f.name], value)
        else:
            continue
        for encoded, array in pairs:
            assert np.array(encoded).tobytes() == array.tobytes(), f.name
            checked += 1
    assert checked


def twin(frame):
    """An equal frame built apart, which shares no kept work with ``frame``."""
    return vk.Frame(frame.start, frame.names, np.array(frame.values))


def simulate_vecm(alpha, beta, gammas, const, noise_chol, t, rng, burn=60, x0=None):
    """Iterate dX_t = sum Gamma_i dX_{t-i} + alpha beta' X_{t-1} + mu + e_t."""
    k = beta.shape[0]
    n_g = len(gammas)
    total = t + burn
    x = np.zeros((total, k)) if x0 is None else np.tile(np.asarray(x0, float), (total, 1))
    pi = alpha @ beta.T
    for s in range(1, total):
        dx = pi @ x[s - 1] + const + noise_chol @ rng.standard_normal(k)
        for i in range(1, n_g + 1):
            if s - 1 - i >= 0:
                dx += gammas[i - 1] @ (x[s - i] - x[s - 1 - i])
        x[s] = x[s - 1] + dx
    return x[burn:]


def simulate_var(coef_matrices, const, noise_chol, t, rng, burn=60, x0=None):
    k = const.size
    p = len(coef_matrices)
    total = t + burn + p
    x = np.zeros((total, k)) if x0 is None else np.tile(np.asarray(x0, float), (total, 1))
    for s in range(p, total):
        val = const + noise_chol @ rng.standard_normal(k)
        for i, a in enumerate(coef_matrices, start=1):
            val += a @ x[s - i]
        x[s] = val
    return x[burn + p :]


def random_stable_var1(rng, k=2, max_radius=0.9):
    """Random K x K matrix with spectral radius below max_radius."""
    while True:
        a = rng.standard_normal((k, k)) * 0.6
        radius = np.max(np.abs(np.linalg.eigvals(a)))
        if 0.05 < radius < max_radius:
            return a


def random_stable_var(rng, k, p, radius=0.9):
    """p random K x K lag matrices whose companion matrix has spectral
    radius ``radius``: scaling each A_i by c^i scales every root by c."""
    mats = [rng.standard_normal((k, k)) * 0.5 for _ in range(p)]
    comp = np.vstack([np.hstack(mats), np.eye(k * (p - 1), k * p)])
    c = radius / np.max(np.abs(np.linalg.eigvals(comp)))
    return tuple(a * c**i for i, a in enumerate(mats, start=1))


def random_spd(rng, k=2, scale=1.0):
    m = rng.standard_normal((k, k))
    return scale * (m @ m.T + k * np.eye(k) * 0.1)


def well_specified_vecm_fit(rng, k, r, n_gammas=1, start="2001Q1"):
    """Directly constructed VECM fit with exactly k - r unit roots.

    beta has orthonormal columns and alpha = -beta diag(d) with d in
    (0.2, 0.8), so the error-correction dynamics are stable in the
    cointegrating directions and the common trends stay on the unit circle.
    """
    q, _ = np.linalg.qr(rng.standard_normal((k, r)))
    d = rng.uniform(0.25, 0.75, size=r)
    beta_raw = q
    alpha = -beta_raw @ np.diag(d)
    gammas = tuple(rng.standard_normal((k, k)) * 0.05 for _ in range(n_gammas))
    lags = n_gammas + 1
    pivot = vk.vecm._first_independent_rows(beta_raw, r)
    beta = beta_raw @ np.linalg.inv(beta_raw[list(pivot), :])
    alpha = alpha @ beta_raw[list(pivot), :].T  # keep Pi = alpha_raw beta_raw'
    sigma = random_spd(rng, k, scale=0.1)
    t_eff = 40
    return vk.VecmFit(
        rank=r,
        names=tuple(f"x{i + 1}" for i in range(k)),
        lags=lags,
        alpha=alpha,
        beta=beta,
        gammas=gammas,
        const=rng.standard_normal(k) * 0.1,
        residuals=np.zeros((t_eff, k)),
        sigma=sigma,
        sample_start=vk.parse_quarter(start),
        n_sample=t_eff + lags,
        tail=rng.standard_normal((lags, k)),
        beta_pivot=pivot,
    )


def cointegrated_panel(seed=7, t=69, noise=0.25):
    """K=6, r=2 panel with the default schema names, 2001Q1 start."""
    rng = np.random.default_rng(seed)
    k = 6
    beta = np.zeros((k, 2))
    beta[0, 0], beta[1, 0] = 1.0, -1.0
    beta[2, 1], beta[3, 1] = 1.0, -0.5
    alpha = np.zeros((k, 2))
    alpha[0, 0], alpha[1, 0] = -0.3, 0.2
    alpha[2, 1], alpha[3, 1] = -0.25, 0.15
    gammas = (0.15 * np.eye(k),)
    const = np.zeros(k)
    data = simulate_vecm(alpha, beta, gammas, const, noise * np.eye(k), t, rng, x0=np.full(k, 10.0))
    return vk.Frame(vk.parse_quarter("2001Q1"), vk.DEFAULT_SCHEMA, data)


@pytest.fixture(scope="session")
def panel69():
    return cointegrated_panel()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def cold_start():
    """Every test starts with no shared work kept on any frame."""
    vecm._kept.clear()
