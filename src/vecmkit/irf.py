"""Moving-average representation and orthogonalized impulse responses.

psi_h is entry (response, impulse) of Phi_h P, where Phi_h are the MA
coefficient matrices of the fitted VAR and P is the Cholesky factor of the
residual covariance, so a unit impulse is one standard deviation of the
orthogonalized shock and the variable ordering of the fit decides the
orthogonalization. The MA matrices come from the one VAR recursion of
``var`` driven by a unit impulse: Phi_0 = I, from p zero blocks. Its rule
picks the evaluation order from K p and the horizon alone: a companion of
width K p <= 16 over at least 10 blocks (horizon >= 9) is propagated by
doubling, every round one product of all the blocks with a power C^(2^r)
of the companion, and anything else step by step, each step one product
of [A_1 .. A_p] with the p blocks before it. The two orders agree to
rounding.

The stack Phi_h P depends only on the fit and the horizon, and a fit never
changes, so it is built once per (fit, horizon), kept read-only on the fit,
and shared by every later call: a loop of ``orthogonalized_irf`` over the
responses factors sigma and runs the MA recursion once, not once per
response. Two threads racing on one fit may both build a stack; they store
equal ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import cholesky_lower
from .var import VarFit, _recursion


def ma_coefficients(fit: VarFit, horizon: int) -> np.ndarray:
    """Phi_0 .. Phi_horizon as one (horizon + 1, K, K) array: Phi_0 = I and
    Phi_h = sum_{i=1..min(h,p)} A_i Phi_{h-i}, the VAR's recursion driven by
    a unit impulse from p zero blocks."""
    if horizon < 0:
        raise DomainError(f"horizon must be >= 0, got {horizon}")
    k = fit.n_vars
    drive = np.zeros((horizon + 1, k, k))
    drive[0] = np.eye(k)
    return _recursion(fit, np.zeros((fit.p, k, k)), drive)


@dataclass(frozen=True)
class IrfResult:
    """One impulse-response path: the response of ``response`` to a
    one-standard-deviation orthogonalized shock in ``impulse`` at steps
    0..horizon, under the Cholesky ordering ``ordering``."""

    horizon: int
    impulse: str
    response: str
    values: np.ndarray  # (horizon + 1,)
    ordering: tuple[str, ...]


def _orthogonalized_stack(fit: VarFit, horizon: int) -> np.ndarray:
    """Phi_h P for h = 0..horizon, kept on the fit; a raising call keeps
    nothing."""
    stacks = fit._irf_stacks
    if horizon not in stacks:
        chol = cholesky_lower(fit.sigma)
        mats = ma_coefficients(fit, horizon) @ chol
        mats.setflags(write=False)
        stacks[horizon] = mats
    return stacks[horizon]


def orthogonalized_irfs(
    fit: VarFit, horizon: int, impulse: str, responses=None
) -> dict[str, IrfResult]:
    """Response paths, over 0..horizon steps, of each variable in
    ``responses`` (every variable of the fit by default) to a
    one-standard-deviation orthogonalized shock in ``impulse``.

    The Cholesky factor and the MA stack are built on the first call for
    this fit and horizon, kept on the fit, and sliced per response.
    """
    responses = fit.names if responses is None else tuple(responses)
    for label, names in (("impulse", (impulse,)), ("response", responses)):
        for name in names:
            if name not in fit.names:
                raise DomainError(f"{label} variable {name!r} is not in the fit: {fit.names}")
    mats = _orthogonalized_stack(fit, horizon)
    i = fit.names.index(impulse)
    return {
        response: IrfResult(
            horizon=horizon,
            impulse=impulse,
            response=response,
            values=mats[:, fit.names.index(response), i].copy(),
            ordering=fit.names,
        )
        for response in responses
    }


def orthogonalized_irf(
    fit: VarFit, horizon: int, impulse: str, response: str
) -> IrfResult:
    """Response path of one variable to a one-standard-deviation
    orthogonalized shock in another, over 0..horizon steps."""
    return orthogonalized_irfs(fit, horizon, impulse, (response,))[response]
