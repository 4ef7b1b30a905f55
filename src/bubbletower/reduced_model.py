"""The finite-dimensional reduced functional, its critical point and the predicted tower.

The tower is parameterized by k positive scales Lambda.  Spike locations on
the line follow from (Lambda, epsilon); the reduced functional collects the
order-epsilon part of the ansatz energy.  Its unique critical point gives
closed-form spike spacings, amplitudes and an energy expansion that the
discretized modules are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WindowViolationError
from .profiles import ModelParams, Regime
from .quadrature import EnergyConstants

__all__ = [
    "TowerConfig",
    "EnergyBreakdown",
    "spike_locations",
    "reduced_functional",
    "reduced_functional_grad",
    "reduced_functional_hess_diag",
    "critical_scales",
    "tower_amplitudes",
    "predicted_tower",
    "energy_expansion",
]


@dataclass(frozen=True)
class TowerConfig:
    """Scales Lambda, spike locations xi and amplitudes of one run, as read-only copies."""

    lambdas: np.ndarray
    xi: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        for name in ("lambdas", "xi", "alpha"):
            object.__setattr__(self, name, np.array(getattr(self, name)))
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Additive pieces of the predicted ansatz energy."""

    total: float
    leading: float     # k * a1
    psi_term: float    # epsilon * Psi_k(Lambda)
    a4_term: float     # k * epsilon * beta * a4
    log_term: float    # the eps*log(eps) term


def _check_lambdas(lambdas, k):
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (k,):
        raise ValueError(f"expected {k} scale parameters, got shape {lam.shape}")
    if np.any(lam <= 0.0):
        raise ValueError("all scale parameters must be positive")
    return lam


def spike_locations(lambdas, epsilon: float, params: ModelParams) -> np.ndarray:
    """Spike locations xi(Lambda): first at log(1/eps)/gap, then gaps of log(1/eps).

    xi_1 = -log(eps)/gap - log(Lambda_1), gap = p*-q (sub) or q-p* (super),
    may have either sign.  Then xi_{i+1} - xi_i = -log(eps) - log(Lambda_{i+1}),
    positive exactly when eps < eps_max = 1/max_{i>=2} Lambda_i, which
    WindowViolationError names otherwise; one spike is never refused.
    """
    lam = _check_lambdas(lambdas, params.k)
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1) to place spikes")
    log_eps = math.log(epsilon)
    xi = np.empty(params.k)
    xi[0] = -log_eps / params.exponent_gap - math.log(lam[0])
    for i in range(1, params.k):
        xi[i] = xi[i - 1] - log_eps - math.log(lam[i])
    if np.any(np.diff(xi) <= 0.0):
        raise WindowViolationError(
            f"epsilon={epsilon:g} too large: spike locations not increasing; "
            f"they increase for epsilon below {1.0 / np.max(lam[1:]):.4g}")
    return xi


def _psi_coefficients(constants: EnergyConstants, params: ModelParams):
    """The regime's pieces of the reduced functional Psi.

    Returns (a_pot V_ref, gap, tail): a_pot is a5 with V_ref = V(0) and
    gap = p*-q sub-q, a5_hat with V_ref = V(inf) and gap = q-p* super-q;
    tail[i-2] = (k-i+1) a3 is the coefficient of log(Lambda_i), i = 2..k.
    """
    a_pot = constants.require("a5" if params.regime is Regime.SUB_Q else "a5_hat")
    tail = (params.k - np.arange(2, params.k + 1) + 1) * constants.a3
    return a_pot * params.v_ref, params.exponent_gap, tail


def reduced_functional(lambdas, constants: EnergyConstants, params: ModelParams) -> float:
    """Value of the reduced functional at Lambda.

    Sub-q: a3 k log(L1) + a5 V(0) L1^{p*-q} + sum_{i>=2} [(k-i+1) a3 log(Li) - a2 Li];
    super-q replaces the first potential term by a5_hat V_inf L1^{q-p*}.
    """
    lam = _check_lambdas(lambdas, params.k)
    a_v, gap, tail = _psi_coefficients(constants, params)
    val = constants.a3 * params.k * math.log(lam[0]) + a_v * lam[0] ** gap
    for coeff, lam_i in zip(tail, lam[1:]):
        val += coeff * math.log(lam_i) - constants.a2 * lam_i
    return val


def reduced_functional_grad(lambdas, constants: EnergyConstants,
                            params: ModelParams) -> np.ndarray:
    """Analytic gradient of the reduced functional."""
    lam = _check_lambdas(lambdas, params.k)
    a_v, gap, tail = _psi_coefficients(constants, params)
    g0 = constants.a3 * params.k / lam[0] + a_v * gap * lam[0] ** (gap - 1.0)
    return np.concatenate(([g0], tail / lam[1:] - constants.a2))


def reduced_functional_hess_diag(lambdas, constants: EnergyConstants,
                                 params: ModelParams) -> np.ndarray:
    """Diagonal of the (diagonal) Hessian of the reduced functional."""
    lam = _check_lambdas(lambdas, params.k)
    a_v, gap, tail = _psi_coefficients(constants, params)
    d0 = (-constants.a3 * params.k / lam[0] ** 2
          + a_v * gap * (gap - 1.0) * lam[0] ** (gap - 2.0))
    return np.concatenate(([d0], -tail / lam[1:] ** 2))


def critical_scales(constants: EnergyConstants, params: ModelParams) -> np.ndarray:
    """The unique maximizer Lambda* of the reduced functional.

    Lambda_1* = [-a3 k / (a_pot V_ref gap)]^{1/gap} and
    Lambda_i* = (k-i+1) a3/a2 for i >= 2.  Requires the regime's sign
    condition on the potential; WindowViolationError if Lambda_1* overflows.
    """
    params.check_hypotheses()
    a_v, gap, tail = _psi_coefficients(constants, params)
    try:
        lam1 = (-constants.a3 * params.k / (a_v * gap)) ** (1.0 / gap)
    except OverflowError:
        raise WindowViolationError(f"Lambda_1* overflows at exponent gap {gap:.3g}") from None
    return np.concatenate(([lam1], tail / constants.a2))


def tower_amplitudes(lambda_star, constants: EnergyConstants,
                     params: ModelParams) -> np.ndarray:
    """Amplitudes alpha_j of the tower built from the critical scales.

    In the sub-q regime the j-th amplitude is the inverse running product
    of the critical scales (alpha_j * prod_{l<=j} Lambda_l* = 1), matching
    exp(+xi_j); in the super-q regime it is the forward product, matching
    exp(-xi_j) for the flat tower.
    """
    lam = _check_lambdas(lambda_star, params.k)
    prod = np.cumprod(lam)
    return 1.0 / prod if params.regime is Regime.SUB_Q else prod


def predicted_tower(params: ModelParams, constants: EnergyConstants) -> TowerConfig:
    """Convenience bundle: Lambda*, xi(Lambda*), alpha at the given epsilon."""
    lam = critical_scales(constants, params)
    xi = spike_locations(lam, params.epsilon, params)
    alpha = tower_amplitudes(lam, constants, params)
    return TowerConfig(lambdas=lam, xi=xi, alpha=alpha)


def energy_expansion(lambdas, epsilon: float, constants: EnergyConstants,
                     params: ModelParams) -> EnergyBreakdown:
    """Predicted ansatz energy: k a1 + (order-eps coefficient) + a4 + log terms.

    The order-eps coefficient follows from the exact translation identity
    int exp(eps x) U(x-xi)^{p+1} = exp(eps xi) * const: the nonlinear weight
    contributes -eps * a3 * sum(xi_i) in both regimes, which gives the a3
    log(Lambda) terms of reduced_functional and a +a3 eps log(eps) / gap
    term for k = 1.  The a4 term is linear in p - p* = s eps, so it carries
    the sign s of the regime.
    """
    lam = _check_lambdas(lambdas, params.k)
    k = params.k
    gap = params.exponent_gap
    leading = k * constants.a1
    psi_term = epsilon * reduced_functional(lam, constants, params)
    a4_term = params.ef_sign * k * epsilon * params.beta * constants.a4
    log_coeff = -constants.a3 * k / (2.0 * gap) * ((1.0 - k) * gap - 2.0)
    log_term = log_coeff * epsilon * math.log(epsilon)
    return EnergyBreakdown(total=leading + psi_term + a4_term + log_term,
                           leading=leading, psi_term=psi_term,
                           a4_term=a4_term, log_term=log_term)

