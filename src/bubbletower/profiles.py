"""Closed-form profiles, model constants and the Emden-Fowler change of variables.

Everything in this module is exact (no grids): the line profile U, which the
Emden-Fowler substitution makes of the standard bubble, the maps between r > 0
and the line variable x, the inverse transform of a function on the line
to a radial function, and the potential V = a + b r^2/(1+r^2), which the
model reads only in the line variable (ModelParams.omega).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import HypothesisViolationError

__all__ = [
    "Regime",
    "PotentialSpec",
    "ModelParams",
    "critical_exponents",
    "model_constants",
    "profile_U",
    "profile_derivatives",
    "profile_dU",
    "profile_d2U",
    "ef_inverse",
    "ef_x_of_r",
    "ef_r_of_x",
]

# exp() clamp: beyond this the double result is 0 or inf anyway
_EXP_CLIP = 700.0


class Regime(enum.Enum):
    """Position of q relative to p*; ModelParams.regime derives it from q."""

    SUB_Q = "sub"      # p^s < q < p*: concentrating tower, needs V(0) < 0
    SUPER_Q = "super"  # q > p*: flat tower, needs V at infinity < 0

    @property
    def ef_sign(self) -> float:
        """Sign s in r = exp(-s (p*-1) x / 2)."""
        return 1.0 if self is Regime.SUB_Q else -1.0


def critical_exponents(n_dim: int):
    """Return (p_s, p_star) = (N/(N-2), (N+2)/(N-2))."""
    if n_dim < 3:
        raise ValueError(f"dimension must be >= 3, got {n_dim}")
    return n_dim / (n_dim - 2), (n_dim + 2) / (n_dim - 2)


def model_constants(n_dim: int):
    """Return (gamma_N, beta) = ((N(N-2))^{(N-2)/4}, (2/(N-2))^2)."""
    if n_dim < 3:
        raise ValueError(f"dimension must be >= 3, got {n_dim}")
    try:
        gamma = (n_dim * (n_dim - 2.0)) ** ((n_dim - 2.0) / 4.0)
    except OverflowError:
        raise ValueError(
            f"gamma_N = (N(N-2))^((N-2)/4) passes the float range at N = {n_dim}") from None
    beta = (2.0 / (n_dim - 2.0)) ** 2
    return gamma, beta


@dataclass(frozen=True)
class PotentialSpec:
    """Bounded radial potential V(r) = a + b r^2/(1+r^2), held as (a, b).

    V(0) = a and V(inf) = a + b, the two values the constructions read
    (ModelParams.v_ref); a constant c is (c, 0).  The model reads V only in
    the line variable, where r^2 = e^{-cx} (ModelParams.omega).
    """

    a: float
    b: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.v_inf))):
            raise ValueError(f"potential values must be finite, got a={self.a:g}, b={self.b:g}")

    @property
    def v0(self) -> float:
        return self.a

    @property
    def v_inf(self) -> float:
        return self.a + self.b

    @staticmethod
    def constant(c: float) -> "PotentialSpec":
        return PotentialSpec(c)

    @staticmethod
    def rational(a: float, b: float) -> "PotentialSpec":
        """V(r) = a + b r^2/(1+r^2); V(0) = a, V(inf) = a + b."""
        return PotentialSpec(a, b)


@dataclass(frozen=True)
class ModelParams:
    """Dimension, exponents, tower height and potential; the regime follows from q."""

    n_dim: int
    q: float
    epsilon: float
    k: int = 1
    potential: PotentialSpec = PotentialSpec(0.0)

    def __post_init__(self):
        if self.n_dim < 3:
            raise ValueError("dimension must be >= 3")
        if self.k < 1:
            raise ValueError("tower height k must be >= 1")
        # epsilon = 0 is admitted: the unperturbed problem is used as an oracle
        if not (0.0 <= self.epsilon < 1.0):
            raise ValueError("epsilon must lie in [0, 1)")
        p_s, p_star = critical_exponents(self.n_dim)
        if not (p_s < self.q and self.q != p_star):
            raise ValueError(f"q must exceed {p_s:g} and differ from "
                             f"p* = {p_star:g}, got q={self.q:g}")

    @staticmethod
    def make(n_dim: int, q: float, epsilon: float, k: int = 1,
             potential: PotentialSpec = PotentialSpec(0.0)) -> "ModelParams":
        """Build params; the potential defaults to V = 0."""
        return ModelParams(n_dim, q, epsilon, k, potential)

    @property
    def regime(self) -> Regime:
        """SUB_Q for q < p*, SUPER_Q for q > p*."""
        return Regime.SUB_Q if self.q < self.p_star else Regime.SUPER_Q

    @property
    def p_star(self) -> float:
        return (self.n_dim + 2) / (self.n_dim - 2)

    @property
    def p(self) -> float:
        """The perturbed power: p* + eps (sub-q) or p* - eps (super-q).

        With p - p* = s eps the weight r^{m+2-mp} of u^p, read in the line
        variable, is exp(+eps x) in both regimes.  In the super-q regime
        p = p* + eps would make both powers focusing and supercritical, and
        the Pohozaev identity would then exclude every decaying solution.
        """
        return self.p_star + self.ef_sign * self.epsilon

    @property
    def gamma(self) -> float:
        return model_constants(self.n_dim)[0]

    @property
    def beta(self) -> float:
        return model_constants(self.n_dim)[1]

    @property
    def ef_sign(self) -> float:
        return self.regime.ef_sign

    @property
    def exponent_gap(self) -> float:
        """Positive gap |p* - q| oriented by regime (p*-q sub, q-p* super)."""
        return self.p_star - self.q if self.regime is Regime.SUB_Q else self.q - self.p_star

    @property
    def v_ref(self) -> float:
        """The potential value entering the reduced functional: V(0) or V(inf)."""
        return self.potential.v0 if self.regime is Regime.SUB_Q else self.potential.v_inf

    def check_hypotheses(self):
        """Raise unless the regime's sign condition on the potential holds."""
        if self.v_ref >= 0.0:
            where = "V(0)" if self.regime is Regime.SUB_Q else "V at infinity"
            raise HypothesisViolationError(
                f"{where} = {self.v_ref:g} must be negative for the "
                f"{self.regime.value}-q construction")

    def omega(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """The potential read in the line variable and its x-derivative.

        With r^2 = e^{-cx}, c = 4s/(N-2), returns omega = V(r(x)) =
        a + b sigma and omega' = -c b sigma (1 - sigma), sigma =
        1/(1 + e^{cx}), with cx clipped at _EXP_CLIP; 1 - sigma is formed as
        e^{cx} sigma, which keeps its digits where sigma rounds to 1.  The
        shooter's _ef_rhs forms omega with the same arithmetic on floats.
        """
        a, b = self.potential.a, self.potential.b
        c = 4.0 * self.ef_sign / (self.n_dim - 2)
        e = np.exp(np.minimum(c * np.asarray(x, dtype=float), _EXP_CLIP))
        sigma = 1.0 / (1.0 + e)
        return a + b * sigma, -c * b * sigma * (e * sigma)


def profile_U(x, n_dim: int):
    """Line profile U(x) = gamma_N (2 cosh(2x/(N-2)))^{-(N-2)/2}.

    The cosh form stays finite for any representable x, unlike the
    exp-product form which overflows beyond |x| ~ 300.
    """
    gamma, _ = model_constants(n_dim)
    m = (n_dim - 2) / 2.0
    x = np.asarray(x, dtype=float)
    # (2 cosh)^{-m} = exp(-m log(2 cosh)); log(2cosh(t)) = |t| + log1p(e^{-2|t|})
    t = np.abs(x / m)
    log2cosh = t + np.log1p(np.exp(-2.0 * t))
    out = gamma * np.exp(-m * log2cosh)
    return out if out.ndim else float(out)


def profile_derivatives(x, n_dim: int):
    """(U, U', U'') from one profile_U and one tanh call: with th = tanh(x/m),
    m = (N-2)/2, U' = -U th and U'' = U (th^2 - (1 - th^2)/m); floats for a
    scalar x."""
    m = (n_dim - 2) / 2.0
    x = np.asarray(x, dtype=float)
    u = profile_U(x, n_dim)
    th = np.tanh(x / m)
    out = (u, -u * th, u * (th * th - (1.0 - th * th) / m))
    return out if x.ndim else tuple(map(float, out))


def profile_dU(x, n_dim: int):
    """Derivative U'(x) = -U(x) tanh(2x/(N-2)) (profile_derivatives)."""
    return profile_derivatives(x, n_dim)[1]


def profile_d2U(x, n_dim: int):
    """Second derivative U''(x) in closed form (profile_derivatives)."""
    return profile_derivatives(x, n_dim)[2]


def ef_r_of_x(x, n_dim: int, regime: Regime):
    """r(x) = exp(-s (p*-1) x / 2) with s = +1 (sub) / -1 (super)."""
    _, p_star = critical_exponents(n_dim)
    x = np.asarray(x, dtype=float)
    expo = -regime.ef_sign * 0.5 * (p_star - 1.0) * x
    return np.exp(np.clip(expo, -_EXP_CLIP, _EXP_CLIP))


def ef_x_of_r(r, n_dim: int, regime: Regime):
    """Inverse map x(r) = -s (N-2)/2 * log r."""
    m = (n_dim - 2) / 2.0
    r = np.asarray(r, dtype=float)
    return -regime.ef_sign * m * np.log(r)


def ef_inverse(v: Callable, n_dim: int, regime: Regime = Regime.SUB_Q) -> Callable:
    """Transform a line function v(x) back to u(r) = r^{-(N-2)/2} v(x(r))."""
    m = (n_dim - 2) / 2.0

    def u(r):
        r = np.asarray(r, dtype=float)
        return r ** (-m) * v(ef_x_of_r(r, n_dim, regime))

    return u
