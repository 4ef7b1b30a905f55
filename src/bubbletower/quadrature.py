"""Line quadrature for exponentially decaying integrands and the energy constants.

The integrator truncates the real line where an analytic tail bound drops
below the requested tolerance, then integrates the truncated interval with
scipy's ``quad`` (QUADPACK's adaptive Gauss-Kronrod rule).  The reported
error is QUADPACK's estimate plus both tail bounds, so halving the tolerance
can never move the value by more than the previously reported error.

For integrands built from the line profile U there is a second, independent
route: substituting t = exp(-(p*-1)x) turns every moment of the form
 int U(x)^s exp(-c x) dx  into an Euler Beta integral.  Those closed forms
live here as well and back the cross-checking tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from scipy.integrate import quad
from scipy.special import betaln, digamma

from .errors import QuadratureConvergenceError, RegimeMismatchError
from .profiles import critical_exponents, model_constants

__all__ = [
    "integrate_line",
    "EnergyConstants",
    "energy_constants",
    "profile_moment_closed_form",
    "profile_log_moment_closed_form",
]

_PROBE_POINTS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def _tail_cutoff(f: Callable, decay: float, side: int, tol_tail: float):
    """Truncation point X so that the analytic tail bound is below tol_tail.

    The caller guarantees |f| <= C exp(-decay |x|); C is estimated from probe
    samples, which is conservative whenever the bound actually holds.
    """
    scale = 0.0
    for p in _PROBE_POINTS:
        x = side * p
        val = abs(float(f(x)))
        if math.isfinite(val) and val > 0.0:
            scale = max(scale, val * math.exp(min(decay * abs(x), 650.0)))
    if scale == 0.0:
        return 8.0, 0.0
    # tail integral from X: C exp(-decay X)/decay <= tol_tail
    x_cut = math.log(max(scale / (decay * tol_tail), 1.0)) / decay
    x_cut = min(max(x_cut, 8.0), 1e4)
    bound = scale * math.exp(-decay * x_cut) / decay
    return x_cut, bound


def integrate_line(f: Callable, decay_left: float, decay_right: float,
                   tol: float = 1e-12, max_evals: int = 10_000):
    """Integrate f over the real line; returns (value, err).

    f must decay at least like exp(-decay_left * |x|) to the left and
    exp(-decay_right * x) to the right, both rates positive and finite
    (ValueError otherwise).  ``quad`` integrates the truncated interval,
    split at 0 for |x|-type kinks, to tolerance 0.8 tol, absolute for
    integrals below 1 and relative above (QUADPACK stops once its error
    estimate is below max(epsabs, epsrel |value|)), in at most max_evals
    21-point Gauss-Kronrod subintervals (QUADPACK allocates work arrays of
    that length on every call).  err bounds |value - integral|; a QUADPACK
    warning raises QuadratureConvergenceError with the estimate and err.
    """
    if not (0 < decay_left < math.inf and 0 < decay_right < math.inf):
        raise ValueError("decay rates must be positive and finite")
    tol_tail = tol / 10.0
    x_left, tail_left = _tail_cutoff(f, decay_left, -1, tol_tail)
    x_right, tail_right = _tail_cutoff(f, decay_right, +1, tol_tail)
    value, err, _, *warning = quad(f, -x_left, x_right, points=[0.0],
                                   epsabs=0.8 * tol, epsrel=0.8 * tol,
                                   limit=max_evals, full_output=1)
    err += tail_left + tail_right
    if warning:
        raise QuadratureConvergenceError(f"QUADPACK: {warning[0]}",
                                         value=value, err=err)
    return value, err


def profile_moment_closed_form(s: float, c: float, n_dim: int) -> float:
    """Closed form of int U(x)^s exp(-c x) dx via the Beta substitution.

    Requires |c| < s (otherwise the integral diverges).
    """
    if abs(c) >= s:
        raise ValueError(f"moment diverges: need |c| < s, got c={c:g}, s={s:g}")
    gamma, _ = model_constants(n_dim)
    m = (n_dim - 2) / 2.0
    return 0.5 * m * math.exp(s * math.log(gamma)
                              + betaln(0.5 * m * (s + c), 0.5 * m * (s - c)))


def profile_log_moment_closed_form(n_dim: int) -> float:
    """Closed form of int U^{p*+1} log(U) dx (s-derivative of the moment)."""
    _, p_star = critical_exponents(n_dim)
    gamma, _ = model_constants(n_dim)
    m = (n_dim - 2) / 2.0
    base = profile_moment_closed_form(p_star + 1.0, 0.0, n_dim)
    return base * (math.log(gamma) + m * (digamma(0.5 * n_dim) - digamma(float(n_dim))))


@dataclass(frozen=True)
class EnergyConstants:
    """The dimensionless constants of the reduced energy expansion.

    a5 exists only in the sub-q window (p^s < q < p*), a5_hat only for
    q > p*; requesting the missing one raises RegimeMismatchError.
    c_n is the interaction coefficient, fixed to gamma_N (the amplitude of
    the leading exp(-|x|) decay of U), validated by the two-tower
    interaction test.
    """

    n_dim: int
    q: float
    a1: float
    a2: float
    a3: float
    a4: float
    a5: Optional[float]
    a5_hat: Optional[float]
    c_n: float
    err: Dict[str, float] = field(default_factory=dict)

    def require(self, name: str) -> float:
        val = getattr(self, name)
        if val is None:
            raise RegimeMismatchError(
                f"constant {name} is undefined for q={self.q:g} in dimension {self.n_dim}")
        return val


def energy_constants(n_dim: int, q: float, tol: float = 1e-12) -> EnergyConstants:
    """a1..a5 / a5_hat and c_n by integrate_line; err[name] bounds each error."""
    p_s, p_star = critical_exponents(n_dim)
    if n_dim < 3:
        raise ValueError("dimension must be >= 3")
    if q <= p_s:
        raise ValueError(f"need q > p^s = {p_s:g}, got q={q:g}")
    gamma, beta = model_constants(n_dim)
    err: Dict[str, float] = {}
    m = (n_dim - 2) / 2.0

    # profile_U on one Python float: quad calls the integrands one point
    # at a time, and math skips numpy's scalar overhead
    def U(x):
        t = abs(x / m)
        return gamma * math.exp(-m * (t + math.log1p(math.exp(-2.0 * t))))

    # int U^{p*+1}; testing -U'' + U = beta U^{p*} against U gives
    # int (U'^2 + U^2) = beta int U^{p*+1}, so a1 needs no other integral
    i_crit, e_crit = integrate_line(lambda x: U(x) ** (p_star + 1.0),
                                    p_star + 1.0, p_star + 1.0, tol)
    # int U^{p*} e^{x}
    i_inter, e_inter = integrate_line(lambda x: U(x) ** p_star * math.exp(x),
                                      p_star + 1.0, p_star - 1.0, tol)
    # int U^{p*+1} log U: log U ~ -|x| for large |x|, absorbed in a slack rate
    i_log, e_log = integrate_line(lambda x: U(x) ** (p_star + 1.0) * math.log(U(x)),
                                  p_star + 0.5, p_star + 0.5, tol)

    a1 = beta * (0.5 - 1.0 / (p_star + 1.0)) * i_crit
    a2 = beta * gamma * i_inter
    a3 = beta / (p_star + 1.0) * i_crit
    a4 = i_crit / (p_star + 1.0) ** 2 - i_log / (p_star + 1.0)
    err["a1"] = beta * (0.5 - 1.0 / (p_star + 1.0)) * e_crit
    err["a2"] = beta * gamma * e_inter
    err["a3"] = beta / (p_star + 1.0) * e_crit
    err["a4"] = e_crit / (p_star + 1.0) ** 2 + e_log / (p_star + 1.0)

    # int U^{q+1} e^{-|p*-q| x}, a5 for q < p* and a5_hat above; it decays
    # at rate q+1-|p*-q| to the left and q+1+|p*-q| to the right
    c = abs(p_star - q)
    val, e5 = integrate_line(lambda x: U(x) ** (q + 1.0) * math.exp(-c * x),
                             q + 1.0 - c, q + 1.0 + c, tol)
    fifth = {"a5": None, "a5_hat": None}
    name = "a5" if q < p_star else "a5_hat"
    fifth[name] = beta / (q + 1.0) * val
    err[name] = beta / (q + 1.0) * e5

    return EnergyConstants(n_dim=n_dim, q=q, a1=a1, a2=a2, a3=a3, a4=a4,
                           c_n=gamma, err=err, **fifth)
