"""Line quadrature for exponentially decaying integrands and the energy constants.

The integrator truncates the real line where an analytic tail bound drops
below the requested tolerance, then integrates the truncated interval by
global adaptive bisection with QUADPACK's 21-point Gauss-Kronrod rule
(Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, QUADPACK, 1983),
ported to Python so that no scipy module is imported.  The reported error
is the panels' error estimate plus both tail bounds, so halving the
tolerance can never move the value by more than the previously reported
error.

For integrands built from the line profile U there is a second, independent
route: substituting t = exp(-(p*-1)x) turns every moment of the form
 int U(x)^s exp(-c x) dx  into an Euler Beta integral.  Those closed forms
live here as well and back the cross-checking tests.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field
from operator import add, mul
from typing import Callable, Dict, Optional

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

# QUADPACK's 21-point Kronrod rule (dqk21) on [-1, 1]: the positive nodes,
# the five of the embedded 10-point Gauss rule first, their Kronrod
# weights, the weight of the centre node and the Gauss weights
_KRONROD_X = (0.9739065285171717, 0.8650633666889845, 0.6794095682990244, 0.4333953941292472,
              0.14887433898163122, 0.9956571630258081, 0.9301574913557082, 0.7808177265864169,
              0.5627571346686047, 0.2943928627014602)
_KRONROD_W = (0.032558162307964725, 0.07503967481091996, 0.10938715880229764,
              0.13470921731147334, 0.14773910490133849, 0.011694638867371874,
              0.054755896574351995, 0.0931254545836976, 0.12349197626206584,
              0.14277593857706009)
_KRONROD_W0 = 0.1494455540029169
_GAUSS_W = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
            0.29552422471475287)
_NODES = tuple(-x for x in _KRONROD_X) + _KRONROD_X
# a panel's error estimate never falls below this times its integral of |f|
_ROUNDOFF = 50.0 * sys.float_info.epsilon


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


def _kronrod21(f, a: float, b: float):
    """QUADPACK's dqk21 on [a, b], a < b: the panel (-err, a, b, value, int |f|);
    err is the Kronrod-Gauss difference scaled as QUADPACK does, at least
    _ROUNDOFF int |f|."""
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    f0 = f(center)
    values = [f(center + half * x) for x in _NODES]
    lo, hi = values[:10], values[10:]
    pairs = list(map(add, lo, hi))
    kronrod = sum(map(mul, _KRONROD_W, pairs), _KRONROD_W0 * f0)
    gauss = sum(map(mul, _GAUSS_W, pairs))
    if not math.isfinite(kronrod):
        raise QuadratureConvergenceError(
            f"non-finite integrand value on [{a:g}, {b:g}]", value=math.nan, err=math.inf)
    mean = 0.5 * kronrod
    spread = sum([w * (abs(u - mean) + abs(v - mean)) for w, u, v in zip(_KRONROD_W, lo, hi)],
                 _KRONROD_W0 * abs(f0 - mean)) * half
    if f0 >= 0.0 and min(values) >= 0.0:     # |f| = f: the same sum
        absolute = kronrod * half
    else:
        absolute = sum(map(mul, _KRONROD_W, map(add, map(abs, lo), map(abs, hi))),
                       abs(_KRONROD_W0 * f0)) * half
    err = abs((kronrod - gauss) * half)
    if spread != 0.0 and err != 0.0:
        err = spread * min(1.0, (200.0 * err / spread) ** 1.5)
    return -max(_ROUNDOFF * absolute, err), a, b, kronrod * half, absolute


def integrate_line(f: Callable, decay_left: float, decay_right: float,
                   tol: float = 1e-12, max_evals: int = 10_000):
    """Integrate f over the real line; returns (value, err).

    f must decay at least like exp(-decay_left * |x|) to the left and
    exp(-decay_right * x) to the right, both rates positive and finite
    (ValueError otherwise).  The truncated interval, split at 0 for
    |x|-type kinks, is bisected globally, always at the 21-point panel with
    the largest error estimate (QUADPACK's dqagpe without extrapolation),
    until the estimates sum to at most 0.8 tol, absolute for integrals
    below 1 and relative above.  err bounds |value - integral|.  Needing
    more than max_evals panels, a target below the panels' roundoff floor
    or a non-finite or overflowing f raises QuadratureConvergenceError.
    """
    if not (0 < decay_left < math.inf and 0 < decay_right < math.inf):
        raise ValueError("decay rates must be positive and finite")
    try:
        tol_tail = tol / 10.0
        x_left, tail_left = _tail_cutoff(f, decay_left, -1, tol_tail)
        x_right, tail_right = _tail_cutoff(f, decay_right, +1, tol_tail)
        tails = tail_left + tail_right
        target = 0.8 * tol
        # a heap of panels (-err, a, b, value, int |f|), the largest error first
        panels = [_kronrod21(f, -x_left, 0.0), _kronrod21(f, 0.0, x_right)]
        heapq.heapify(panels)
        neg_err, _, _, area, absolute = map(add, *panels)

        def failure(problem):
            return QuadratureConvergenceError(problem, value=math.fsum(p[3] for p in panels),
                                              err=tails - neg_err)

        while -neg_err > (bound := target * max(1.0, abs(area))):
            if _ROUNDOFF * absolute > bound:
                raise failure(f"tolerance {tol:g} is below the roundoff floor of the panels")
            if len(panels) >= max_evals:
                raise failure(f"maximum number of subdivisions ({max_evals}) reached")
            worst, a, b, old, old_abs = heapq.heappop(panels)
            mid = 0.5 * (a + b)
            left, right = _kronrod21(f, a, mid), _kronrod21(f, mid, b)
            heapq.heappush(panels, left)
            heapq.heappush(panels, right)
            # running sums, updated in QUADPACK's order
            neg_err = neg_err + (left[0] + right[0]) - worst
            area = area + (left[3] + right[3]) - old
            absolute = absolute + (left[4] + right[4]) - old_abs
        return math.fsum(p[3] for p in panels), tails - neg_err
    except OverflowError as exc:     # math.exp past x = 709 in f
        raise QuadratureConvergenceError(
            f"integrand overflowed: {exc}", math.nan, math.inf) from exc


def _betaln(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _digamma_gap(n_dim: int) -> float:
    """psi(N/2) - psi(N) by psi(x + 1) = psi(x) + 1/x, stepping down to psi(1)
    and, for odd N, to psi(1/2) = psi(1) - 2 log 2."""
    low = 1.0 - 0.5 * (n_dim % 2)
    return (sum(1.0 / (low + j) for j in range(int(0.5 * n_dim - low)))
            - sum(1.0 / k for k in range(1, n_dim)) - 2.0 * math.log(2.0) * (n_dim % 2))


def profile_moment_closed_form(s: float, c: float, n_dim: int) -> float:
    """Closed form of int U(x)^s exp(-c x) dx via the Beta substitution.

    Requires |c| < s (otherwise the integral diverges).
    """
    if abs(c) >= s:
        raise ValueError(f"moment diverges: need |c| < s, got c={c:g}, s={s:g}")
    gamma, _ = model_constants(n_dim)
    m = (n_dim - 2) / 2.0
    return 0.5 * m * math.exp(s * math.log(gamma)
                              + _betaln(0.5 * m * (s + c), 0.5 * m * (s - c)))


def profile_log_moment_closed_form(n_dim: int) -> float:
    """Closed form of int U^{p*+1} log(U) dx (s-derivative of the moment)."""
    _, p_star = critical_exponents(n_dim)
    gamma, _ = model_constants(n_dim)
    m = (n_dim - 2) / 2.0
    base = profile_moment_closed_form(p_star + 1.0, 0.0, n_dim)
    return base * (math.log(gamma) + m * _digamma_gap(n_dim))


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
    p_s, p_star = critical_exponents(n_dim)     # ValueError below N = 3
    if q <= p_s or q == p_star:
        # neither a5 (q < p*) nor a5_hat (q > p*) exists at q = p*
        raise ValueError(f"need q > p^s = {p_s:g} and q != p* = {p_star:g}, got q={q:g}")
    gamma, beta = model_constants(n_dim)
    m, log_gamma = (n_dim - 2) / 2.0, math.log(gamma)

    def moment(s: float, c: float, j: int = 0):
        """int U^s (log U)^j e^{-cx} dx and its error bound.  U ~ gamma e^{-|x|}
        sets the decay rates s -+ c; (log U)^j ~ |x|^j costs a slack of j/2.
        The integrand is one exp of a log, so no factor overflows on its own,
        and it runs on Python floats: integrate_line calls it point by point."""
        def f(x):
            log_u = log_gamma - abs(x) - m * math.log1p(math.exp(-2.0 * abs(x / m)))
            return log_u ** j * math.exp(s * log_u - c * x)
        return integrate_line(f, s - c - 0.5 * j, s + c - 0.5 * j, tol)

    s, r, c = p_star + 1.0, q + 1.0, abs(p_star - q)
    # testing -U'' + U = beta U^{p*} against U gives int (U'^2 + U^2) =
    # beta int U^{p*+1}, so a1 needs no other integral than a3
    crit = moment(s, 0.0)
    terms = {
        "a1": [(beta * (0.5 - 1.0 / s), crit)],
        "a2": [(beta * gamma, moment(p_star, -1.0))],
        "a3": [(beta / s, crit)],
        "a4": [(1.0 / s ** 2, crit), (-1.0 / s, moment(s, 0.0, 1))],
        # a5 for q < p*, a5_hat above
        "a5" if q < p_star else "a5_hat": [(beta / r, moment(r, c))],
    }
    values = {name: math.fsum(k * i for k, (i, _) in t) for name, t in terms.items()}
    err = {name: math.fsum(abs(k) * e for k, (_, e) in t) for name, t in terms.items()}
    # k I can pass the float range where I does not: a2 = beta gamma I does from N = 145
    if over := [name for name in terms if not math.isfinite(values[name] + err[name])]:
        raise QuadratureConvergenceError(f"{', '.join(over)} overflowed", math.inf, math.inf)
    return EnergyConstants(n_dim=n_dim, q=q, c_n=gamma, err=err,
                           **{"a5": None, "a5_hat": None, **values})
