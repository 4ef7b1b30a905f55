"""Independent verification by direct shooting on the radial equation.

The concentrating regime shoots outward from the origin: below the tower
height trajectories cross zero, above they relax to the slowly decaying
supercritical orbit, and the tower is the boundary between crossing and
non-crossing shots.  The flat regime has no reachable forward dichotomy
(deviations separate only at radii exp(1/eps)), so there the shooter
integrates the transformed equation backward from the far field and stops
at the first zero (undershoot, CROSSING) or minimum (overshoot, BLOWING)
of v after its k-th peak.  One search, find_tower, scans outward from the
predicted tower to a change of behaviour and then runs Brent's method
between the two behaviours on a functional that each shot defines.

Shooting dominates the cost of a verification.  Every shot runs on
numerics.dop853, a Python port of scipy's DOP853 in the second-order form
y'' = F(t, y, y'), with right-hand sides on floats (plain powers where
u > 0, the same bits as the signed ones); it stops the shot at its first
event.  Only the kept shot of a search builds a dense interpolant (septic
Hermite on its steps, with closed-form Bernstein coefficients).  No scipy
module is loaded, except by a read of verifier.solve_ivp (below).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .errors import ConvergenceError
from .numerics import PiecewisePolynomial, brentq, dop853
from .profiles import ModelParams, Regime, ef_forward
from .reduced_model import TowerConfig

__all__ = [
    "Classification",
    "ShotProfile",
    "shoot",
    "find_tower",
    "compare",
    "CompareMetrics",
]


# find_tower's scan before the search: values across the bracket
SCAN_POINTS = 13
# find_tower's outward search stops at this bracket width relative to u0;
# the classification chatters within about 5e-13 relative of the separatrix
SEPARATRIX_RTOL = 1e-12
# brentq's iteration budget; the concentrating searches take at most 12
# steps, the flat ones 5 to 12 (N = 3, k = 1, 2, 3)
SEARCH_MAXITER = 100
# brentq's relative tolerance, its smallest allowed value
BRENT_RTOL = 4.0 * np.finfo(float).eps
# the flat search's bracket width relative to c: a few ulps
FLAT_RTOL = 2.0 * BRENT_RTOL
# step budget of one shot; the checked shots take a few hundred steps
MAX_STEPS = 100_000


def __getattr__(name: str):
    # solve_ivp is not called here, but perfbench/spans.py and its self-test
    # read verifier.solve_ivp; it resolves on first read, so that importing
    # this module loads no scipy.integrate
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Classification(enum.Enum):
    DECAYING = "decaying"
    CROSSING = "crossing"
    BLOWING = "blowing"


@dataclass
class ShotProfile:
    """One integrated trajectory of the radial equation.

    u0 is the shot's search value: the initial height of an outward shot,
    the decay coefficient c of a flat backward shot (find_tower replaces it
    by the height of the flat shot it keeps).  The dense interpolant is
    built on first read, so find_tower's search shots, which read only the
    classification, never build one.
    """

    u0: float
    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    classification: Classification
    peak_count_ef: int
    params: ModelParams

    @functools.cached_property
    def interpolant(self) -> PiecewisePolynomial:
        """Septic Hermite interpolant of u on the recorded steps: it matches
        u and u' there, and u'' and u''' taken from the equation (u'''
        needs V', the potential's ``slope``)."""
        return _septic_hermite(self)

    def ef_image(self, x) -> np.ndarray:
        """v(x) = r^{(N-2)/2} u(r) evaluated through the dense interpolant."""
        return ef_forward(lambda r: np.atleast_2d(self.interpolant(r))[0],
                          self.params.n_dim, self.params.regime)(x)


def _peak_indices(v: np.ndarray) -> np.ndarray:
    """Indices of the samples that rise strictly from the left, do not rise
    to the right, and exceed 5% of a positive maximum (and zero)."""
    floor = 0.05 * float(np.max(v, initial=0.0))
    interior = (v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:]) & (v[1:-1] > floor)
    return np.flatnonzero(interior) + 1


def shoot(u0: float, params: ModelParams) -> ShotProfile:
    """Integrate the radial equation outward from a series start at r0.

    u(r) = u0 - [u0^p - V(0) u0^q] r^2/(2N) + O(r^4) with p = params.p
    seeds the integration through the regular singular point.  The start
    r0 = min(1e-6, 1e-3 u0^{-(p-1)/2}) lies well inside the spike core,
    whose radius is u0^{-(p-1)/2}, however tall the tower.  dop853 runs
    at rtol 1e-10 to r_max = 50/sqrt(eps) (50 at eps = 0) and stops the
    shot once u < 0 (CROSSING) or u > 10 u0 (BLOWING).  A shot that
    reaches r_max is classified from its tail.  An integration that fails (step budget
    spent, step size underflow) raises ConvergenceError with the solver's
    return code and the last accepted step.
    """
    if u0 <= 0.0:
        raise ValueError("initial height must be positive")
    p = params.p
    r0 = min(1e-6, 1e-3 * u0 ** (-0.5 * (p - 1.0)))
    curv = (u0 ** p - params.potential.at(0.0) * u0 ** params.q) / (2.0 * params.n_dim)
    r, u, du, code = dop853(_radial_rhs(params), r0, u0 - curv * r0 * r0,
                            -2.0 * curv * r0, _default_r_max(params),
                            lambda y: y < 0.0 or y > 10.0 * u0, 1e-10, 1e-14 * u0,
                            MAX_STEPS)
    if code < 0:
        raise ConvergenceError(
            f"radial integration failed at r = {r[-1]:.6g} "
            f"(DOP853 return code {code})", state=(r[-1], u[-1], du[-1]))
    return ShotProfile(u0, r, u, du, _classify_endpoint(u),
                       _ef_peaks(r, u, params), params)


def _default_r_max(params: ModelParams) -> float:
    return 50.0 / math.sqrt(params.epsilon) if params.epsilon > 0 else 50.0


def _radial_rhs(params: ModelParams):
    """Right-hand side u'' of the outward radial equation at (r, u, u'), on
    Python floats.  Python's ``**`` raises OverflowError where numpy
    returns inf (far into a blow-up); dop853 rejects such a step.  For
    u > 0 the signed powers are plain powers; the short form has the same
    bits, since abs and copysign are exact and x - y = x + (-y)."""
    p, q, n1 = params.p, params.q, params.n_dim - 1.0
    pot = params.potential.at

    def rhs(r, u, du):
        if u > 0.0:
            return -n1 / r * du + (pot(r) * u ** q - u ** p)
        f = -math.copysign(abs(u) ** p, u) + pot(r) * math.copysign(abs(u) ** q, u)
        return -n1 / r * du + f

    return rhs


# h^l/l! scaling of the l-th derivative, l = 0..3
_ORDERS = np.arange(4)
_FACTORIALS = np.array([1.0, 1.0, 2.0, 6.0])
# Bernstein coefficients c_0..c_3 of a degree-7 interval from its scaled left
# derivatives: C(j,l)/C(7,l) for l <= j; and c_7..c_4 from its right ones
_HERMITE_LEFT = np.array([[math.comb(j, l) / math.comb(7, l) if l <= j else 0.0
                           for l in range(4)] for j in range(4)])
_HERMITE_RIGHT = _HERMITE_LEFT * (-1.0) ** _ORDERS


def _septic_hermite(shot: ShotProfile) -> PiecewisePolynomial:
    """Piecewise degree-7 interpolant of u matching u, u', u'', u''' at each r.

    u'' is the right-hand side of the equation; u''' is its r-derivative,
    (N-1)(u'/r - u'')/r + f_u(r, u) u' + V'(r) |u|^{q-1} u.  On an interval
    [r_i, r_i + h] with scaled derivatives d_l = h^l u^{(l)}/l! the Bernstein
    coefficients are c_j = sum_{l<=j} C(j,l)/C(7,l) d_l(r_i) and
    c_{7-j} = sum_{l<=j} (-1)^l C(j,l)/C(7,l) d_l(r_i + h), j = 0..3, computed
    for all intervals at once.
    """
    params, r, u, du = shot.params, shot.r, shot.u, shot.du
    p, q, n1 = params.p, params.q, params.n_dim - 1.0
    rhs = _radial_rhs(params)
    d2u = np.array([rhs(*step) for step in zip(r.tolist(), u.tolist(), du.tolist())])
    au = np.abs(u)
    f_u = -p * au ** (p - 1.0) + params.potential.evaluate(r) * q * au ** (q - 1.0)
    f_r = np.array([params.potential.slope(ri) for ri in r]) * np.sign(u) * au ** q
    d3u = n1 * (du / r - d2u) / r + f_u * du + f_r
    derivs = np.column_stack([u, du, d2u, d3u])
    scale = np.diff(r)[:, None] ** _ORDERS / _FACTORIALS
    c = np.empty((8, r.size - 1))
    c[:4] = _HERMITE_LEFT @ (derivs[:-1] * scale).T
    c[:3:-1] = _HERMITE_RIGHT @ (derivs[1:] * scale).T
    return PiecewisePolynomial(c, r, bernstein=True)


def _classify_endpoint(u) -> Classification:
    if np.any(u < 0.0):
        return Classification.CROSSING
    i_pk = int(np.argmax(u))
    tail = u[i_pk:]
    if u[-1] <= 0.5 * u.max() and np.all(np.diff(tail) <= 1e-9 * u.max()):
        return Classification.DECAYING
    return Classification.BLOWING


def _ef_peaks(r, u, params: ModelParams) -> int:
    mask = (r > 0) & (u > 0)
    return _peak_indices(r[mask] ** ((params.n_dim - 2) / 2.0) * u[mask]).size


def find_tower(params: ModelParams, guess: TowerConfig) -> ShotProfile:
    """Locate the k-peak decaying solution near a predicted tower.

    Both regimes scan up to SCAN_POINTS values across a +-50% bracket
    around the prediction, starting from its middle (_scan): up after a
    crossing shot, down after a non-crossing one, and along the other leg
    if the first has no change.  The scan stops at the first pair whose
    behaviour differs.  Where the grid holds one change, as on every
    checked tower, that is the pair a scan in increasing order finds;
    where it holds several, the pair nearest the prediction on the side
    the middle shot points to wins (the other side only if that one has
    none).  The search runs between the pair by Brent's method on a
    functional g of one sign on crossing shots and the other on the rest
    (Brent, Algorithms for Minimization without Derivatives, 1973; a port
    of scipy's brentq), shooting each value once.  Only the kept shot
    builds its interpolant, when compare() or the flat height read reads it.
    A search that spends SEARCH_MAXITER steps raises ConvergenceError with
    its last crossing and non-crossing shots as state.

    Concentrating regime: the initial height u0 between a crossing and a
    non-crossing shot, seeded at the predicted peak of the tower; the
    separatrix is the height whose shot first crosses zero exactly at
    r_max.  The linear far field u = A + B r^{-m}, m = N - 2, through the
    shot's last step (r_e, u_e, u'_e) has its zero at r_*, with
    r_*^{-m} = r_e^{-m} + m u_e/(r_e^{m+1} u'_e).  The functional is
    g = +-|r_*^{-m} - r_max^{-m}| (magnitude 1 where the denominator is
    zero or not finite): on a crossing shot r_* is its crossing radius, so
    g -> 0 where that radius reaches r_max, and the sign makes every
    bracket a crossing/non-crossing pair.  brentq falls back to bisection
    by itself where the linear far field fails (u' > 0 at r_max on a
    non-crossing end).  The search stops once the bracket is at most
    SEPARATRIX_RTOL * u0 wide: on 81 heights over +-2e-12 relative around
    the found u0 the classification flips 1 to 7 times within at most
    4.5e-13 relative (9 towers, k = 1, 2, 3, eps >= 1e-2), so a narrower
    bracket only picks one of these flips; at eps = 1e-3 the flips spread
    over 4e-12 (k = 1) and 1.3e-11 (k = 2) relative.  Another integrator at
    the same tolerance puts the separatrix about 1e-10 relative away.  The
    scan takes 2 or 3 shots and the search 5 to 8 on the checked towers
    (k = 1, 2, 3, eps >= 1e-2; 8 to 10 shots in all).  The returned shot is
    the non-crossing end of the final bracket.

    Flat regime: the value is the decay coefficient c of v ~ c e^{-x}
    beyond the last spike, scanned geometrically around gamma e^{xi_k};
    each shot runs backward from xi_k + 10 and stops at its first event
    after the k-th peak, at the latest at xi_1 - 25 (_shoot_flat_backward).
    g is b = e^x (v - v') at the stop (_growing_mode).  On the linear far
    field v = A e^x + B e^{-x} it is 2B, constant, with B the coefficient of
    the mode that grows toward the origin: positive at a minimum, negative
    at a zero.  So g is continuous through the separatrix and brentq
    converges superlinearly, to a bracket of FLAT_RTOL * c (a few ulps; 11
    to 13 shots on the checked towers, N = 3, k = 1, 2, 3).  The returned
    shot is the undershoot end of the final bracket: it follows the decaying
    solution far below xi_1 before it dives through zero, and is DECAYING
    when it reaches xi_1 - 6, where u0 is read (u is flat there).

    Raises ConvergenceError with the scan report, every shot by increasing
    value, when no behaviour change brackets a solution.
    """
    xi1, xik = float(guess.xi[0]), float(guess.xi[-1])
    if params.regime is Regime.SUB_Q:
        u0_pred = params.gamma * float(np.sum(np.exp(guess.xi)))
        values = np.linspace(0.5 * u0_pred, 1.5 * u0_pred, SCAN_POINTS)
        r_max_m = _default_r_max(params) ** -(params.n_dim - 2.0)
        shoot_at = lambda u0: shoot(u0, params)
        gap, rtol = (lambda shot: _crossing_gap(shot, r_max_m)), SEPARATRIX_RTOL
    else:
        c_pred = params.gamma * math.exp(xik)
        values = np.geomspace(0.5 * c_pred, 1.5 * c_pred, SCAN_POINTS)
        shoot_at = lambda c: _shoot_flat_backward(c, params, xik + 10.0, xi1 - 25.0)
        gap, rtol = _growing_mode, FLAT_RTOL
    crossing, staying = _search_separatrix(shoot_at, gap, *_scan(shoot_at, values), rtol)
    if params.regime is Regime.SUB_Q:
        return staying
    r_read = math.exp((xi1 - 6.0) / ((params.n_dim - 2) / 2.0))
    if crossing.r[0] <= r_read:
        crossing.classification = Classification.DECAYING
    crossing.u0 = float(crossing.interpolant(max(r_read, crossing.r[0])))
    return crossing


def _scan(shoot_at: Callable, values) -> Tuple[ShotProfile, ShotProfile]:
    """The crossing and non-crossing shots of the scan's change pair.

    Shoots the middle value first, then walks away from it one value at a
    time: toward larger values after a crossing shot (the separatrix lies
    above it), toward smaller ones otherwise, and along the other leg if
    the first has no change.  Stops at the first shot whose behaviour
    differs from the middle's; that shot and its neighbour toward the
    middle are the pair.  Raises ConvergenceError, listing every shot by
    increasing value, when all of them behave alike.
    """
    middle = len(values) // 2
    shots = {middle: shoot_at(values[middle])}
    crossed = _crossed(shots[middle])
    above, below = range(middle + 1, len(values)), range(middle - 1, -1, -1)
    for i in [*above, *below] if crossed else [*below, *above]:
        shots[i] = shoot_at(values[i])
        if _crossed(shots[i]) != crossed:
            near = shots[i - 1 if i > middle else i + 1]
            return (near, shots[i]) if crossed else (shots[i], near)
    raise ConvergenceError(
        "no crossing/non-crossing change in the bracket; scan: "
        + ", ".join(f"{shots[i].u0:.4g}:{shots[i].classification.value}"
                    for i in sorted(shots)))


def _search_separatrix(shoot_at: Callable, gap: Callable, crossing: ShotProfile,
                       staying: ShotProfile, rtol: float):
    """Narrow a crossing/non-crossing pair of shots by Brent's method on
    gap(shot) (see find_tower) until the bracket is at most rtol times its
    larger end wide; shoot_at(value) makes a search shot.  Returns the final
    crossing and non-crossing shots."""
    shots = {crossing.u0: crossing, staying.u0: staying}

    def g(u0):
        if u0 not in shots:
            shots[u0] = shoot_at(u0)
        return gap(shots[u0])

    top = max(crossing.u0, staying.u0)
    tol = rtol * top
    try:
        brentq(g, crossing.u0, staying.u0, xtol=tol - BRENT_RTOL * top,
               rtol=BRENT_RTOL, maxiter=SEARCH_MAXITER)
    except RuntimeError as exc:
        raise ConvergenceError(f"separatrix search failed: {exc}",
                               state=_last_pair(shots)) from exc
    crossing, staying = _last_pair(shots)
    if abs(staying.u0 - crossing.u0) > tol:
        raise ConvergenceError(
            f"separatrix search stopped at a bracket of "
            f"{abs(staying.u0 - crossing.u0) / top:.3g} relative width",
            state=(crossing, staying))
    return crossing, staying


def _crossed(shot: ShotProfile) -> bool:
    return shot.classification is Classification.CROSSING


def _last_pair(shots) -> Tuple[ShotProfile, ShotProfile]:
    """The latest crossing and non-crossing shots of an insertion-ordered
    dict: Brent's bracket is always its last trial and the latest trial of
    the other sign."""
    latest = list(shots.values())[::-1]
    return (next(s for s in latest if _crossed(s)),
            next(s for s in latest if not _crossed(s)))


def _crossing_gap(shot: ShotProfile, r_max_m: float) -> float:
    """Signed distance of the far-field zero r_* from r_max, in r^{-m}.

    The linear far field u = A + B r^{-m} (m = N - 2) through the last
    recorded step reaches zero at r_*^{-m} = r_e^{-m} + m u_e/(r_e^{m+1} u'_e).
    The magnitude is |r_*^{-m} - r_max^{-m}|, or 1 where that formula has a
    zero or non-finite denominator; the sign is + on crossing shots and - on
    the others.
    """
    m = shot.params.n_dim - 2.0
    r_e, u_e, du_e = float(shot.r[-1]), float(shot.u[-1]), float(shot.du[-1])
    denom = r_e ** (m + 1.0) * du_e
    gap = 1.0
    if denom != 0.0 and math.isfinite(denom):
        gap = abs(r_e ** -m + m * u_e / denom - r_max_m)
    return gap if _crossed(shot) else -gap


def _flat_rhs(params: ModelParams):
    """Right-hand side v'' of the flat-regime transformed equation,
    v'' = v - beta (e^{eps x} v^p - V(r) e^{-(q-p*) x} v^q), r = e^{x/m},
    with v clipped at 0; on Python floats, like _radial_rhs.  The clip
    gives the bits of max(v, 0.0) for every v: at v = -0.0 and NaN, where
    the two clips differ, the bracket is +0.0 or NaN either way."""
    beta, p, q, eps = params.beta, params.p, params.q, params.epsilon
    gap = params.q - params.p_star
    m = (params.n_dim - 2) / 2.0
    pot = params.potential.at

    def rhs(x, v, dv):
        vv = v if v > 0.0 else 0.0
        w_p = math.exp(eps * x)
        w_q = pot(math.exp(min(x / m, 700.0))) * math.exp(-gap * x)
        return v - beta * (w_p * vv ** p - w_q * vv ** q)

    return rhs


def _shoot_flat_backward(c: float, params: ModelParams, x_hi: float,
                         x_lo: float) -> ShotProfile:
    """Integrate the transformed equation backward from v = c e^{-x} at x_hi.

    The shot stops at its first event (_flat_stop): v < 0, an undershoot
    (CROSSING), or a minimum of v after its k-th peak, an overshoot
    (BLOWING).  A stop at v > 10 gamma and a DOP853 failure above zero are
    overshoots too; a shot that reaches x_lo is an undershoot.  The profile
    holds the steps, in increasing r = e^{x/m}, as u = e^{-x} max(v, 0) and
    u' = (m/r) e^{-x} (v' - v); its u0 is c.
    """
    m = (params.n_dim - 2) / 2.0
    v0 = c * math.exp(-x_hi)
    x, v, dv, code = dop853(_flat_rhs(params), x_hi, v0, -v0, x_lo,
                            _flat_stop(params.k, 10.0 * params.gamma), 1e-12, 1e-20,
                            MAX_STEPS)
    over = code != 1 and v[-1] >= 0.0
    x, v, dv = x[::-1], v[::-1], dv[::-1]
    r, decay = np.exp(x / m), np.exp(-x)
    return ShotProfile(c, r, decay * np.maximum(v, 0.0), m / r * decay * (dv - v),
                       Classification.BLOWING if over else Classification.CROSSING,
                       _peak_indices(v).size, params)


def _flat_stop(k: int, ceiling: float) -> Callable[[float], bool]:
    """Stop rule of a flat shot, fed v step by step in the order of travel:
    true at v < 0, v > ceiling or a minimum after the k-th peak.  A peak
    (minimum) is a strict fall (rise) after a strict rise (fall)."""
    peaks, trend, last = 0, 0, math.nan

    def stop(v: float) -> bool:
        nonlocal peaks, trend, last
        turn, last = (v > last) - (v < last), v
        # a step to an equal value (turn 0) keeps the trend
        if turn and turn != trend:
            if trend < 0 and peaks >= k:
                return True
            peaks, trend = peaks + (trend > 0), turn
        return v < 0.0 or v > ceiling

    return stop


def _growing_mode(shot: ShotProfile) -> float:
    """b = e^x (v - v'), the coefficient of the mode e^{-x} of v'' = v that
    grows toward the origin, at a flat shot's last step (-r^{N-1} u'/m at
    r[0]): + at a minimum, - at a zero; signed by the label, so + at a
    ceiling or failure stop."""
    n_dim = shot.params.n_dim
    b = abs(shot.r[0] ** (n_dim - 1.0) * shot.du[0] / ((n_dim - 2) / 2.0))
    return -b if _crossed(shot) else b


@dataclass(frozen=True)
class CompareMetrics:
    sup_rel: float
    l2_rel: float
    peaks_a: List[Tuple[float, float]]
    peaks_b: List[Tuple[float, float]]


def compare(u_a: Callable, u_b: Callable, window: Tuple[float, float],
            n: int = 512) -> CompareMetrics:
    """Sup and L2 relative discrepancies of two profiles on a window.

    Both are callables of one variable, sampled at n evenly spaced points;
    each discrepancy is relative to the first profile's sup / L2 size there.
    """
    lo, hi = window
    if not (hi > lo):
        raise ValueError("empty comparison window")
    t = np.linspace(lo, hi, n)
    va = np.asarray(u_a(t), dtype=float)
    vb = np.asarray(u_b(t), dtype=float)
    scale_sup = float(np.max(np.abs(va)))
    scale_l2 = float(np.sqrt(np.mean(va * va)))
    diff = va - vb
    sup_rel = float(np.max(np.abs(diff))) / (scale_sup or 1.0)
    l2_rel = float(np.sqrt(np.mean(diff * diff))) / (scale_l2 or 1.0)

    def peaks(vals):
        return [(float(t[i]), float(vals[i])) for i in _peak_indices(vals)]

    return CompareMetrics(sup_rel=sup_rel, l2_rel=l2_rel,
                          peaks_a=peaks(va), peaks_b=peaks(vb))
