"""Independent verification by direct shooting on the radial equation.

Every shot integrates v = r^{(N-2)/2} u in the Emden-Fowler variable x,
r = e^{-s x/m} (s = +1 concentrating, -1 flat), where each spike of a
tower is a translate of one O(1) profile, on one right-hand side
(_ef_rhs), which reads V in x as ModelParams.omega does.  A shot stops at
its first event after the k-th peak of v (_first_event), a zero
(CROSSING) or a minimum (BLOWING), as the radial
phase plane sorts them (Berestycki, Lions & Peletier, Indiana Univ. Math.
J. 30, 1981).  The concentrating regime shoots outward from the origin;
the flat regime, with no reachable forward dichotomy (deviations separate
only at radii exp(1/eps)), backward from the far field.  One search,
find_tower, scans from a seed tower to a change of sign of a functional g,
positive on the crossing side of the separatrix, and runs Brent's method
on g there.

Every shot runs on numerics.dop853, a Python port of scipy's DOP853 in the
second-order form y'' = F(t, y, y'), on floats.  Only the kept shot of a
search builds a dense interpolant (septic Hermite in x, with closed-form
Bernstein coefficients).  No scipy module is loaded, except by a read of
verifier.solve_ivp (below).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import ConvergenceError
from .numerics import PiecewisePolynomial, brentq, dop853
from .profiles import _EXP_CLIP, ModelParams, Regime, ef_inverse, ef_r_of_x

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
# find_tower's searches stop at this bracket width relative to the value;
# the classification chatters within about 5e-13 relative of the separatrix,
# and the flat g changes sign at random within about 1e-12 of the kept c
SEPARATRIX_RTOL = 1e-12
# brentq's iteration budget; the concentrating searches take at most 12
# steps, the flat ones 5 or 6 (N = 3, q = 7, k = 1, 2, 3, eps = 1e-2)
SEARCH_MAXITER = 100
# brentq's relative tolerance, its smallest allowed value
BRENT_RTOL = 4.0 * np.finfo(float).eps
# step budget of one shot; the checked shots take a few hundred steps
MAX_STEPS = 100_000
# the largest x whose e^x is a finite float
_LOG_MAX = math.log(np.finfo(float).max)


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
    """One integrated trajectory of the transformed equation.

    x, v, dv are its steps of v(x) = r^{(N-2)/2} u(r) and v'(x), in
    increasing r; r, u and u' are read from them.  u0 is the search value:
    the initial height of an outward shot, the decay coefficient c of a flat
    backward shot (find_tower replaces it by the kept flat shot's height).
    ef_image is built on first read, so find_tower's search shots, which
    read only their g, never build one.
    """

    u0: float
    x: np.ndarray
    v: np.ndarray
    dv: np.ndarray
    classification: Classification
    peak_count_ef: int
    params: ModelParams

    def __post_init__(self):
        # r = e^{x/(-s m)}, u = e^{s x} v and u' = -s (m/r) e^{s x} (v' + s v)
        s = self.params.ef_sign
        ms, decay = -s * (self.params.n_dim - 2) / 2.0, np.exp(s * self.x)
        self.r, self.u = np.exp(self.x / ms), decay * self.v
        self.du = ms / self.r * decay * (self.dv + s * self.v)

    @functools.cached_property
    def ef_image(self) -> PiecewisePolynomial:
        """v(x): the septic Hermite interpolant of the steps in x, which
        matches v and v' there, and v'' and v''' taken from the equation
        (v''' needs omega', from ModelParams.omega)."""
        return _septic_hermite(self)

    def interpolant(self, r) -> np.ndarray:
        """u(r) = r^{-(N-2)/2} v(x(r)), read through ef_image."""
        return ef_inverse(self.ef_image, self.params.n_dim, self.params.regime)(r)


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
    whose radius is u0^{-(p-1)/2}, however tall the tower.  dop853 runs on
    v in x (_ef_rhs) at rtol 1e-10 and atol 1e-20 on v toward x(r_max)
    (_default_r_max), and stops the shot at its first event after the
    params.k-th peak of v: a zero (CROSSING) or a minimum (BLOWING).  It
    also stops once u > 10 u0 (BLOWING).  A shot that reaches r_max is
    DECAYING.  An integration that fails (step budget spent, step size
    underflow) raises ConvergenceError with the solver's return code and
    the last accepted step (r, u, u').
    """
    if not 0.0 < u0 < math.inf:
        raise ValueError("initial height must be positive and finite")
    p, m, s = params.p, 0.5 * (params.n_dim - 2.0), params.ef_sign
    r0 = min(1e-6, 1e-3 * u0 ** (-0.5 * (p - 1.0)))
    curv = (u0 ** p - params.potential.v0 * u0 ** params.q) / (2.0 * params.n_dim)
    u_start, du_start, w0 = u0 - curv * r0 * r0, -2.0 * curv * r0, r0 ** m
    event = _first_event(params.k)
    x, v, dv, code = dop853(_ef_rhs(params), -s * m * math.log(r0), w0 * u_start,
                            -s * w0 * (u_start + r0 * du_start / m),
                            -s * m * math.log(_default_r_max(params)),
                            lambda x, v: event(v) or v * math.exp(s * x) > 10.0 * u0,
                            1e-10, 1e-20, MAX_STEPS)
    label = (Classification.DECAYING if code == 1 else
             Classification.CROSSING if v[-1] < 0.0 else Classification.BLOWING)
    shot = ShotProfile(u0, x, v, dv, label, _peak_indices(v).size, params)
    if code < 0:
        raise ConvergenceError(
            f"radial integration failed at r = {shot.r[-1]:.6g} "
            f"(DOP853 return code {code})", state=(shot.r[-1], shot.u[-1], shot.du[-1]))
    return shot


def _default_r_max(params: ModelParams) -> float:
    """End of an outward shot: 50/sqrt(eps), or 50 at eps = 0.  The
    concentrating search keeps the height whose shot first crosses zero
    here (_crossing_gap), just below the true separatrix.  Criterion 09's
    eps-trend reads that offset: on the true separatrix sup_rel is the
    grid's O(h^2) error, which eps moves by about 1%.  So r_max stays."""
    return 50.0 / math.sqrt(params.epsilon) if params.epsilon > 0 else 50.0


def _ef_rhs(params: ModelParams):
    """Right-hand side v'' of the transformed equation at (x, v, v'),
    v'' = v - beta (e^{eps x} v^p - omega e^{-a x} v^q), a = |q - p*|,
    v clipped at 0, on Python floats; omega = V(r(x)) is ModelParams.omega's
    arithmetic, inline (math.exp and numpy's exp differ in the last bit at
    a few x).  Python's ``**`` and math.exp raise OverflowError where numpy
    returns inf (far into a blow-up); dop853 rejects such a step.  The clip
    gives the bits of max(v, 0.0) for every v: at v = -0.0 and NaN, where
    the two clips differ, the bracket is +0.0 or NaN either way."""
    beta, p, q, eps = params.beta, params.p, params.q, params.epsilon
    neg_gap, c = -params.exponent_gap, 4.0 * params.ef_sign / (params.n_dim - 2)
    a, b, exp, clip = params.potential.a, params.potential.b, math.exp, _EXP_CLIP

    def rhs(x, v, dv):
        vv = v if v > 0.0 else 0.0
        t = c * x
        w_q = (a + b * (1.0 / (1.0 + exp(clip if t > clip else t)))) * exp(neg_gap * x)
        return v - beta * (exp(eps * x) * vv ** p - w_q * vv ** q)

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
    """Piecewise degree-7 interpolant of v(x) matching v, v', v'', v''' at
    each step, on increasing x.

    v'' is the right-hand side of _ef_rhs; v''' is its x-derivative,
    v' - beta ((eps v^p + p v^{p-1} v') e^{eps x} - W' v^q - q W v^{q-1} v')
    with W = omega e^{-a x} and W' = (omega' - a omega) e^{-a x}, omega and
    omega' from ModelParams.omega, v clipped at 0.  On an interval
    [x_i, x_i + h] with scaled derivatives d_l = h^l v^{(l)}/l! the
    Bernstein coefficients are c_j = sum_{l<=j} C(j,l)/C(7,l) d_l(x_i) and
    c_{7-j} = sum_{l<=j} (-1)^l C(j,l)/C(7,l) d_l(x_i + h), j = 0..3,
    computed for all intervals at once.
    """
    params, x, v, dv = shot.params, shot.x, shot.v, shot.dv
    if x[0] > x[-1]:
        x, v, dv = x[::-1], v[::-1], dv[::-1]
    beta, p, q, eps, gap = params.beta, params.p, params.q, params.epsilon, params.exponent_gap
    vv, w_p, decay = np.maximum(v, 0.0), np.exp(eps * x), np.exp(-gap * x)
    omega, d_omega = params.omega(x)
    w_q = omega * decay
    dw_q = (d_omega - gap * omega) * decay
    d2v = v - beta * (w_p * vv ** p - w_q * vv ** q)
    d3v = dv - beta * ((eps * vv ** p + p * vv ** (p - 1.0) * dv) * w_p
                       - dw_q * vv ** q - q * w_q * vv ** (q - 1.0) * dv)
    derivs = np.column_stack([v, dv, d2v, d3v])
    scale = np.diff(x)[:, None] ** _ORDERS / _FACTORIALS
    c = np.empty((8, x.size - 1))
    c[:4] = _HERMITE_LEFT @ (derivs[:-1] * scale).T
    c[:3:-1] = _HERMITE_RIGHT @ (derivs[1:] * scale).T
    return PiecewisePolynomial(c, x, bernstein=True)


def find_tower(params: ModelParams, guess) -> ShotProfile:
    """Locate the k-peak decaying solution near a seed tower.

    The seed is the bubble sum's value at the spike locations guess.xi.
    Where guess is the tower a reduction has just solved (a ReductionState),
    that value is scaled by (Ubar + phi)/Ubar past the last spike, read by
    interpolation on the state's grid; a closed-form prediction (a
    TowerConfig) keeps it.  Each shot defines a functional g,
    positive below the separatrix (the crossing side) and negative above
    it.  _search scans SCAN_POINTS values across a +-50% bracket around the
    seed, from its middle, to the first change of sign of g, and then runs
    Brent's method on g between that pair (Brent, Algorithms for
    Minimization without Derivatives, 1973; a port of scipy's brentq),
    shooting each value once.  Labels do not steer the search.

    Concentrating regime: the value is the initial height u0, seeded at
    gamma sum e^{xi_j} (the ratio read at xi_k + 20, where u is flat); a
    shot stops at its first zero or minimum of v after the k-th peak, or at
    r_max (shoot).  g is _crossing_gap, whose
    root is the height whose far-field zero sits at r_max (_default_r_max
    says why r_max stays).  The search stops at a bracket of SEPARATRIX_RTOL
    * u0: g is noise within about 5e-13 relative of the root at eps >= 1e-2,
    and another integrator at the same tolerance puts the root about 1e-10
    relative away.  The kept shot is the g <= 0 end of the final bracket.

    Flat regime: the value is the decay coefficient c of v ~ c e^{-x}
    beyond the last spike, scanned geometrically around gamma e^{xi_k} (the
    ratio read at xi_k + 10, where the shots start);
    each shot runs backward from xi_k + 10 to its first event, at the
    latest xi_1 - 25 (_shoot_flat_backward).  g is _growing_mode, constant
    on the linear far field, so Brent's method converges superlinearly, to
    the same relative bracket, within which g's sign can be noise.  The kept
    shot is the g > 0 end: it follows the decaying solution far below xi_1
    before it dives through zero.  Its u0 is read at r(xi_1 - 6), where u is
    flat.

    In both regimes the kept shot is DECAYING once it reaches r(xi_1 - 6),
    past the tower on its side; only it builds its interpolant.  Raises
    ConvergenceError before any shot if the scan's top value, its p-th power
    (concentrating) or a flat shot's e^x or radius e^{x/m} passes float range; from
    _search; and with the kept shot as state unless it is DECAYING with k
    peaks.
    """
    xi1, xik = float(guess.xi[0]), float(guess.xi[-1])
    sub = params.regime is Regime.SUB_Q
    scale = 1.0
    if (phi := getattr(guess, "phi", None)) is not None:
        ubar = guess.field.ubar.values
        scale = float(np.interp(xik + (20.0 if sub else 10.0), phi.grid.x,
                                (ubar + phi.values) / ubar))
    # in logs, before numpy meets an overflow: the scan's top value, 1.5 times
    # the seed, and the largest exponent a shot needs
    log_top = math.log(1.5 * params.gamma * scale) + xik + (
        math.log(sum(math.exp(x - xik) for x in guess.xi.tolist())) if sub else 0.0)
    need = params.p * log_top if sub else max(log_top, xik + 10.0,
                                              2.0 * (xik + 10.0) / (params.n_dim - 2))
    if not need < _LOG_MAX:
        raise ConvergenceError(f"seed {'height u0' if sub else 'decay coefficient c'} scanned to "
                               f"e^{log_top:.6g}: a shot needs e^{need:.6g}, beyond float range")
    if sub:
        u0_pred = scale * params.gamma * float(np.sum(np.exp(guess.xi)))
        values = np.linspace(0.5 * u0_pred, 1.5 * u0_pred, SCAN_POINTS)
        r_max = _default_r_max(params)
        shoot_at = lambda u0: shoot(u0, params)
        gap = lambda shot: _crossing_gap(shot, r_max)
    else:
        c_pred = scale * params.gamma * math.exp(xik)
        values = np.geomspace(0.5 * c_pred, 1.5 * c_pred, SCAN_POINTS)
        shoot_at = lambda c: _shoot_flat_backward(c, params, xik + 10.0, xi1 - 25.0)
        gap = _growing_mode
    crossing, staying = _search(shoot_at, gap, values)
    kept = staying if sub else crossing
    r_read = float(ef_r_of_x(xi1 - 6.0, params.n_dim, params.regime))
    if kept.r[0] <= r_read <= kept.r[-1]:
        kept.classification = Classification.DECAYING
    if not sub:
        kept.u0 = float(kept.interpolant(max(r_read, kept.r[0])))
    if kept.classification is not Classification.DECAYING or kept.peak_count_ef != params.k:
        raise ConvergenceError(
            f"kept shot is {kept.classification.value} with {kept.peak_count_ef} "
            f"peaks, not decaying with {params.k}", state=kept)
    return kept


def _search(shoot_at: Callable, gap: Callable, values) -> Tuple[ShotProfile, ShotProfile]:
    """The final g > 0 and g <= 0 shots of find_tower's search.

    shoot_at(value) makes a shot, shot once per value, and gap(shot) is its
    g.  The scan shoots the middle value first and walks away from it: up
    after g > 0 (the separatrix lies above), down otherwise, then along the
    other leg.  The first shot whose sign differs from the middle's and its
    neighbour toward the middle bracket Brent's method, which runs to a
    bracket of SEPARATRIX_RTOL times its larger end.  Brent's bracket is
    always the latest trial with g > 0 and the latest with g <= 0, the state
    of a ConvergenceError from the search.  Raises ConvergenceError, listing
    every shot by increasing value, when the scan finds no change of sign.
    """
    cache, ends = {}, {}

    def g(value):
        if value not in cache:
            shot = shoot_at(value)
            cache[value] = shot, gap(shot)
        shot, g_value = cache[value]
        ends[g_value > 0.0] = shot
        return g_value

    middle = len(values) // 2
    up = g(values[middle]) > 0.0
    above, below = range(middle + 1, len(values)), range(middle - 1, -1, -1)
    change = next((i for i in ([*above, *below] if up else [*below, *above])
                   if (g(values[i]) > 0.0) != up), None)
    if change is None:
        raise ConvergenceError(
            "no crossing/non-crossing change in the bracket; scan: "
            + ", ".join(f"{value:.4g}:{cache[value][0].classification.value}"
                        for value in sorted(cache)))
    near = values[change - 1 if change > middle else change + 1]
    pair = (near, values[change]) if up else (values[change], near)
    top = max(pair)
    tol = SEPARATRIX_RTOL * top
    try:
        brentq(g, *pair, xtol=tol - BRENT_RTOL * top, rtol=BRENT_RTOL,
               maxiter=SEARCH_MAXITER)
    except RuntimeError as exc:
        raise ConvergenceError(f"separatrix search failed: {exc}",
                               state=(ends[True], ends[False])) from exc
    crossing, staying = ends[True], ends[False]
    if abs(staying.u0 - crossing.u0) > tol:
        raise ConvergenceError(
            f"separatrix search stopped at a bracket of "
            f"{abs(staying.u0 - crossing.u0) / top:.3g} relative width",
            state=(crossing, staying))
    return crossing, staying


def _crossing_gap(shot: ShotProfile, r_max: float) -> float:
    """g = -(A + B r_max^{-m})/u0 for the linear far field u = A + B r^{-m}
    (m = N - 2) through an outward shot's last step, that is
    -(u_e + (r_e u'_e/m)(1 - (r_e/r_max)^m))/u0.  Its root is the height
    whose far-field zero sits at r_max.  It is positive at a zero before
    r_max and negative on a shot that reaches r_max above zero, at a
    minimum of v (A = u_e/2 > 0 there) and at a stop at u > 10 u0 (u' > 0).
    """
    m = shot.params.n_dim - 2.0
    r_e, u_e, du_e = float(shot.r[-1]), float(shot.u[-1]), float(shot.du[-1])
    return -(u_e + r_e * du_e / m * (1.0 - (r_e / r_max) ** m)) / shot.u0


def _shoot_flat_backward(c: float, params: ModelParams, x_hi: float,
                         x_lo: float) -> ShotProfile:
    """Integrate the transformed equation backward from v = c e^{-x} at x_hi.

    The shot runs on _ef_rhs at rtol 1e-12 and atol 1e-20, and stops at
    its first event (_first_event): v < 0, an undershoot (CROSSING), or a
    minimum of v after its k-th peak, an overshoot (BLOWING).  A stop at
    v > 10 gamma and a DOP853 failure above zero are overshoots too; a shot
    that reaches x_lo is an undershoot.  The profile holds the steps in
    increasing r = e^{x/m}; its u0 is c.
    """
    v0, ceiling, event = c * math.exp(-x_hi), 10.0 * params.gamma, _first_event(params.k)
    x, v, dv, code = dop853(_ef_rhs(params), x_hi, v0, -v0, x_lo,
                            lambda x, v: event(v) or v > ceiling, 1e-12, 1e-20, MAX_STEPS)
    over = code != 1 and v[-1] >= 0.0
    x, v, dv = x[::-1], v[::-1], dv[::-1]
    return ShotProfile(c, x, v, dv, Classification.BLOWING if over else Classification.CROSSING,
                       _peak_indices(v).size, params)


def _first_event(k: int) -> Callable[[float], bool]:
    """Stop rule of both shooters, fed v step by step in the order of
    travel: true at v < 0 or at a minimum after the k-th peak.  A peak
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
        return v < 0.0

    return stop


def _growing_mode(shot: ShotProfile) -> float:
    """g = e^x (v' - v) at a flat shot's last step x[0], which is -b for
    b = e^x (v - v'), the coefficient of the mode e^{-x} of v'' = v that
    grows toward the origin: positive at a zero, negative at a minimum or
    at the ceiling.  It equals r^{N-1} u'/m (r = e^{x/m}, u = e^{-x} v,
    m = (N-2)/2), whose power r^{N-1} would overflow first."""
    return math.exp(shot.x[0]) * (shot.dv[0] - shot.v[0])


@dataclass(frozen=True)
class CompareMetrics:
    sup_rel: float
    l2_rel: float


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
    return CompareMetrics(sup_rel=sup_rel, l2_rel=l2_rel)
