"""Independent verification by direct shooting on the radial equation.

The concentrating regime shoots outward from the origin: below the tower
height trajectories cross zero, above they relax to the slowly decaying
supercritical orbit, and the tower is the boundary between crossing and
non-crossing shots.  The search runs Brent's method on a functional every
shot defines: the distance, in r^{-(N-2)}, from r_max to the zero of the
linear far field through the shot's last step, signed by the
classification, so that it vanishes where the crossing radius reaches r_max.
The flat regime has no reachable forward dichotomy (deviations separate
only at radii exp(1/eps)), so there the shooter integrates the transformed
equation backward from the far field, bisecting on the decay coefficient
between undershoot (monotone dive to zero) and overshoot (a second hump)
behaviours.

Shooting dominates the cost of a verification.  The outward shots run on
the compiled DOP853 behind ``scipy.integrate.ode``: the same 8(5,3) method
as solve_ivp's, without Python code per step besides the right-hand side and
a step callback that records the trajectory and stops a crossing or blowing
shot.  Only the kept shot of a search builds a dense interpolant (septic
Hermite on its steps, with closed-form Bernstein coefficients).  Both
right-hand sides are scalar code (``math`` and ``PotentialSpec.at``), the
outward one on Python floats.  The flat backward shots stay on solve_ivp,
whose dense output _flat_overshoot samples.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.integrate import ode, solve_ivp
from scipy.interpolate import BPoly
from scipy.optimize import brentq

from .errors import ConvergenceError
from .profiles import ModelParams, Regime
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
# brentq's iteration budget for that search; the checked ones take at most 12
SEARCH_MAXITER = 100
# brentq's relative tolerance, its smallest allowed value
BRENT_RTOL = 4.0 * np.finfo(float).eps
# step budget of one shot; the checked shots take a few hundred steps
MAX_STEPS = 100_000


class Classification(enum.Enum):
    DECAYING = "decaying"
    CROSSING = "crossing"
    BLOWING = "blowing"


@dataclass
class ShotProfile:
    """One integrated trajectory of the radial equation."""

    u0: float
    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    classification: Classification
    peak_count_ef: int
    params: ModelParams
    interpolant: Optional[Callable] = None

    def ef_image(self, x) -> np.ndarray:
        """v(x) = r^{(N-2)/2} u(r) evaluated through the dense interpolant."""
        x = np.asarray(x, dtype=float)
        m = (self.params.n_dim - 2) / 2.0
        s = self.params.ef_sign
        r = np.exp(-s * x / m)
        if self.interpolant is None:
            u = np.interp(r, self.r, self.u)
        else:
            u = np.atleast_2d(self.interpolant(r))[0]
        return r ** m * u


def _count_peaks(values: np.ndarray, floor_frac: float = 0.05) -> int:
    v = np.asarray(values)
    if v.size < 3:
        return 0
    floor = floor_frac * float(np.max(v)) if np.max(v) > 0 else np.inf
    interior = (v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:]) & (v[1:-1] > floor)
    return int(np.count_nonzero(interior))


def shoot(u0: float, params: ModelParams, r_max: Optional[float] = None,
          rtol: float = 1e-10, dense_output: bool = True) -> ShotProfile:
    """Integrate the radial equation outward from a series start at r0.

    u(r) = u0 - [u0^p - V(0) u0^q] r^2/(2N) + O(r^4) with p = params.p
    seeds the integration through the regular singular point.  The start
    r0 = min(1e-6, 1e-3 u0^{-(p-1)/2}) lies well inside the spike core,
    whose radius is u0^{-(p-1)/2}, however tall the tower.  The compiled
    DOP853 of Hairer, Norsett & Wanner (scipy's ``ode``) runs to r_max
    (default 50/sqrt(eps)); a callback records every accepted step and stops
    the shot once u < 0 (CROSSING) or u > 10 u0 (BLOWING).  A shot that
    reaches r_max is classified from its tail.  An integration that fails
    (step budget spent, step size underflow) raises ConvergenceError with
    the solver's return code and the last accepted step.

    With ``dense_output=True`` the profile's interpolant is the septic
    Hermite interpolant of u on the recorded steps: it matches u and u'
    there, and u'' and u''' taken from the equation (u''' needs V', the
    potential's ``slope``).  With ``dense_output=False`` there is none
    (ef_image then interpolates linearly between the steps); find_tower's
    search shots, which read only the classification, skip it.  The steps,
    and so r, u, du and the classification, do not depend on it.
    """
    if u0 <= 0.0:
        raise ValueError("initial height must be positive")
    p = params.p
    pot = params.potential.at
    if r_max is None:
        r_max = _default_r_max(params)
    r0 = min(1e-6, 1e-3 * u0 ** (-0.5 * (p - 1.0)))
    curv = (u0 ** p - pot(0.0) * u0 ** params.q) / (2.0 * params.n_dim)
    steps = []
    u_blow = 10.0 * u0

    def record(r, y):
        u, du = y.tolist()
        steps.append((r, u, du))
        return -1 if u < 0.0 or u > u_blow else 0

    solver = ode(_radial_rhs(params)).set_integrator(
        "dop853", rtol=rtol, atol=1e-14 * u0, nsteps=MAX_STEPS)
    solver.set_solout(record)
    solver.set_initial_value([u0 - curv * r0 * r0, -2.0 * curv * r0], r0)
    with warnings.catch_warnings():     # the failure is raised below instead
        warnings.simplefilter("ignore", UserWarning)
        solver.integrate(r_max)
    if not solver.successful():
        raise ConvergenceError(
            f"radial integration failed at r = {steps[-1][0]:.6g} "
            f"(DOP853 return code {solver.get_return_code()})", state=steps[-1])
    r, u, du = (np.array(c) for c in zip(*steps))
    shot = ShotProfile(u0, r, u, du, _classify_endpoint(u, du),
                       _ef_peaks(r, u, params), params)
    if dense_output:
        shot.interpolant = _septic_hermite(shot)
    return shot


def _default_r_max(params: ModelParams) -> float:
    return 50.0 / math.sqrt(params.epsilon) if params.epsilon > 0 else 50.0


def _radial_rhs(params: ModelParams):
    """Right-hand side (u, u')' of the outward radial equation.

    It runs on Python floats (``y.tolist()``), whose arithmetic is cheaper
    per stage than numpy scalars' and gives the same bits.  Python's ``**``
    raises OverflowError where numpy returns inf; such a stage (far into a
    blow-up) is recomputed on np.float64, so the integrator sees the same
    inf or nan as from numpy scalars and rejects the step itself.
    """
    p, q, n1 = params.p, params.q, params.n_dim - 1.0
    pot = params.potential.at

    def rhs(r, y):
        u, du = y.tolist()
        try:
            f = -math.copysign(abs(u) ** p, u) + pot(r) * math.copysign(abs(u) ** q, u)
        except OverflowError:
            u = np.float64(u)
            with np.errstate(over="ignore", invalid="ignore"):
                f = (-math.copysign(abs(u) ** p, u)
                     + pot(r) * math.copysign(abs(u) ** q, u))
        return du, -n1 / r * du + f

    return rhs


# h^l/l! scaling of the l-th derivative, l = 0..3
_ORDERS = np.arange(4)
_FACTORIALS = np.array([1.0, 1.0, 2.0, 6.0])
# Bernstein coefficients c_0..c_3 of a degree-7 interval from its scaled left
# derivatives: C(j,l)/C(7,l) for l <= j; and c_7..c_4 from its right ones
_HERMITE_LEFT = np.array([[math.comb(j, l) / math.comb(7, l) if l <= j else 0.0
                           for l in range(4)] for j in range(4)])
_HERMITE_RIGHT = _HERMITE_LEFT * (-1.0) ** _ORDERS


def _septic_hermite(shot: ShotProfile) -> BPoly:
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
    d2u = np.array([rhs(ri, yi)[1]
                    for ri, yi in zip(r.tolist(), np.column_stack((u, du)))])
    au = np.abs(u)
    f_u = -p * au ** (p - 1.0) + params.potential.evaluate(r) * q * au ** (q - 1.0)
    f_r = np.array([params.potential.slope(ri) for ri in r]) * np.sign(u) * au ** q
    d3u = n1 * (du / r - d2u) / r + f_u * du + f_r
    derivs = np.column_stack([u, du, d2u, d3u])
    scale = np.diff(r)[:, None] ** _ORDERS / _FACTORIALS
    c = np.empty((8, r.size - 1))
    c[:4] = _HERMITE_LEFT @ (derivs[:-1] * scale).T
    c[:3:-1] = _HERMITE_RIGHT @ (derivs[1:] * scale).T
    return BPoly(c, r)


def _classify_endpoint(u, du) -> Classification:
    if np.any(u < 0.0):
        return Classification.CROSSING
    i_pk = int(np.argmax(u))
    tail = u[i_pk:]
    if u[-1] <= 0.5 * u.max() and np.all(np.diff(tail) <= 1e-9 * u.max()):
        return Classification.DECAYING
    return Classification.BLOWING


def _ef_peaks(r, u, params: ModelParams) -> int:
    m = (params.n_dim - 2) / 2.0
    mask = (r > 0) & (u > 0)
    if np.count_nonzero(mask) < 3:
        return 0
    return _count_peaks(r[mask] ** m * u[mask])


def find_tower(params: ModelParams, guess: TowerConfig,
               bracket: Tuple[float, float] = (0.5, 1.5)) -> ShotProfile:
    """Locate the k-peak decaying solution near a predicted tower.

    Both regimes scan up to SCAN_POINTS values across a +-50% bracket
    around the prediction, in order, stop at the first pair whose
    behaviour differs and search between them.

    Concentrating regime: the initial height u0 between a crossing and a
    non-crossing shot, seeded at the predicted peak of the tower; the
    separatrix is the height whose shot first crosses zero exactly at
    r_max.  The linear far field u = A + B r^{-m}, m = N - 2, through the
    shot's last step (r_e, u_e, u'_e) has its zero at r_*, with
    r_*^{-m} = r_e^{-m} + m u_e/(r_e^{m+1} u'_e).  The functional is
    g = +-|r_*^{-m} - r_max^{-m}|, + on crossing shots and - on the others
    (magnitude 1 where the denominator is zero or not finite): on a crossing
    shot r_* is its crossing radius, so g -> 0 where that radius reaches
    r_max, and the sign makes every bracket a crossing/non-crossing pair.
    The search is Brent's method on g (Brent, Algorithms for Minimization
    without Derivatives, 1973; scipy's brentq), which falls back to
    bisection by itself where the linear far field fails (u' > 0 at r_max
    on a non-crossing end).  It shoots each height once and stops once the
    bracket is at most SEPARATRIX_RTOL * u0 wide: on 81 heights over
    +-2e-12 relative around the found u0 the classification flips 1 to 7
    times within at most 4.5e-13 relative (9 towers, k = 1, 2, 3,
    eps >= 1e-2), so a narrower bracket only picks one of these flips; at
    eps = 1e-3 the flips spread over 4e-12 (k = 1) and 1.3e-11 (k = 2)
    relative.  Another integrator at the same tolerance puts the separatrix
    about 1e-10 relative away.  The scan takes at most 13 shots and the
    search 5 to 7 on the checked towers (k = 1, 2, 3, eps >= 1e-2).  The
    returned shot is the non-crossing end of Brent's final bracket, with
    the interpolant that compare() reads attached; every search shot is a
    call to shoot() with dense_output=False, whose steps do not depend on
    it.  A search that spends SEARCH_MAXITER steps raises ConvergenceError
    with its last crossing and non-crossing shots as state.

    Flat regime: backward bisection on the far-field decay coefficient (see
    module docstring) until the bracket ends are adjacent floats; the kept
    solution is that of the end the final midpoint rounds to, whose dense
    output _flat_overshoot samples.

    Raises ConvergenceError with the scan report when no behaviour change
    brackets a solution.
    """
    gamma = params.gamma
    if params.regime is Regime.SUB_Q:
        u0_pred = gamma * float(np.sum(np.exp(guess.xi)))
        lo, hi = bracket[0] * u0_pred, bracket[1] * u0_pred
        heights = np.linspace(lo, hi, SCAN_POINTS)
        shots, labels = _scan(heights, lambda u: shoot(u, params, dense_output=False),
                              _crossed)
        if labels[-1] == labels[0]:
            raise ConvergenceError(
                "no crossing/non-crossing change in the bracket; scan: "
                + ", ".join(f"{u:.4g}:{s.classification.value}"
                            for u, s in zip(heights, shots)))
        crossing, staying = shots[-2], shots[-1]
        if labels[-1]:
            crossing, staying = staying, crossing
        staying = _search_separatrix(params, crossing, staying)
        staying.interpolant = _septic_hermite(staying)
        return staying
    return _find_tower_flat(params, guess, bracket)


def _search_separatrix(params: ModelParams, crossing: ShotProfile,
                       staying: ShotProfile) -> ShotProfile:
    """Narrow a crossing/non-crossing pair of shots to SEPARATRIX_RTOL by
    Brent's method on _crossing_gap (see find_tower); returns the
    non-crossing end."""
    r_max_m = _default_r_max(params) ** -(params.n_dim - 2.0)
    shots = {crossing.u0: crossing, staying.u0: staying}

    def gap(u0):
        if u0 not in shots:
            shots[u0] = shoot(u0, params, dense_output=False)
        return _crossing_gap(shots[u0], r_max_m)

    top = max(crossing.u0, staying.u0)
    tol = SEPARATRIX_RTOL * top
    try:
        brentq(gap, crossing.u0, staying.u0, xtol=tol - BRENT_RTOL * top,
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
    return staying


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


def _scan(values, shot_at: Callable, label: Callable):
    """Shots at values, in order, up to the first whose label differs from
    the first shot's; returns the shots and their labels."""
    shots, labels = [], []
    for v in values:
        shots.append(shot_at(v))
        labels.append(label(shots[-1]))
        if labels[-1] != labels[0]:
            break
    return shots, labels


def _flat_rhs(params: ModelParams):
    """Right-hand side of the flat-regime transformed equation."""
    beta = params.beta
    p = params.p
    q = params.q
    eps = params.epsilon
    gap = params.q - params.p_star
    m = (params.n_dim - 2) / 2.0
    pot = params.potential.at

    def rhs(x, y):
        v, dv = y
        vv = max(v, 0.0)
        r = math.exp(min(x / m, 700.0))
        omega = pot(r)
        return dv, v - beta * (math.exp(eps * x) * vv ** p
                               - omega * math.exp(-gap * x) * vv ** q)

    return rhs


def _shoot_flat_backward(c: float, params: ModelParams, x_hi: float, x_lo: float):
    rhs = _flat_rhs(params)
    v0 = c * math.exp(-x_hi)
    ev_cross = lambda x, y: y[0]
    ev_cross.terminal = True
    sol = solve_ivp(rhs, (x_hi, x_lo), [v0, -v0], method="DOP853",
                    rtol=1e-12, atol=1e-20, events=[ev_cross],
                    dense_output=True)
    return sol


def _flat_overshoot(sol) -> bool:
    """True when v rises again (second hump) after diving below half peak."""
    xs = np.linspace(sol.t[0], sol.t[-1], 4000)
    vs = sol.sol(xs)[0]
    i_peak = int(np.argmax(vs))
    running_min = vs[i_peak]
    for j in range(i_peak, xs.size):
        running_min = min(running_min, vs[j])
        if vs[j] > 1.5 * running_min + 1e-12 and running_min < 0.5 * vs[i_peak]:
            return True
    return False


def _find_tower_flat(params, guess, bracket):
    gamma = params.gamma
    m = (params.n_dim - 2) / 2.0
    xi1, xik = float(guess.xi[0]), float(guess.xi[-1])
    c_pred = gamma * math.exp(xik)      # v ~ c e^{-x} beyond the last spike
    x_hi, x_lo = xik + 10.0, xi1 - 25.0
    cs = np.geomspace(bracket[0] * c_pred, bracket[1] * c_pred, SCAN_POINTS)
    sols, labels = _scan(cs, lambda c: _shoot_flat_backward(c, params, x_hi, x_lo),
                         _flat_overshoot)
    if labels[-1] == labels[0]:
        raise ConvergenceError(
            "no overshoot/undershoot change in the far-field bracket; scan: "
            + ", ".join(f"{c:.4g}:{'over' if l else 'under'}"
                        for c, l in zip(cs, labels)))
    a, b = cs[len(sols) - 2], cs[len(sols) - 1]
    (sol_a, sol_b), a_label = sols[-2:], labels[-2]
    while (mid := 0.5 * (a + b)) not in (a, b):
        sol = _shoot_flat_backward(mid, params, x_hi, x_lo)
        if _flat_overshoot(sol) == a_label:
            a, sol_a = mid, sol
        else:
            b, sol_b = mid, sol
    sol = sol_a if mid == a else sol_b
    # trust the trajectory down to its deepest decayed point
    x_end = max(sol.t[-1], x_lo)
    xs = np.linspace(x_end, x_hi, 6000)
    vs = np.maximum(sol.sol(xs)[0], 0.0)
    rs = np.exp(xs / m)
    u = rs ** (-m) * vs
    du = np.gradient(u, rs)
    i0 = int(np.argmin(np.abs(xs - (xi1 - 6.0)))) if x_end < xi1 - 6.0 else 0
    u0 = float(vs[i0] * math.exp(-xs[i0]))     # v ~ u0 e^{x} toward the origin
    cls = Classification.DECAYING if x_end <= xi1 - 6.0 else Classification.CROSSING
    peaks = _count_peaks(vs)
    profile = ShotProfile(u0, rs, u, du, cls, peaks, params)
    return profile


@dataclass(frozen=True)
class CompareMetrics:
    sup_rel: float
    l2_rel: float
    peaks_a: List[Tuple[float, float]]
    peaks_b: List[Tuple[float, float]]


def compare(u_a: Callable, u_b: Callable, window: Tuple[float, float],
            n: int = 512, spacing: str = "linear") -> CompareMetrics:
    """Sup and L2 relative discrepancies of two profiles on a window.

    Both arguments are callables of one variable; the discrepancies are
    normalized by the sup / L2 size of the first profile on the window.
    """
    lo, hi = window
    if not (hi > lo):
        raise ValueError("empty comparison window")
    if spacing == "log":
        if lo <= 0:
            raise ValueError("log spacing needs a positive window")
        t = np.geomspace(lo, hi, n)
    else:
        t = np.linspace(lo, hi, n)
    va = np.asarray(u_a(t), dtype=float)
    vb = np.asarray(u_b(t), dtype=float)
    scale_sup = float(np.max(np.abs(va)))
    scale_l2 = float(np.sqrt(np.mean(va * va)))
    diff = va - vb
    sup_rel = float(np.max(np.abs(diff))) / (scale_sup or 1.0)
    l2_rel = float(np.sqrt(np.mean(diff * diff))) / (scale_l2 or 1.0)

    def peaks(vals):
        out = []
        for i in range(1, n - 1):
            if vals[i] > vals[i - 1] and vals[i] >= vals[i + 1] \
                    and vals[i] > 0.05 * np.max(vals):
                out.append((float(t[i]), float(vals[i])))
        return out

    return CompareMetrics(sup_rel=sup_rel, l2_rel=l2_rel,
                          peaks_a=peaks(va), peaks_b=peaks(vb))
