"""Independent verification by direct shooting on the radial equation.

The concentrating regime shoots outward from the origin: below the tower
height trajectories cross zero, above they relax to the slowly decaying
supercritical orbit, and the tower is the boundary between crossing and
non-crossing shots.  The search reads the shot's end value u[-1], whose
sign is that classification (a crossing shot stops at its first step below
0) and which is u(r_max), continuous in the height, once both ends of the
bracket reach r_max; there it takes Illinois steps, elsewhere midpoints.
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
Hermite on its steps).  Both right-hand sides are scalar code (``math`` and
``PotentialSpec.at``), the outward one on Python floats.  The flat backward
shots stay on solve_ivp, whose dense output _flat_overshoot samples.
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


def _septic_hermite(shot: ShotProfile) -> BPoly:
    """Piecewise degree-7 interpolant of u matching u, u', u'', u''' at each r.

    u'' is the right-hand side of the equation; u''' is its r-derivative,
    (N-1)(u'/r - u'')/r + f_u(r, u) u' + V'(r) |u|^{q-1} u.
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
    return BPoly.from_derivatives(r, np.column_stack([u, du, d2u, d3u]))


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

    Both regimes scan SCAN_POINTS values across a +-50% bracket around the
    prediction and search between the first pair whose behaviour differs;
    the concentrating scan shoots in order and stops at that pair.

    Concentrating regime: the initial height u0 between a crossing and a
    non-crossing shot, seeded at the predicted peak of the tower.  The
    functional is the shot's end value u[-1]: negative exactly on crossing
    shots, so its root is the classification boundary.  While either
    bracket shot stopped before r_max (an early crossing or a blow-up) its
    end value says nothing about the distance to that boundary and the
    trial height is the midpoint; once both reach r_max it is an Illinois
    step (Dowell & Jarratt, BIT 11, 1971: regula falsi that halves the end
    value of an end kept twice in a row), or the midpoint if that step does
    not land strictly inside the bracket.  The search stops once the
    bracket is at most SEPARATRIX_RTOL * u0 wide: on 81 heights over
    +-2e-12 relative around the found u0 the classification flips 1 to 7
    times within at most 4.5e-13 relative (9 towers, k = 1, 2, 3), so a
    narrower bracket only picks one of these flips.  Another integrator at
    the same tolerance puts the separatrix about 1e-10 relative away.  The
    scan takes at most 13 shots and the search 11 to 19 on the checked towers
    (k = 1, 2, 3).  The returned shot is the non-crossing bracket end
    itself, with the interpolant that compare() reads attached; every
    search shot is a call to shoot() with dense_output=False, whose steps
    do not depend on it.

    Flat regime: backward bisection on the far-field decay coefficient (see
    module docstring) until the bracket ends are adjacent floats, then one
    more dense shot at the kept coefficient, which _flat_overshoot samples.
    Raises ConvergenceError with the scan report when no behaviour change
    brackets a solution.
    """
    gamma = params.gamma
    if params.regime is Regime.SUB_Q:
        u0_pred = gamma * float(np.sum(np.exp(guess.xi)))
        lo, hi = bracket[0] * u0_pred, bracket[1] * u0_pred
        heights = np.linspace(lo, hi, SCAN_POINTS)
        shots, labels = [], []
        for u in heights:       # in order, up to the first change of label
            shots.append(shoot(u, params, dense_output=False))
            labels.append(shots[-1].classification is Classification.CROSSING)
            if labels[-1] != labels[0]:
                break
        else:
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
    """Narrow a crossing/non-crossing pair of shots to SEPARATRIX_RTOL on
    their end values (see find_tower); returns the non-crossing end."""
    r_end = _default_r_max(params)
    g_c, g_s = crossing.u[-1], staying.u[-1]
    last_crossed = None
    while abs(staying.u0 - crossing.u0) > SEPARATRIX_RTOL * staying.u0:
        a, b = crossing.u0, staying.u0
        trial = 0.5 * (a + b)
        if crossing.r[-1] == r_end and staying.r[-1] == r_end:
            illinois = (a * g_s - b * g_c) / (g_s - g_c)
            if min(a, b) < illinois < max(a, b):
                trial = illinois
        shot = shoot(trial, params, dense_output=False)
        crossed = shot.classification is Classification.CROSSING
        if crossed:
            crossing, g_c = shot, shot.u[-1]
            if last_crossed:                # the non-crossing end kept twice
                g_s *= 0.5
        else:
            staying, g_s = shot, shot.u[-1]
            if last_crossed is False:       # the crossing end kept twice
                g_c *= 0.5
        last_crossed = crossed
    return staying


def _first_change(labels) -> Optional[int]:
    for i in range(len(labels) - 1):
        if labels[i] != labels[i + 1]:
            return i
    return None


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
    sols = [_shoot_flat_backward(c, params, x_hi, x_lo) for c in cs]
    labels = [_flat_overshoot(s) for s in sols]
    pair = _first_change(labels)
    if pair is None:
        raise ConvergenceError(
            "no overshoot/undershoot change in the far-field bracket; scan: "
            + ", ".join(f"{c:.4g}:{'over' if l else 'under'}"
                        for c, l in zip(cs, labels)))
    a, b = cs[pair], cs[pair + 1]
    a_label = labels[pair]
    while (mid := 0.5 * (a + b)) not in (a, b):
        if _flat_overshoot(_shoot_flat_backward(mid, params, x_hi, x_lo)) == a_label:
            a = mid
        else:
            b = mid
    sol = _shoot_flat_backward(0.5 * (a + b), params, x_hi, x_lo)
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
