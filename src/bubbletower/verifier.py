"""Independent verification by direct shooting on the radial equation.

The concentrating regime shoots outward from the origin: below the tower
height trajectories cross zero, above they relax to the slowly decaying
supercritical orbit, and the tower is the boundary, found by bisection on
the initial height.  The flat regime has no reachable forward dichotomy
(deviations separate only at radii exp(1/eps)), so there the shooter
integrates the transformed equation backward from the far field, bisecting
on the decay coefficient between undershoot (monotone dive to zero) and
overshoot (a second hump) behaviours.

Shooting dominates the cost of a verification.  The outward shots run on
the compiled DOP853 behind ``scipy.integrate.ode``: the same 8(5,3) method
as solve_ivp's, without Python code per step besides the right-hand side and
a step callback that records the trajectory and stops a crossing or blowing
shot.  Only the kept shot of a search builds a dense interpolant (septic
Hermite on its steps).  Both right-hand sides are scalar code (``math`` and
``PotentialSpec.at``).  The flat backward shots stay on solve_ivp, whose
dense output _flat_overshoot samples.
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


# find_tower's scan before bisection: values across the bracket
SCAN_POINTS = 13
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
    q = params.q
    n_dim = params.n_dim
    pot = params.potential.at
    if r_max is None:
        r_max = 50.0 / math.sqrt(params.epsilon) if params.epsilon > 0 else 50.0

    def rhs(r, y):
        u, du = y
        f = -math.copysign(abs(u) ** p, u) + pot(r) * math.copysign(abs(u) ** q, u)
        return du, -(n_dim - 1.0) / r * du + f

    r0 = min(1e-6, 1e-3 * u0 ** (-0.5 * (p - 1.0)))
    curv = (u0 ** p - pot(0.0) * u0 ** q) / (2.0 * n_dim)
    steps = []
    u_blow = 10.0 * u0

    def record(r, y):
        u = float(y[0])
        steps.append((r, u, float(y[1])))
        return -1 if u < 0.0 or u > u_blow else 0

    solver = ode(rhs).set_integrator("dop853", rtol=rtol, atol=1e-14 * u0,
                                     nsteps=MAX_STEPS)
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
    interpolant = _septic_hermite(r, u, du, rhs, params) if dense_output else None
    return ShotProfile(u0, r, u, du, _classify_endpoint(u, du),
                       _ef_peaks(r, u, params), params, interpolant=interpolant)


def _septic_hermite(r, u, du, rhs, params: ModelParams) -> BPoly:
    """Piecewise degree-7 interpolant of u matching u, u', u'', u''' at each r.

    u'' is the right-hand side of the equation; u''' is its r-derivative,
    (N-1)(u'/r - u'')/r + f_u(r, u) u' + V'(r) |u|^{q-1} u.
    """
    p, q, n1 = params.p, params.q, params.n_dim - 1.0
    d2u = np.array([rhs(ri, (ui, dui))[1] for ri, ui, dui in zip(r, u, du)])
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

    Concentrating regime: bisection on the initial height u0 between the
    crossing and non-crossing trajectories, seeded at the predicted peak of
    the tower with a +-50% bracket.  Flat regime: backward bisection on the
    far-field decay coefficient (see module docstring).  Both scan SCAN_POINTS
    values across the bracket, then bisect until the bracket ends are adjacent
    floats.  Every concentrating shot is a call to shoot(); the search shots
    are made with dense_output=False, and only the returned shot carries the
    interpolant that compare() reads.  The height found is the integrator's
    numerical separatrix: another integrator at the same tolerance puts it
    about 1e-10 relative away.  The flat shots stay dense, because
    _flat_overshoot samples them.  Raises ConvergenceError with the scan
    report when no behaviour change brackets a solution.
    """
    gamma = params.gamma
    if params.regime is Regime.SUB_Q:
        u0_pred = gamma * float(np.sum(np.exp(guess.xi)))
        lo, hi = bracket[0] * u0_pred, bracket[1] * u0_pred
        heights = np.linspace(lo, hi, SCAN_POINTS)
        shots = [shoot(u, params, dense_output=False) for u in heights]
        labels = [s.classification is Classification.CROSSING for s in shots]
        pair = _first_change(labels)
        if pair is None:
            raise ConvergenceError(
                "no crossing/non-crossing change in the bracket; scan: "
                + ", ".join(f"{u:.4g}:{s.classification.value}"
                            for u, s in zip(heights, shots)))
        a, b = heights[pair], heights[pair + 1]
        a_crossing = labels[pair]
        while (mid := 0.5 * (a + b)) not in (a, b):
            crossed = (shoot(mid, params, dense_output=False).classification
                       is Classification.CROSSING)
            if crossed == a_crossing:
                a = mid
            else:
                b = mid
        boundary = b if a_crossing else a
        return shoot(boundary, params)
    return _find_tower_flat(params, guess, bracket)


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
