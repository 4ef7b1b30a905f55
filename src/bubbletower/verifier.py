"""Independent verification by direct shooting on the radial equation.

The concentrating regime shoots outward from the origin: below the tower
height trajectories cross zero, above they relax to the slowly decaying
supercritical orbit, and the tower is the boundary, found by bisection on
the initial height.  The flat regime has no reachable forward dichotomy
(deviations separate only at radii exp(1/eps)), so there the shooter
integrates the transformed equation backward from the far field, bisecting
on the decay coefficient between undershoot (monotone dive to zero) and
overshoot (a second hump) behaviours.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp

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


def _signed_power(u, expo):
    return np.sign(u) * np.abs(u) ** expo


def _count_peaks(values: np.ndarray, floor_frac: float = 0.05) -> int:
    v = np.asarray(values)
    if v.size < 3:
        return 0
    floor = floor_frac * float(np.max(v)) if np.max(v) > 0 else np.inf
    interior = (v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:]) & (v[1:-1] > floor)
    return int(np.count_nonzero(interior))


def _rk4_fixed(rhs, r0, r1, y0, n_steps):
    h = (r1 - r0) / n_steps
    r = r0
    y = np.asarray(y0, dtype=float)
    rs = np.empty(n_steps + 1)
    ys = np.empty((n_steps + 1, y.size))
    rs[0], ys[0] = r, y
    for i in range(n_steps):
        k1 = rhs(r, y)
        k2 = rhs(r + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(r + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(r + h, y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        r = r + h
        rs[i + 1], ys[i + 1] = r, y
    return rs, ys


def shoot(u0: float, params: ModelParams, r_max: Optional[float] = None,
          r0: float = 1e-6, rtol: float = 1e-10,
          fixed_step: Optional[float] = None) -> ShotProfile:
    """Integrate the radial equation outward from a series start at r0.

    u(r) = u0 - [u0^p - V(0) u0^q] r^2/(2N) + O(r^4) with p = params.p
    seeds the integration through the regular singular point.  With fixed_step set,
    a plain fourth-order Runge-Kutta with that step is used instead of the
    adaptive integrator (no event handling; used for order checks).
    """
    if u0 <= 0.0:
        raise ValueError("initial height must be positive")
    p = params.p
    q = params.q
    n_dim = params.n_dim
    pot = params.potential.evaluate
    if r_max is None:
        r_max = 50.0 / math.sqrt(params.epsilon) if params.epsilon > 0 else 50.0

    def rhs(r, y):
        u, du = y
        f = -_signed_power(u, p) + float(pot(r)) * _signed_power(u, q)
        return np.array([du, -(n_dim - 1.0) / r * du + f])

    curv = (u0 ** p - float(pot(0.0)) * u0 ** q) / (2.0 * n_dim)
    y0 = np.array([u0 - curv * r0 * r0, -2.0 * curv * r0])

    if fixed_step is not None:
        n_steps = max(8, int(math.ceil((r_max - r0) / fixed_step)))
        rs, ys = _rk4_fixed(rhs, r0, r_max, y0, n_steps)
        u, du = ys[:, 0], ys[:, 1]
        cls = _classify_endpoint(u, du)
        return ShotProfile(u0, rs, u, du, cls, _ef_peaks(rs, u, params), params)

    ev_cross = lambda r, y: y[0]
    ev_cross.terminal, ev_cross.direction = True, -1
    ev_blow = lambda r, y: y[0] - 10.0 * u0
    ev_blow.terminal, ev_blow.direction = True, 1
    sol = solve_ivp(rhs, (r0, r_max), y0, method="DOP853", rtol=rtol,
                    atol=1e-14 * u0, events=[ev_cross, ev_blow],
                    dense_output=True)
    if not sol.success and not any(len(t) for t in sol.t_events):
        raise ConvergenceError(
            f"radial integration failed at r = {sol.t[-1]:.4g}: {sol.message}")
    u, du = sol.y[0], sol.y[1]
    if len(sol.t_events[0]):
        cls = Classification.CROSSING
    elif len(sol.t_events[1]):
        cls = Classification.BLOWING
    else:
        cls = _classify_endpoint(u, du)
    return ShotProfile(u0, sol.t, u, du, cls, _ef_peaks(sol.t, u, params),
                       params, interpolant=sol.sol)


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
               bracket: Tuple[float, float] = (0.5, 1.5),
               scan_points: int = 13,
               r_max: Optional[float] = None) -> ShotProfile:
    """Locate the k-peak decaying solution near a predicted tower.

    Concentrating regime: bisection on the initial height u0 between the
    crossing and non-crossing trajectories, seeded at the predicted peak of
    the tower with a +-50% bracket.  Flat regime: backward bisection on the
    far-field decay coefficient (see module docstring).  Both bisect until
    the bracket ends are adjacent floats.  Raises ConvergenceError with the
    scan report when no behaviour change brackets a solution.
    """
    gamma = params.gamma
    if params.regime is Regime.SUB_Q:
        u0_pred = gamma * float(np.sum(np.exp(guess.xi)))
        lo, hi = bracket[0] * u0_pred, bracket[1] * u0_pred
        heights = np.linspace(lo, hi, scan_points)
        shots = [shoot(u, params, r_max=r_max) for u in heights]
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
            crossed = shoot(mid, params, r_max=r_max).classification \
                is Classification.CROSSING
            if crossed == a_crossing:
                a = mid
            else:
                b = mid
        boundary = b if a_crossing else a
        return shoot(boundary, params, r_max=r_max)
    return _find_tower_flat(params, guess, bracket, scan_points)


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
    pot = params.potential.evaluate

    def rhs(x, y):
        v, dv = y
        vv = max(v, 0.0)
        r = math.exp(min(x / m, 700.0))
        omega = float(pot(r))
        return np.array([dv, v - beta * (math.exp(eps * x) * vv ** p
                                         - omega * math.exp(-gap * x) * vv ** q)])

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


def _find_tower_flat(params, guess, bracket, scan_points):
    gamma = params.gamma
    m = (params.n_dim - 2) / 2.0
    xi1, xik = float(guess.xi[0]), float(guess.xi[-1])
    c_pred = gamma * math.exp(xik)      # v ~ c e^{-x} beyond the last spike
    x_hi, x_lo = xik + 10.0, xi1 - 25.0
    cs = np.geomspace(bracket[0] * c_pred, bracket[1] * c_pred, scan_points)
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
