"""Discretized Lyapunov-Schmidt reduction.

The pipeline: (i) a projected linear solver for the linearized operator with
the translation directions Z_i = U'(. - xi_i) projected out (block
elimination of the bordered system through its k x k Schur complement, so
only the tridiagonal operator is factored), (ii) a damped fixed-point
iteration for the correction phi(xi), (iii) the reduced energy as a function
of the scale parameters Lambda, and (iv) an outer Newton solve driving its
gradient to zero, which simultaneously drives the multipliers c_i to zero
and yields a genuine discrete solution v = Ubar + phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
import scipy.sparse.linalg as spla
from scipy.interpolate import CubicSpline

from .errors import (AssemblyError, ConditioningError, ConvergenceError,
                     WindowViolationError)
from .field import (Grid, GridFunction, SpikeFrame, default_sigma, energy,
                    full_operator, grid_for_spikes, kernel_directions,
                    linearized_matrix, nonlinear_remainder, star_norm,
                    tower_ansatz)
from .profiles import ModelParams, Regime, ef_x_of_r
from .quadrature import EnergyConstants
from .reduced_model import critical_scales, spike_locations

__all__ = [
    "ReductionConfig",
    "ReductionState",
    "check_window",
    "ProjectedSolver",
    "solve_projected_linear",
    "solve_correction",
    "reduced_energy",
    "solve_reduced",
    "assemble_solution",
    "RadialSolution",
]


@dataclass(frozen=True)
class ReductionConfig:
    """Grid, window and tolerance knobs for one reduction run."""

    h: float = 0.02
    sigma: Optional[float] = None      # None -> default_sigma(params)
    pad: float = 3.0                   # extra domain beyond max(30, 10/sigma)
    tol_fp: float = 1e-11              # fixed-point increment, star norm
    tol_orth: float = 1e-10
    tol_c: float = 1e-8
    newton_tol: float = 1e-8           # |grad Phi|_2
    fd_step: float = 1e-4              # central differences of Phi in Lambda
    jac_step: float = 1e-3             # finite-difference Jacobian of the gradient
    max_picard: int = 80
    max_newton: int = 40
    window_m: float = 10.0
    lambda_box: Tuple[float, float] = (0.05, 20.0)


@dataclass
class ReductionState:
    """Converged correction phi with multipliers and diagnostics."""

    phi: GridFunction
    c: np.ndarray
    star_norm_phi: float
    iterations: int
    converged: bool
    xi: np.ndarray
    frame: SpikeFrame
    orth_defect: float
    increments: list = field(default_factory=list)


def check_window(xi, epsilon: float, k: int, m_window: float = 10.0):
    """Admissible-configuration window for the spike set.

    Gaps must exceed log(1/(M eps)) and the outermost spike must stay below
    k log(M/eps).  (With the M factors on these sides the window contains
    the critical spike choice for the exponent gaps used here.)
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi[0] <= 0.0:
        raise WindowViolationError(f"first spike must be positive, got {xi[0]:g}")
    if k >= 2:
        min_gap = float(np.min(np.diff(xi)))
        if min_gap <= math.log(1.0 / (m_window * epsilon)):
            raise WindowViolationError(
                f"minimal gap {min_gap:g} below window bound "
                f"{math.log(1.0 / (m_window * epsilon)):g}")
    if xi[-1] >= k * math.log(m_window / epsilon):
        raise WindowViolationError(
            f"outermost spike {xi[-1]:g} beyond window bound "
            f"{k * math.log(m_window / epsilon):g}")


class ProjectedSolver:
    """Block-elimination solver for the projected linear problem.

    Solves L phi = h + sum_i c_i Z_i with the discrete constraints
    Z^T phi = 0, i.e. the bordered system [[A, Z], [Z^T, 0]] [phi; mu] =
    [h; 0] with c = -mu, by Keller's bordering algorithm: only the
    tridiagonal A is factored (no fill), A^{-1} Z and the k x k Schur
    complement S = Z^T A^{-1} Z are formed once, and each right-hand side
    costs one tridiagonal solve, y = A^{-1} h, mu = S^{-1} Z^T y,
    phi = y - A^{-1} Z mu.  Solves refuse an S whose 2-norm condition number
    exceeds 1e12 (nearly dependent Z columns).
    """

    def __init__(self, xi, params: ModelParams, grid: Grid,
                 frame: Optional[SpikeFrame] = None):
        self.xi = np.atleast_1d(np.asarray(xi, dtype=float))
        self.params = params
        self.grid = grid
        self.frame = frame or SpikeFrame(self.xi, default_sigma(params))
        self.matrix = linearized_matrix(self.xi, params, grid)
        self.z = kernel_directions(self.xi, params, grid)
        try:
            self._lu = spla.splu(self.matrix, permc_spec="NATURAL")
        except RuntimeError as exc:
            raise ConditioningError(
                f"operator factorization failed (n={grid.n}, "
                f"k={self.xi.size}, h={grid.h:g}): {exc}") from exc
        self._az = self._lu.solve(self.z)
        self._schur = self.z.T @ self._az
        sv = np.linalg.svd(self._schur, compute_uv=False)
        self._schur_cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else math.inf

    def solve_values(self, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if self._schur_cond > 1e12:
            raise ConditioningError(
                f"Schur complement Z^T A^-1 Z ill-conditioned (cond "
                f"{self._schur_cond:.2e}); kernel directions nearly dependent")
        y = self._lu.solve(rhs)
        try:
            mu = np.linalg.solve(self._schur, self.z.T @ y)
        except np.linalg.LinAlgError as exc:
            raise ConditioningError(
                f"singular Schur complement Z^T A^-1 Z: {exc}") from exc
        phi = y - self._az @ mu
        sol = np.concatenate([phi, mu])
        scale = 1e12 * max(1.0, float(np.max(np.abs(rhs))))
        if not np.all(np.isfinite(sol)) or np.max(np.abs(sol)) > scale:
            raise ConditioningError(
                f"projected solve degenerate (|sol| ~ {np.max(np.abs(sol)):.2e} "
                f"for |rhs| ~ {np.max(np.abs(rhs)):.2e}); spike window violated "
                "or grid too coarse")
        return phi, -mu

    def solve(self, h_rhs: GridFunction) -> Tuple[GridFunction, np.ndarray]:
        vals, c = self.solve_values(h_rhs.values)
        return GridFunction(self.grid, vals,
                            decay=(self.frame.sigma, self.frame.sigma)), c

    def orthogonality_defect(self, phi_values: np.ndarray) -> float:
        w = self.grid.trapezoid_weights()
        return float(np.max(np.abs(self.z.T @ (w * phi_values))))


def solve_projected_linear(h_rhs: GridFunction, xi, params: ModelParams,
                           frame: Optional[SpikeFrame] = None):
    """One-off projected solve; returns (phi, multipliers)."""
    return ProjectedSolver(xi, params, h_rhs.grid, frame).solve(h_rhs)


def solve_correction(xi, params: ModelParams,
                     config: ReductionConfig = ReductionConfig(),
                     grid: Optional[Grid] = None,
                     enforce_window: bool = True) -> ReductionState:
    """Fixed point for the correction: phi <- T(N(phi) - R).

    Damping starts at 1 and halves after any increase of the star-norm
    increment; three consecutive increases abort with ConvergenceError.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if enforce_window and params.epsilon > 0.0:
        check_window(xi, params.epsilon, params.k, config.window_m)
    sigma = config.sigma if config.sigma is not None else default_sigma(params)
    if grid is None:
        grid = grid_for_spikes(xi, sigma, config.h, config.pad)
    frame = SpikeFrame(xi, sigma)
    solver = ProjectedSolver(xi, params, grid, frame)
    # discrete residual (3-point curvature of the tower), so the fixed point
    # lands on an exact discrete solution and the energy gradient tracks c_i
    residual = full_operator(tower_ansatz(xi, grid, params), params).values

    phi = GridFunction(grid, np.zeros(grid.n), decay=(sigma, sigma))
    c = np.zeros(xi.size)
    increments: list = []
    damping = 1.0
    grow_streak = 0
    converged = False
    iterations = 0
    for iterations in range(1, config.max_picard + 1):
        rhs = nonlinear_remainder(phi, xi, params).values - residual
        new_vals, c = solver.solve_values(rhs)
        if damping != 1.0:
            new_vals = phi.values + damping * (new_vals - phi.values)
        inc = star_norm(GridFunction(grid, new_vals - phi.values), frame)
        phi = GridFunction(grid, new_vals, decay=(sigma, sigma))
        if increments and inc > increments[-1]:
            grow_streak += 1
            damping = 0.5
        else:
            grow_streak = 0
        increments.append(inc)
        if inc < config.tol_fp:
            converged = True
            break
        if grow_streak >= 3:
            state = ReductionState(phi, c, star_norm(phi, frame), iterations,
                                   False, xi, frame,
                                   solver.orthogonality_defect(phi.values),
                                   increments)
            raise ConvergenceError(
                f"fixed point diverging after {iterations} iterations "
                f"(increments {increments[-3:]})", state=state)

    state = ReductionState(phi, c, star_norm(phi, frame), iterations,
                           converged, xi, frame,
                           solver.orthogonality_defect(phi.values), increments)
    if not converged:
        raise ConvergenceError(
            f"fixed point did not reach {config.tol_fp:g} in "
            f"{config.max_picard} iterations", state=state)
    if state.orth_defect > config.tol_orth:
        raise ConditioningError(
            f"orthogonality defect {state.orth_defect:.2e} above "
            f"{config.tol_orth:g}")
    return state


def reduced_energy(lambdas, params: ModelParams,
                   config: ReductionConfig = ReductionConfig(),
                   grid: Optional[Grid] = None):
    """Energy of the corrected ansatz at xi(Lambda).

    At epsilon = 0 with a single spike the problem is translation invariant
    and the spike sits at the origin; the result is then the single-profile
    energy a1 up to discretization.
    """
    if params.epsilon == 0.0 and params.k == 1:
        xi = np.zeros(1)
    else:
        xi = spike_locations(lambdas, params.epsilon, params)
    state = solve_correction(xi, params, config, grid=grid)
    sigma = state.frame.sigma
    v = GridFunction(state.phi.grid,
                     tower_ansatz(xi, state.phi.grid, params).values
                     + state.phi.values, decay=(min(1.0, sigma), min(1.0, sigma)))
    return energy(v, params)


def solve_reduced(params: ModelParams, constants: EnergyConstants,
                  config: ReductionConfig = ReductionConfig()):
    """Outer Newton solve for the critical scales of the reduced energy.

    Starts from the closed-form critical point of the reduced functional;
    the gradient of Phi(Lambda) = energy/epsilon is formed by central
    differences (the correction phi(Lambda) is only available numerically)
    and the Jacobian by differencing the gradient.  Returns (Lambda_eps,
    state at Lambda_eps).
    """
    params.check_hypotheses()
    if params.epsilon <= 0.0:
        raise ValueError("outer solve needs epsilon > 0")
    lam0 = critical_scales(constants, params)
    xi0 = spike_locations(lam0, params.epsilon, params)
    sigma = config.sigma if config.sigma is not None else default_sigma(params)
    # one fixed grid for every energy evaluation of this solve, so that
    # finite differences in Lambda see a smooth function
    grid = grid_for_spikes(xi0, sigma, config.h, config.pad)
    eps = params.epsilon
    lo, hi = config.lambda_box

    def phi_value(lam):
        return reduced_energy(lam, params, config, grid=grid) / eps

    def gradient(lam):
        g = np.empty(lam.size)
        for j in range(lam.size):
            step = config.fd_step * max(1.0, abs(lam[j]))
            e_j = np.zeros(lam.size)
            e_j[j] = step
            g[j] = (phi_value(lam + e_j) - phi_value(lam - e_j)) / (2.0 * step)
        return g

    lam = lam0.copy()
    g = gradient(lam)
    for _ in range(config.max_newton):
        if np.linalg.norm(g) < config.newton_tol:
            break
        jac = np.empty((lam.size, lam.size))
        for j in range(lam.size):
            step = config.jac_step * max(1.0, abs(lam[j]))
            e_j = np.zeros(lam.size)
            e_j[j] = step
            jac[:, j] = (gradient(lam + e_j) - gradient(lam - e_j)) / (2.0 * step)
        try:
            delta = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular reduced Jacobian: {exc}") from exc
        t = 1.0
        norm_g = np.linalg.norm(g)
        for _ in range(12):
            trial = lam + t * delta
            if np.all(trial > lo) and np.all(trial < hi):
                g_trial = gradient(trial)
                if np.linalg.norm(g_trial) < norm_g:
                    lam, g = trial, g_trial
                    break
            t *= 0.5
        else:
            if np.any(lam + delta <= lo) or np.any(lam + delta >= hi):
                raise ConvergenceError(
                    f"Newton step left the box [{lo:g}, {hi:g}]^k at {lam + delta}")
            raise ConvergenceError(
                f"line search stagnated at |grad| = {norm_g:.3e}")
    else:
        raise ConvergenceError(
            f"Newton did not reach {config.newton_tol:g} in "
            f"{config.max_newton} iterations; |grad| = {np.linalg.norm(g):.3e}")

    xi = spike_locations(lam, eps, params)
    state = solve_correction(xi, params, config, grid=grid)
    if float(np.max(np.abs(state.c))) > config.tol_c:
        raise ConvergenceError(
            f"multipliers not driven to zero: max|c| = "
            f"{np.max(np.abs(state.c)):.2e} > {config.tol_c:g}", state=state)
    return lam, state


@dataclass(frozen=True)
class RadialSolution:
    """Cubic-spline wrapper of the corrected ansatz, read in the radial variable."""

    params: ModelParams
    xi: np.ndarray
    spline: CubicSpline
    x_range: Tuple[float, float]

    def ef(self, x):
        """The solution in the line variable (0 outside the computed range)."""
        x = np.asarray(x, dtype=float)
        inside = (x >= self.x_range[0]) & (x <= self.x_range[1])
        out = np.zeros_like(x, dtype=float)
        out[inside] = self.spline(x[inside])
        return out

    def r_range(self) -> Tuple[float, float]:
        m = (self.params.n_dim - 2) / 2.0
        s = self.params.ef_sign
        r_a = math.exp(-s * self.x_range[1] / m)
        r_b = math.exp(-s * self.x_range[0] / m)
        return (min(r_a, r_b), max(r_a, r_b))

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        m = (self.params.n_dim - 2) / 2.0
        x = ef_x_of_r(r, self.params.n_dim, self.params.regime)
        return r ** (-m) * self.ef(x)

    def residual_radii(self, n: int = 100) -> np.ndarray:
        """Radii where the radial-equation check is meaningful.

        Geometric samples covering the whole tower plus 10 units of the
        outer tail in the line variable, stopping one unit past the
        origin-side spike: nearer the origin u is constant to many digits
        and the equation degenerates to a 0 = 0 cancellation that no
        finite-h profile can certify.
        """
        m = (self.params.n_dim - 2) / 2.0
        s = self.params.ef_sign
        if self.params.regime is Regime.SUB_Q:
            x_lo, x_hi = float(self.xi[0]) - 10.0, float(self.xi[-1]) + 1.0
        else:
            x_lo, x_hi = float(self.xi[0]) - 1.0, float(self.xi[-1]) + 10.0
        r_a = math.exp(-s * x_hi / m)
        r_b = math.exp(-s * x_lo / m)
        return np.geomspace(min(r_a, r_b), max(r_a, r_b), n)

    def radial_residual(self, radii) -> np.ndarray:
        """Relative residual of the radial equation at the given radii.

        |u'' + (N-1)/r u' + u^p - V u^q|, p = params.p, over the sum of the
        term magnitudes; derivatives come from the spline by the chain rule.
        """
        r = np.asarray(radii, dtype=float)
        p = self.params
        m = (p.n_dim - 2) / 2.0
        s = p.ef_sign
        x = ef_x_of_r(r, p.n_dim, p.regime)
        v = self.spline(x)
        dv = self.spline(x, 1)
        d2v = self.spline(x, 2)
        # u = r^{-m} v(x(r)), x = -s m log r
        u = r ** (-m) * v
        du = -m * r ** (-m - 1.0) * (v + s * dv)
        d2u = r ** (-m - 2.0) * (m * (m + 1.0) * (v + s * dv)
                                 + m * m * (d2v + s * dv))
        t_lin = d2u + (p.n_dim - 1.0) / r * du
        u_pos = np.maximum(u, 0.0)
        t_nl = u_pos ** p.p
        t_pot = -p.potential.evaluate(r) * u_pos ** p.q
        denom = np.abs(d2u) + np.abs((p.n_dim - 1.0) / r * du) \
            + np.abs(t_nl) + np.abs(t_pot)
        return np.abs(t_lin + t_nl + t_pot) / np.maximum(denom, 1e-300)

    def peak_height(self, n_samples: int = 4000) -> float:
        """Max of u over the radial range mapped from the computed domain."""
        r_lo, r_hi = self.r_range()
        r = np.geomspace(max(r_lo * 1e3, 1e-280), r_hi / 1e3, n_samples)
        return float(np.max(self.__call__(r)))


def assemble_solution(state: ReductionState, params: ModelParams) -> RadialSolution:
    """Back-transform the corrected ansatz to a radial profile."""
    grid = state.phi.grid
    v = tower_ansatz(state.xi, grid, params).values + state.phi.values
    floor = -1e-6 * float(np.max(v))
    if float(np.min(v)) < floor:
        raise AssemblyError(
            f"corrected profile significantly negative (min {np.min(v):.3e})")
    spline = CubicSpline(grid.x, np.maximum(v, 0.0))
    return RadialSolution(params=params, xi=np.asarray(state.xi, dtype=float),
                          spline=spline, x_range=(grid.x0, grid.x1))
