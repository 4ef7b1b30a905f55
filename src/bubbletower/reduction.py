"""Discretized Lyapunov-Schmidt reduction.

The pipeline: (i) a projected linear solver for the linearized operator with
the translation directions Z_i = U'(. - xi_i) projected out (block
elimination of the bordered system through its k x k Schur complement, so
only the tridiagonal operator is factored), (ii) a damped fixed-point
iteration for the correction phi(xi), (iii) the reduced energy as a function
of the scale parameters Lambda, and (iv) an outer Newton solve driving its
gradient to zero.  That gradient is a linear form in the multipliers c_i of
one correction (reduced_energy_grad), so the solve drives the c_i to zero and
yields a genuine discrete solution v = Ubar + phi; its Newton matrix is the
diagonal Hessian of the reduced functional Psi.

Each correction builds one field.TowerField for its spike set, inside its
ProjectedSolver (``solver.field``): the operator, Z, the discrete residual
and every Picard step's remainder and increment norm come from it, and the
ReductionState carries it, so the energy and the sweep metrics reuse its
Ubar.  sweep_point gives the trend metrics of one epsilon for ``sweep``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Tuple

import numpy as np
import scipy.sparse.linalg as spla
from scipy.interpolate import CubicSpline

from .errors import (AssemblyError, ConditioningError, ConvergenceError,
                     WindowViolationError)
# tower_ansatz is no longer called here; perfbench's span self-test reads
# reduction.tower_ansatz, so the name stays importable
from .field import (Grid, GridFunction, SpikeFrame, TowerField, ansatz_residual,
                    default_sigma, energy, grid_for_spikes, tower_ansatz)
from .profiles import ModelParams, Regime, ef_x_of_r, profile_d2U
from .quadrature import EnergyConstants
from .reduced_model import (critical_scales, energy_expansion,
                            reduced_functional_hess_diag, spike_locations)

__all__ = [
    "ReductionConfig",
    "ReductionState",
    "check_window",
    "ProjectedSolver",
    "solve_projected_linear",
    "solve_correction",
    "reduced_energy",
    "reduced_energy_grad",
    "solve_reduced",
    "sweep_point",
    "assemble_solution",
    "RadialSolution",
]


@dataclass(frozen=True)
class ReductionConfig:
    """Grid, window, tolerances and iteration limits for one reduction run."""

    h: float = 0.02
    sigma: Optional[float] = None      # None -> default_sigma(params)
    pad: float = 3.0                   # extra domain beyond max(30, 10/sigma)
    tol_fp: float = 1e-11              # fixed-point increment, star norm
    tol_orth: float = 1e-10
    tol_c: float = 1e-8
    newton_tol: float = 1e-8           # |grad Phi|_2
    max_picard: int = 80
    max_newton: int = 40
    window_m: float = 10.0
    lambda_box: Tuple[float, float] = (0.05, 20.0)


@dataclass
class ReductionState:
    """Converged correction phi, its tower field, multipliers and diagnostics."""

    phi: GridFunction
    c: np.ndarray
    star_norm_phi: float
    iterations: int
    converged: bool
    field: TowerField
    orth_defect: float
    increments: list = dataclass_field(default_factory=list)

    @property
    def xi(self) -> np.ndarray:
        return self.field.xi

    @property
    def frame(self) -> SpikeFrame:
        return self.field.frame


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
    exceeds 1e12 (nearly dependent Z columns).  The operator and Z come
    from one TowerField, kept as ``field`` (its star-norm sigma is that of
    ``frame``, default_sigma(params) when none is given).
    """

    def __init__(self, xi, params: ModelParams, grid: Grid,
                 frame: Optional[SpikeFrame] = None):
        self.field = TowerField(xi, params, grid,
                                None if frame is None else frame.sigma)
        self.grid = grid
        self.matrix = self.field.matrix()
        self.z = self.field.z
        try:
            self._lu = spla.splu(self.matrix, permc_spec="NATURAL")
        except RuntimeError as exc:
            raise ConditioningError(
                f"operator factorization failed (n={grid.n}, "
                f"k={self.z.shape[1]}, h={grid.h:g}): {exc}") from exc
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
        sigma = self.field.frame.sigma
        return GridFunction(self.grid, vals, decay=(sigma, sigma)), c

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
    solver = ProjectedSolver(xi, params, grid, SpikeFrame(xi, sigma))
    tower = solver.field

    phi = np.zeros(grid.n)
    c = np.zeros(xi.size)
    increments: list = []
    damping = 1.0
    grow_streak = 0
    iterations = 0

    def state(converged: bool) -> ReductionState:
        return ReductionState(GridFunction(grid, phi, decay=(sigma, sigma)), c,
                              tower.star_norm(phi), iterations, converged, tower,
                              solver.orthogonality_defect(phi), increments)

    for iterations in range(1, config.max_picard + 1):
        # the residual is the discrete one (3-point curvature of the tower),
        # so the fixed point lands on an exact discrete solution and the
        # energy gradient tracks c_i
        new_vals, c = solver.solve_values(tower.remainder(phi) - tower.residual)
        if damping != 1.0:
            new_vals = phi + damping * (new_vals - phi)
        inc = tower.star_norm(new_vals - phi)
        phi = new_vals
        if increments and inc > increments[-1]:
            grow_streak += 1
            damping = 0.5
        else:
            grow_streak = 0
        increments.append(inc)
        if inc < config.tol_fp:
            break
        if grow_streak >= 3:
            raise ConvergenceError(
                f"fixed point diverging after {iterations} iterations "
                f"(increments {increments[-3:]})", state=state(False))
    else:
        raise ConvergenceError(
            f"fixed point did not reach {config.tol_fp:g} in "
            f"{config.max_picard} iterations", state=state(False))

    result = state(True)
    if result.orth_defect > config.tol_orth:
        raise ConditioningError(
            f"orthogonality defect {result.orth_defect:.2e} above "
            f"{config.tol_orth:g}")
    return result


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
    decay = min(1.0, state.frame.sigma)
    v = GridFunction(state.phi.grid, state.field.ubar.values + state.phi.values,
                     decay=(decay, decay))
    return energy(v, params)


def reduced_energy_grad(lambdas, params: ModelParams,
                        config: ReductionConfig = ReductionConfig(),
                        grid: Optional[Grid] = None):
    """Gradient in Lambda of reduced_energy from one correction: (grad, state).

    energy's gradient at v = Ubar + phi is h sum_i c_i Z_i (see energy), and
    the constraint Z^T phi = 0 gives dE/dxi_j = h [-sum_i c_i Z_i.Z_j
    + c_j U''(. - xi_j).phi]; xi_j moves with -log(Lambda_i) for i <= j.
    """
    lam = np.asarray(lambdas, dtype=float)
    xi = spike_locations(lam, params.epsilon, params)
    state = solve_correction(xi, params, config, grid=grid)
    tower, phi, c = state.field, state.phi.values, state.c
    d2u = np.column_stack([profile_d2U(tower.x - s, params.n_dim) for s in xi])
    de_dxi = tower.grid.h * (c * (d2u.T @ phi) - tower.z.T @ (tower.z @ c))
    return -np.cumsum(de_dxi[::-1])[::-1] / lam, state


def solve_reduced(params: ModelParams, constants: EnergyConstants,
                  config: ReductionConfig = ReductionConfig()):
    """Outer Newton solve for the critical scales of the reduced energy.

    Starts from the closed-form critical point of the reduced functional Psi
    (which checks the regime's hypothesis; epsilon must lie in (0, 1)).  The
    gradient of Phi(Lambda) = energy/epsilon comes from the multipliers of
    one correction (reduced_energy_grad); the Newton matrix is the diagonal
    Hessian of Psi, the limit of that of Phi as epsilon -> 0, and a step is
    accepted when it lowers |grad Phi|.  Returns (Lambda_eps, state at
    Lambda_eps); failures raise ConvergenceError with the last state.
    """
    lam = critical_scales(constants, params)
    xi0 = spike_locations(lam, params.epsilon, params)
    sigma = config.sigma if config.sigma is not None else default_sigma(params)
    # one fixed grid for the whole solve: the gradient formula differentiates
    # in xi with the nodes held still
    grid = grid_for_spikes(xi0, sigma, config.h, config.pad)
    lo, hi = config.lambda_box

    def gradient(lam):
        g, state = reduced_energy_grad(lam, params, config, grid)
        return g / params.epsilon, state

    g, state = gradient(lam)
    for _ in range(config.max_newton):
        norm_g = np.linalg.norm(g)
        if norm_g < config.newton_tol:
            break
        hess = reduced_functional_hess_diag(lam, constants, params)
        if not np.all(hess < 0.0):
            raise ConvergenceError(
                f"reduced Hessian diagonal {hess} not negative at Lambda = {lam}",
                state=state)
        delta = -g / hess
        t = 1.0
        for _ in range(12):
            trial = lam + t * delta
            if np.all(trial > lo) and np.all(trial < hi):
                g_trial, state_trial = gradient(trial)
                if np.linalg.norm(g_trial) < norm_g:
                    lam, g, state = trial, g_trial, state_trial
                    break
            t *= 0.5
        else:
            raise ConvergenceError(
                f"line search found no |grad| below {norm_g:.3e} inside [{lo:g}, "
                f"{hi:g}]^k along {delta} from Lambda = {lam}", state=state)
    else:
        raise ConvergenceError(
            f"Newton did not reach {config.newton_tol:g} in "
            f"{config.max_newton} iterations; |grad| = {np.linalg.norm(g):.3e}",
            state=state)

    if float(np.max(np.abs(state.c))) > config.tol_c:
        raise ConvergenceError(
            f"multipliers not driven to zero: max|c| = "
            f"{np.max(np.abs(state.c)):.2e} > {config.tol_c:g}", state=state)
    return lam, state


def sweep_point(params: ModelParams, constants: EnergyConstants,
                config: ReductionConfig = ReductionConfig()) -> dict:
    """Trend metrics of one epsilon at the closed-form critical scales.

    |R|_* of the analytic tower residual, |phi|_* of the correction and
    |E(tower) - energy_expansion| / eps, all on the grid that
    solve_correction builds from config.
    """
    eps = params.epsilon
    lam = critical_scales(constants, params)
    xi = spike_locations(lam, eps, params)
    state = solve_correction(xi, params, config)
    tower = state.field
    res_star = tower.star_norm(ansatz_residual(xi, params, tower.grid).values)
    gap = energy(tower.ubar, params) - energy_expansion(lam, eps, constants, params).total
    return {"eps": eps, "residual_star": res_star, "phi_star": state.star_norm_phi,
            "energy_gap_ratio": abs(gap) / eps}


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
    v = state.field.ubar.values + state.phi.values
    floor = -1e-6 * float(np.max(v))
    if float(np.min(v)) < floor:
        raise AssemblyError(
            f"corrected profile significantly negative (min {np.min(v):.3e})")
    spline = CubicSpline(grid.x, np.maximum(v, 0.0))
    return RadialSolution(params=params, xi=np.asarray(state.xi, dtype=float),
                          spline=spline, x_range=(grid.x0, grid.x1))
