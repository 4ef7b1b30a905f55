"""Discretized Lyapunov-Schmidt reduction.

The pipeline: (i) a projected linear solver for a tridiagonal operator with
the translation directions Z_i = U'(. - xi_i) projected out (block
elimination of the bordered system through its k x k Schur complement, so
only the tridiagonal operator is factored, by LAPACK), (ii) Newton's method
for the correction phi(xi), one such solve per step on the Jacobian at
Ubar + phi, (iii) the reduced energy as a function of the scale parameters
Lambda, and (iv) an outer quasi-Newton solve in log Lambda that stops once
the multipliers c_i of the correction vanish, max|c| < TOL_C, so that
v = Ubar + phi is a genuine discrete solution.  Its gradient is a linear
form in the c_i of one correction (reduced_energy_grad); its step matrix
starts at the log-Hessian of the reduced functional Psi at the closed-form
critical scales and takes Broyden updates.

A run is set by the grid spacing h alone (ReductionConfig); sigma is
default_sigma(params), and the window constant, tolerances and limits are the
constants below.

Each correction builds one field.TowerField for its spike set and hands it
to the ProjectedSolver of every Newton step (``solver.field``): the
operator's off-diagonal, Z and every step's right-hand side, Jacobian
diagonal and increment norm come from it, and the ReductionState
carries it, so the energy and the sweep metrics reuse its Ubar.  Within
solve_reduced each correction starts from the phi of the accepted outer
iterate.  sweep_point gives the trend metrics of one epsilon for ``sweep``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import (AssemblyError, ConditioningError, ConvergenceError,
                     WindowViolationError)
# tower_ansatz is no longer called here; perfbench's span self-test reads
# reduction.tower_ansatz, so the name stays importable
from .field import (Grid, GridFunction, SpikeFrame, TowerField, ansatz_residual,
                    default_sigma, energy, grid_for_spikes, tower_ansatz)
from .profiles import (ModelParams, Regime, ef_inverse, ef_r_of_x, ef_x_of_r,
                       profile_d2U)
from .quadrature import EnergyConstants
from .reduced_model import (critical_scales, energy_expansion,
                            reduced_functional_hess_diag, spike_locations)

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline

__all__ = [
    "ReductionConfig",
    "ReductionState",
    "check_window",
    "ProjectedSolver",
    "solve_correction",
    "reduced_energy",
    "reduced_energy_grad",
    "solve_reduced",
    "sweep_point",
    "assemble_solution",
    "RadialSolution",
]


WINDOW_M = 10.0      # window constant M of check_window
PAD = 3.0            # extra domain beyond max(30, 10/sigma)
TOL_FP = 1e-11       # correction Newton increment, star norm
TOL_ORTH = 1e-10     # max_i |Z_i^T phi| of a converged correction
TOL_C = 1e-10        # max|c| that stops solve_reduced
MAX_CORRECTION_STEPS = 10
MAX_NEWTON = 40


@dataclass(frozen=True)
class ReductionConfig:
    """Grid spacing h of one reduction run."""

    h: float = 0.02


@dataclass
class ReductionState:
    """Converged correction phi, its tower field, multipliers and diagnostics.

    ``iterations`` counts the correction's Newton steps and ``increments``
    holds the star norm of each step.
    """

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


def check_window(xi, params: ModelParams):
    """Admissible-configuration window for the spike set, M = WINDOW_M.

    Gaps must exceed log(1/(M eps)) and the outermost spike must stay below
    (1/gap + k - 1) log(1/eps) + k log M, with gap the exponent gap: the
    critical spikes sit near log(1/eps)/gap, then log(1/eps) apart.  At
    gap = 1 the outer bound is k log(M/eps).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    eps, k = params.epsilon, params.k
    if xi[0] <= 0.0:
        raise WindowViolationError(f"first spike must be positive, got {xi[0]:g}")
    if k >= 2:
        min_gap = float(np.min(np.diff(xi)))
        if min_gap <= math.log(1.0 / (WINDOW_M * eps)):
            raise WindowViolationError(
                f"minimal gap {min_gap:g} below window bound "
                f"{math.log(1.0 / (WINDOW_M * eps)):g}")
    outer = ((1.0 / params.exponent_gap + k - 1) * math.log(1.0 / eps)
             + k * math.log(WINDOW_M))
    if xi[-1] >= outer:
        raise WindowViolationError(
            f"outermost spike {xi[-1]:g} beyond window bound {outer:g}")


class ProjectedSolver:
    """Block-elimination solver for the projected linear problem.

    Solves L phi = h + sum_i c_i Z_i with the discrete constraints
    Z^T phi = 0, i.e. the bordered system [[L, Z], [Z^T, 0]] [phi; mu] =
    [h; 0] with c = -mu, by Keller's bordering algorithm: only the
    tridiagonal L is factored (LAPACK dgttrf, partial pivoting, one band
    of fill), L^{-1} Z and the k x k Schur complement S = Z^T L^{-1} Z
    are formed once, and each right-hand side costs one tridiagonal solve
    (dgttrs), y = L^{-1} h, mu = S^{-1} Z^T y, phi = y - L^{-1} Z mu.
    Solves refuse an S whose 2-norm condition number exceeds 1e12 (nearly
    dependent Z columns).

    L = -d^2 + 1 - W has the field's off-diagonals -1/h^2 and the main
    diagonal ``diagonal``: that of the Jacobian at Ubar + phi
    (TowerField.newton_system), at phi = 0 by default, which is the
    linearized operator A of field.linearized_matrix.  The field, kept as
    ``field``, is built here unless given (its star-norm sigma is that of
    ``frame``, default_sigma(params) when none is given).
    """

    def __init__(self, xi, params: ModelParams, grid: Grid,
                 frame: Optional[SpikeFrame] = None, *,
                 field: Optional[TowerField] = None,
                 diagonal: Optional[np.ndarray] = None):
        if field is None:
            field = TowerField(xi, params, grid,
                               None if frame is None else frame.sigma)
        self.field = field
        self.grid = grid
        self.z = field.z
        if diagonal is None:
            diagonal = field.newton_system(np.zeros(grid.n))[1]
        off = field.off_diagonal
        *self._lu, info = dgttrf(off, diagonal, off)
        if info != 0:
            raise ConditioningError(
                f"operator factorization failed (n={grid.n}, "
                f"k={self.z.shape[1]}, h={grid.h:g}): dgttrf info {info}")
        self._az = self._lu_solve(self.z)
        self._schur = self.z.T @ self._az
        sv = np.linalg.svd(self._schur, compute_uv=False)
        self._schur_cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else math.inf

    def _lu_solve(self, rhs: np.ndarray) -> np.ndarray:
        x, _ = dgttrs(*self._lu, rhs)
        return x

    def solve_values(self, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if self._schur_cond > 1e12:
            raise ConditioningError(
                f"Schur complement Z^T A^-1 Z ill-conditioned (cond "
                f"{self._schur_cond:.2e}); kernel directions nearly dependent")
        y = self._lu_solve(rhs)
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


def solve_correction(xi, params: ModelParams,
                     config: ReductionConfig = ReductionConfig(),
                     grid: Optional[Grid] = None,
                     phi0: Optional[np.ndarray] = None) -> ReductionState:
    """Newton for the correction: F(phi) = A phi - N(phi) + R = sum_i c_i Z_i
    with Z^T phi = 0, where F(phi) = full_operator(Ubar + phi).

    Each step factors the tridiagonal Jacobian J(phi) = -d^2 + 1
    - W(Ubar + phi) in a ProjectedSolver and takes the bordered solve
    J phi_new = J phi - F(phi) + sum_i c_i Z_i, Z^T phi_new = 0, the full
    Newton step for (phi, c), undamped.  It stops once the star-norm
    increment, or once the increments contract by theta < 1 the error
    bound theta/(1 - theta) times it (Deuflhard, Newton Methods for
    Nonlinear Problems, 2004), falls below TOL_FP, and raises
    ConvergenceError with the last state after MAX_CORRECTION_STEPS steps.
    The start is phi0 projected onto Z^T phi = 0 (a correction of a nearby
    spike set on the same grid), or zero, whose first step is the linear
    solve A phi = -R + sum c_i Z_i.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if params.epsilon > 0.0:
        check_window(xi, params)
    if grid is None:
        grid = grid_for_spikes(xi, default_sigma(params), config.h, PAD)
    tower = TowerField(xi, params, grid)
    sigma = tower.frame.sigma

    if phi0 is None:
        phi = np.zeros(grid.n)
    else:
        z = tower.z
        phi = phi0 - z @ np.linalg.solve(z.T @ z, z.T @ phi0)
    c = np.zeros(xi.size)
    increments: list = []
    iterations = 0

    def state(converged: bool) -> ReductionState:
        return ReductionState(GridFunction(grid, phi, decay=(sigma, sigma)), c,
                              tower.star_norm(phi), iterations, converged, tower,
                              solver.orthogonality_defect(phi), increments)

    for iterations in range(1, MAX_CORRECTION_STEPS + 1):
        # F is the discrete operator (3-point curvature of the tower), so
        # the iteration lands on an exact discrete solution and the energy
        # gradient tracks c_i
        rhs, diagonal = tower.newton_system(phi)
        solver = ProjectedSolver(xi, params, grid, field=tower, diagonal=diagonal)
        new_vals, c = solver.solve_values(rhs)
        inc = tower.star_norm(new_vals - phi)
        phi = new_vals
        theta = inc / increments[-1] if increments else 1.0
        increments.append(inc)
        if inc < TOL_FP or theta * inc < (1.0 - theta) * TOL_FP:
            break
    else:
        raise ConvergenceError(
            f"correction Newton did not reach {TOL_FP:g} in "
            f"{MAX_CORRECTION_STEPS} steps (increments {increments[-3:]})",
            state=state(False))

    result = state(True)
    if result.orth_defect > TOL_ORTH:
        raise ConditioningError(
            f"orthogonality defect {result.orth_defect:.2e} above {TOL_ORTH:g}")
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
                        grid: Optional[Grid] = None,
                        phi0: Optional[np.ndarray] = None):
    """Gradient in Lambda of reduced_energy from one correction: (grad, state).

    energy's gradient at v = Ubar + phi is h sum_i c_i Z_i (see energy), and
    the constraint Z^T phi = 0 gives dE/dxi_j = h [-sum_i c_i Z_i.Z_j
    + c_j U''(. - xi_j).phi]; xi_j moves with -log(Lambda_i) for i <= j.
    phi0 starts the correction (see solve_correction).
    """
    lam = np.asarray(lambdas, dtype=float)
    xi = spike_locations(lam, params.epsilon, params)
    state = solve_correction(xi, params, config, grid=grid, phi0=phi0)
    tower, phi, c = state.field, state.phi.values, state.c
    d2u = np.column_stack([profile_d2U(tower.x - s, params.n_dim) for s in xi])
    de_dxi = tower.grid.h * (c * (d2u.T @ phi) - tower.z.T @ (tower.z @ c))
    return -np.cumsum(de_dxi[::-1])[::-1] / lam, state


def solve_reduced(params: ModelParams, constants: EnergyConstants,
                  config: ReductionConfig = ReductionConfig()):
    """Critical scales Lambda_eps of Phi = energy/epsilon, where max|c| < TOL_C.

    Quasi-Newton in s = log Lambda (xi is linear in s) from the closed-form
    maximizer Lambda* of Psi (critical_scales, which checks the regime's
    hypothesis; epsilon must lie in (0, 1)).  The gradient Lambda * grad Phi
    comes from the multipliers of one correction (reduced_energy_grad).  The
    step matrix starts at diag(Lambda*^2 Psi''(Lambda*)), the log-Hessian of
    Psi at its critical point, and takes Broyden's rank-one update after each
    step.  A step is halved until |grad| falls.  The only stopping test is
    max|c| < TOL_C.  Returns (Lambda_eps, state at Lambda_eps); failures raise
    ConvergenceError with the last state.
    """
    lam = critical_scales(constants, params)
    xi0 = spike_locations(lam, params.epsilon, params)
    # one fixed grid for the whole solve: the gradient formula differentiates
    # in xi with the nodes held still, and each correction starts from the
    # accepted iterate's phi on it
    grid = grid_for_spikes(xi0, default_sigma(params), config.h, PAD)
    jac = np.diag(lam * lam * reduced_functional_hess_diag(lam, constants, params))

    def gradient(s, phi0=None):
        lam = np.exp(s)
        g, state = reduced_energy_grad(lam, params, config, grid, phi0)
        return lam * g / params.epsilon, state

    s = np.log(lam)
    g, state = gradient(s)
    for _ in range(MAX_NEWTON):
        if np.max(np.abs(state.c)) < TOL_C:
            return np.exp(s), state
        step = -np.linalg.solve(jac, g)
        norm_g = np.linalg.norm(g)
        for halvings in range(12):
            ds = 0.5 ** halvings * step
            g_trial, state_trial = gradient(s + ds, state.phi.values)
            if np.linalg.norm(g_trial) < norm_g:
                break
        else:
            raise ConvergenceError(
                f"line search found no |grad| below {norm_g:.3e} along {step} "
                f"from log Lambda = {s}", state=state)
        jac += np.outer(g_trial - g - jac @ ds, ds) / (ds @ ds)
        s, g, state = s + ds, g_trial, state_trial
    raise ConvergenceError(
        f"max|c| = {np.max(np.abs(state.c)):.2e} not below {TOL_C:g} after "
        f"{MAX_NEWTON} steps, at Lambda = {np.exp(s)}", state=state)


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
        r = ef_r_of_x(self.x_range, self.params.n_dim, self.params.regime)
        return (float(np.min(r)), float(np.max(r)))

    def __call__(self, r):
        return ef_inverse(self.ef, self.params.n_dim, self.params.regime)(r)

    def residual_radii(self, n: int = 100) -> np.ndarray:
        """Radii where the radial-equation check is meaningful.

        Geometric samples covering the whole tower plus 10 units of the
        outer tail in the line variable, stopping one unit past the
        origin-side spike: nearer the origin u is constant to many digits
        and the equation degenerates to a 0 = 0 cancellation that no
        finite-h profile can certify.
        """
        if self.params.regime is Regime.SUB_Q:
            x_lo, x_hi = float(self.xi[0]) - 10.0, float(self.xi[-1]) + 1.0
        else:
            x_lo, x_hi = float(self.xi[0]) - 1.0, float(self.xi[-1]) + 10.0
        r = ef_r_of_x((x_lo, x_hi), self.params.n_dim, self.params.regime)
        return np.geomspace(np.min(r), np.max(r), n)

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
    from scipy.interpolate import CubicSpline
    spline = CubicSpline(grid.x, np.maximum(v, 0.0))
    return RadialSolution(params=params, xi=np.asarray(state.xi, dtype=float),
                          spline=spline, x_range=(grid.x0, grid.x1))
