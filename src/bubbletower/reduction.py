"""Discretized Lyapunov-Schmidt reduction.

The pipeline: (i) a projected linear solver for a tridiagonal operator with
the translation directions Z_i = U'(. - xi_i) projected out (block
elimination of the bordered system through its k x k Schur complement, so
only the tridiagonal operator is factored, by numerics.TridiagonalLU),
(ii) Newton's method for the correction phi(xi), one such solve per step on
the Jacobian at Ubar + phi, and (iii) Newton's method in log Lambda on the
multipliers c_i of the correction until max|c| < TOL_C, so that
v = Ubar + phi is a genuine discrete solution; dc/d log Lambda comes from
the factors of the correction's last step (multiplier_jacobian).

A run is set by the grid spacing h alone (ReductionConfig); sigma,
default_sigma(params), only weighs the star norm, and the truncation
window, tolerances and limits are the constants below and field.WINDOW.
No a-priori window restricts the spike set beyond spike_locations'
increasing xi: the Newton solves, the orthogonality and Schur checks and
the shooter decide whether a tower exists.  solve_reduced rebuilds the
grid whenever a correction's spikes come within WINDOW of an end.

Each correction builds one field.TowerField for its spike set and hands it
to the ProjectedSolver of every Newton step, ProjectedSolver(field,
diagonal), which takes the grid, Z and the operator's off-diagonal from it
(``solver.field``); every step's right-hand side, Jacobian diagonal and
increment norm come from it too.  The ReductionState carries the
last step's solver, so the multiplier Jacobian reads its factors and U''
columns and the energy and the sweep metrics its Ubar, weights and
analytic residual; no profile or weight is evaluated twice.
Within solve_reduced each correction starts from the phi of the accepted
outer iterate.  sweep_point gives the trend metrics of one epsilon for
``sweep``.  RadialSolution.radial_residual checks the radial equation in
the line variable, where its terms stay representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Tuple

import numpy as np

from .errors import AssemblyError, ConditioningError, ConvergenceError
# tower_ansatz is no longer called here; perfbench's span self-test reads
# reduction.tower_ansatz, so the name stays importable
from .field import (WINDOW, Grid, GridFunction, TowerField, _weights, energy,
                    grid_for_spikes, tower_ansatz)
from .profiles import ModelParams, Regime, ef_inverse, ef_r_of_x, ef_x_of_r
from .numerics import PiecewisePolynomial, TridiagonalLU, not_a_knot_spline
from .quadrature import EnergyConstants
from .reduced_model import critical_scales, energy_expansion, spike_locations

__all__ = [
    "ReductionConfig",
    "ReductionState",
    "ProjectedSolver",
    "solve_correction",
    "solve_reduced",
    "sweep_point",
    "assemble_solution",
    "RadialSolution",
]


PAD = 3.0            # extra domain beyond field.WINDOW
TOL_FP = 1e-11       # correction Newton increment, star norm
TOL_ORTH = 1e-10     # max_i |Z_i^T phi| / max|Z| of a converged correction
TOL_C = 1e-10        # max|c| that stops solve_reduced
MAX_CORRECTION_STEPS = 10
MAX_NEWTON = 40


@dataclass(frozen=True)
class ReductionConfig:
    """Grid spacing h of one reduction run."""

    h: float = 0.02


@dataclass
class ReductionState:
    """Converged correction phi, multipliers, last step's solver and diagnostics.

    ``field`` is that ProjectedSolver's tower field, ``iterations`` counts the
    correction's Newton steps and ``increments`` holds each step's star norm.
    """

    phi: GridFunction
    c: np.ndarray
    star_norm_phi: float
    iterations: int
    converged: bool
    solver: ProjectedSolver
    orth_defect: float
    increments: list = dataclass_field(default_factory=list)

    @property
    def field(self) -> TowerField:
        return self.solver.field

    @property
    def xi(self) -> np.ndarray:
        return self.field.xi

    def multiplier_jacobian(self) -> np.ndarray:
        """dc/ds of the multipliers in s = log Lambda, on the correction's grid.

        xi_j moves with -s_i for i <= j (spike_locations), so Ubar moves by
        T_i = sum_{j>=i} Z_j and Z_j by U_j'' for j >= i.  Differentiating
        F(Ubar + phi) = Z c and Z^T phi = 0 gives S dc/ds = Z^T (T - J^-1 W)
        - D, with W_i = sum_{j>=i} c_j U_j'' and D_ji = U_j''.phi for j >= i;
        J and S = Z^T J^-1 Z are the last Newton step's (solver), so this
        costs k tridiagonal solves.
        """
        tower, solver, c = self.field, self.solver, self.c
        lower = np.tril(np.ones((c.size, c.size)))
        j_inv_w = solver._lu.solve(tower.d2u @ (c[:, None] * lower))
        d = (tower.d2u.T @ self.phi.values)[:, None] * lower
        return np.linalg.solve(solver._schur, tower.z.T @ (tower.z @ lower - j_inv_w) - d)


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

    L = -d^2 + 1 - W has the off-diagonals -1/h^2 of the tower field
    ``field`` and the main diagonal ``diagonal``: that of the Jacobian at
    Ubar + phi (TowerField.newton_system), at phi = 0 by default, which is
    the linearized operator A of field.linearized_matrix.  Z and the grid
    are the field's (``solver.field``).
    """

    def __init__(self, field: TowerField, diagonal: Optional[np.ndarray] = None):
        self.field = field
        grid, z = field.grid, field.z
        if diagonal is None:
            diagonal = field.newton_system(np.zeros(grid.n))[1]
        off = field.off_diagonal
        self._lu = TridiagonalLU(off, diagonal, off)
        if self._lu.info != 0:
            raise ConditioningError(
                f"operator factorization failed (n={grid.n}, "
                f"k={z.shape[1]}, h={grid.h:g}): dgttrf info {self._lu.info}")
        self._az = self._lu.solve(z)
        self._schur = z.T @ self._az
        sv = np.linalg.svd(self._schur, compute_uv=False)
        self._schur_cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else math.inf

    def solve_values(self, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if self._schur_cond > 1e12:
            raise ConditioningError(
                f"Schur complement Z^T A^-1 Z ill-conditioned (cond "
                f"{self._schur_cond:.2e}); kernel directions nearly dependent")
        y = self._lu.solve(rhs)
        try:
            mu = np.linalg.solve(self._schur, self.field.z.T @ y)
        except np.linalg.LinAlgError as exc:
            raise ConditioningError(
                f"singular Schur complement Z^T A^-1 Z: {exc}") from exc
        phi = y - self._az @ mu
        scale = 1e12 * max(1.0, float(np.max(np.abs(rhs))))
        # a NaN, like an inf, fails the <=
        if not (np.max(np.abs(phi)) <= scale and np.max(np.abs(mu)) <= scale):
            size = np.max(np.abs(np.concatenate([phi, mu])))
            raise ConditioningError(
                f"projected solve degenerate (|sol| ~ {size:.2e} "
                f"for |rhs| ~ {np.max(np.abs(rhs)):.2e}); spikes nearly "
                "coincide or grid too coarse")
        return phi, -mu

    def solve(self, h_rhs: GridFunction) -> Tuple[GridFunction, np.ndarray]:
        vals, c = self.solve_values(h_rhs.values)
        return GridFunction(self.field.grid, vals), c

    def orthogonality_defect(self, phi_values: np.ndarray) -> float:
        w = self.field.grid.trapezoid_weights()
        return float(np.max(np.abs(self.field.z.T @ (w * phi_values))))


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
    ConvergenceError with the last state after MAX_CORRECTION_STEPS steps;
    ConditioningError when max_i |Z_i^T phi| > TOL_ORTH max|Z| at the end.
    The start is phi0, values on grid, projected onto Z^T phi = 0 (a
    correction of a nearby spike set); zero by default, whose first step is
    the linear solve A phi = -R + sum c_i Z_i.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if grid is None:
        grid = grid_for_spikes(xi, config.h, PAD)
    tower = TowerField(xi, params, grid)
    z, phi = tower.z, np.zeros(grid.n)
    if phi0 is not None:
        phi = phi0 - z @ np.linalg.solve(z.T @ z, z.T @ phi0)
    c = np.zeros(xi.size)
    increments: list = []
    iterations = 0

    def state(converged: bool) -> ReductionState:
        return ReductionState(GridFunction(grid, phi), c,
                              tower.star_norm(phi), iterations, converged, solver,
                              solver.orthogonality_defect(phi), increments)

    for iterations in range(1, MAX_CORRECTION_STEPS + 1):
        # F is the discrete operator (3-point curvature of the tower), so
        # the iteration lands on an exact discrete solution and c_i are the
        # multipliers that the outer Newton drives to zero
        rhs, diagonal = tower.newton_system(phi)
        solver = ProjectedSolver(tower, diagonal)
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

    # relative to Z, which grows like gamma_N (max|Z| 0.58 at N = 3, 114 at
    # N = 10), and the rounding of Z^T phi with it
    result, bound = state(True), TOL_ORTH * float(np.max(np.abs(tower.z)))
    if result.orth_defect > bound:
        raise ConditioningError(
            f"orthogonality defect {result.orth_defect:.2e} above {bound:.2e}")
    return result


def solve_reduced(params: ModelParams, constants: EnergyConstants,
                  config: ReductionConfig = ReductionConfig()):
    """Critical scales Lambda_eps, where the multipliers vanish: max|c| < TOL_C.

    Newton's method on c(s) = 0 in s = log Lambda (xi is linear in s) from
    the closed-form maximizer Lambda* of Psi (critical_scales, which checks
    the regime's hypothesis; epsilon must lie in (0, 1)).  Each step is
    ds = -(dc/ds)^-1 c with dc/ds from the correction at s
    (ReductionState.multiplier_jacobian), halved until |c| falls.  Returns
    (Lambda_eps, state at Lambda_eps); failures raise ConvergenceError with
    the last state.  The grid reaches WINDOW + PAD past the spikes at
    Lambda*, and is rebuilt so around a correction's spikes that come within
    WINDOW of an end; the accepted phi is interpolated onto its nodes.
    """
    lam = critical_scales(constants, params)
    # the Jacobian differentiates in xi with the nodes held still, so the
    # grid moves only when the spikes come within WINDOW of an end
    grid = grid_for_spikes(spike_locations(lam, params.epsilon, params), config.h, PAD)

    def correction(s, phi: Optional[GridFunction] = None):
        nonlocal grid
        xi = spike_locations(np.exp(s), params.epsilon, params)
        if min(xi[0] - grid.x0, grid.x1 - xi[-1]) < WINDOW:
            grid = grid_for_spikes(xi, config.h, PAD)
        if phi is not None and phi.grid is not grid:
            # phi has decayed to ~e^-WINDOW at the old ends: zero beyond them
            phi = GridFunction(grid, np.interp(grid.x, phi.grid.x, phi.values, 0.0, 0.0))
        return solve_correction(xi, params, config, grid, None if phi is None else phi.values)

    s = np.log(lam)
    state = correction(s)
    for _ in range(MAX_NEWTON):
        if np.max(np.abs(state.c)) < TOL_C:
            return np.exp(s), state
        step = -np.linalg.solve(state.multiplier_jacobian(), state.c)
        norm_c = np.linalg.norm(state.c)
        for halvings in range(12):
            ds = 0.5 ** halvings * step
            trial = correction(s + ds, state.phi)
            if np.linalg.norm(trial.c) < norm_c:
                break
        else:
            raise ConvergenceError(
                f"line search found no |c| below {norm_c:.3e} along {step} "
                f"from log Lambda = {s}", state=state)
        s, state = s + ds, trial
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
    res_star = tower.star_norm(tower.ansatz_residual().values)
    gap = energy(tower.ubar, params, (tower.w_nl, tower.w_pot)) \
        - energy_expansion(lam, eps, constants, params).total
    return {"eps": eps, "residual_star": res_star, "phi_star": state.star_norm_phi,
            "energy_gap_ratio": abs(gap) / eps}


@dataclass(frozen=True)
class RadialSolution:
    """The corrected ansatz as a not-a-knot cubic spline in the line variable
    (numerics.not_a_knot_spline), read in the radial variable."""

    params: ModelParams
    xi: np.ndarray
    spline: PiecewisePolynomial
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
        four term magnitudes, evaluated in the line variable x(r): with
        u = r^{-m} v, m = (N-2)/2, each term is r^{-m-2} m^2 times
        (1 + 1/m)(v + s v') + v'' + s v', -(2 + 1/m)(v + s v'),
        beta w_nl v_+^p and -beta omega w_pot v_+^q (field._weights), whose
        ratio stays meaningful where every term underflows in r.  A 0/0 is
        NaN, not 0.  Derivatives come from the spline.
        """
        p = self.params
        m, s = (p.n_dim - 2) / 2.0, p.ef_sign
        x = ef_x_of_r(np.asarray(radii, dtype=float), p.n_dim, p.regime)
        v, dv, d2v = self.spline(x), self.spline(x, 1), self.spline(x, 2)
        w_nl, w_pot = _weights(x, p)
        v_pos, mixed = np.maximum(v, 0.0), v + s * dv
        terms = ((1.0 + 1.0 / m) * mixed + d2v + s * dv, -(2.0 + 1.0 / m) * mixed,
                 p.beta * w_nl * v_pos ** p.p, -p.beta * w_pot * v_pos ** p.q)
        return np.abs(sum(terms)) / sum(np.abs(t) for t in terms)

    def peak_height(self, n_samples: int = 4000) -> float:
        """Max of u over the radial range mapped from the computed domain."""
        r_lo, r_hi = self.r_range()
        r = np.geomspace(max(r_lo * 1e3, 1e-280), r_hi / 1e3, n_samples)
        return float(np.max(self.__call__(r)))


def assemble_solution(state: ReductionState, params: ModelParams) -> RadialSolution:
    """The radial profile: the spline of max(Ubar + phi, 0) on the grid;
    AssemblyError where Ubar + phi dips below -1e-6 times its maximum."""
    grid = state.phi.grid
    v = state.field.ubar.values + state.phi.values
    floor = -1e-6 * float(np.max(v))
    if float(np.min(v)) < floor:
        raise AssemblyError(
            f"corrected profile significantly negative (min {np.min(v):.3e})")
    spline = not_a_knot_spline(grid.x, np.maximum(v, 0.0))
    return RadialSolution(params=params, xi=np.asarray(state.xi, dtype=float),
                          spline=spline, x_range=(grid.x0, grid.x1))
