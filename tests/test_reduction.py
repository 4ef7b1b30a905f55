import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from bubbletower import (GridFunction,
                         ProjectedSolver, ReductionConfig, SpikeFrame,
                         assemble_solution, check_window, critical_scales,
                         default_sigma, full_operator, grid_for_spikes,
                         kernel_directions, reduced_energy,
                         reduced_energy_grad, solve_correction,
                         solve_projected_linear, solve_reduced,
                         spike_locations, star_norm, tower_ansatz)
from bubbletower.errors import WindowViolationError
from conftest import make_params, probe_functions


def _setup(eps=1e-2, k=1, q=4.0, h=0.02, c=None):
    from bubbletower import energy_constants
    params = make_params(q=q, eps=eps, k=k)
    constants = c or energy_constants(3, q)
    lam = critical_scales(constants, params)
    xi = spike_locations(lam, eps, params)
    sigma = default_sigma(params)
    grid = grid_for_spikes(xi, sigma, h=h)
    frame = SpikeFrame(xi, sigma)
    return params, constants, lam, xi, grid, frame


def test_projected_solve_orthogonality(c4):
    params, _, _, xi, grid, frame = _setup(c=c4)
    z1 = GridFunction(grid, kernel_directions(xi, params, grid)[:, 0])
    phi, c = solve_projected_linear(z1, xi, params, frame)
    solver = ProjectedSolver(xi, params, grid, frame)
    assert solver.orthogonality_defect(phi.values) < 1e-10


def test_projected_solve_zero_rhs(c4):
    params, _, _, xi, grid, frame = _setup(c=c4)
    phi, c = solve_projected_linear(GridFunction(grid, np.zeros(grid.n)),
                                    xi, params, frame)
    assert np.max(np.abs(phi.values)) == 0.0
    assert np.max(np.abs(c)) == 0.0


def test_saddle_symmetry_and_multiplier_routes(c4):
    params, _, _, xi, grid, frame = _setup(k=2, eps=1e-2, c=c4, h=0.05)
    solver = ProjectedSolver(xi, params, grid, frame)
    rng = np.random.default_rng(4)
    h_vals = rng.normal(size=grid.n) * frame.weight(grid.x)
    phi_vals, c_full = solver.solve_values(h_vals)
    # block elimination: c = -(Z^T A^{-1} Z)^{-1} Z^T A^{-1} h
    lu = spla.splu(solver.matrix)
    z = solver.z
    ainv_h = lu.solve(h_vals)
    ainv_z = np.column_stack([lu.solve(z[:, i]) for i in range(z.shape[1])])
    c_block = -np.linalg.solve(z.T @ ainv_z, z.T @ ainv_h)
    assert np.max(np.abs(c_full - c_block)) < 1e-10 * max(1.0, np.max(np.abs(c_full)))


def test_bordered_solve_matches_saddle_lu(c4):
    # the block elimination against a direct LU of the bordered system
    import scipy.sparse as sp
    for k in (1, 2, 3):
        for eps in (5e-2, 1e-2, 1e-3):
            params, _, _, xi, grid, frame = _setup(k=k, eps=eps, c=c4, h=0.05)
            solver = ProjectedSolver(xi, params, grid, frame)
            z = kernel_directions(xi, params, grid)
            saddle = sp.bmat([[solver.matrix, sp.csc_matrix(z)],
                              [sp.csc_matrix(z.T), None]], format="csc")
            rng = np.random.default_rng(10 * k)
            h_vals = rng.normal(size=grid.n) * frame.weight(grid.x)
            ref = spla.splu(saddle).solve(np.concatenate([h_vals, np.zeros(k)]))
            phi_ref, c_ref = ref[:grid.n], -ref[grid.n:]
            phi_vals, c = solver.solve_values(h_vals)
            assert np.max(np.abs(phi_vals - phi_ref)) < 1e-10 * np.max(np.abs(phi_ref))
            assert np.max(np.abs(c - c_ref)) < 1e-10 * np.max(np.abs(c_ref))
            assert solver.orthogonality_defect(phi_vals) < 1e-12


def test_nearly_coincident_spikes_raise_conditioning_error():
    from bubbletower.errors import ConditioningError
    params = make_params(eps=1e-2, k=2)
    # Z_1 and Z_2 agree to O(1e-6): the Schur complement has cond ~ 1e14
    xi = np.array([5.0, 5.0 + 1e-6])
    grid = grid_for_spikes(xi, default_sigma(params), h=0.05)
    solver = ProjectedSolver(xi, params, grid)
    rng = np.random.default_rng(2)
    with pytest.raises(ConditioningError, match="Schur complement"):
        solver.solve_values(rng.normal(size=grid.n))


def test_operator_norm_probe_uniform_in_eps(c4):
    sups = []
    for eps in (1e-2, 1e-3):
        params, _, _, xi, grid, frame = _setup(eps=eps, k=2, c=c4)
        solver = ProjectedSolver(xi, params, grid, frame)
        worst = 0.0
        for h_fn in probe_functions(grid, frame, 20, seed=123):
            phi, _ = solver.solve(h_fn)
            worst = max(worst, star_norm(phi, frame))
        sups.append(worst)
    assert max(sups) / min(sups) < 2.0


def test_correction_trivial_at_unperturbed_single_bubble():
    params = make_params(eps=0.0, v=0.0, k=1)
    for h, bound in ((0.02, 2e-4), (0.01, 5e-5)):
        state = solve_correction(np.array([0.0]), params,
                                 ReductionConfig(h=h), enforce_window=False)
        assert state.converged
        # the discrete residual of U is O(h^2), so phi is too
        assert state.star_norm_phi < bound
        assert np.max(np.abs(state.c)) < bound


def test_correction_smallness_trend(c4):
    norms = []
    for eps in (1e-2, 3e-3, 1e-3):
        params, _, lam, xi, grid, frame = _setup(eps=eps, k=2, c=c4)
        state = solve_correction(xi, params, ReductionConfig(h=0.02), grid=grid)
        norms.append(state.star_norm_phi)
    slope = np.polyfit(np.log([1e-2, 3e-3, 1e-3]), np.log(norms), 1)[0]
    assert slope >= 0.5


def test_correction_solves_full_equation(c4):
    params, _, _, xi, grid, frame = _setup(eps=1e-2, k=1, c=c4)
    state = solve_correction(xi, params, ReductionConfig(h=0.02), grid=grid)
    v = GridFunction(grid, tower_ansatz(xi, grid, params).values
                     + state.phi.values)
    z = kernel_directions(xi, params, grid)
    residual = full_operator(v, params).values - z @ state.c
    assert star_norm(GridFunction(grid, residual), frame) < 1e-8


def test_correction_orthogonality_at_every_iterate(c4):
    params, _, _, xi, grid, frame = _setup(eps=1e-2, k=2, c=c4)
    state = solve_correction(xi, params, ReductionConfig(h=0.02), grid=grid)
    assert state.orth_defect < 1e-10


def test_correction_tail_decay_rate(c4):
    params, _, _, xi, grid, frame = _setup(eps=1e-2, k=1, c=c4)
    state = solve_correction(xi, params, ReductionConfig(h=0.02), grid=grid)
    phi = np.abs(state.phi.values)
    # measured decay rate of the solved correction at the left tail >= sigma
    x = grid.x
    mask = (x > grid.x0 + 2.0) & (x < grid.x0 + 12.0) & (phi > 1e-14)
    slope = np.polyfit(x[mask], np.log(phi[mask]), 1)[0]
    assert slope >= frame.sigma * 0.99


def test_solver_sensitivity_in_spike_positions(c4):
    # difference quotients of T(h) in xi stay bounded as the step shrinks
    params, _, _, xi, grid, frame = _setup(eps=1e-2, k=1, c=c4)
    h_fn = probe_functions(grid, frame, 1, seed=9)[0]
    base = ProjectedSolver(xi, params, grid, frame).solve(h_fn)[0]
    sens = []
    for delta in (1e-3, 1e-4):
        shifted = ProjectedSolver(xi + delta, params, grid, frame).solve(h_fn)[0]
        diff = GridFunction(grid, (shifted.values - base.values) / delta)
        sens.append(star_norm(diff, frame))
    assert 0.5 < sens[0] / sens[1] < 2.0


def test_window_constraint():
    check_window(np.array([4.0]), 1e-2, 1, 10.0)
    with pytest.raises(WindowViolationError):
        check_window(np.array([-1.0]), 1e-2, 1, 10.0)
    with pytest.raises(WindowViolationError):
        check_window(np.array([4.0, 5.0]), 1e-2, 2, 10.0)   # gap too small
    with pytest.raises(WindowViolationError):
        check_window(np.array([40.0]), 1e-2, 1, 10.0)       # beyond the window


def test_reduced_energy_tends_to_leading_term(c4):
    vals = []
    for eps in (1e-2, 3e-3, 1e-3):
        params = make_params(eps=eps, k=1)
        lam = critical_scales(c4, params)
        vals.append(reduced_energy(lam, params, ReductionConfig(h=0.02)))
    gaps = [abs(v - c4.a1) for v in vals]
    assert gaps[2] < gaps[1] < gaps[0]


def test_reduced_energy_close_to_tower_energy(c4):
    # corrected energy differs from the pure tower energy by o(eps)
    from bubbletower import energy
    ratios = []
    for eps in (1e-2, 1e-3):
        params, _, lam, xi, grid, frame = _setup(eps=eps, k=1, c=c4)
        e_corr = reduced_energy(lam, params, ReductionConfig(h=0.02), grid=grid)
        ub = tower_ansatz(xi, grid, params)
        e_tower = energy(GridFunction(grid, ub.values, decay=(1.0, 1.0)), params)
        ratios.append(abs(e_corr - e_tower) / eps)
    assert ratios[1] < ratios[0]


def test_solve_reduced_single_spike(c4):
    deviations = []
    for eps in (1e-2, 3e-3):
        params = make_params(eps=eps, k=1)
        lam_star = critical_scales(c4, params)
        lam_eps, state = solve_reduced(params, c4, ReductionConfig(h=0.02))
        assert np.max(np.abs(state.c)) < 1e-8
        deviations.append(abs(lam_eps[0] - lam_star[0]) / lam_star[0])
    assert deviations[0] < 0.2
    assert deviations[1] < deviations[0]


def test_solve_reduced_extrapolates_to_closed_form(c4):
    # Aitken extrapolation of Lambda_eps over a geometric eps-sequence
    lam_star = critical_scales(c4, make_params(eps=1e-2, k=1))[0]
    seq = []
    for eps in (8e-3, 4e-3, 2e-3):
        params = make_params(eps=eps, k=1)
        lam_eps, _ = solve_reduced(params, c4, ReductionConfig(h=0.02))
        seq.append(lam_eps[0])
    d1, d2 = seq[1] - seq[0], seq[2] - seq[1]
    aitken = seq[2] - d2 * d2 / (d2 - d1)
    assert abs(aitken - lam_star) < abs(seq[2] - lam_star)
    assert abs(aitken - lam_star) < 0.05 * lam_star


def test_assembled_solution_properties(c4):
    params = make_params(eps=5e-2, k=2)
    lam_eps, state = solve_reduced(params, c4, ReductionConfig(h=0.01))
    sol = assemble_solution(state, params)
    x = np.linspace(state.xi[0] - 5, state.xi[-1] + 5, 4000)
    v = sol.ef(x)
    assert np.all(v >= 0.0)
    peaks = np.count_nonzero((v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:])
                             & (v[1:-1] > 0.2 * v.max()))
    assert peaks == 2
    res = sol.radial_residual(sol.residual_radii(100))
    assert np.max(res) < 5e-4
    # u decays at the far radial end
    r_lo, r_hi = sol.r_range()
    assert sol(np.array([r_hi / 1e4]))[()] < 1e-3


def test_reduced_energy_unperturbed_single_bubble_is_a1():
    params = make_params(eps=0.0, v=0.0, k=1)
    val = reduced_energy(np.array([1.0]), params, ReductionConfig(h=0.01))
    assert abs(val - math.sqrt(3.0) * math.pi / 8.0) < 2e-5


def test_degenerate_saddle_raises_conditioning_error(c4):
    from bubbletower.errors import ConditioningError
    params = make_params(eps=1e-2, k=1)
    # spikes far outside the domain leave numerically vanishing kernel
    # columns: the bordered system is effectively singular
    grid = grid_for_spikes(np.array([5.0]), 0.5, h=0.1)
    solver = ProjectedSolver(np.array([80.0]), params, grid)
    rng = np.random.default_rng(1)
    with pytest.raises(ConditioningError):
        solver.solve_values(rng.normal(size=grid.n))


def test_assembled_agrees_with_predicted_solution(c4):
    # sup agreement where the tallest bubble lives, improving as eps shrinks
    from bubbletower import compare, predicted_solution
    sups = []
    for eps in (5e-2, 1e-2):
        params = make_params(eps=eps, k=1)
        lam_eps, state = solve_reduced(params, c4, ReductionConfig(h=0.02))
        sol = assemble_solution(state, params)
        pred = predicted_solution(params, c4)
        r_peak = float(np.exp(-2.0 * state.xi[0]))
        metrics = compare(sol, pred, (r_peak / 5.0, 5.0 * r_peak),
                          spacing="log")
        sups.append(metrics.sup_rel)
    assert sups[0] < 0.2
    assert sups[1] < sups[0]


def test_saddle_matrix_is_symmetric(c4):
    params, _, _, xi, grid, frame = _setup(k=2, eps=1e-2, c=c4, h=0.05)
    import scipy.sparse as sp
    a = sp.bmat([[ProjectedSolver(xi, params, grid, frame).matrix,
                  sp.csc_matrix(kernel_directions(xi, params, grid))],
                 [sp.csc_matrix(kernel_directions(xi, params, grid).T), None]],
                format="csc")
    assert (a - a.T).nnz == 0


def test_pipeline_with_nonconstant_potential(c4):
    # rational preset: V(0) = -2 (hypothesis side), V(inf) = -1; exercises
    # the x-dependent weight through residual, operator and energy
    from bubbletower import ModelParams, PotentialSpec, energy_constants
    params = ModelParams.make(3, 4.0, 2e-2, k=1,
                              potential=PotentialSpec.rational(-2.0, 1.0))
    lam_eps, state = solve_reduced(params, c4, ReductionConfig(h=0.02))
    assert np.max(np.abs(state.c)) < 1e-8
    sol = assemble_solution(state, params)
    res = sol.radial_residual(sol.residual_radii(100))
    assert np.max(res) < 5e-3
    # V(0) = -2 doubles the potential term: the critical scale shifts to
    # a3/(2 a5) instead of a3/a5
    assert lam_eps[0] == pytest.approx(0.5 * c4.a3 / c4.a5, rel=0.2)


def test_solve_reduced_three_spikes(c4):
    params = make_params(eps=1e-2, k=3)
    lam_star = critical_scales(c4, params)
    lam_eps, state = solve_reduced(params, c4, ReductionConfig(h=0.03))
    assert np.max(np.abs(state.c)) < 1e-8
    assert np.max(np.abs(lam_eps - lam_star) / lam_star) < 0.35


def test_scaling_identity_on_assembled_solution(c4):
    # global identity for decaying solutions of the radial equation
    # (multiply by r u'(r) and integrate): the supercritical power term and
    # the subcritical potential term must balance exactly; written in the
    # line variable, int u^s r^2 dr = 2 int v^s e^{(s-6)x} dx for N=3.
    # An error in any sign, weight or transform breaks the cancellation.
    params = make_params(eps=5e-2, k=1)
    lam, state = solve_reduced(params, c4, ReductionConfig(h=0.01))
    sol = assemble_solution(state, params)
    grid = state.phi.grid
    x = grid.x
    v = np.maximum(sol.spline(x), 0.0)
    p = params.p
    i_p = 2.0 * grid.h * np.sum(v ** (p + 1.0) * np.exp((p - 5.0) * x))
    i_q = 2.0 * grid.h * np.sum(v ** 5.0 * np.exp(-x))
    term_p = (3.0 / (p + 1.0) - 0.5) * i_p
    term_q = (3.0 / 5.0 - 0.5) * i_q
    assert abs(term_p + term_q) < 1e-6 * (abs(term_p) + abs(term_q))


def test_flat_regime_reduced_energy_has_no_critical_point(c7):
    # the flat-regime reduced energy has an interior maximum near the closed
    # form critical scale when V at infinity is negative, as the construction
    # needs, and no critical point when V at infinity is positive (the sign
    # condition fails and the potential term only grows with the scale)
    eps = 2e-2
    samples = np.array([0.4, 0.7, 1.0, 1.4, 2.0])
    from bubbletower import grid_for_spikes, spike_locations, default_sigma

    def landscape(v):
        params = make_params(q=7.0, eps=eps, k=1, v=v)
        xi0 = spike_locations(np.array([1.0]), eps, params)
        grid = grid_for_spikes(xi0, default_sigma(params), h=0.02, pad=4.0)
        return params, np.array([reduced_energy(np.array([lam]), params,
                                                ReductionConfig(h=0.02), grid=grid)
                                 for lam in samples])

    params, values = landscape(-1.0)
    diffs = np.diff(values)
    i_max = int(np.argmax(values))
    assert 0 < i_max < samples.size - 1
    assert np.all(diffs[:i_max] > 0.0) and np.all(diffs[i_max:] < 0.0)
    lam_star = critical_scales(c7, params)[0]
    assert samples[i_max - 1] < lam_star < samples[i_max + 1]

    _, values = landscape(1.0)
    assert np.all(np.diff(values) > 0.0)


def test_solve_correction_builds_the_tower_once(c4, monkeypatch):
    # wrap every reference to tower_ansatz that a bubbletower module holds,
    # as perfbench's span wrappers do, and count the calls of one correction
    import sys
    import bubbletower.field as field_module
    original = field_module.tower_ansatz
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "bubbletower":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    params, _, _, xi, grid, _ = _setup(k=2, c=c4)
    state = solve_correction(xi, params, ReductionConfig(h=0.02), grid=grid)
    assert state.iterations > 1
    assert len(calls) == 1


@pytest.mark.parametrize("q,k,eps", [(4.0, 1, 1e-2), (4.0, 2, 1e-2),
                                     (4.0, 3, 1e-2), (7.0, 1, 5e-2)])
def test_multiplier_gradient_matches_central_differences(q, k, eps, c4, c7):
    # the gradient from one correction's multipliers against central
    # differences of reduced_energy on the same grid: the gap must fall like
    # step^2, so it is the differences that carry it
    params, _, lam_star, _, grid, _ = _setup(eps=eps, k=k, q=q, h=0.03,
                                             c=c4 if q == 4.0 else c7)
    config = ReductionConfig(h=0.03)
    lam = 1.05 * lam_star
    grad, state = reduced_energy_grad(lam, params, config, grid)
    assert state.phi.grid == grid
    gaps = []
    for step in (3e-4, 1e-4):
        fd = np.empty(k)
        for j in range(k):
            e_j = np.zeros(k)
            e_j[j] = step * lam[j]
            fd[j] = (reduced_energy(lam + e_j, params, config, grid)
                     - reduced_energy(lam - e_j, params, config, grid)) / (2.0 * e_j[j])
        gaps.append(np.linalg.norm(grad - fd) / np.linalg.norm(grad))
    assert gaps[1] < 1e-4
    assert gaps[0] > 5.0 * gaps[1]


@pytest.mark.parametrize("k,h,bound", [(2, 0.02, 12), (3, 0.03, 16)])
def test_solve_reduced_corrections_counted(k, h, bound, c4, monkeypatch):
    import bubbletower.reduction as reduction_module
    calls = []
    original = reduction_module.solve_correction

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(reduction_module, "solve_correction", counted)
    _, state = solve_reduced(make_params(eps=1e-2, k=k), c4, ReductionConfig(h=h))
    assert np.max(np.abs(state.c)) < 1e-8
    assert len(calls) <= bound


def test_nonnegative_reduced_hessian_raises_with_state(c4, monkeypatch):
    import bubbletower.reduction as reduction_module
    from bubbletower.errors import ConvergenceError
    monkeypatch.setattr(reduction_module, "reduced_functional_hess_diag",
                        lambda lam, constants, params: np.zeros(lam.size))
    with pytest.raises(ConvergenceError, match="not negative") as info:
        solve_reduced(make_params(eps=1e-2, k=1), c4, ReductionConfig(h=0.03))
    assert info.value.state is not None and info.value.state.converged
