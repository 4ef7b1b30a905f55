import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from bubbletower import (GridFunction,
                         ProjectedSolver, ReductionConfig, SpikeFrame, TowerField,
                         assemble_solution, critical_scales, default_sigma,
                         energy, energy_constants, full_operator, grid_for_spikes,
                         kernel_directions, linearized_matrix, solve_correction,
                         solve_reduced, spike_locations, star_norm, tower_ansatz)
from bubbletower.field import WINDOW
from conftest import make_params, probe_functions


def _setup(eps=1e-2, k=1, q=4.0, h=0.02, c=None):
    from bubbletower import energy_constants
    params = make_params(q=q, eps=eps, k=k)
    constants = c or energy_constants(3, q)
    lam = critical_scales(constants, params)
    xi = spike_locations(lam, eps, params)
    sigma = default_sigma(params)
    grid = grid_for_spikes(xi, h=h)
    frame = SpikeFrame(xi, sigma)
    return params, constants, lam, xi, grid, frame


def _corrected_energy(xi, params, config, grid=None):
    """energy(Ubar + phi) of the correction at the spike set xi."""
    state = solve_correction(xi, params, config, grid=grid)
    return energy(GridFunction(state.phi.grid, state.field.ubar.values + state.phi.values),
                  params)


def test_projected_solve_orthogonality(c4):
    params, _, _, xi, grid, frame = _setup(c=c4)
    z1 = GridFunction(grid, kernel_directions(xi, params, grid)[:, 0])
    solver = ProjectedSolver(TowerField(xi, params, grid))
    phi, c = solver.solve(z1)
    assert solver.orthogonality_defect(phi.values) < 1e-10


def test_projected_solve_zero_rhs(c4):
    params, _, _, xi, grid, frame = _setup(c=c4)
    phi, c = ProjectedSolver(TowerField(xi, params, grid)).solve(
        GridFunction(grid, np.zeros(grid.n)))
    assert np.max(np.abs(phi.values)) == 0.0
    assert np.max(np.abs(c)) == 0.0


def test_saddle_symmetry_and_multiplier_routes(c4):
    params, _, _, xi, grid, frame = _setup(k=2, eps=1e-2, c=c4, h=0.05)
    solver = ProjectedSolver(TowerField(xi, params, grid))
    rng = np.random.default_rng(4)
    h_vals = rng.normal(size=grid.n) * frame.weight(grid.x)
    phi_vals, c_full = solver.solve_values(h_vals)
    # block elimination: c = -(Z^T A^{-1} Z)^{-1} Z^T A^{-1} h
    lu = spla.splu(linearized_matrix(xi, params, grid))
    z = solver.field.z
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
            solver = ProjectedSolver(TowerField(xi, params, grid))
            z = kernel_directions(xi, params, grid)
            saddle = sp.bmat([[linearized_matrix(xi, params, grid), sp.csc_matrix(z)],
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
    grid = grid_for_spikes(xi, h=0.05)
    solver = ProjectedSolver(TowerField(xi, params, grid))
    rng = np.random.default_rng(2)
    with pytest.raises(ConditioningError, match="Schur complement"):
        solver.solve_values(rng.normal(size=grid.n))


def test_operator_norm_probe_uniform_in_eps(c4):
    sups = []
    for eps in (1e-2, 1e-3):
        params, _, _, xi, grid, frame = _setup(eps=eps, k=2, c=c4)
        solver = ProjectedSolver(TowerField(xi, params, grid))
        worst = 0.0
        for h_fn in probe_functions(grid, frame, 20, seed=123):
            phi, _ = solver.solve(h_fn)
            worst = max(worst, star_norm(phi, frame))
        sups.append(worst)
    assert max(sups) / min(sups) < 2.0


def test_correction_trivial_at_unperturbed_single_bubble():
    params = make_params(eps=0.0, v=0.0, k=1)
    for h, bound in ((0.02, 2e-4), (0.01, 5e-5)):
        state = solve_correction(np.array([0.0]), params, ReductionConfig(h=h))
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
    base = ProjectedSolver(TowerField(xi, params, grid)).solve(h_fn)[0]
    sens = []
    for delta in (1e-3, 1e-4):
        shifted = ProjectedSolver(TowerField(xi + delta, params, grid)).solve(h_fn)[0]
        diff = GridFunction(grid, (shifted.values - base.values) / delta)
        sens.append(star_norm(diff, frame))
    assert 0.5 < sens[0] / sens[1] < 2.0


def _gap_case(q, k, eps, n_dim=3, h=0.03):
    # N = 3 cases keep the q-k-eps ids they had before N was a parameter
    tag = f"{q}-{k}-{eps}" if n_dim == 3 else f"N{n_dim}-{q}-{k}-{eps}"
    return pytest.param(n_dim, q, k, eps, h, id=tag)


@pytest.mark.parametrize("n_dim,q,k,eps,h", [
    _gap_case(3.5, 1, 1e-2), _gap_case(4.5, 1, 1e-2), _gap_case(5.5, 1, 1e-2),
    _gap_case(6.0, 1, 1e-2),
    # gap 0.5: the closed-form Lambda_1 is 21.6-48.5, so the Newton search
    # must not confine Lambda to a fixed box
    _gap_case(5.5, 2, 1e-2), _gap_case(4.5, 3, 1e-3), _gap_case(5.5, 3, 1e-3),
    # gaps 0.1-0.2: Lambda_1 reaches 3e12, so the Newton step must follow
    # c, not the energy, whose Lambda-gradient ~ c/Lambda is tiny there
    *(_gap_case(q, k, 1e-2) for q in (4.8, 4.9, 5.1) for k in (1, 2)),
    *(_gap_case(1.8, k, 5e-2, n_dim=6, h=0.02) for k in (1, 2)),
    # N = 7 and 8: the paper's towers exist for every N >= 3
    _gap_case(1.6, 2, 5e-2, n_dim=7, h=0.02), _gap_case(1.75, 3, 1e-2, n_dim=7),
    _gap_case(1.9, 3, 5e-2, n_dim=8),
    # N = 10: max|Z| = 114, so the orthogonality bound scales with Z
    _gap_case(1.3, 3, 1e-3, n_dim=10),
    # flat N = 9 and 10: the closed-form spikes sit beyond any outer bound
    # of the form (1/gap + k - 1) log(1/eps) + k log 10, yet they converge
    _gap_case(2.0, 2, 1e-2, n_dim=9, h=0.02),
    *(_gap_case(1.9, k, 1e-2, n_dim=10, h=0.02) for k in (1, 2)),
])
def test_towers_converge_across_exponent_gaps(n_dim, q, k, eps, h):
    # gap = |q - p*| runs from 0.1 to 1.5; below 1 the first spike sits
    # beyond k log(1/eps), log(1/eps)/gap from the origin, and no a-priori
    # bound on the spike set stops the solve
    params = make_params(q=q, eps=eps, k=k, n_dim=n_dim)
    _, state = solve_reduced(params, energy_constants(n_dim, q), ReductionConfig(h=h))
    assert np.max(np.abs(state.c)) < 1e-8


@pytest.mark.parametrize("n_dim,q,k,nodes,lam_wide", [
    (3, 3.05, 1, 3301, [0.38872727990780054]),
    (10, 1.3, 2, 3819, [10241786.069395207, 0.0041143433189713315]),
])
def test_grid_size_does_not_follow_sigma(n_dim, q, k, nodes, lam_wide):
    # sigma = 0.05 in both; a window of 10/sigma = 200 took 20,302 and
    # 20,819 nodes for the Lambda recorded here, which 30 units keep
    params = make_params(q=q, eps=1e-2, k=k, n_dim=n_dim)
    lam, state = solve_reduced(params, energy_constants(n_dim, q), ReductionConfig(h=0.02))
    assert state.phi.grid.n == nodes
    np.testing.assert_allclose(lam, lam_wide, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("q", [3.2, 3.3])
def test_reduced_energy_near_the_lower_end_of_the_window(q):
    # sigma = 0.2 and 0.3 weigh the star norm; phi decays like the
    # profile, so the potential term is integrable on the truncated grid
    params, config = make_params(q=q, eps=1e-2, k=1), ReductionConfig(h=0.02)
    lam, state = solve_reduced(params, energy_constants(3, q), config)
    assert np.max(np.abs(state.c)) < 1e-10
    assert math.isfinite(_corrected_energy(state.xi, params, config))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_dim,q,k,eps,h", [
    (9, 1.55, 2, 1e-3, 0.02),
    (9, 1.55, 3, 1e-3, 0.02),
    (3, 4.98, 2, 1e-2, 0.03),
    (3, 4.97, 2, 1e-2, 0.03),
])
def test_grid_follows_the_solved_spikes(n_dim, q, k, eps, h, monkeypatch):
    # at small exponent gaps the solved spikes drift 10-36 units past the
    # closed-form ones, beyond PAD: the grid is rebuilt around them, so
    # they keep the window and Lambda agrees with a solve on a grid 30
    # units wider, where a fixed grid stopped on the orthogonality check
    # (N = 9) or moved Lambda by 1e-6 (q = 4.98)
    import bubbletower.reduction as reduction_module
    params, constants = make_params(q=q, eps=eps, k=k, n_dim=n_dim), energy_constants(n_dim, q)
    lam, state = solve_reduced(params, constants, ReductionConfig(h=h))
    assert np.max(np.abs(state.c)) < 1e-10
    grid = state.phi.grid
    assert state.xi[0] - grid.x0 >= WINDOW and grid.x1 - state.xi[-1] >= WINDOW
    monkeypatch.setattr(reduction_module, "PAD", 30.0)
    lam_wide, _ = solve_reduced(params, constants, ReductionConfig(h=h))
    np.testing.assert_allclose(lam, lam_wide, rtol=1e-9, atol=0.0)


def test_reduced_energy_tends_to_leading_term(c4):
    vals = []
    for eps in (1e-2, 3e-3, 1e-3):
        params = make_params(eps=eps, k=1)
        lam = critical_scales(c4, params)
        vals.append(_corrected_energy(spike_locations(lam, eps, params), params,
                                      ReductionConfig(h=0.02)))
    gaps = [abs(v - c4.a1) for v in vals]
    assert gaps[2] < gaps[1] < gaps[0]


def test_reduced_energy_close_to_tower_energy(c4):
    # corrected energy differs from the pure tower energy by o(eps)
    ratios = []
    for eps in (1e-2, 1e-3):
        params, _, lam, xi, grid, frame = _setup(eps=eps, k=1, c=c4)
        e_corr = _corrected_energy(xi, params, ReductionConfig(h=0.02), grid=grid)
        ub = tower_ansatz(xi, grid, params)
        e_tower = energy(GridFunction(grid, ub.values), params)
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


def test_radial_residual_survives_where_the_radial_terms_underflow(c7):
    # flat towers at eps = 1e-150 and 1e-290 sit at x ~ 170 and 330, where
    # u = r^{-1/2} v and every term of the radial equation underflow in r;
    # read in the line variable the residual is the eps = 1e-100 one, not 0
    def max_residual(eps):
        params = make_params(q=7.0, eps=eps, k=1)
        _, state = solve_reduced(params, c7, ReductionConfig(h=0.05))
        sol = assemble_solution(state, params)
        return float(np.max(sol.radial_residual(sol.residual_radii(100))))

    ref = max_residual(1e-100)
    assert 1e-3 < ref < 1e-2
    for eps in (1e-150, 1e-290):
        assert max_residual(eps) == pytest.approx(ref, rel=1e-2)


def test_reduced_energy_unperturbed_single_bubble_is_a1():
    # at eps = 0 the problem is translation invariant: the spike sits at 0
    params = make_params(eps=0.0, v=0.0, k=1)
    val = _corrected_energy([0.0], params, ReductionConfig(h=0.01))
    assert abs(val - math.sqrt(3.0) * math.pi / 8.0) < 2e-5


def test_degenerate_saddle_raises_conditioning_error(c4):
    from bubbletower.errors import ConditioningError
    params = make_params(eps=1e-2, k=1)
    # spikes far outside the domain leave numerically vanishing kernel
    # columns: the bordered system is effectively singular
    grid = grid_for_spikes(np.array([5.0]), h=0.1)
    solver = ProjectedSolver(TowerField(np.array([80.0]), params, grid))
    rng = np.random.default_rng(1)
    with pytest.raises(ConditioningError):
        solver.solve_values(rng.normal(size=grid.n))


def test_assembled_agrees_with_predicted_solution(c4):
    # sup agreement where the tallest bubble lives, improving as eps shrinks
    from bubbletower import compare, ef_inverse, predicted_tower, profile_U
    sups = []
    for eps in (5e-2, 1e-2):
        params = make_params(eps=eps, k=1)
        lam_eps, state = solve_reduced(params, c4, ReductionConfig(h=0.02))
        sol = assemble_solution(state, params)
        xi = predicted_tower(params, c4).xi
        pred = ef_inverse(lambda x: sum(profile_U(np.asarray(x) - s, 3) for s in xi),
                          3, params.regime)
        # evenly spaced in log r
        ln_peak = -2.0 * float(state.xi[0])
        metrics = compare(lambda s: sol(np.exp(s)), lambda s: pred(np.exp(s)),
                          (ln_peak - math.log(5.0), ln_peak + math.log(5.0)))
        sups.append(metrics.sup_rel)
    assert sups[0] < 0.2
    assert sups[1] < sups[0]


def test_saddle_matrix_is_symmetric(c4):
    params, _, _, xi, grid, _ = _setup(k=2, eps=1e-2, c=c4, h=0.05)
    import scipy.sparse as sp
    a = sp.bmat([[linearized_matrix(xi, params, grid),
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
    from bubbletower import grid_for_spikes, spike_locations

    def landscape(v):
        params = make_params(q=7.0, eps=eps, k=1, v=v)
        xi0 = spike_locations(np.array([1.0]), eps, params)
        grid = grid_for_spikes(xi0, h=0.02, pad=4.0)
        return params, np.array([
            _corrected_energy(spike_locations(np.array([lam]), eps, params), params,
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
    # wrap every reference to profile_U that a bubbletower module holds and
    # count the calls of one correction: its TowerField evaluates all spikes
    # in one call, and no Newton step evaluates them again
    import sys
    import bubbletower.profiles as profiles_module
    original = profiles_module.profile_U
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
    assert calls[0][0].shape == (2, grid.n)


@pytest.mark.parametrize("q,k,eps", [(4.0, 1, 1e-2), (4.0, 2, 1e-2),
                                     (4.0, 3, 1e-2), (7.0, 1, 5e-2)])
def test_multiplier_jacobian_matches_central_differences(q, k, eps, c4, c7):
    # dc/ds in s = log Lambda from one correction's last factorization
    # against central differences of the multipliers on the same grid; J and
    # S belong to the last Newton step, one increment before the converged
    # phi, which leaves a gap flat in the step (measured 9e-10 to 7.1e-6)
    params, _, lam_star, _, grid, _ = _setup(eps=eps, k=k, q=q, h=0.03,
                                             c=c4 if q == 4.0 else c7)
    config = ReductionConfig(h=0.03)
    s = np.log(1.05 * lam_star)

    def correction(s):
        xi = spike_locations(np.exp(s), eps, params)
        return solve_correction(xi, params, config, grid=grid)

    jac = correction(s).multiplier_jacobian()
    step = 1e-4
    fd = np.empty((k, k))
    for j in range(k):
        e_j = np.zeros(k)
        e_j[j] = step
        fd[:, j] = (correction(s + e_j).c - correction(s - e_j).c) / (2.0 * step)
    assert np.linalg.norm(jac - fd) / np.linalg.norm(jac) < 1e-4


@pytest.mark.parametrize("k,h,bound", [(2, 0.02, 4), (3, 0.03, 4)])
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


def test_unconverged_outer_solve_raises_with_state(c4, monkeypatch):
    import bubbletower.reduction as reduction_module
    from bubbletower.errors import ConvergenceError
    monkeypatch.setattr(reduction_module, "MAX_NEWTON", 1)
    with pytest.raises(ConvergenceError, match="not below") as info:
        solve_reduced(make_params(eps=1e-2, k=1), c4, ReductionConfig(h=0.03))
    assert info.value.state is not None and info.value.state.converged


@pytest.mark.parametrize("k,eps,h", [(1, 1e-2, 0.02), (2, 1e-2, 0.02), (3, 1e-2, 0.03)])
def test_newton_correction_is_a_discrete_solution(k, eps, h, c4):
    # F(phi) = full_operator(Ubar + phi) equals sum_i c_i Z_i to rounding,
    # far below the size of the tower residual R that it started from
    params, _, _, xi, grid, _ = _setup(eps=eps, k=k, h=h, c=c4)
    state = solve_correction(xi, params, ReductionConfig(h=h), grid=grid)
    tower = state.field
    v = GridFunction(grid, tower.ubar.values + state.phi.values)
    defect = full_operator(v, params).values - tower.z @ state.c
    residual = full_operator(tower.ubar, params).values
    assert np.max(np.abs(defect)) < 1e-10 * np.max(np.abs(residual))


@pytest.mark.parametrize("k,h", [(2, 0.02), (3, 0.03)])
def test_newton_correction_steps_on_benchmark_towers(k, h, c4):
    # the reduce cases of the tower benchmark, from phi = 0
    params, _, _, xi, _, _ = _setup(eps=1e-2, k=k, h=h, c=c4)
    state = solve_correction(xi, params, ReductionConfig(h=h))
    assert state.converged and state.iterations <= 6


def test_warm_started_correction_matches_cold_start(c4):
    # a correction of a nearby spike set, projected onto Z^T phi = 0 of the
    # new one, starts the Newton steps closer than phi = 0 does
    params, _, _, xi, grid, _ = _setup(eps=1e-2, k=2, c=c4)
    config = ReductionConfig(h=0.02)
    near = solve_correction(xi, params, config, grid=grid)
    cold = solve_correction(xi * 1.001, params, config, grid=grid)
    warm = solve_correction(xi * 1.001, params, config, grid=grid,
                            phi0=near.phi.values)
    assert warm.iterations < cold.iterations
    assert warm.field.star_norm(warm.phi.values - cold.phi.values) < 1e-11
    assert np.max(np.abs(warm.c - cold.c)) < 1e-12
    assert warm.orth_defect < 1e-10


def test_correction_step_cap_raises_with_state(c4, monkeypatch):
    import bubbletower.reduction as reduction_module
    from bubbletower.errors import ConvergenceError
    monkeypatch.setattr(reduction_module, "MAX_CORRECTION_STEPS", 2)
    params, _, _, xi, grid, _ = _setup(eps=1e-2, k=2, c=c4)
    with pytest.raises(ConvergenceError, match="2 steps") as info:
        solve_correction(xi, params, ReductionConfig(h=0.02), grid=grid)
    state = info.value.state
    assert state is not None and not state.converged
    assert state.iterations == 2 and len(state.increments) == 2
    assert state.phi.grid == grid
