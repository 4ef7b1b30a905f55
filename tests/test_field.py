import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubbletower import (Grid, GridFunction, ModelParams, PotentialSpec,
                         SpikeFrame, TowerField, ansatz_residual,
                         default_sigma, energy, full_operator, grid_for_spikes,
                         linearized_matrix, nonlinear_remainder, profile_U,
                         profile_d2U, profile_dU, spike_locations, star_norm,
                         tower_ansatz, critical_scales, energy_constants)
from bubbletower.field import MAX_GRID_NODES
from conftest import make_params

A1_N3 = math.sqrt(3.0) * math.pi / 8.0
A2_N3 = 2.0 * math.sqrt(3.0)


def test_grid_basics():
    g = Grid.from_span(-1.0, 1.0, 0.5)
    assert g.n == 5 and g.x1 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        Grid(0.0, -0.1, 10)
    with pytest.raises(ValueError):
        Grid(0.0, 0.1, 2)


def test_grid_function_validation():
    g = Grid(0.0, 0.1, 11)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(10))
    with pytest.raises(ValueError):
        GridFunction(g, np.full(11, np.nan))
    gf = GridFunction(g, np.zeros(11))
    with pytest.raises(ValueError):
        gf.values[0] = 1.0          # frozen samples


def test_tower_ansatz_single_translate():
    params = make_params(eps=0.0, v=0.0)
    g = Grid.from_span(-20.0, 20.0, 0.01)
    ub = tower_ansatz([0.0], g, params)
    assert np.max(np.abs(ub.values - profile_U(g.x, 3))) == 0.0


def test_tower_ansatz_peaks_near_spikes():
    params = make_params(eps=0.0, v=0.0, k=3)
    xi = np.array([12.0, 24.5, 40.0])
    g = grid_for_spikes(xi, h=0.02)
    ub = tower_ansatz(xi, g, params)
    v = ub.values
    peaks = g.x[1:-1][(v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:])
                      & (v[1:-1] > 0.5 * v.max())]
    assert len(peaks) == 3
    assert np.max(np.abs(peaks - xi)) <= g.h


def test_tower_ansatz_value_dominated_by_tails():
    params = make_params(eps=0.0, v=0.0, k=3)
    xi = np.array([12.0, 24.0, 37.0])
    g = grid_for_spikes(xi, h=0.01)
    ub = tower_ansatz(xi, g, params)
    at_first = ub.values[int(round((xi[0] - g.x0) / g.h))]
    tail_sum = sum(profile_U(xi[0] - s, 3) for s in xi[1:])
    excess = at_first - profile_U(0.0, 3)
    assert excess <= tail_sum + 1e-12
    assert excess < 1e-4    # exponentially small in the gaps


def test_star_norm_basics():
    g = Grid.from_span(-10.0, 10.0, 0.1)
    frame = SpikeFrame(np.array([0.0]), 0.5)
    assert star_norm(GridFunction(g, np.zeros(g.n)), frame) == 0.0
    psi = GridFunction(g, np.exp(-0.5 * np.abs(g.x)))
    assert star_norm(psi, frame) == pytest.approx(1.0, rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-1e3, max_value=1e3))
def test_star_norm_homogeneity(c):
    g = Grid.from_span(-8.0, 8.0, 0.25)
    frame = SpikeFrame(np.array([-1.0, 3.0]), 0.4)
    base = np.sin(g.x) / (1.0 + g.x ** 2)
    n0 = star_norm(GridFunction(g, base), frame)
    nc = star_norm(GridFunction(g, c * base), frame)
    assert nc == pytest.approx(abs(c) * n0, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_star_weight_keeps_the_per_point_sum_bits(k):
    # the row sum equals the per-point sum over a trailing spike axis bit
    # for bit (numpy sums fewer than 8 terms in order), at any shape of x
    frame = SpikeFrame(np.arange(k) * 11.5 - 4.0, 0.37)
    grid = Grid.from_span(-40.0, 40.0, 0.02).x
    for x in (2.3, grid, grid[:-1].reshape(80, -1)):
        direct = np.exp(-frame.sigma * np.abs(np.asarray(x)[..., None] - frame.xi)).sum(-1)
        weight = frame.weight(x)
        assert np.shape(weight) == np.shape(x)
        assert np.asarray(weight).tobytes() == direct.tobytes()


def test_star_norm_dominance_bounds():
    rng = np.random.default_rng(3)
    g = Grid.from_span(-12.0, 12.0, 0.05)
    xi = np.array([-4.0, 5.0])
    sigma = 0.5
    frame = SpikeFrame(xi, sigma)
    maxdist = max(np.max(np.minimum(np.abs(g.x - xi[0]), np.abs(g.x - xi[1]))), 0)
    for _ in range(5):
        vals = rng.normal(size=g.n)
        psi = GridFunction(g, vals)
        ns = star_norm(psi, frame)
        assert np.max(np.abs(vals)) <= len(xi) * ns + 1e-12
        assert ns <= np.max(np.abs(vals)) * math.exp(sigma * maxdist) + 1e-12


def test_energy_zero_function():
    params = make_params(eps=1e-2, k=1)
    g = Grid.from_span(-30.0, 30.0, 0.02)
    assert energy(GridFunction(g, np.zeros(g.n)), params) == 0.0


def test_energy_of_profile_is_a1():
    params = make_params(eps=0.0, v=0.0)
    g = Grid.from_span(-35.0, 35.0, 0.02)
    e_h = energy(GridFunction(g, profile_U(g.x, 3)), params)
    assert abs(e_h - A1_N3) < 5e-5


def test_energy_discretization_second_order():
    params = make_params(eps=0.0, v=0.0)
    errs = []
    for h in (0.04, 0.02, 0.01):
        g = Grid.from_span(-35.0, 35.0, h)
        e_h = energy(GridFunction(g, profile_U(g.x, 3)), params)
        errs.append(abs(e_h - A1_N3))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def _interaction_ratio(gap, h=0.005):
    params = make_params(eps=0.0, v=0.0, k=2)
    xi = np.array([20.0, 20.0 + gap])

    def e_two(step):
        g = grid_for_spikes(xi, h=step)
        ub = tower_ansatz(xi, g, params)
        return energy(GridFunction(g, ub.values), params)

    # Richardson in h: the gap-10 signal is ~1e-4, well below the plain
    # second-order quadrature bias at practical spacings
    e_extrap = (4.0 * e_two(h / 2) - e_two(h)) / 3.0
    return (2.0 * A1_N3 - e_extrap) / (A2_N3 * math.exp(-gap))


def test_two_tower_interaction_calibration():
    # fixes the interaction coefficient: I0(Ubar) - 2 a1 ~ -a2 e^{-gap}
    r8, r10 = _interaction_ratio(8.0), _interaction_ratio(10.0)
    assert 0.8 < r8 < 1.2
    assert abs(r10 - 1.0) < abs(r8 - 1.0)


def test_grid_refuses_more_nodes_than_its_ceiling():
    assert Grid(0.0, 1.0, MAX_GRID_NODES).n == MAX_GRID_NODES
    with pytest.raises(ValueError, match="ceiling"):
        Grid(0.0, 1.0, MAX_GRID_NODES + 1)


def test_residual_vanishes_for_exact_profile():
    params = make_params(eps=0.0, v=0.0)
    g = Grid.from_span(-30.0, 30.0, 0.02)
    res = ansatz_residual([0.0], params, g)
    assert np.max(np.abs(res.values)) < 1e-13


def test_residual_matches_definition_with_analytic_curvature():
    # R = -Ubar'' + Ubar - beta [w_nl Ubar^{p} - omega w_pot Ubar^{q}],
    # with the second derivative taken in closed form
    params = make_params(eps=2e-2, k=2, v=-1.0)
    lam = np.array([0.8, 0.3])
    xi = spike_locations(lam, params.epsilon, params)
    g = grid_for_spikes(xi, h=0.05)
    x = g.x
    ubar = sum(profile_U(x - s, 3) for s in xi)
    d2 = sum(profile_d2U(x - s, 3) for s in xi)
    p = params.p_star + params.epsilon
    direct = (-d2 + ubar
              - params.beta * (np.exp(params.epsilon * x) * ubar ** p
                               - params.omega(x)[0] * np.exp(-(params.p_star - 4.0) * x)
                               * ubar ** 4.0))
    res = ansatz_residual(xi, params, g)
    assert np.max(np.abs(res.values - direct)) < 1e-12


def test_residual_star_norm_decreases_with_eps(c4):
    vals = []
    for eps in (1e-2, 1e-3):
        params = make_params(eps=eps, k=2)
        lam = critical_scales(c4, params)
        xi = spike_locations(lam, eps, params)
        sigma = default_sigma(params)
        g = grid_for_spikes(xi, h=0.02)
        frame = SpikeFrame(xi, sigma)
        vals.append(star_norm(ansatz_residual(xi, params, g), frame))
    assert vals[1] < vals[0]


def test_nonlinear_remainder_zero_at_zero():
    params = make_params(eps=1e-2, k=1)
    xi = spike_locations([1.0], params.epsilon, params)
    g = grid_for_spikes(xi, h=0.05)
    n_phi = nonlinear_remainder(GridFunction(g, np.zeros(g.n)), xi, params)
    assert np.max(np.abs(n_phi.values)) == 0.0


def test_nonlinear_remainder_quadratic_scaling():
    params = make_params(eps=1e-2, k=1)
    xi = spike_locations([1.0], params.epsilon, params)
    sigma = default_sigma(params)
    g = grid_for_spikes(xi, h=0.02)
    frame = SpikeFrame(xi, sigma)
    phi0 = np.exp(-0.5 * (g.x - xi[0]) ** 2)
    norms = []
    ts = (1e-1, 1e-2, 1e-3)
    for t in ts:
        n_phi = nonlinear_remainder(GridFunction(g, t * phi0), xi, params)
        norms.append(star_norm(n_phi, frame))
    slope = np.polyfit(np.log(ts), np.log(norms), 1)[0]
    # min{p*, 2q - p*, 2} = 2 for N=3, q=4
    assert slope == pytest.approx(2.0, rel=0.15)


def test_nonlinear_remainder_bound_with_fitted_constant():
    params = make_params(eps=1e-2, k=2)
    lam = critical_scales_or_default(params)
    xi = spike_locations(lam, params.epsilon, params)
    sigma = default_sigma(params)
    g = grid_for_spikes(xi, h=0.05)
    frame = SpikeFrame(xi, sigma)
    rng = np.random.default_rng(11)
    p_star, q = params.p_star, params.q
    e1, e2 = min(p_star, 2.0), min(2.0 * q - p_star, 2.0)

    def ratios(count, seed_rng):
        out = []
        for _ in range(count):
            width = seed_rng.uniform(0.5, 2.0)
            center = xi[seed_rng.integers(0, len(xi))] + seed_rng.uniform(-2, 2)
            amp = seed_rng.uniform(1e-3, 5e-2)
            phi = GridFunction(g, amp / np.cosh(width * (g.x - center)))
            norm_phi = star_norm(phi, frame)
            norm_n = star_norm(nonlinear_remainder(phi, xi, params), frame)
            out.append(norm_n / (norm_phi ** e1 + norm_phi ** e2))
        return out

    fit = ratios(20, rng)
    c_fit = max(fit)
    fresh = ratios(20, np.random.default_rng(12))
    assert all(r <= 1.5 * c_fit for r in fresh)


def critical_scales_or_default(params):
    from bubbletower import energy_constants
    return critical_scales(energy_constants(3, params.q), params)


def test_linearized_kernel_direction():
    # differentiating the profile equation: L0 U' = 0 up to the stencil error
    params = make_params(eps=0.0, v=0.0)
    errs = []
    for h in (0.02, 0.01):
        g = Grid.from_span(-30.0, 30.0, h)
        out = linearized_matrix([0.0], params, g) @ profile_dU(g.x, 3)
        errs.append(np.max(np.abs(out)))
    assert errs[0] < 2e-2
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def test_energy_first_variation_matches_operator():
    # (E(psi+t phi) - E(psi-t phi))/(2t) against the discrete pairing
    params = make_params(eps=1e-2, k=1, v=-1.0)
    xi = spike_locations([0.8], params.epsilon, params)
    g = grid_for_spikes(xi, h=0.02)
    psi_vals = tower_ansatz(xi, g, params).values
    phi_vals = 0.3 / np.cosh(g.x - xi[0] + 1.0)
    t = 1e-6
    up = GridFunction(g, psi_vals + t * phi_vals)
    dn = GridFunction(g, psi_vals - t * phi_vals)
    directional = (energy(up, params) - energy(dn, params)) / (2.0 * t)
    psi = GridFunction(g, psi_vals)
    pairing = g.h * float(np.sum(full_operator(psi, params).values * phi_vals))
    assert directional == pytest.approx(pairing, rel=1e-7)


def test_full_operator_consistent_with_matrix():
    params = make_params(eps=1e-2, k=1, v=-1.0)
    xi = spike_locations([0.8], params.epsilon, params)
    g = grid_for_spikes(xi, h=0.05)
    ub = tower_ansatz(xi, g, params)
    # full operator linearized at Ubar equals the sparse matrix action
    rng = np.random.default_rng(2)
    phi = 1e-7 * rng.normal(size=g.n)
    lhs = full_operator(GridFunction(g, ub.values + phi), params).values \
        - full_operator(ub, params).values
    rhs = linearized_matrix(xi, params, g) @ phi
    assert np.max(np.abs(lhs - rhs)) < 1e-7 * np.max(np.abs(rhs))


@pytest.mark.parametrize("q,k", [(4.0, 1), (4.0, 2), (7.0, 1), (7.0, 2)])
def test_analytic_and_discrete_residuals_differ_by_h_squared(q, k, c4, c7):
    # ansatz_residual takes Ubar'' in closed form, full_operator(tower_ansatz)
    # the 3-point stencil; in the plain sup norm they differ by O(h^2)
    params = make_params(q=q, eps=1e-2, k=k)
    xi = spike_locations(critical_scales(c4 if q == 4.0 else c7, params),
                         params.epsilon, params)
    sups = []
    for h in (0.02, 0.01, 0.005):
        g = grid_for_spikes(xi, h=h, pad=3.0)
        diff = ansatz_residual(xi, params, g).values \
            - full_operator(tower_ansatz(xi, g, params), params).values
        sups.append(np.max(np.abs(diff)))
    assert sups[0] < 1e-3
    for coarse, fine in zip(sups, sups[1:]):
        assert 3.8 <= coarse / fine <= 4.2


@pytest.mark.parametrize("n_dim", [3, 4, 5, 6])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_tower_field_matches_per_spike_profiles(n_dim, k):
    # Ubar, Z and U'' from the one k x n evaluation equal, bit for bit, the
    # ordered sum of profile_U and the per-spike profile_dU/profile_d2U columns
    params = make_params(q=(n_dim + 2) / (n_dim - 2) + 1.0, k=k, n_dim=n_dim)
    xi = 2.0 + 7.0 * np.arange(k)
    g = grid_for_spikes(xi, h=0.05)
    tower = TowerField(xi, params, g)
    ubar = np.zeros(g.n)
    for s in xi:
        ubar += profile_U(g.x - s, n_dim)
    assert np.array_equal(tower.ubar.values, ubar)
    assert np.array_equal(tower.z, np.column_stack([profile_dU(g.x - s, n_dim) for s in xi]))
    assert np.array_equal(tower.d2u,
                          np.column_stack([profile_d2U(g.x - s, n_dim) for s in xi]))
    assert tower.z.flags.c_contiguous and tower.d2u.flags.c_contiguous


@pytest.mark.parametrize("xi", [[0.0, 0.0], [3.0, 1.0], [0.0, 5.0, 5.0]])
def test_tower_field_rejects_non_increasing_spikes(xi):
    params = make_params(k=len(xi))
    with pytest.raises(ValueError, match="strictly increasing"):
        TowerField(xi, params, Grid.from_span(-40.0, 45.0, 0.1))


def test_tower_field_against_direct_formulas():
    # rational V: the remainder N(phi) and the Newton system J(phi) phi - F(phi),
    # diag J(phi) of one spike set, against the formulas written out with an
    # x-dependent omega, in both regimes: the potential weight is
    # exp(-|p* - q| x) for the concentrating q = 4 and the flat q = 7
    for q in (4.0, 7.0):
        params = ModelParams.make(3, q, 2e-2, k=2,
                                  potential=PotentialSpec.rational(-2.0, 1.0))
        xi = spike_locations(np.array([0.8, 0.3]), params.epsilon, params)
        g = grid_for_spikes(xi, h=0.05)
        tower = TowerField(xi, params, g)
        x, p, beta = g.x, params.p, params.beta
        ubar = sum(profile_U(x - s, 3) for s in xi)
        w_nl = np.exp(params.epsilon * x)
        w_pot = params.omega(x)[0] * np.exp(-abs(params.p_star - q) * x)
        phi = 0.05 * np.sin(x) * SpikeFrame(xi, 0.5).weight(x)
        b = np.maximum(ubar + phi, 0.0)
        remainder = beta * (w_nl * (b ** p - ubar ** p - p * ubar ** (p - 1.0) * phi)
                            - w_pot * (b ** q - ubar ** q - q * ubar ** (q - 1.0) * phi))
        w_b = beta * (p * w_nl * b ** (p - 1.0) - q * w_pot * b ** (q - 1.0))
        lap = np.concatenate(([0.0], ubar, [0.0]))
        lin_ubar = -(lap[2:] - 2.0 * ubar + lap[:-2]) / g.h ** 2 + ubar
        newton_rhs = beta * (w_nl * b ** p - w_pot * b ** q) - w_b * phi - lin_ubar
        rhs, diagonal = tower.newton_system(phi)
        for cached, direct in (
                (nonlinear_remainder(GridFunction(g, phi), xi, params).values, remainder),
                (rhs, newton_rhs),
                (diagonal, 2.0 / g.h ** 2 + 1.0 - w_b)):
            assert np.max(np.abs(cached - direct)) < 1e-12 * np.max(np.abs(direct))
        assert tower.star_norm(phi) == star_norm(GridFunction(g, phi), SpikeFrame(xi, 0.5))


def test_constructors_copy_the_callers_arrays():
    # each object keeps a read-only copy: the caller's array stays writable,
    # and a later write to it does not reach the object
    from bubbletower import TowerConfig
    g = Grid(0.0, 0.5, 11)
    vals, xi, lam, alpha = np.ones(11), np.array([1.0, 2.0]), np.ones(2), np.ones(2)
    config = TowerConfig(lam, xi, alpha)
    made = [(GridFunction(g, vals).values, vals), (SpikeFrame(xi, 0.5).xi, xi),
            (TowerField(xi, make_params(k=2), g).xi, xi),
            (config.lambdas, lam), (config.xi, xi), (config.alpha, alpha)]
    for kept, given in made:
        before = kept.copy()
        given += 1.0
        assert np.array_equal(kept, before) and not kept.flags.writeable


def test_potential_weight_stays_finite_past_the_exponent_clip():
    # N = 3, q = 40: the exponent gap 35 times the reduction grid's left end,
    # x = -32.7, is about 1140, past exp's range; the clipped weight is
    # finite, and exactly zero at the default V = 0
    from bubbletower.field import _weights
    x = np.linspace(-40.0, 40.0, 801)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, zero = _weights(x, ModelParams.make(3, 40.0, 1e-2))
        _, w_pot = _weights(x, make_params(q=40.0))
    assert zero.tobytes() == np.zeros_like(x).tobytes()
    assert np.all(np.isfinite(w_pot)) and w_pot[0] == -np.exp(700.0)


def test_potential_weight_below_the_clip_is_unclipped():
    # the reduction grid at N = 3, q = 26, k = 2 (gap 21) reaches exponent
    # 685, below the clip: its weights, so every output, keep their bits
    from bubbletower.field import _weights
    from bubbletower.reduction import PAD
    params = make_params(q=26.0, k=2)
    xi = spike_locations(critical_scales(energy_constants(3, 26.0), params),
                         params.epsilon, params)
    x = grid_for_spikes(xi, 0.03, PAD).x
    expo = -params.exponent_gap * x
    assert 680.0 < np.max(expo) < 700.0
    assert _weights(x, params)[1].tobytes() == (params.omega(x)[0] * np.exp(expo)).tobytes()
