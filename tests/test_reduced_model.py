import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from bubbletower import (ModelParams, PotentialSpec, Regime, critical_scales,
                         ef_inverse, energy_constants, energy_expansion,
                         predicted_solution, predicted_tower, profile_U,
                         reduced_functional, reduced_functional_grad,
                         reduced_functional_hess_diag, spike_locations,
                         tower_amplitudes)
from bubbletower.errors import HypothesisViolationError, WindowViolationError
from conftest import make_params


def test_spike_locations_single(c4):
    params = make_params(eps=0.01, k=1)
    xi = spike_locations([1.0], 0.01, params)
    assert xi[0] == pytest.approx(math.log(100.0), rel=1e-14)


def test_spike_locations_gap(c4):
    params = make_params(eps=0.01, k=2)
    xi = spike_locations([0.7, 1.0], 0.01, params)
    assert xi[1] - xi[0] == pytest.approx(math.log(100.0), rel=1e-14)


def test_spike_locations_log_additivity():
    params = make_params(eps=0.01, k=3)
    lam = [0.8, 0.5, 1.7]
    xi_1 = spike_locations(lam, 0.01, params)
    xi_2 = spike_locations(lam, 0.001, params)
    gaps_1, gaps_2 = np.diff(xi_1), np.diff(xi_2)
    assert np.allclose(gaps_2 - gaps_1, math.log(10.0), rtol=1e-12)


def test_spike_locations_super_regime_first_gap():
    params = make_params(q=7.0, eps=0.01, k=1)
    xi = spike_locations([1.0], 0.01, params)
    assert xi[0] == pytest.approx(math.log(100.0) / 2.0, rel=1e-14)


def test_spike_locations_errors():
    params = make_params(eps=0.01, k=2)
    with pytest.raises(ValueError):
        spike_locations([1.0, -2.0], 0.01, params)
    with pytest.raises(WindowViolationError):
        spike_locations([1.0, 300.0], 0.01, params)   # gap collapses
    # the closed-form spikes at N = 9, q = 1.55, k = 2 increase from 0 only
    # below eps_max = Lambda_1*^-gap = 0.0097897, which the message names
    params = make_params(q=1.55, eps=0.01, k=2, n_dim=9)
    lam = critical_scales(energy_constants(9, 1.55), params)
    with pytest.raises(WindowViolationError, match=r"epsilon below 0\.00979$"):
        spike_locations(lam, 0.01, params)


def test_reduced_functional_k1_formula(c4):
    params = make_params(eps=0.01, k=1)
    for lam in (0.3, 1.0, 2.5):
        expected = c4.a3 * math.log(lam) + c4.a5 * (-1.0) * lam
        assert reduced_functional([lam], c4, params) == pytest.approx(expected,
                                                                      rel=1e-14)


def test_reduced_functional_concave_coordinatewise(c4):
    params = make_params(eps=0.01, k=3)
    base = np.array([1.1, 0.4, 0.2])
    h = 1e-4
    for i in range(3):
        for val in (0.2, 0.7, 1.9, 6.0):
            lam = base.copy()
            lam[i] = val
            up, down = lam.copy(), lam.copy()
            up[i] += h
            down[i] -= h
            second = (reduced_functional(up, c4, params)
                      - 2.0 * reduced_functional(lam, c4, params)
                      + reduced_functional(down, c4, params)) / h ** 2
            assert second < 0.0


def test_reduced_functional_separability(c4):
    params = make_params(eps=0.01, k=3)
    a = np.array([0.9, 0.3, 0.15])
    b = a.copy()
    b[1] = 0.55
    diff_1 = reduced_functional(b, c4, params) - reduced_functional(a, c4, params)
    a2, b2 = a.copy(), b.copy()
    a2[0] = b2[0] = 2.3   # moving a shared coordinate must not change the diff
    diff_2 = reduced_functional(b2, c4, params) - reduced_functional(a2, c4, params)
    assert diff_1 == pytest.approx(diff_2, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=0.2, max_value=5.0), min_size=2, max_size=4))
def test_gradient_matches_finite_differences(c4, lams):
    params = make_params(eps=0.01, k=len(lams))
    lam = np.asarray(lams)
    grad = reduced_functional_grad(lam, c4, params)
    h = 1e-6
    for i in range(lam.size):
        up, down = lam.copy(), lam.copy()
        up[i] += h
        down[i] -= h
        fd = (reduced_functional(up, c4, params)
              - reduced_functional(down, c4, params)) / (2.0 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_gradient_tail_component_zero_point(c4):
    params = make_params(eps=0.01, k=3)
    lam_zero = 2.0 * c4.a3 / c4.a2    # component i=2 of k=3
    grad = reduced_functional_grad([1.0, lam_zero, 0.1], c4, params)
    assert grad[1] == pytest.approx(0.0, abs=1e-14)


def test_critical_scales_formulas(c4):
    params1 = make_params(eps=0.01, k=1)
    lam1 = critical_scales(c4, params1)
    assert lam1[0] == pytest.approx(c4.a3 / c4.a5, rel=1e-12)
    params3 = make_params(eps=0.01, k=3)
    lam3 = critical_scales(c4, params3)
    assert lam3[1] == pytest.approx(2.0 * c4.a3 / c4.a2, rel=1e-12)


def test_critical_scales_stationary_and_concave(c4):
    for k in (1, 2, 3, 4):
        params = make_params(eps=0.01, k=k)
        lam = critical_scales(c4, params)
        grad = reduced_functional_grad(lam, c4, params)
        assert np.linalg.norm(grad) < 1e-12
        hess = reduced_functional_hess_diag(lam, c4, params)
        assert np.all(hess < 0.0)
        # closed-form Hessian entries at the critical point
        assert hess[0] == pytest.approx(-k * c4.a3 * 1.0 / lam[0] ** 2, rel=1e-10)
        for i in range(2, k + 1):
            assert hess[i - 1] == pytest.approx(
                -(k - i + 1) * c4.a3 / lam[i - 1] ** 2, rel=1e-10)


def fd_newton_polish(f, x, iters=4, hg=1e-6, hh=1e-4):
    """Newton refinement using only central differences of f values."""
    x = np.asarray(x, dtype=float)
    n = x.size
    for _ in range(iters):
        g = np.empty(n)
        hess = np.empty((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = hg
            g[i] = (f(x + e) - f(x - e)) / (2.0 * hg)
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = hh
            for j in range(i, n):
                ej = np.zeros(n)
                ej[j] = hh
                hess[i, j] = hess[j, i] = (f(x + ei + ej) - f(x + ei - ej)
                                           - f(x - ei + ej) + f(x - ei - ej)) \
                    / (4.0 * hh * hh)
        x = x - np.linalg.solve(hess, g)
    return x


def test_critical_scales_multistart_oracle(c4):
    rng = np.random.default_rng(7)
    for k in (1, 2):
        params = make_params(eps=0.01, k=k)
        lam_star = critical_scales(c4, params)
        neg = lambda lam: -reduced_functional(np.abs(lam), c4, params)
        for _ in range(4):
            start = rng.uniform(0.1, 10.0, size=k)
            res = minimize(neg, start, method="Nelder-Mead",
                           options=dict(xatol=1e-10, fatol=1e-12, maxiter=20000))
            found = fd_newton_polish(neg, np.abs(res.x))
            assert np.max(np.abs(found - lam_star)) < 1e-8


def test_critical_scales_hypothesis_violation(c4):
    bad = ModelParams.make(3, 4.0, 1e-2, k=1, potential=PotentialSpec.constant(1.0))
    with pytest.raises(HypothesisViolationError):
        critical_scales(c4, bad)


def test_amplitudes_product_identity_both_regimes(c4, c7):
    for q, C, v in ((4.0, c4, -1.0), (7.0, c7, -1.0)):
        for k in range(1, 6):
            params = ModelParams.make(3, q, 1e-3, k=k,
                                      potential=PotentialSpec.constant(v))
            lam = critical_scales(C, params)
            alpha = tower_amplitudes(lam, C, params)
            prod = np.cumprod(lam)
            if params.regime is Regime.SUB_Q:
                assert np.max(np.abs(alpha * prod - 1.0)) < 1e-12
            else:
                assert np.max(np.abs(alpha / prod - 1.0)) < 1e-12


def test_amplitudes_match_explicit_formula_sub(c4):
    # the closed form with factorials, as a function of (k, j)
    k = 4
    params = make_params(eps=1e-2, k=k)
    lam = critical_scales(c4, params)
    alpha = tower_amplitudes(lam, c4, params)
    lead = (-c4.a5 * (-1.0) * 1.0 / (c4.a3 * k)) ** 1.0   # gap p*-q = 1 here
    for j in range(1, k + 1):
        expected = lead * (c4.a2 / c4.a3) ** (j - 1) \
            * math.factorial(k - j) / math.factorial(k - 1)
        assert alpha[j - 1] == pytest.approx(expected, rel=1e-12)


def test_amplitude_ratios(c4):
    k = 5
    params = make_params(eps=1e-2, k=k)
    lam = critical_scales(c4, params)
    alpha = tower_amplitudes(lam, c4, params)
    for j in range(1, k):
        assert alpha[j - 1] / alpha[j] == pytest.approx(
            (k - j) * c4.a3 / c4.a2, rel=1e-12)


def test_amplitudes_k1(c4, c7):
    sub = make_params(eps=1e-2, k=1)
    lam_sub = critical_scales(c4, sub)
    assert tower_amplitudes(lam_sub, c4, sub)[0] == pytest.approx(
        1.0 / lam_sub[0], rel=1e-14)
    sup = make_params(q=7.0, eps=1e-2, k=1)
    lam_sup = critical_scales(c7, sup)
    assert tower_amplitudes(lam_sup, c7, sup)[0] == pytest.approx(
        lam_sup[0], rel=1e-14)


def test_energy_expansion_structure(c4):
    params = make_params(eps=1e-2, k=2)
    lam = critical_scales(c4, params)
    br = energy_expansion(lam, 1e-2, c4, params)
    assert br.total == pytest.approx(
        br.leading + br.psi_term + br.a4_term + br.log_term,
        rel=1e-14)
    assert br.leading == pytest.approx(2.0 * c4.a1, rel=1e-14)
    # epsilon -> 0 limit of the total is k a1
    tiny = energy_expansion(lam, 1e-13, c4, params)
    assert tiny.total == pytest.approx(2.0 * c4.a1, abs=1e-10)


def test_energy_expansion_log_coefficient_k1(c4, c7):
    eps = 1e-3
    sub = make_params(eps=eps, k=1)
    br = energy_expansion(critical_scales(c4, sub), eps, c4, sub)
    # k=1 concentrating coefficient: a3/(p*-q)
    assert br.log_term == pytest.approx(c4.a3 / 1.0 * eps * math.log(eps),
                                        rel=1e-12)
    sup = make_params(q=7.0, eps=eps, k=1)
    br7 = energy_expansion(critical_scales(c7, sup), eps, c7, sup)
    # flat regime: the same form a3/(q-p*), gap q-p* = 2
    assert br7.log_term == pytest.approx(c7.a3 / 2.0 * eps * math.log(eps),
                                         rel=1e-12)


@pytest.mark.parametrize("q", [4.0, 7.0])
def test_predicted_solution_equals_transformed_tower(q, c4, c7):
    C = c4 if q == 4.0 else c7
    params = ModelParams.make(3, q, 1e-2, k=2,
                              potential=PotentialSpec.constant(-1.0))
    tower = predicted_tower(params, C)
    u = predicted_solution(params, C)
    v_line = lambda x: sum(profile_U(np.asarray(x) - s, 3) for s in tower.xi)
    u_ref = ef_inverse(v_line, 3, params.regime)
    r = np.geomspace(1e-6, 1e3, 200)
    rel = np.abs(u(r) - u_ref(r)) / np.abs(u_ref(r))
    assert np.max(rel) < 1e-10


def test_predicted_peak_trends(c4, c7):
    r0 = 1e-10
    sub_peaks = []
    sup_peaks = []
    for eps in (1e-2, 1e-3, 1e-4):
        sub = make_params(eps=eps, k=1)
        sup = make_params(q=7.0, eps=eps, k=1)
        sub_peaks.append(float(predicted_solution(sub, c4)(r0)))
        sup_peaks.append(float(predicted_solution(sup, c7)(r0)))
    assert sub_peaks[0] < sub_peaks[1] < sub_peaks[2]     # blow-up heights
    assert sup_peaks[0] > sup_peaks[1] > sup_peaks[2]     # flat heights
