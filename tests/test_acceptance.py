"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Both end-to-end criteria take the perturbed power p on the other side of p*
from q, so that one power is subcritical and the other supercritical, as the
Pohozaev identity requires of a decaying solution: p = p* + eps in the
concentrating (q < p*) regime and p = p* - eps in the flat (q > p*) regime.
"""

import math
import time

import numpy as np
from scipy.optimize import minimize

from bubbletower import (Classification, GridFunction, ModelParams,
                         PotentialSpec, ProjectedSolver, ReductionConfig,
                         Regime, SpikeFrame, TowerField, ansatz_residual,
                         assemble_solution, compare, critical_exponents,
                         critical_scales, default_sigma, energy,
                         energy_constants, energy_expansion, find_tower,
                         grid_for_spikes, integrate_line, kernel_directions,
                         model_constants, predicted_tower, profile_U,
                         profile_d2U, profile_moment_closed_form,
                         reduced_functional, reduced_functional_grad,
                         reduced_functional_hess_diag, solve_correction,
                         solve_reduced, spike_locations, star_norm,
                         tower_amplitudes, tower_ansatz)
from bubbletower.errors import BubbleTowerError
from conftest import probe_functions
from test_reduced_model import fd_newton_polish


def _report(num, description, ok, budget, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {description} "
          f"({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {num} failed: {description} {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def _params(q, eps, k, v=-1.0):
    return ModelParams.make(3, q, eps, k=k, potential=PotentialSpec.constant(v))


def test_criterion_01_profile_exactness():
    t0 = time.time()
    worst = 0.0
    for n in (3, 4, 5):
        _, p_star = critical_exponents(n)
        _, beta = model_constants(n)
        x = np.linspace(-25.0, 25.0, 1000)
        res = profile_d2U(x, n) - profile_U(x, n) + beta * profile_U(x, n) ** p_star
        worst = max(worst, float(np.max(np.abs(res))))
    _report(1, "profile equation residual with analytic derivatives",
            worst < 1e-10, 1.0, time.time() - t0, f"max residual {worst:.2e}")


def test_criterion_02_constants_cross_check(c4, c7):
    t0 = time.time()
    p_star = 5.0
    checks = {
        "a1": (c4.a1, 4.0 * (0.5 - 1.0 / 6.0)
               * profile_moment_closed_form(6.0, 0.0, 3)),
        "a3": (c4.a3, 4.0 / 6.0 * profile_moment_closed_form(6.0, 0.0, 3)),
        "a5": (c4.a5, 4.0 / 5.0 * profile_moment_closed_form(5.0, 1.0, 3)),
        "a5_hat": (c7.a5_hat, 4.0 / 8.0 * profile_moment_closed_form(8.0, 2.0, 3)),
    }
    inter, _ = integrate_line(lambda x: profile_U(x, 3) ** p_star * math.exp(x),
                              p_star + 1.0, p_star - 1.0, 1e-12)
    checks["inter"] = (inter, profile_moment_closed_form(p_star, -1.0, 3))
    worst = max(abs(a - b) / abs(b) for a, b in checks.values())
    _report(2, "quadrature vs Beta-reduction closed forms",
            worst < 1e-10, 5.0, time.time() - t0, f"worst rel err {worst:.2e}")


def test_criterion_03_interaction_calibration():
    t0 = time.time()
    params = _params(4.0, 0.0, 2, v=0.0)
    a1 = math.sqrt(3.0) * math.pi / 8.0
    a2 = 2.0 * math.sqrt(3.0)

    def ratio(gap):
        xi = np.array([20.0, 20.0 + gap])

        def e_two(h):
            g = grid_for_spikes(xi, h=h)
            ub = tower_ansatz(xi, g, params)
            return energy(GridFunction(g, ub.values), params)

        e_extrap = (4.0 * e_two(0.0025) - e_two(0.005)) / 3.0
        return (2.0 * a1 - e_extrap) / (a2 * math.exp(-gap))

    r8, r10 = ratio(8.0), ratio(10.0)
    ok = 0.8 < r8 < 1.2 and abs(r10 - 1.0) < abs(r8 - 1.0)
    _report(3, "two-tower interaction pins the coefficient c_n", ok, 10.0,
            time.time() - t0, f"ratio(8)={r8:.4f} ratio(10)={r10:.4f}")


def test_criterion_04_reduced_critical_point(c4):
    t0 = time.time()
    rng = np.random.default_rng(42)
    ok = True
    detail = []
    for k in (1, 2, 3, 4):
        params = _params(4.0, 1e-2, k)
        lam_star = critical_scales(c4, params)
        grad = reduced_functional_grad(lam_star, c4, params)
        hess = reduced_functional_hess_diag(lam_star, c4, params)
        ok &= np.linalg.norm(grad) < 1e-12 and bool(np.all(hess < 0.0))
        neg = lambda lam: -reduced_functional(np.abs(lam), c4, params)
        worst = 0.0
        for _ in range(10):
            start = rng.uniform(0.1, 10.0, size=k)
            res = minimize(neg, start, method="Nelder-Mead",
                           options=dict(xatol=1e-10, fatol=1e-12, maxiter=40000))
            found = fd_newton_polish(neg, np.abs(res.x))
            worst = max(worst, float(np.max(np.abs(found - lam_star))))
        ok &= worst < 1e-8
        detail.append(f"k={k}:{worst:.1e}")
    _report(4, "closed-form critical scales match multi-start maximizer",
            ok, 5.0, time.time() - t0, " ".join(detail))


def test_criterion_05_amplitude_identity(c4, c7):
    t0 = time.time()
    worst = 0.0
    for q, constants in ((4.0, c4), (7.0, c7)):
        for k in range(1, 6):
            params = _params(q, 1e-3, k)
            lam = critical_scales(constants, params)
            alpha = tower_amplitudes(lam, constants, params)
            prod = np.cumprod(lam)
            # the identity orients with the regime: amplitudes are the
            # inverse running product of the scales (concentrating) or the
            # forward product (flat); both reduce to |alpha_j * prod^{-+1} - 1|
            if params.regime is Regime.SUB_Q:
                dev = np.max(np.abs(alpha * prod - 1.0))
            else:
                dev = np.max(np.abs(alpha / prod - 1.0))
            worst = max(worst, float(dev))
    _report(5, "amplitude / scale-product identity, both regimes",
            worst < 1e-12, 1.0, time.time() - t0, f"worst dev {worst:.1e}")


def test_criterion_06_energy_expansion(c4, c7):
    t0 = time.time()
    eps_list = (1e-2, 3e-3, 1e-3)
    ok = True
    detail = []
    for q, constants in ((4.0, c4), (7.0, c7)):
        for k in (1, 2):
            lam = critical_scales(constants, _params(q, eps_list[0], k))
            ratios = []
            for eps in eps_list:
                params = _params(q, eps, k)
                xi = spike_locations(lam, eps, params)
                grid = grid_for_spikes(xi, h=0.005)
                ub = tower_ansatz(xi, grid, params)
                e_num = energy(GridFunction(grid, ub.values), params)
                pred = energy_expansion(lam, eps, constants, params).total
                ratios.append(abs(e_num - pred) / eps)
            decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
            ok &= decreasing
            detail.append(f"q={q:g},k={k}:{'ok' if decreasing else ratios}")
    _report(6, "energy expansion discrepancy is o(eps), both regimes",
            ok, 60.0, time.time() - t0, " ".join(detail))


def test_criterion_07_linear_theory(c4):
    t0 = time.time()
    worst_orth = 0.0
    sups = []
    for eps in (1e-2, 1e-3):
        params = _params(4.0, eps, 2)
        lam = critical_scales(c4, params)
        xi = spike_locations(lam, eps, params)
        sigma = default_sigma(params)
        grid = grid_for_spikes(xi, h=0.02)
        frame = SpikeFrame(xi, sigma)
        solver = ProjectedSolver(TowerField(xi, params, grid))
        z1 = GridFunction(grid, kernel_directions(xi, params, grid)[:, 0])
        phi, _ = solver.solve(z1)
        worst_orth = max(worst_orth, solver.orthogonality_defect(phi.values))
        worst = 0.0
        for h_fn in probe_functions(grid, frame, 20, seed=2024):
            phi, _ = solver.solve(h_fn)
            worst_orth = max(worst_orth,
                             solver.orthogonality_defect(phi.values))
            worst = max(worst, star_norm(phi, frame))
        sups.append(worst)
    stable = max(sups) / min(sups) < 2.0
    ok = worst_orth < 1e-10 and stable
    _report(7, "projected solver: orthogonality and uniform bound", ok, 60.0,
            time.time() - t0,
            f"orth {worst_orth:.1e}, probe sup ratio {max(sups)/min(sups):.2f}")


def test_criterion_08_reduction_smallness(c4):
    t0 = time.time()
    eps_list = (1e-2, 3e-3, 1e-3)
    res_norms, phi_norms = [], []
    for eps in eps_list:
        params = _params(4.0, eps, 2)
        lam = critical_scales(c4, params)
        xi = spike_locations(lam, eps, params)
        sigma = default_sigma(params)
        grid = grid_for_spikes(xi, h=0.02)
        frame = SpikeFrame(xi, sigma)
        res_norms.append(star_norm(ansatz_residual(xi, params, grid), frame))
        state = solve_correction(xi, params, ReductionConfig(h=0.02), grid=grid)
        phi_norms.append(state.star_norm_phi)
    le = np.log(eps_list)
    slope_r = float(np.polyfit(le, np.log(res_norms), 1)[0])
    slope_p = float(np.polyfit(le, np.log(phi_norms), 1)[0])
    ok = slope_r >= 0.5 and slope_p >= 0.5
    _report(8, "residual and correction shrink at least like sqrt(eps)", ok,
            120.0, time.time() - t0,
            f"slope residual {slope_r:.2f}, slope phi {slope_p:.2f}")


def _pipeline(q, eps, k, h):
    params = _params(q, eps, k)
    constants = energy_constants(3, q)
    lam_eps, state = solve_reduced(params, constants, ReductionConfig(h=h))
    solution = assemble_solution(state, params)
    tower = predicted_tower(params, constants)
    found = find_tower(params, tower)
    xi1 = float(state.xi[0])
    metrics = compare(solution.ef, found.ef_image, (xi1 - 2.0, xi1 + 2.0))
    return params, state, solution, found, metrics


def test_criterion_09_end_to_end_concentrating():
    t0 = time.time()
    _, state, solution, found, metrics = _pipeline(4.0, 5e-2, 1, h=0.006)
    c_ok = float(np.max(np.abs(state.c))) < 1e-8
    residual = solution.radial_residual(solution.residual_radii(100))
    res_ok = float(np.max(residual)) < 1e-4
    shot_ok = (found.classification is Classification.DECAYING
               and found.peak_count_ef == 1 and metrics.sup_rel < 0.2)
    _, _, _, _, metrics_small = _pipeline(4.0, 1e-2, 1, h=0.006)
    trend_ok = metrics_small.sup_rel < metrics.sup_rel
    ok = c_ok and res_ok and shot_ok and trend_ok
    _report(9, "end-to-end existence, concentrating regime", ok, 180.0,
            time.time() - t0,
            f"max|c|={np.max(np.abs(state.c)):.1e} "
            f"res={np.max(residual):.1e} sup_rel={metrics.sup_rel:.3f} "
            f"sup_rel(eps=1e-2)={metrics_small.sup_rel:.3f}")


def test_criterion_10_end_to_end_flat():
    # The stated configuration (k=1, N=3, q=7, V=-1) with p = p* - eps:
    # the reduction and the backward shooter must find the same decaying
    # tower, and its peak must flatten as eps decreases.
    t0 = time.time()
    peaks = []
    failure = None
    try:
        for eps in (5e-2, 2.5e-2):
            _, state, solution, found, metrics = _pipeline(7.0, eps, 1, h=0.01)
            assert float(np.max(np.abs(state.c))) < 1e-8
            assert found.classification is Classification.DECAYING
            assert metrics.sup_rel < 0.2
            peaks.append(solution.peak_height())
        ok = peaks[1] < peaks[0]
        detail = f"peaks {peaks}"
    except (BubbleTowerError, AssertionError) as exc:
        ok = False
        failure = f"{type(exc).__name__}: {exc}"
        detail = f"pipeline blocked ({failure})"
    _report(10, "end-to-end existence, flat regime (V = -1)", ok, 180.0,
            time.time() - t0, detail)
