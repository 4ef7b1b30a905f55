import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bubbletower import (Classification, ModelParams, PotentialSpec, ShotProfile,
                         compare, find_tower, predicted_tower, shoot)
from bubbletower.errors import ConvergenceError
from conftest import make_params, scalar_omega

GAMMA_3 = 3.0 ** 0.25


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_shooting_reproduces_bubble_family(lam):
    params = make_params(eps=0.0, v=0.0)
    u0 = GAMMA_3 * lam ** -0.5
    prof = shoot(u0, params)
    r = np.linspace(1e-3, 10.0, 400)
    exact = GAMMA_3 * (lam / (lam ** 2 + r ** 2)) ** 0.5
    got = np.atleast_2d(prof.interpolant(r))[0]
    assert np.max(np.abs(got - exact)) < 1e-6
    assert prof.classification is Classification.DECAYING


@pytest.mark.parametrize("q", [4.0, 7.0])
def test_find_tower_builds_one_interpolant(q, c4, c7, monkeypatch):
    # search shots read only their search value g: the kept shot's
    # interpolant, built on first read and cached, is the only one
    import bubbletower.verifier as verifier_module
    built = []
    original = verifier_module._septic_hermite

    def counted(shot):
        built.append(shot.u0)
        return original(shot)

    monkeypatch.setattr(verifier_module, "_septic_hermite", counted)
    params = make_params(q=q, eps=5e-2, k=1)
    tower = predicted_tower(params, c4 if q == 4.0 else c7)
    found = find_tower(params, tower)
    found.ef_image(np.asarray(tower.xi))
    found.ef_image(np.asarray(tower.xi))
    assert len(built) == 1


def _nan_rhs_where(monkeypatch, broken):
    """Make verifier._ef_rhs return NaN at every x where broken(x) holds."""
    import bubbletower.verifier as verifier_module
    original = verifier_module._ef_rhs

    def patched(params):
        rhs = original(params)
        return lambda x, v, dv: math.nan if broken(x) else rhs(x, v, dv)

    monkeypatch.setattr(verifier_module, "_ef_rhs", patched)


def test_failed_integration_raises_convergence_error(monkeypatch):
    # the right-hand side turns NaN past r = 2 (x < -log(2)/2 at N = 3): the
    # integrator cannot take a step there, and the shot must say so with a
    # typed error, not a warning
    _nan_rhs_where(monkeypatch, lambda x: x < -0.5 * math.log(2.0))
    params = make_params(eps=5e-2)
    with pytest.raises(ConvergenceError, match="failed at r = 2") as info:
        shoot(35.0, params)
    r_last, u_last, du_last = info.value.state
    assert 1.0 < r_last <= 2.0 and math.isfinite(u_last)


def test_failed_flat_shot_counts_as_overshoot(c7, monkeypatch):
    # the right-hand side turns NaN below x = xi_1 - 2, where v is still well
    # above zero: the backward shot fails there, and a flat shot that stops
    # above zero before x_lo is an overshoot, not an undershoot
    from bubbletower.verifier import _shoot_flat_backward
    params = make_params(q=7.0, eps=5e-2, k=1)
    xi1 = float(predicted_tower(params, c7).xi[0])
    _nan_rhs_where(monkeypatch, lambda x: x < xi1 - 2.0)
    shot = _shoot_flat_backward(params.gamma * math.exp(xi1), params,
                                xi1 + 10.0, xi1 - 25.0)
    assert shot.r[0] >= math.exp(2.0 * (xi1 - 2.0)) and shot.u[0] > 0.0   # N = 3: r = e^{2x}
    assert shot.classification is Classification.BLOWING


def test_flat_stop_matches_the_sample_loop():
    # the shooters' first-event rule with the flat shot's ceiling, fed one
    # value at a time, against a plain loop over each prefix with equal
    # neighbours merged: the first index where v < 0, v > ceiling or a
    # minimum follows the k-th peak
    from bubbletower.verifier import _first_event

    def loop(vs, k, ceiling):
        for j in range(len(vs)):
            if vs[j] < 0 or vs[j] > ceiling:
                return j, "bound"
            w = [a for i, a in enumerate(vs[:j + 1]) if i == 0 or a != vs[i - 1]]
            if j == 0 or vs[j] == vs[j - 1] or len(w) < 3:
                continue
            peaks = sum(w[i - 1] < w[i] > w[i + 1] for i in range(1, len(w) - 2))
            if w[-3] > w[-2] < w[-1] and peaks >= k:
                return j, "minimum"
        return None, None

    def rule(vs, k, ceiling):
        event = _first_event(k)
        return next((j for j, v in enumerate(vs) if event(float(v)) or v > ceiling), None)

    # integer walks hit ties; each is read in both travel directions
    rng = np.random.default_rng(3)
    kinds = []
    for _ in range(1500):
        walk = 4 + np.cumsum(rng.integers(-3, 4, size=rng.integers(1, 40)))
        k = int(rng.integers(1, 4))
        for vs in (walk.tolist(), walk[::-1].tolist()):
            j, kind = loop(vs, k, 12)
            assert rule(vs, k, 12) == j
            kinds.append(kind)
    assert all(kinds.count(kind) > 100 for kind in ("bound", "minimum", None))


def test_growing_mode_stays_finite_far_out():
    # a flat N = 3 shot whose last step x[0] lies at 200, where r = e^{2x} is
    # finite but r^{N-1} is not: v = c e^{-x} + b e^{x} gives
    # g = e^x (v' - v) = -2c
    from bubbletower.verifier import _growing_mode
    c, b = 3.0, 1e-174
    x = np.array([200.0, 200.5, 201.0])
    v, dv = c * np.exp(-x) + b * np.exp(x), -c * np.exp(-x) + b * np.exp(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        shot = ShotProfile(c, x, v, dv, Classification.CROSSING, 0,
                           make_params(q=7.0, eps=1e-2, k=1))
        g = _growing_mode(shot)
    assert math.isfinite(g)
    assert g == math.exp(x[0]) * (dv[0] - v[0])
    assert g == pytest.approx(-2.0 * c, rel=1e-12)


def test_find_tower_emits_no_warning(c4):
    params = make_params(eps=5e-2, k=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = find_tower(params, predicted_tower(params, c4))
    assert found.classification is Classification.DECAYING


@pytest.fixture(scope="module")
def kept_const_shot(c4):
    params = make_params(eps=5e-2, k=1)
    tower = predicted_tower(params, c4)
    return params, tower, find_tower(params, tower)


@pytest.fixture(scope="module")
def kept_flat_shot(c7):
    params = make_params(q=7.0, eps=5e-2, k=1)
    tower = predicted_tower(params, c7)
    return params, tower, find_tower(params, tower)


def test_kept_shot_interpolant_reproduces_the_steps(kept_const_shot, kept_flat_shot):
    for _, _, found in (kept_const_shot, kept_flat_shot):
        np.testing.assert_allclose(found.interpolant(found.r), found.u,
                                   rtol=1e-14, atol=0.0)


def test_kept_shot_interpolant_matches_from_derivatives(kept_const_shot, kept_flat_shot):
    # the closed-form Bernstein coefficients against scipy's construction
    # from the same derivative data in x, on both regimes' kept shots (V = -1)
    from scipy.interpolate import BPoly
    for params, _, found in (kept_const_shot, kept_flat_shot):
        beta, p, q, eps, gap = (params.beta, params.p, params.q, params.epsilon,
                                params.exponent_gap)
        order = np.argsort(found.x)
        x, v, dv = found.x[order], found.v[order], found.dv[order]
        vv, w_p, w_q = np.maximum(v, 0.0), np.exp(eps * x), np.exp(-gap * x)
        d2v = v - beta * (w_p * vv ** p + w_q * vv ** q)
        d3v = dv - beta * (w_p * (eps * vv ** p + p * vv ** (p - 1.0) * dv)
                           + w_q * (-gap * vv ** q + q * vv ** (q - 1.0) * dv))
        ref = BPoly.from_derivatives(x, np.column_stack([v, dv, d2v, d3v]))
        xs = np.linspace(x[0], x[-1], 20_001)
        np.testing.assert_allclose(found.ef_image(xs), ref(xs), rtol=1e-13, atol=0.0)


def test_kept_shot_interpolant_matches_dense_reference(kept_const_shot):
    # the same trajectory from solve_ivp's DOP853 and its own dense output,
    # read near the spike where both integrators agree to their tolerance
    params, tower, found = kept_const_shot
    u0, p, q, n_dim = found.u0, params.p, params.q, params.n_dim

    def rhs(r, y):
        u, du = y
        f = -np.sign(u) * abs(u) ** p - np.sign(u) * abs(u) ** q   # V = -1
        return [du, -(n_dim - 1.0) / r * du + f]

    r0 = min(1e-6, 1e-3 * u0 ** (-0.5 * (p - 1.0)))
    curv = (u0 ** p + u0 ** q) / (2.0 * n_dim)
    ref = solve_ivp(rhs, (r0, found.r[-1]), [u0 - curv * r0 * r0, -2.0 * curv * r0],
                    method="DOP853", rtol=1e-10, atol=1e-14 * u0,
                    dense_output=True)
    x = np.linspace(tower.xi[0] - 2.0, tower.xi[0] + 2.0, 401)
    r = np.exp(-2.0 * x)                         # N = 3, sub-q: r = e^{-x/m}
    v_ref = np.sqrt(r) * ref.sol(r)[0]
    v_got = found.ef_image(x)
    assert np.max(np.abs(v_got - v_ref)) < 1e-8 * np.max(np.abs(v_ref))


def test_tall_tower_ef_image_matches_a_tight_reference():
    # N = 3, q = 4, k = 5, eps = 1e-3, seeded from the solved tower: the
    # spikes' heights in u span 15 decades, in v they are all O(1).  The
    # kept shot's v against scipy's DOP853 on the transformed equation at
    # rtol 1e-13 from the same height, across the whole tower
    from bubbletower import ReductionConfig, TowerConfig, energy_constants, solve_reduced, \
        tower_amplitudes
    params = make_params(q=4.0, eps=1e-3, k=5)
    constants = energy_constants(3, 4.0)
    lam, state = solve_reduced(params, constants, ReductionConfig(h=0.03))
    found = find_tower(params, TowerConfig(lam, state.xi,
                                           tower_amplitudes(lam, constants, params)))
    u0, p, q, beta, eps = float(found.u0), params.p, params.q, params.beta, params.epsilon
    gap = params.exponent_gap
    r0 = min(1e-6, 1e-3 * u0 ** (-0.5 * (p - 1.0)))
    curv = (u0 ** p + u0 ** q) / 6.0                     # V = -1, N = 3
    u_start, du_start = u0 - curv * r0 * r0, -2.0 * curv * r0

    def rhs(x, y):                                       # sub-q, m = 1/2, r = e^{-2x}
        v, dv = y
        vv = max(v, 0.0)
        return [dv, v - beta * (math.exp(eps * x) * vv ** p + math.exp(-gap * x) * vv ** q)]

    xi = np.asarray(state.xi)
    lo, hi = xi[0] - 2.0, xi[-1] + 2.0
    ref = solve_ivp(rhs, (-0.5 * math.log(r0), lo - 0.5),
                    [math.sqrt(r0) * u_start, -math.sqrt(r0) * (u_start + 2.0 * r0 * du_start)],
                    method="DOP853", rtol=1e-13, atol=1e-20, dense_output=True)
    x = np.linspace(lo, hi, 4001)
    v_ref = ref.sol(x)[0]
    assert found.peak_count_ef == 5
    assert np.max(np.abs(found.ef_image(x) - v_ref)) < 1e-7 * np.max(np.abs(v_ref))


def test_shoot_rejects_nonpositive_height():
    # NaN would spend the step budget at r0, and inf divide by zero there
    for u0 in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            shoot(u0, make_params(eps=1e-2))


def test_low_height_exploration_recorded():
    # spec records (without asserting) the small-height behaviour; here we
    # only require a definite classification comes back
    params = make_params(eps=5e-2, k=1)
    prof = shoot(1e-2, params)
    assert prof.classification in (Classification.CROSSING,
                                   Classification.BLOWING,
                                   Classification.DECAYING)


def test_find_tower_single_spike(kept_const_shot):
    _, tower, found = kept_const_shot
    assert found.classification is Classification.DECAYING
    assert found.peak_count_ef == 1
    # EF peak location near the predicted spike
    x = np.linspace(tower.xi[0] - 4, tower.xi[0] + 4, 2001)
    v = found.ef_image(x)
    x_peak = x[int(np.argmax(v))]
    assert abs(x_peak - tower.xi[0]) < 0.15 * tower.xi[0]


@pytest.mark.parametrize("eps,k,direction", [(5e-2, 1, -1), (1e-2, 3, 1)],
                         ids=["down", "up"])
def test_scan_walks_away_from_the_middle(eps, k, direction, c4, monkeypatch):
    # the scan shoots the middle height first and walks away from it, down
    # after g <= 0 and up after g > 0, to its first change of sign; the pair
    # is the full scan's only change, so the search and the kept height are
    # those of a search run from that pair
    import bubbletower.verifier as verifier_module
    from bubbletower.verifier import SCAN_POINTS, _crossing_gap, _default_r_max, _search
    params = make_params(eps=eps, k=k)
    tower = predicted_tower(params, c4)
    u0_pred = params.gamma * float(np.sum(np.exp(tower.xi)))
    heights = np.linspace(0.5 * u0_pred, 1.5 * u0_pred, SCAN_POINTS).tolist()
    r_max = _default_r_max(params)
    gap = lambda shot: _crossing_gap(shot, r_max)
    signs = [gap(shoot(u, params)) > 0.0 for u in heights]
    changes = [i for i in range(SCAN_POINTS - 1) if signs[i] != signs[i + 1]]
    assert len(changes) == 1
    i = changes[0]
    middle = SCAN_POINTS // 2
    assert signs[middle] == (direction > 0)

    shot_heights = []
    original = verifier_module.shoot

    def recorded(height, *args, **kwargs):
        shot_heights.append(float(height))
        return original(height, *args, **kwargs)

    monkeypatch.setattr(verifier_module, "shoot", recorded)
    found = find_tower(params, tower)
    last = i + 1 if direction > 0 else i
    walk = list(range(middle, last + direction, direction))
    assert shot_heights[:len(walk)] == [heights[j] for j in walk]
    assert not set(heights) & set(shot_heights[len(walk):])
    _, kept = _search(lambda u: original(u, params), gap, heights[i:i + 2])
    assert found.u0 == kept.u0


@pytest.mark.parametrize("q,potential,eps,h", [
    (4.0, PotentialSpec.constant(-1.0), 5e-2, 0.01),
    (4.0, PotentialSpec.rational(-2.0, 1.0), 2e-2, 0.02),
    (7.0, PotentialSpec.constant(-1.0), 5e-2, 0.01),
], ids=["const", "rational", "flat"])
def test_search_value_is_positive_exactly_on_crossing_shots(q, potential, eps, h, c4, c7):
    # the search reads only g; on the scan grids that find_tower shoots for
    # the benchmark verify towers and the flat tower, seeded from the solved
    # tower, g > 0 on the crossing shots and nowhere else
    from bubbletower import ReductionConfig, solve_reduced
    from bubbletower.verifier import (SCAN_POINTS, _crossing_gap, _default_r_max,
                                      _growing_mode, _shoot_flat_backward)
    params = ModelParams.make(3, q, eps, k=1, potential=potential)
    _, state = solve_reduced(params, c4 if q == 4.0 else c7, ReductionConfig(h=h))
    xi1, xik = float(state.xi[0]), float(state.xi[-1])
    if q == 4.0:
        u0 = params.gamma * float(np.sum(np.exp(state.xi)))
        shots = [shoot(u, params) for u in np.linspace(0.5 * u0, 1.5 * u0, SCAN_POINTS)]
        values = [_crossing_gap(shot, _default_r_max(params)) for shot in shots]
    else:
        c = params.gamma * math.exp(xik)
        shots = [_shoot_flat_backward(v, params, xik + 10.0, xi1 - 25.0)
                 for v in np.geomspace(0.5 * c, 1.5 * c, SCAN_POINTS)]
        values = [_growing_mode(shot) for shot in shots]
    crossing = [shot.classification is Classification.CROSSING for shot in shots]
    assert [value > 0.0 for value in values] == crossing
    assert 0 < sum(crossing) < SCAN_POINTS


# seeded at the prediction, the scan from the middle and Brent's steps take
# 8 shots on both benchmark verify cases (outward shots stop at their first
# event) and 13 on the flat tower (Brent's steps on the growing-mode
# coefficient)
@pytest.mark.parametrize("q,potential,eps,shooter,budget", [
    (4.0, PotentialSpec.constant(-1.0), 5e-2, "shoot", 8),
    (7.0, PotentialSpec.constant(-1.0), 5e-2, "_shoot_flat_backward", 13),
    (4.0, PotentialSpec.rational(-2.0, 1.0), 2e-2, "shoot", 8),
], ids=["4.0-shoot", "7.0-_shoot_flat_backward", "4.0-rational-shoot"])
def test_bisection_shoots_no_height_twice(q, potential, eps, shooter, budget, c4, c7,
                                          monkeypatch):
    import bubbletower.verifier as verifier_module
    heights = []
    original = getattr(verifier_module, shooter)

    def recorded(height, *args, **kwargs):
        heights.append(float(height))
        return original(height, *args, **kwargs)

    monkeypatch.setattr(verifier_module, shooter, recorded)
    params = ModelParams.make(3, q, eps, k=1, potential=potential)
    found = find_tower(params, predicted_tower(params, c4 if q == 4.0 else c7))
    assert found.classification is Classification.DECAYING
    # the kept shot is one of the search's own, not a repeat
    assert len(set(heights)) == len(heights) <= budget
    if q == 4.0:
        assert found.u0 in heights


def _bisected_separatrix(params, guess):
    # the classification bisection down to adjacent floats, on shoot alone
    u0_pred = params.gamma * float(np.sum(np.exp(guess.xi)))
    heights = np.linspace(0.5 * u0_pred, 1.5 * u0_pred, 13)

    def crossed(u):
        return shoot(u, params).classification \
            is Classification.CROSSING

    labels = [crossed(u) for u in heights]
    i = next(i for i in range(len(labels) - 1) if labels[i] != labels[i + 1])
    a, b, a_crossing = heights[i], heights[i + 1], labels[i]
    while (mid := 0.5 * (a + b)) not in (a, b):
        if crossed(mid) == a_crossing:
            a = mid
        else:
            b = mid
    return shoot(b if a_crossing else a, params)


@pytest.mark.parametrize("potential,eps,k", [
    (PotentialSpec.constant(-1.0), 5e-2, 1),
    (PotentialSpec.rational(-2.0, 1.0), 2e-2, 1),
    (PotentialSpec.constant(-1.0), 3e-2, 2),
    (PotentialSpec.constant(-1.0), 1e-2, 3),
    # the non-crossing bracket end has u' > 0 at r_max
    (PotentialSpec.rational(-1.0, 2.0), 5e-2, 1),
], ids=["potential0-0.05", "potential1-0.02", "k2-0.03", "k3-0.01", "rational-1,2-0.05"])
def test_search_stays_on_the_bisected_separatrix(potential, eps, k, c4):
    params = ModelParams.make(3, 4.0, eps, k=k, potential=potential)
    tower = predicted_tower(params, c4)
    found = find_tower(params, tower)
    ref = _bisected_separatrix(params, tower)
    assert abs(found.u0 / ref.u0 - 1.0) <= 1e-12
    assert found.classification is ref.classification is Classification.DECAYING
    assert found.peak_count_ef == ref.peak_count_ef == k


def test_outward_shots_stop_at_their_first_event(kept_const_shot):
    # above the tower the shot stops at the first minimum of v = r^{1/2} u
    # after its peak, below it at its zero; neither reaches r_max
    from bubbletower.verifier import _default_r_max
    params, _, found = kept_const_shot
    above = shoot(1.1 * found.u0, params)
    v = np.sqrt(above.r) * above.u
    top = int(np.argmax(v))
    assert above.classification is Classification.BLOWING
    assert np.all(np.diff(v[top:-1]) < 0.0) and v[-1] > v[-2] > 0.0
    assert above.u[-1] < 10.0 * above.u0 and above.peak_count_ef == 1
    below = shoot(0.9 * found.u0, params)
    assert below.classification is Classification.CROSSING
    assert below.u[-1] < 0.0 < below.u[-2] and below.peak_count_ef == 1
    assert max(above.r[-1], below.r[-1]) < _default_r_max(params)


def test_kept_shot_past_the_tower_is_decaying():
    # N = 6, q = 1.8: the kept shot, seeded from the solved tower, stops at a
    # minimum of v = r^2 u far past the tower, beyond r(xi_1 - 6) and short
    # of r_max, and is the decaying one-spike tower
    from bubbletower import (ReductionConfig, TowerConfig, ef_r_of_x, energy_constants,
                             solve_reduced, tower_amplitudes)
    from bubbletower.verifier import _default_r_max
    params = make_params(q=1.8, eps=1e-2, k=1, n_dim=6)
    constants = energy_constants(6, 1.8)
    lam, state = solve_reduced(params, constants, ReductionConfig(h=0.02))
    found = find_tower(params, TowerConfig(lam, state.xi,
                                           tower_amplitudes(lam, constants, params)))
    r_read = float(ef_r_of_x(state.xi[0] - 6.0, 6, params.regime))
    v = found.r ** 2 * found.u
    assert r_read < found.r[-1] < _default_r_max(params) and v[-1] > v[-2]
    assert found.classification is Classification.DECAYING
    assert found.peak_count_ef == 1


def test_kept_shot_must_decay_with_k_peaks(c4, monkeypatch):
    # a kept shot with another peak count than the tower's is not the tower:
    # find_tower raises with that shot as state instead of returning it
    import bubbletower.verifier as verifier_module
    original = verifier_module._peak_indices
    monkeypatch.setattr(verifier_module, "_peak_indices",
                        lambda v: np.append(original(v), v.size - 1))
    params = make_params(eps=5e-2, k=1)
    with pytest.raises(ConvergenceError, match="not decaying with 1") as info:
        find_tower(params, predicted_tower(params, c4))
    kept = info.value.state
    assert kept.classification is Classification.DECAYING and kept.peak_count_ef == 2


def test_search_budget_raises_convergence_error(c4, monkeypatch):
    import bubbletower.verifier as verifier_module
    monkeypatch.setattr(verifier_module, "SEARCH_MAXITER", 2)
    params = make_params(eps=5e-2, k=1)
    with pytest.raises(ConvergenceError, match="separatrix search") as info:
        find_tower(params, predicted_tower(params, c4))
    crossing, staying = info.value.state
    assert crossing.classification is Classification.CROSSING
    assert staying.classification is Classification.DECAYING


def _sample_heights(rng, size):
    """Heights of both signs over 27 decades, with +-0.0, subnormals,
    +-inf and NaN."""
    us = rng.choice([-1.0, 1.0], size) * np.exp(rng.uniform(-20.0, 7.0, size))
    special = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1060, -(2.0 ** -1060), 1e-310, -1e-310,
               math.inf, -math.inf, math.nan]
    us[:len(special)] = special
    return us.tolist()


def _same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


@pytest.mark.parametrize("q", [4.0, 7.0])
@pytest.mark.parametrize("potential", [PotentialSpec.constant(-1.0),
                                       PotentialSpec.rational(-2.0, 1.0)],
                         ids=["const", "rational"])
def test_ef_rhs_matches_the_clipped_formula(q, potential):
    # both regimes' right-hand side, omega in x (scalar_omega) and the gap's
    # sign taken from the regime; the clip at 0 gives the bits of the
    # formula with max(v, 0.0), written out, for every v
    from bubbletower.verifier import _ef_rhs
    params = ModelParams.make(3, q, 5e-2, potential=potential)
    beta, p, eps = params.beta, params.p, params.epsilon
    gap = params.p_star - q if q < params.p_star else q - params.p_star

    def reference(x, v, dv):
        clipped = max(v, 0.0)
        w_q = scalar_omega(params, x) * math.exp(-gap * x)
        return v - beta * (math.exp(eps * x) * clipped ** p - w_q * clipped ** q)

    rhs = _ef_rhs(params)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-5.0, 40.0, 300).tolist()
    dvs = rng.normal(0.0, 1.0, 300).tolist()
    vs = _sample_heights(rng, 300)
    assert sum(v > 0.0 for v in vs) > 100 and sum(v < 0.0 for v in vs) > 100
    for x, v, dv in zip(xs, vs, dvs):
        assert _same_bits(rhs(x, v, dv), reference(x, v, dv))


def test_find_tower_requires_behaviour_change(c4):
    # spikes moved down by log 10 scan heights of 5-15% of the prediction,
    # where every shot crosses
    params = make_params(eps=5e-2, k=1)
    tower = predicted_tower(params, c4)
    low = dataclasses.replace(tower, xi=tower.xi - math.log(10.0))
    with pytest.raises(ConvergenceError, match="no crossing/non-crossing change") as info:
        find_tower(params, low)
    # every shot of the scan, from both legs, listed by increasing height
    scan = str(info.value).split("scan: ")[1].split(", ")
    heights = [float(entry.split(":")[0]) for entry in scan]
    assert len(heights) == 13 and heights == sorted(heights)
    assert all(entry.endswith(":crossing") for entry in scan)


def test_found_height_increases_as_eps_shrinks(c4):
    params_a = make_params(eps=5e-2, k=1)
    params_b = make_params(eps=2.5e-2, k=1)
    u0_a = find_tower(params_a, predicted_tower(params_a, c4)).u0
    u0_b = find_tower(params_b, predicted_tower(params_b, c4)).u0
    assert u0_b > u0_a     # concentrating regime blows up as eps -> 0


def test_compare_identical_and_scaled():
    u = lambda r: np.exp(-np.asarray(r) ** 2)
    same = compare(u, u, (0.0, 3.0))
    assert same.sup_rel == 0.0 and same.l2_rel == 0.0
    scaled = compare(u, lambda r: 1.1 * u(r), (0.0, 3.0))
    assert scaled.sup_rel == pytest.approx(0.1, rel=1e-12)
    assert scaled.l2_rel == pytest.approx(0.1, rel=1e-12)


def test_compare_peaks_table():
    from bubbletower.verifier import _peak_indices
    t = np.linspace(-4.0, 4.0, 512)
    u, w = 1.0 / np.cosh(t - 1.0), 0.8 / np.cosh(t + 1.0)
    peaks_u, peaks_w = _peak_indices(u), _peak_indices(w)
    assert peaks_u.size == 1 and peaks_w.size == 1
    assert t[peaks_u[0]] == pytest.approx(1.0, abs=0.02)
    assert w[peaks_w[0]] == pytest.approx(0.8, abs=0.01)


def test_compare_rejects_empty_window():
    u = lambda r: np.asarray(r)
    with pytest.raises(ValueError):
        compare(u, u, (2.0, 2.0))


def test_two_tower_peak_heights_match_prediction(c4):
    # assembled two-spike solution vs the closed-form prediction: per-peak
    # height ratios in the transformed variable within 25%
    from bubbletower import (ReductionConfig, assemble_solution, profile_U,
                             solve_reduced)
    from bubbletower.verifier import _peak_indices
    params = make_params(eps=3e-2, k=2)
    lam_eps, state = solve_reduced(params, c4, ReductionConfig(h=0.02))
    sol = assemble_solution(state, params)
    tower = predicted_tower(params, c4)
    x = np.linspace(tower.xi[0] - 3.0, tower.xi[-1] + 3.0, 4001)
    solved = sol.ef(x)
    pred = sum(profile_U(x - s, 3) for s in tower.xi)
    peaks_solved, peaks_pred = _peak_indices(solved), _peak_indices(pred)
    assert peaks_solved.size == 2 and peaks_pred.size == 2
    for i, j in zip(peaks_solved, peaks_pred):
        assert abs(solved[i] / pred[j] - 1.0) < 0.25
