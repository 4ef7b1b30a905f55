import numpy as np
import pytest

from bubbletower import (Classification, bubble_w, compare, find_tower,
                         predicted_tower, shoot)
from bubbletower.errors import ConvergenceError
from conftest import make_params

GAMMA_3 = 3.0 ** 0.25


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_shooting_reproduces_bubble_family(lam):
    params = make_params(eps=0.0, v=0.0)
    u0 = GAMMA_3 * lam ** -0.5
    prof = shoot(u0, params, r_max=10.0)
    r = np.linspace(1e-3, 10.0, 400)
    exact = np.array([bubble_w(lam, 0.0, ri, 3) for ri in r])
    got = np.atleast_2d(prof.interpolant(r))[0]
    assert np.max(np.abs(got - exact)) < 1e-6
    assert prof.classification is Classification.DECAYING


def test_fixed_step_integrator_order():
    # RK4 core: halving the step cuts the bubble error by ~2^4
    params = make_params(eps=0.0, v=0.0)
    u0 = GAMMA_3
    errs = []
    for step in (2e-3, 1e-3):
        prof = shoot(u0, params, r_max=10.0, fixed_step=step)
        exact = np.array([bubble_w(1.0, 0.0, ri, 3) for ri in prof.r])
        errs.append(np.max(np.abs(prof.u - exact)))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)


def test_shoot_rejects_nonpositive_height():
    with pytest.raises(ValueError):
        shoot(-1.0, make_params(eps=1e-2))


def test_low_height_exploration_recorded():
    # spec records (without asserting) the small-height behaviour; here we
    # only require a definite classification comes back
    params = make_params(eps=5e-2, k=1)
    prof = shoot(1e-2, params)
    assert prof.classification in (Classification.CROSSING,
                                   Classification.BLOWING,
                                   Classification.DECAYING)


def test_find_tower_single_spike(c4):
    params = make_params(eps=5e-2, k=1)
    tower = predicted_tower(params, c4)
    found = find_tower(params, tower)
    assert found.classification is Classification.DECAYING
    assert found.peak_count_ef == 1
    # EF peak location near the predicted spike
    x = np.linspace(tower.xi[0] - 4, tower.xi[0] + 4, 2001)
    v = found.ef_image(x)
    x_peak = x[int(np.argmax(v))]
    assert abs(x_peak - tower.xi[0]) < 0.15 * tower.xi[0]


@pytest.mark.parametrize("q,shooter", [(4.0, "shoot"), (7.0, "_shoot_flat_backward")])
def test_bisection_shoots_no_height_twice(q, shooter, c4, c7, monkeypatch):
    # the bisection stops once the bracket ends are adjacent floats; only
    # the final shot, which keeps the trajectory, repeats a height
    import bubbletower.verifier as verifier_module
    heights = []
    original = getattr(verifier_module, shooter)

    def recorded(height, *args, **kwargs):
        heights.append(float(height))
        return original(height, *args, **kwargs)

    monkeypatch.setattr(verifier_module, shooter, recorded)
    params = make_params(q=q, eps=5e-2, k=1)
    found = find_tower(params, predicted_tower(params, c4 if q == 4.0 else c7))
    assert found.classification is Classification.DECAYING
    assert len(set(heights[:-1])) == len(heights) - 1
    assert heights[-1] in heights[:-1]


def test_find_tower_requires_behaviour_change(c4):
    params = make_params(eps=5e-2, k=1)
    tower = predicted_tower(params, c4)
    with pytest.raises(ConvergenceError):
        find_tower(params, tower, bracket=(0.05, 0.10))   # all-crossing bracket


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
    u = lambda x: 1.0 / np.cosh(np.asarray(x) - 1.0)
    w = lambda x: 0.8 / np.cosh(np.asarray(x) + 1.0)
    m = compare(u, w, (-4.0, 4.0))
    assert len(m.peaks_a) == 1 and len(m.peaks_b) == 1
    assert m.peaks_a[0][0] == pytest.approx(1.0, abs=0.02)
    assert m.peaks_b[0][1] == pytest.approx(0.8, abs=0.01)


def test_compare_rejects_empty_window():
    u = lambda r: np.asarray(r)
    with pytest.raises(ValueError):
        compare(u, u, (2.0, 2.0))


def test_two_tower_peak_heights_match_prediction(c4):
    # assembled two-spike solution vs the closed-form prediction: per-peak
    # height ratios in the transformed variable within 25%
    from bubbletower import (ReductionConfig, assemble_solution, profile_U,
                             solve_reduced)
    params = make_params(eps=3e-2, k=2)
    lam_eps, state = solve_reduced(params, c4, ReductionConfig(h=0.02))
    sol = assemble_solution(state, params)
    tower = predicted_tower(params, c4)
    pred_ef = lambda x: sum(profile_U(np.asarray(x) - s, 3) for s in tower.xi)
    m = compare(sol.ef, pred_ef, (tower.xi[0] - 3.0, tower.xi[-1] + 3.0),
                n=4001)
    assert len(m.peaks_a) == 2 and len(m.peaks_b) == 2
    for (xa, ha), (xb, hb) in zip(m.peaks_a, m.peaks_b):
        assert abs(ha / hb - 1.0) < 0.25
