import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubbletower import (ModelParams, PotentialSpec, Regime, critical_exponents,
                         ef_inverse, ef_r_of_x, ef_x_of_r, model_constants,
                         profile_U, profile_d2U, profile_dU)
from bubbletower.errors import HypothesisViolationError
from conftest import potential_id, scalar_omega

GAMMA_3 = 3.0 ** 0.25


@pytest.mark.parametrize("n,expected", [(3, (3.0, 5.0)), (4, (2.0, 3.0)),
                                        (6, (1.5, 2.0))])
def test_critical_exponents(n, expected):
    assert critical_exponents(n) == pytest.approx(expected, abs=0)


def test_critical_exponents_rejects_low_dimension():
    with pytest.raises(ValueError):
        critical_exponents(2)


@pytest.mark.parametrize("n,gamma,beta", [
    (4, math.sqrt(8.0), 1.0),
    (3, 3.0 ** 0.25, 4.0),
    (6, 24.0, 0.25),
])
def test_model_constants(n, gamma, beta):
    g, b = model_constants(n)
    assert g == pytest.approx(gamma, rel=1e-15)
    assert b == pytest.approx(beta, rel=1e-15)


def test_profile_value_at_origin():
    # gamma_3 / sqrt(2), evaluated in extended precision
    assert profile_U(0.0, 3) == pytest.approx(0.9306048591020996, rel=1e-13)


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_profile_even_positive_bounded(x):
    n = 3
    u, u_neg = profile_U(x, n), profile_U(-x, n)
    assert u == pytest.approx(u_neg, rel=1e-13)
    assert 0.0 < u <= GAMMA_3 * math.exp(-abs(x)) * (1.0 + 1e-12)


def test_profile_decay_ratio_tends_to_one():
    xs = np.array([5.0, 10.0, 20.0, 40.0])
    ratio = profile_U(xs, 3) / (GAMMA_3 * np.exp(-xs))
    assert np.all(np.abs(ratio - 1.0) < np.abs(ratio[0] - 1.0) + 1e-12)
    assert abs(ratio[-1] - 1.0) < 1e-10


def test_profile_no_overflow_far_out():
    for x in (300.0, 500.0, -500.0):
        val = profile_U(x, 3)
        assert np.isfinite(val) and val >= 0.0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_profile_equation_residual_closed_form(n):
    # analytic derivatives only: U'' - U + beta U^{p*} must vanish
    _, p_star = critical_exponents(n)
    _, beta = model_constants(n)
    x = np.array([-3.0, 0.0, 3.0])
    res = profile_d2U(x, n) - profile_U(x, n) + beta * profile_U(x, n) ** p_star
    assert np.max(np.abs(res)) < 1e-10


@given(st.floats(min_value=-40.0, max_value=40.0))
def test_profile_derivative_odd(x):
    assert profile_dU(-x, 3) == pytest.approx(-profile_dU(x, 3), rel=1e-12,
                                              abs=1e-300)


def test_profile_derivative_at_origin():
    assert profile_dU(0.0, 3) == 0.0


@pytest.mark.parametrize("x", [-2.0, 1.0, 4.0])
def test_profile_derivative_matches_finite_differences(x):
    h = 1e-5
    fd = (profile_U(x + h, 3) - profile_U(x - h, 3)) / (2.0 * h)
    assert profile_dU(x, 3) == pytest.approx(fd, abs=5e-10)
    # second-order convergence, at a step where truncation beats roundoff
    h = 1e-3
    err1 = abs((profile_U(x + h, 3) - profile_U(x - h, 3)) / (2 * h)
               - profile_dU(x, 3))
    err2 = abs((profile_U(x + h / 2, 3) - profile_U(x - h / 2, 3)) / h
               - profile_dU(x, 3))
    assert err2 == pytest.approx(err1 / 4.0, rel=0.3)


def test_ef_forward_scaling_is_translation():
    # the bubble of scale lam is the profile translated to x = -log(lam)/2
    lam = 2.0
    u = ef_inverse(lambda x: profile_U(np.asarray(x) + 0.5 * math.log(lam), 3), 3,
                   Regime.SUB_Q)
    r = np.geomspace(1e-3, 1e3, 601)
    expected = GAMMA_3 * (lam / (lam ** 2 + r ** 2)) ** 0.5
    assert np.max(np.abs(u(r) - expected) / expected) < 1e-12


@pytest.mark.parametrize("regime", [Regime.SUB_Q, Regime.SUPER_Q])
def test_ef_round_trip(regime):
    # v(x) = r^{1/2} u(r) at r = r(x), read back at r by ef_inverse
    u = lambda r: GAMMA_3 * (1.0 / (1.0 + np.asarray(r) ** 2)) ** 0.5
    v = lambda x: ef_r_of_x(x, 3, regime) ** 0.5 * u(ef_r_of_x(x, 3, regime))
    back = ef_inverse(v, 3, regime)
    r = np.linspace(0.1, 10.0, 500)
    rel = np.abs(back(r) - u(r)) / u(r)
    assert np.max(rel) < 1e-12


def test_ef_inverse_of_profile_is_bubble():
    u = ef_inverse(lambda x: profile_U(x, 3), 3, Regime.SUB_Q)
    r = np.linspace(0.05, 20.0, 300)
    expected = GAMMA_3 * (1.0 / (1.0 + r ** 2)) ** 0.5
    assert np.max(np.abs(u(r) - expected)) < 1e-12


def test_params_regime_windows():
    with pytest.raises(ValueError):
        ModelParams.make(3, 2.5, 1e-2)   # below p^s in sub-q
    with pytest.raises(ValueError):
        ModelParams.make(3, 5.0, 1e-2)   # q = p* belongs to neither regime
    with pytest.raises(ValueError):
        ModelParams.make(3, 4.0, 1.5)
    p = ModelParams.make(3, 4.0, 0.0)    # unperturbed problem is admitted
    assert p.epsilon == 0.0


def test_params_regime_inference_and_gap():
    sub = ModelParams.make(3, 4.0, 1e-2)
    sup = ModelParams.make(3, 7.0, 1e-2)
    assert sub.regime is Regime.SUB_Q and sup.regime is Regime.SUPER_Q
    assert sub.exponent_gap == pytest.approx(1.0)
    assert sup.exponent_gap == pytest.approx(2.0)


def test_hypothesis_check_requires_negative_potential():
    good = ModelParams.make(3, 4.0, 1e-2, potential=PotentialSpec.constant(-1.0))
    good.check_hypotheses()
    bad = ModelParams.make(3, 4.0, 1e-2, potential=PotentialSpec.constant(0.5))
    with pytest.raises(HypothesisViolationError):
        bad.check_hypotheses()
    # super-q regime looks at the value at infinity
    mixed = ModelParams.make(3, 7.0, 1e-2,
                             potential=PotentialSpec.rational(-2.0, 1.0))
    mixed.check_hypotheses()    # V_inf = -1 < 0
    bad_inf = ModelParams.make(3, 7.0, 1e-2,
                               potential=PotentialSpec.rational(-1.0, 3.0))
    with pytest.raises(HypothesisViolationError):
        bad_inf.check_hypotheses()


def test_omega_reads_potential_through_the_change_of_variables():
    pot = PotentialSpec.rational(-2.0, 1.0)   # V(0)=-2, V(inf)=-1
    sub = ModelParams.make(3, 4.0, 1e-2, potential=pot)
    assert sub.omega(40.0)[0] == pytest.approx(-2.0, abs=1e-10)    # x large -> r -> 0
    assert sub.omega(-40.0)[0] == pytest.approx(-1.0, abs=1e-10)
    sup = ModelParams.make(3, 7.0, 1e-2, potential=pot)
    assert sup.omega(40.0)[0] == pytest.approx(-1.0, abs=1e-10)    # x large -> r -> inf


@pytest.mark.parametrize("q", [4.0, 7.0])
def test_change_of_variables_maps_radial_to_line_equation(q):
    # transform a numerically integrated radial trajectory and check it
    # satisfies the transformed equation; exercises weights in both regimes
    from bubbletower import shoot
    params = ModelParams.make(3, q, 5e-2, k=1,
                              potential=PotentialSpec.constant(-1.0))
    prof = shoot(0.8, params)
    m, s = 0.5, params.ef_sign
    # p = p* + eps in the sub-q regime, p* - eps in the super-q regime
    p = params.p_star + (params.epsilon if q < params.p_star else -params.epsilon)
    beta = params.beta

    def v(x):
        r = np.exp(-s * np.asarray(x) / m)
        return r ** m * np.atleast_2d(prof.interpolant(r))[0]

    # x-window mapped from radii well inside the integrated range
    r_lo, r_hi = max(1e-3, 2.0 * prof.r[0]), 0.8 * prof.r[-1]
    x_a, x_b = sorted([-s * m * math.log(r_lo), -s * m * math.log(r_hi)])
    x = np.linspace(x_a, x_b, 200)
    h = 1e-4
    d2v = (v(x + h) - 2.0 * v(x) + v(x - h)) / h ** 2
    vx = v(x)
    residual = d2v - vx + beta * (np.exp(s * (p - params.p_star) * x)
                                  * np.abs(vx) ** (p - 1) * vx
                                  - params.omega(x)[0]
                                  * np.exp(-s * (params.p_star - q) * x)
                                  * np.abs(vx) ** (q - 1) * vx)
    scale = np.abs(d2v) + np.abs(vx) + 1e-12
    assert np.max(np.abs(residual) / scale) < 1e-5


def test_rational_potential_extreme_radii():
    # omega and omega' at the images in x of r = 0, 1e-300, 1, 1e200, e^600
    # and inf, in both regimes: finite, with no warning, exactly V(0) and
    # V(inf) at the two ends, and flat there
    pot = PotentialSpec.rational(-2.0, 1.0)
    r = np.array([0.0, 1e-300, 1.0, 1e200, np.exp(600), np.inf])
    for q in (4.0, 7.0):
        params = ModelParams.make(3, q, 1e-2, potential=pot)
        with np.errstate(divide="ignore"):      # log 0 = -inf
            x = ef_x_of_r(r, 3, params.regime)
        omega, d_omega = params.omega(x)
        assert np.all(np.isfinite(omega)) and np.all(np.isfinite(d_omega))
        assert omega[0] == -2.0 and omega[-1] == -1.0
        assert np.all(np.abs(d_omega[[0, -1]]) < 1e-300)


@pytest.mark.parametrize("make,values", [
    (PotentialSpec.constant, (math.nan,)), (PotentialSpec.rational, (math.nan, -1.0)),
    (PotentialSpec.constant, (-math.inf,)), (PotentialSpec.rational, (-1.0, math.inf)),
    (PotentialSpec.rational, (-1e308, -1e308)),
], ids=["const:nan", "rational:nan,-1", "const:-inf", "rational:-1,inf",
        "rational:-1e308,-1e308"])
def test_non_finite_potential_values_are_refused(make, values):
    # refused where the potential is made, not later by the model or solver;
    # a finite a and b whose sum V(inf) overflows are refused too
    with pytest.raises(ValueError, match="must be finite"):
        make(*values)


# a dimension and the two exponents q, one per regime, for each of N = 3, 5, 10
_DIMENSIONS = [(3, (4.0, 7.0)), (5, (1.8, 2.5)), (10, (1.3, 1.9))]
_POTENTIALS = [PotentialSpec.constant(-1.0), PotentialSpec.rational(-2.0, 1.0),
               PotentialSpec.rational(1.0, -2.0)]


def _omega_gap_bound(pot, omega) -> float:
    # the scalar and the array form do the same correctly rounded operations
    # on e^{cx}, where math.exp and numpy's exp may differ in the last bit:
    # one ulp of b sigma.  Where V keeps one sign (|b sigma| <= |omega|) that
    # is one ulp of omega; where it changes sign, a + b sigma cancels, and
    # the gap is at most two ulps of |b|, many more of omega near its zero
    if pot.a * pot.v_inf > 0.0:
        return float(np.spacing(abs(omega)))
    return 2.0 * float(np.spacing(abs(pot.b)))


@pytest.mark.parametrize("pot", _POTENTIALS, ids=potential_id)
@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 1.0 + 1e-12, 2.0, 1e3, 1e200])
def test_scalar_potential_matches_array_form(pot, r):
    # the shooter forms omega on floats (scalar_omega), the reduction and the
    # interpolant read ModelParams.omega on arrays; compared at x(r) in both
    # regimes at N = 3, 5, 10
    for n_dim, qs in _DIMENSIONS:
        for q in qs:
            params = ModelParams.make(n_dim, q, 1e-2, potential=pot)
            with np.errstate(divide="ignore"):      # log 0 = -inf
                x = float(ef_x_of_r(r, n_dim, params.regime))
            got = scalar_omega(params, x)
            want = float(params.omega(np.array([x]))[0][0])
            assert type(got) is float
            assert abs(got - want) <= _omega_gap_bound(pot, want)


def test_scalar_and_array_omega_agree_within_one_ulp():
    # 20,000 x across both ends of the potential, both regimes, N = 3, 5, 10,
    # for two potentials of one sign: within one ulp, not bit for bit, since
    # math.exp (the shooter's) and numpy's exp (the grid's) round e^{cx}
    # differently at a few of the x
    x = np.linspace(-60.0, 60.0, 20_000)
    for pot in (PotentialSpec.rational(-2.0, 1.0), PotentialSpec.rational(-0.5, -0.5)):
        for n_dim, qs in _DIMENSIONS:
            for q in qs:
                params = ModelParams.make(n_dim, q, 1e-2, potential=pot)
                want = params.omega(x)[0]
                got = np.array([scalar_omega(params, t) for t in x.tolist()])
                assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


@pytest.mark.parametrize("pot", _POTENTIALS, ids=potential_id)
@pytest.mark.parametrize("r", [0.5, 0.999, 1.001, 2.0, 1e6, 1e200])
def test_potential_slope_matches_central_difference(pot, r):
    # the shooter's interpolant reads omega' (ModelParams.omega), checked at
    # x(r) in both regimes at N = 3, 5, 10; the tolerance is the difference
    # quotient's truncation plus its rounding error, which scales with the
    # bound |a| + |b| of omega
    bound, h = abs(pot.a) + abs(pot.b), 1e-3
    for n_dim, qs in _DIMENSIONS:
        for q in qs:
            params = ModelParams.make(n_dim, q, 1e-2, potential=pot)
            x = float(ef_x_of_r(r, n_dim, params.regime))
            omega, d_omega = params.omega(np.array([x - h, x, x + h]))
            fd, got = (omega[2] - omega[0]) / (2.0 * h), d_omega[1]
            assert abs(got - fd) <= 1e-5 * abs(got) + 4.0 * np.finfo(float).eps * bound / h
