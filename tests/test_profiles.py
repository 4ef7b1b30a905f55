import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubbletower import (ModelParams, PotentialSpec, Regime, bubble_w,
                         critical_exponents, ef_forward, ef_inverse,
                         model_constants, profile_U, profile_d2U, profile_dU)
from bubbletower.errors import HypothesisViolationError

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


def test_bubble_center_values():
    assert bubble_w(1.0, 0.0, 0.0, 3) == pytest.approx(1.316074, abs=1e-6)
    assert bubble_w(1.0, 0.0, 1.0, 3) == pytest.approx(GAMMA_3 / math.sqrt(2.0),
                                                       rel=1e-14)
    for lam in (0.3, 1.0, 4.7):
        expected = GAMMA_3 * lam ** -0.5
        assert bubble_w(lam, 0.0, 0.0, 3) == pytest.approx(expected, rel=1e-14)


def test_bubble_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        bubble_w(0.0, 0.0, 1.0, 3)


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


def test_ef_forward_unit_bubble_gives_profile():
    v = ef_forward(lambda r: np.asarray([bubble_w(1.0, 0.0, ri, 3) for ri in np.atleast_1d(r)]),
                   3, Regime.SUB_Q)
    x = np.linspace(-20.0, 20.0, 641)
    assert np.max(np.abs(v(x) - profile_U(x, 3))) < 1e-12


def test_ef_forward_scaling_is_translation():
    lam = 2.0
    v = ef_forward(lambda r: GAMMA_3 * (lam / (lam ** 2 + np.asarray(r) ** 2)) ** 0.5,
                   3, Regime.SUB_Q)
    x = np.linspace(-15.0, 15.0, 30001)
    vals = v(x)
    # locate the shift by peak alignment (parabolic refinement), not by formula
    i = int(np.argmax(vals))
    num = vals[i - 1] - vals[i + 1]
    den = vals[i - 1] - 2.0 * vals[i] + vals[i + 1]
    shift = x[i] + 0.5 * (x[i + 1] - x[i]) * num / den
    assert np.max(np.abs(vals - profile_U(x - shift, 3))) < 1e-8
    assert abs(abs(shift) - 0.5 * math.log(lam)) < 1e-6


def test_ef_forward_zero_is_zero():
    v = ef_forward(lambda r: np.zeros_like(np.asarray(r, dtype=float)), 3,
                   Regime.SUB_Q)
    assert np.all(v(np.linspace(-5, 5, 11)) == 0.0)


@pytest.mark.parametrize("regime", [Regime.SUB_Q, Regime.SUPER_Q])
def test_ef_round_trip(regime):
    u = lambda r: GAMMA_3 * (1.0 / (1.0 + np.asarray(r) ** 2)) ** 0.5
    back = ef_inverse(ef_forward(u, 3, regime), 3, regime)
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
    assert sub.omega(40.0) == pytest.approx(-2.0, abs=1e-10)    # x large -> r -> 0
    assert sub.omega(-40.0) == pytest.approx(-1.0, abs=1e-10)
    sup = ModelParams.make(3, 7.0, 1e-2, potential=pot)
    assert sup.omega(40.0) == pytest.approx(-1.0, abs=1e-10)    # x large -> r -> inf


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
                                  - params.omega(x)
                                  * np.exp(-s * (params.p_star - q) * x)
                                  * np.abs(vx) ** (q - 1) * vx)
    scale = np.abs(d2v) + np.abs(vx) + 1e-12
    assert np.max(np.abs(residual) / scale) < 1e-5


def test_rational_potential_extreme_radii():
    pot = PotentialSpec.rational(-2.0, 1.0)
    r = np.array([0.0, 1e-300, 1.0, 1e200, np.exp(600)])
    vals = pot.evaluate(r)
    assert np.all(np.isfinite(vals))
    assert vals[0] == pytest.approx(-2.0)
    assert vals[-1] == pytest.approx(-1.0)


@pytest.mark.parametrize("make,values", [
    (PotentialSpec.constant, (math.nan,)), (PotentialSpec.rational, (math.nan, -1.0)),
    (PotentialSpec.constant, (-math.inf,)), (PotentialSpec.rational, (-1.0, math.inf)),
], ids=["const:nan", "rational:nan,-1", "const:-inf", "rational:-1,inf"])
def test_non_finite_potential_values_are_refused(make, values):
    # refused where the potential is made, not later by the model or solver
    with pytest.raises(ValueError, match="must be finite"):
        make(*values)


@pytest.mark.parametrize("pot", [PotentialSpec.constant(-1.0),
                                 PotentialSpec.rational(-2.0, 1.0),
                                 PotentialSpec.rational(1.0, -2.0)],
                         ids=lambda pot: pot.label)
@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 1.0 + 1e-12, 2.0, 1e3, 1e200])
def test_scalar_potential_matches_array_form(pot, r):
    # the shooter reads V through `at`, the reduction through `evaluate`
    got = pot.at(r)
    assert type(got) is float
    assert got == float(pot.evaluate(r))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_rational_potential_forms_agree_bitwise_above_one(seed):
    # 2,000 log-uniform radii in (1, 1e8), evaluated as one array, so that
    # numpy takes its vectorized loops, and one float at a time as the
    # shooter does; a power r ** -2 split the two on about 4 in 10^4 radii
    r = 10.0 ** np.random.default_rng(seed).uniform(0.0, 8.0, 2000)
    r = r[r > 1.0]
    for pot in (PotentialSpec.rational(-2.0, 1.0), PotentialSpec.rational(-0.5, -0.5)):
        got = pot.evaluate(r)
        assert got.tobytes() == np.array([pot.at(float(x)) for x in r]).tobytes()


@pytest.mark.parametrize("pot", [PotentialSpec.constant(-1.0),
                                 PotentialSpec.rational(-2.0, 1.0),
                                 PotentialSpec.rational(1.0, -2.0)],
                         ids=lambda pot: pot.label)
@pytest.mark.parametrize("r", [0.5, 0.999, 1.001, 2.0, 1e6, 1e200])
def test_potential_slope_matches_central_difference(pot, r):
    # the shooter's interpolant reads V' through `slope`; the tolerance is
    # the difference quotient's truncation plus its rounding error, which
    # scales with the bound |a| + |b| of V = a + b r^2/(1+r^2)
    bound = abs(pot.v0) + abs(pot.v_inf - pot.v0)
    h = 1e-3 * r
    fd = (pot.at(r + h) - pot.at(r - h)) / (2.0 * h)
    got = pot.slope(r)
    assert type(got) is float
    assert abs(got - fd) <= 1e-5 * abs(got) + 4.0 * np.finfo(float).eps * bound / h
