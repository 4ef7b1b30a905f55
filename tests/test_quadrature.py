import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubbletower import (energy_constants, integrate_line, quadrature,
                         profile_log_moment_closed_form,
                         profile_moment_closed_form, profile_U)
from bubbletower.errors import QuadratureConvergenceError, RegimeMismatchError
from bubbletower.profiles import critical_exponents, model_constants

# frozen closed forms for N=3 (Beta reduction of the profile moments)
A1_N3 = math.sqrt(3.0) * math.pi / 8.0
A2_N3 = 2.0 * math.sqrt(3.0)
A3_N3 = math.sqrt(3.0) * math.pi / 16.0
A5_N3_Q4 = 2.0 * 3.0 ** 1.25 / 15.0
A5HAT_N3_Q7 = 9.0 * math.pi / 128.0
I_CRIT_N3 = 3.0 ** 1.5 * math.pi / 32.0          # int U^6
I_INTER_N3 = 3.0 ** 1.25 / 6.0                   # int U^5 e^x


def test_two_sided_exponential():
    val, err = integrate_line(lambda x: math.exp(-abs(x)), 1.0, 1.0, 1e-12)
    assert abs(val - 2.0) < 1e-12
    assert err < 1e-12


def test_sech_squared():
    val, err = integrate_line(lambda x: 1.0 / math.cosh(x) ** 2, 2.0, 2.0, 1e-12)
    assert abs(val - 2.0) < 1e-12
    assert err < 1e-12


def test_critical_power_moment_against_beta_reduction():
    val, err = integrate_line(lambda x: profile_U(x, 3) ** 6, 6.0, 6.0, 1e-12)
    assert val == pytest.approx(I_CRIT_N3, rel=1e-10)
    assert profile_moment_closed_form(6.0, 0.0, 3) == pytest.approx(I_CRIT_N3,
                                                                    rel=1e-13)


@settings(max_examples=25, deadline=None)
@given(s=st.floats(min_value=2.5, max_value=8.0),
       c_frac=st.floats(min_value=-0.6, max_value=0.6))
def test_route_independence_of_moments(s, c_frac):
    # Gauss-Kronrod quadrature vs Beta closed form across the (s, c) family;
    # the integrand decays at rate s-c to the left and s+c to the right
    c = c_frac * s
    val, err = integrate_line(lambda x: profile_U(x, 3) ** s * math.exp(-c * x),
                              s - c, s + c, 1e-11)
    exact = profile_moment_closed_form(s, c, 3)
    assert abs(val - exact) <= max(1e-10 * abs(exact), err + 1e-13)


@pytest.mark.parametrize("decay_left,decay_right", [
    (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan),
    (0.0, 1.0), (1.0, -1.0),
])
def test_integrate_line_rejects_bad_decay_rates(decay_left, decay_right):
    # an infinite rate puts a NaN (0 * inf) into the a5_hat integrand at
    # q = inf; the rates are rejected before any panel is evaluated
    with pytest.raises(ValueError, match="positive and finite"):
        integrate_line(lambda x: math.exp(-abs(x)), decay_left, decay_right)


def test_moment_closed_form_rejects_divergent():
    with pytest.raises(ValueError):
        profile_moment_closed_form(3.0, 3.5, 3)


def test_log_moment_closed_form():
    # s-derivative route vs direct quadrature of U^6 log U
    val, err = integrate_line(
        lambda x: profile_U(x, 3) ** 6 * math.log(profile_U(x, 3)), 5.5, 5.5, 1e-12)
    assert val == pytest.approx(profile_log_moment_closed_form(3), abs=1e-10)


def test_energy_constants_match_closed_forms(c4, c7):
    assert c4.a1 == pytest.approx(A1_N3, rel=1e-10)
    assert c4.a2 == pytest.approx(A2_N3, rel=1e-10)
    assert c4.a3 == pytest.approx(A3_N3, rel=1e-10)
    assert c4.a5 == pytest.approx(A5_N3_Q4, rel=1e-10)
    assert c7.a5_hat == pytest.approx(A5HAT_N3_Q7, rel=1e-10)


def test_energy_constants_within_reported_error_of_closed_forms(c4, c7):
    for name, exact in (("a1", A1_N3), ("a2", A2_N3), ("a3", A3_N3),
                        ("a5", A5_N3_Q4)):
        assert abs(getattr(c4, name) - exact) <= c4.err[name]
    assert abs(c7.a5_hat - A5HAT_N3_Q7) <= c7.err["a5_hat"]


@pytest.fixture
def evals(monkeypatch):
    # count integrand calls the way the benchmark's span wrapper does
    count = [0]
    inner = quadrature.integrate_line

    def counting(f, *args, **kwargs):
        def counted(x):
            count[0] += 1
            return f(x)
        return inner(counted, *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_line", counting)
    return count


@pytest.mark.parametrize("q", [4.0, 7.0])
def test_energy_constants_evaluation_budget(q, evals):
    energy_constants(3, q)
    assert 0 < evals[0] <= 5000


def test_tolerance_below_roundoff_fails_within_budget(evals):
    # 0.8e-15 is below 50 eps int U^{p*+1}, the sum of the panels' roundoff
    # floors, so no subdivision can meet it
    with pytest.raises(QuadratureConvergenceError, match="roundoff"):
        energy_constants(3, 4.0, tol=1e-15)
    assert 0 < evals[0] <= 5000
    evals[0] = 0
    C = energy_constants(3, 4.0, tol=1e-14)
    assert C.a3 == pytest.approx(A3_N3, rel=1e-13)
    assert 0 < evals[0] <= 5000


def test_non_finite_integrand_fails_at_once():
    calls = [0]

    def f(x):
        calls[0] += 1
        return math.nan if 0.0 < x < 1.0 else math.exp(-abs(x))

    with pytest.raises(QuadratureConvergenceError, match="non-finite"):
        integrate_line(f, 1.0, 1.0)
    # the tail probes and the first two panels, no bisection
    assert calls[0] <= 14 + 2 * 21


@pytest.mark.parametrize("n_dim,q", [(34, 1.2), (3, 50.0), (3, 100.0)])
def test_energy_constants_past_exp_range_meet_closed_forms(n_dim, q):
    # the factors U^{p*} and e^x of a2 pass exp's range at N = 34, and
    # U^{q+1} and e^{-|p*-q| x} of a5_hat at q = 50; each integrand is one
    # exp of a log, so the constants lie within err of the Beta closed forms
    p_s, p_star = critical_exponents(n_dim)
    gamma, beta = model_constants(n_dim)
    C = energy_constants(n_dim, q)
    fifth = "a5" if q < p_star else "a5_hat"
    exact = {
        "a2": beta * gamma * profile_moment_closed_form(p_star, -1.0, n_dim),
        "a3": beta / (p_star + 1.0) * profile_moment_closed_form(p_star + 1.0, 0.0, n_dim),
        fifth: beta / (q + 1.0) * profile_moment_closed_form(q + 1.0, abs(p_star - q), n_dim),
    }
    for name, value in exact.items():
        assert abs(getattr(C, name) - value) <= C.err[name], name


def test_energy_constants_past_float_range_are_a_quadrature_error():
    # a2 = beta gamma int U^{p*} e^x is past the float range from N = 145,
    # though the integral is not; at N = 200 the integrand itself overflows
    with pytest.raises(QuadratureConvergenceError, match="^a2 overflowed$"):
        energy_constants(145, 1.02)
    with pytest.raises(QuadratureConvergenceError, match="integrand overflowed"):
        energy_constants(200, 1.0152)


@pytest.mark.parametrize("n_dim", range(3, 11))
def test_closed_form_special_functions_match_scipy(n_dim):
    from scipy.special import betaln, digamma

    p_s, p_star = critical_exponents(n_dim)
    m = (n_dim - 2) / 2.0
    q = (p_s + p_star) / 2.0
    # the Beta arguments of the a1/a3, a2 and a5 moments
    for s, c in ((p_star + 1.0, 0.0), (p_star, -1.0), (q + 1.0, p_star - q)):
        a, b = 0.5 * m * (s + c), 0.5 * m * (s - c)
        assert quadrature._betaln(a, b) == pytest.approx(betaln(a, b), rel=1e-14)
    assert quadrature._digamma_gap(n_dim) == pytest.approx(
        digamma(0.5 * n_dim) - digamma(float(n_dim)), rel=1e-14)


@pytest.mark.parametrize("n_dim", [3, 4, 5, 6, 7, 8, 9, 10])
def test_energy_constants_every_dimension_within_err_of_closed_forms(n_dim):
    # the integrals grow with N (int U^{p*+1} is about 48 at N = 5), so an
    # absolute quadrature target alone would sit below roundoff
    p_s, p_star = critical_exponents(n_dim)
    gamma, beta = model_constants(n_dim)
    i_crit = profile_moment_closed_form(p_star + 1.0, 0.0, n_dim)
    exact = {
        "a1": beta * (0.5 - 1.0 / (p_star + 1.0)) * i_crit,
        "a2": beta * gamma * profile_moment_closed_form(p_star, -1.0, n_dim),
        "a3": beta / (p_star + 1.0) * i_crit,
        "a4": i_crit / (p_star + 1.0) ** 2
        - profile_log_moment_closed_form(n_dim) / (p_star + 1.0),
    }
    for q, name in (((p_s + p_star) / 2.0, "a5"), (p_star + 1.0, "a5_hat")):
        C = energy_constants(n_dim, q)
        c = abs(p_star - q)
        fifth = beta / (q + 1.0) * profile_moment_closed_form(q + 1.0, c, n_dim)
        for key, val in {**exact, name: fifth}.items():
            assert abs(getattr(C, key) - val) <= C.err[key], (q, key)


def test_energy_constants_positive(c4, c7):
    for val in (c4.a1, c4.a2, c4.a3, c4.a5, c7.a5_hat):
        assert val > 0.0
    assert c4.c_n == pytest.approx(3.0 ** 0.25, rel=1e-14)


def test_a1_two_routes_agree(c4):
    # testing the profile equation against U turns the quadratic part into
    # a pure power integral: a1 = beta (1/2 - 1/(p*+1)) int U^{p*+1}
    route2 = 4.0 * (0.5 - 1.0 / 6.0) * I_CRIT_N3
    assert c4.a1 == pytest.approx(route2, rel=1e-10)


def test_error_bounds_reported(c4):
    assert set(c4.err) >= {"a1", "a2", "a3", "a4", "a5"}
    assert all(0.0 <= e < 1e-10 for e in c4.err.values())


def test_regime_gating(c4, c7):
    assert c4.a5_hat is None and c7.a5 is None
    with pytest.raises(RegimeMismatchError):
        c4.require("a5_hat")
    with pytest.raises(RegimeMismatchError):
        c7.require("a5")
    assert c4.require("a5") == c4.a5


def test_energy_constants_rejects_subserrin_exponent():
    with pytest.raises(ValueError):
        energy_constants(3, 2.9)


@pytest.mark.parametrize("n_dim", [3, 4, 5, 6])
def test_energy_constants_rejects_critical_q(n_dim):
    # neither a5 (q < p*) nor a5_hat (q > p*) exists at q = p*
    with pytest.raises(ValueError, match="p\\*"):
        energy_constants(n_dim, critical_exponents(n_dim)[1])


@pytest.mark.parametrize("qs,name", [
    (np.linspace(3.6, 4.6, 6), "a5"),
    (np.linspace(6.0, 8.0, 6), "a5_hat"),
])
def test_a5_continuity_in_q(qs, name):
    delta = 1e-4
    for q in qs:
        v0 = getattr(energy_constants(3, q, tol=1e-11), name)
        v1 = getattr(energy_constants(3, q + delta, tol=1e-11), name)
        assert abs(v1 - v0) < 20.0 * delta


def test_error_honesty():
    f = lambda x: profile_U(x, 3) ** 6
    v1, e1 = integrate_line(f, 6.0, 6.0, 1e-9)
    v2, e2 = integrate_line(f, 6.0, 6.0, 5e-10)
    assert abs(v1 - v2) <= e1


def test_panel_budget_exhaustion_carries_best_estimate():
    with pytest.raises(QuadratureConvergenceError) as info:
        integrate_line(lambda x: 1.0 / math.cosh(x) ** 2, 2.0, 2.0,
                       tol=1e-14, max_evals=60)
    assert info.value.value == pytest.approx(2.0, rel=0.2)
    assert abs(info.value.value - 2.0) <= info.value.err


def test_subdivision_limit_carries_best_estimate():
    # at tol 1e-14 the test above stops because its target is below the
    # panels' roundoff floor; this one runs out of subintervals
    with pytest.raises(QuadratureConvergenceError, match="subdivisions") as info:
        integrate_line(lambda x: 1.0 / math.cosh(x) ** 2, 2.0, 2.0,
                       tol=1e-12, max_evals=4)
    assert abs(info.value.value - 2.0) <= info.value.err
