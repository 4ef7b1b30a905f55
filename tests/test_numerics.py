"""The numerical kernels against the scipy routines they replace."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.integrate import ode
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.optimize import brentq as scipy_brentq

from bubbletower import (ModelParams, PotentialSpec, ProjectedSolver, ReductionConfig,
                         TowerField, assemble_solution, cli, grid_for_spikes, numerics,
                         solve_reduced)
from bubbletower.errors import BubbleTowerError, ConditioningError, LapackUnavailableError
from bubbletower.numerics import TridiagonalLU, brentq, dop853, not_a_knot_spline
from bubbletower.verifier import MAX_STEPS, _default_r_max

# the benchmark's verify cases (q = 4, k = 1): potential, eps and a height
# within 1e-9 relative of the shot find_tower keeps
BENCHMARK_SHOTS = [(PotentialSpec.constant(-1.0), 5e-2, 35.20186489229378),
                   (PotentialSpec.rational(-2.0, 1.0), 2e-2, 185.93955750608484)]


def _oscillator(t, y, dy):
    return -y


def _ode_dop853(rhs, t0, y0, dy0, t_end, stop, rtol, atol, nsteps=MAX_STEPS):
    """The same integration on scipy's DOP853, on the first-order system
    (y, y')' = (y', rhs): the records and return code."""
    steps = []

    def system(t, z):
        y, dy = z.tolist()
        return dy, rhs(t, y, dy)

    def record(t, z):
        y, dy = z.tolist()
        steps.append((t, y, dy))
        return -1 if stop(t, y) else 0

    solver = ode(system).set_integrator("dop853", rtol=rtol, atol=atol, nsteps=nsteps)
    solver.set_solout(record)
    solver.set_initial_value([y0, dy0], t0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        solver.integrate(t_end)
    return np.array(steps), solver.get_return_code()


def _radial_rhs(params):
    """u'' of the radial equation at (r, u, u'), on Python floats, a test
    problem for dop853: plain powers for u > 0, the signed ones otherwise,
    and V = a + b r^2/(1+r^2).  Python's ``**`` raises OverflowError where
    numpy returns inf."""
    p, q, n1 = params.p, params.q, params.n_dim - 1.0
    a, b = params.potential.a, params.potential.b

    def pot(r):
        return a + b * (r * r / (1.0 + r * r))

    def rhs(r, u, du):
        if u > 0.0:
            return -n1 / r * du + (pot(r) * u ** q - u ** p)
        f = -math.copysign(abs(u) ** p, u) + pot(r) * math.copysign(abs(u) ** q, u)
        return -n1 / r * du + f

    return rhs


def _radial_shot(potential, eps, u0):
    """dop853's arguments for an outward shot of the radial equation in r at
    height u0, started as verifier.shoot starts it."""
    params = ModelParams.make(3, 4.0, eps, k=1, potential=potential)
    p = params.p
    r0 = min(1e-6, 1e-3 * u0 ** (-0.5 * (p - 1.0)))
    curv = (u0 ** p - potential.v0 * u0 ** params.q) / (2.0 * params.n_dim)
    return (_radial_rhs(params), r0, u0 - curv * r0 * r0, -2.0 * curv * r0,
            _default_r_max(params), lambda t, y: y < 0.0 or y > 10.0 * u0, 1e-10, 1e-14 * u0)


@pytest.mark.parametrize("case", ["oscillator", "const", "rational"])
def test_dop853_matches_scipy_ode(case):
    if case == "oscillator":
        args = (_oscillator, 0.0, 1.0, 0.0, 10.0, lambda t, y: False, 1e-10, 1e-14)
    else:
        args = _radial_shot(*BENCHMARK_SHOTS[case == "rational"])
    # every record, bit for bit: the second-order form does the first-order
    # system's arithmetic
    t, y, dy, code = dop853(*args, MAX_STEPS)
    ref, ref_code = _ode_dop853(*args)
    assert code == ref_code == 1
    assert np.array_equal(np.column_stack((t, y, dy)), ref)


def test_dop853_return_codes():
    # 1 at t_end; 2 at the first record with y < 0; -2 once a budget of 5
    # steps is spent (6 attempts, as in dop853.f); -3 where y'' = y^3 blows
    # up at t = sqrt(2)
    stop_never = lambda t, y: False
    t, y, _, code = dop853(_oscillator, 0.0, 1.0, 0.0, 10.0, stop_never, 1e-10, 1e-14, MAX_STEPS)
    assert code == 1 and t[-1] == 10.0 and abs(y[-1] - math.cos(10.0)) < 1e-8
    t, y, _, code = dop853(_oscillator, 0.0, 1.0, 0.0, 10.0, lambda t, v: v < 0.0, 1e-10, 1e-14,
                           MAX_STEPS)
    assert code == 2 and y[-1] < 0.0 <= y[-2] and t[-1] < 10.0
    t, _, _, code = dop853(_oscillator, 0.0, 1.0, 0.0, 10.0, stop_never, 1e-10, 1e-14, 5)
    ref, ref_code = _ode_dop853(_oscillator, 0.0, 1.0, 0.0, 10.0, stop_never, 1e-10, 1e-14, 5)
    assert code == ref_code == -2 and t.size == len(ref) == 7
    cubic = lambda t, y, dy: y ** 3
    t, _, _, code = dop853(cubic, 0.0, 1.0, 2.0 ** -0.5, 2.0, stop_never, 1e-10, 1e-14, MAX_STEPS)
    assert code == -3 and abs(t[-1] - math.sqrt(2.0)) < 1e-9


def test_dop853_rejects_a_step_that_overflows():
    # a stage that raises OverflowError rejects its step, and the retry
    # from the same point is 0.3 times as long
    calls, raised, records = [], [], []

    def flaky(t, y, dy):
        calls.append(t)
        if t > 1.0 and not raised:
            raised.append(len(calls) - 1)
            raise OverflowError
        return -y

    def stop(t, y):                 # the index of the next call, at each record
        records.append(len(calls))
        return False

    t, y, _, code = dop853(flaky, 0.0, 1.0, 0.0, 10.0, stop, 1e-10, 1e-14, MAX_STEPS)
    assert code == 1 and abs(y[-1] - math.cos(10.0)) < 1e-8
    # the attempt that raised began at the last record before the raise; an
    # attempt's first call is its second stage, at start + C2 h
    i = max(i for i, n in enumerate(records) if n <= raised[0])
    start, first = float(t[i]), records[i]
    assert (calls[raised[0] + 1] - start) / (calls[first] - start) == pytest.approx(0.3, rel=1e-9)
    # the radial right-hand side raises where Python's ** overflows
    params = ModelParams.make(3, 4.0, 5e-2, potential=PotentialSpec.constant(-1.0))
    with pytest.raises(OverflowError):
        _radial_rhs(params)(1.0, 1e300, 0.0)


@pytest.mark.parametrize("f,a,b", [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 10.0, 5.0, 0.0),
])
@pytest.mark.parametrize("xtol", [1e-12, 1e-4])
def test_brentq_matches_scipy(f, a, b, xtol):
    ours, theirs = [], []
    rtol = 4.0 * np.finfo(float).eps
    root = brentq(lambda x: ours.append(x) or f(x), a, b, xtol, rtol, 100)
    ref = scipy_brentq(lambda x: theirs.append(x) or f(x), a, b, xtol=xtol, rtol=rtol,
                       maxiter=100)
    assert root == ref and ours == theirs and len(ours) > 4
    # the search turns this failure into ConvergenceError (test_verifier.py)
    with pytest.raises(RuntimeError, match="Failed to converge after 2 iterations"):
        brentq(f, a, b, xtol, rtol, 2)
    with pytest.raises(ValueError):
        brentq(f, a, a + 0.5 * (root - a), xtol, rtol, 100)


def test_spline_matches_cubic_spline(c4):
    # the assembled solution of the benchmark's first verify case, on and
    # off the grid and past both ends
    params = ModelParams.make(3, 4.0, 5e-2, k=1, potential=BENCHMARK_SHOTS[0][0])
    _, state = solve_reduced(params, c4, ReductionConfig(h=0.01))
    sol = assemble_solution(state, params)
    grid = state.phi.grid
    ref = CubicSpline(grid.x, np.maximum(state.field.ubar.values + state.phi.values, 0.0))
    x = np.concatenate([grid.x, np.linspace(grid.x0 - 1.0, grid.x1 + 1.0, 20_001)])
    for nu in (0, 1, 2):
        np.testing.assert_allclose(sol.spline(x, nu), ref(x, nu), rtol=1e-13, atol=0.0)


def _bands(n, seed):
    """A random tridiagonal matrix whose factorization pivots."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n - 1)


# n = 4, and the sizes of the benchmark's reduce grids
@pytest.mark.parametrize("n", [4, 2640, 6601])
def test_tridiagonal_binding_matches_scipy(n):
    lower, diagonal, upper = _bands(n, n)
    lu = TridiagonalLU(lower, diagonal, upper)
    *ref, ref_info = dgttrf(lower, diagonal, upper)
    assert lu.info == ref_info == 0
    for ours, theirs in zip(lu.factors, ref):
        assert np.array_equal(ours, theirs)
    rng = np.random.default_rng(n + 1)
    # a vector, one column, and C-ordered columns as ProjectedSolver passes Z
    for rhs in (rng.normal(size=n), rng.normal(size=(n, 1)),
                np.ascontiguousarray(rng.normal(size=(n, 3)))):
        x = lu.solve(rhs)
        x_ref, solve_info = dgttrs(*ref, rhs)
        assert solve_info == 0
        assert x.shape == x_ref.shape and x.flags.f_contiguous
        assert np.array_equal(x, x_ref)


def test_tridiagonal_binding_keeps_its_inputs():
    bands = _bands(50, 3)
    rhs = np.random.default_rng(4).normal(size=(50, 2))
    copies = [a.copy() for a in (*bands, rhs)]
    lu = TridiagonalLU(*bands)
    lu.solve(rhs)
    for before, after in zip(copies, (*bands, rhs)):
        assert np.array_equal(before, after)
    with pytest.raises(ValueError):
        TridiagonalLU(bands[0][:-1], bands[1], bands[2])
    with pytest.raises(ValueError):
        lu.solve(rhs[:-1])


def test_singular_tridiagonal_systems_raise():
    # the Neumann Laplacian: rows sum to zero, and the last pivot of the
    # elimination (no row swaps on ties) is exactly zero
    grid = grid_for_spikes(np.array([5.0]), h=0.05)
    a = 1.0 / (grid.h * grid.h)
    neumann = np.full(grid.n, 2.0 * a)
    neumann[[0, -1]] = a
    off = np.full(grid.n - 1, -a)
    info = TridiagonalLU(off, neumann, off).info
    assert info == dgttrf(off, neumann, off)[-1] == grid.n
    params = ModelParams.make(3, 4.0, 1e-2, k=1, potential=PotentialSpec.constant(-1.0))
    with pytest.raises(ConditioningError, match="dgttrf info"):
        ProjectedSolver(TowerField(np.array([5.0]), params, grid), neumann)
    # a repeated knot leaves the spline system's first column zero
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError, match="dgttrf info 1"):
            not_a_knot_spline([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0])


def test_threads_factor_and_solve_to_identical_bits():
    # sweep factors and solves on two threads, and ctypes releases the GIL
    field = TowerField(np.array([5.0, 9.0]), ModelParams.make(
        3, 4.0, 1e-2, k=2, potential=PotentialSpec.constant(-1.0)),
        grid_for_spikes(np.array([5.0, 9.0]), h=0.01))
    off, diagonal = field.off_diagonal, field.newton_system(np.zeros(field.z.shape[0]))[1]
    cases = [diagonal, diagonal + 0.5]

    def run(diag):
        lu = TridiagonalLU(off, diag, off)
        return lu.solve(field.z), lu.solve(field.ubar.values)

    serial = [run(d) for d in cases]
    results = [[] for _ in range(4)]

    def worker(slot):
        for _ in range(30):
            results[slot].append(run(cases[slot % 2]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for slot, runs in enumerate(results):
        assert len(runs) == 30
        for z_sol, u_sol in runs:
            assert np.array_equal(z_sol, serial[slot % 2][0])
            assert np.array_equal(u_sol, serial[slot % 2][1])


def test_missing_lapack_is_a_typed_error_and_only_the_solver_needs_it(tmp_path, monkeypatch):
    # a file with the library's name that does not load is skipped
    (tmp_path / "libscipy_openblas64_broken.so").write_bytes(b"")
    monkeypatch.setattr(numerics, "LAPACK_DIRS", (str(tmp_path),))
    monkeypatch.setattr(numerics, "_lapack_routines", None)
    with pytest.raises(LapackUnavailableError) as exc:
        TridiagonalLU(np.ones(3), np.full(4, 3.0), np.ones(3))
    assert isinstance(exc.value, BubbleTowerError)
    for name in (str(tmp_path), "scipy_dgttrf_64_", "scipy_dgttrs_64_"):
        assert name in str(exc.value)
    # the library is looked up on the first factorization, not at import
    assert cli.main(["constants", "--q", "4", "--out", str(tmp_path / "out")]) == 0
