"""The scaling symmetry of a constant potential as an exact oracle.

For V = -a, u -> lam^alpha u(lam r) with alpha = 2/(p-1) carries a solution
at V = -1 to one at V = -a when lam^{alpha(p-q)} = a.  So the tower at
V = -a is the tower at V = -1 rescaled, its height a^{1/(p-q)} times as
large, with no reference solution and no closed form that the code computes.
"""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from bubbletower import (ModelParams, PotentialSpec, ReductionConfig,
                         assemble_solution, energy_constants, solve_reduced)
from bubbletower.cli import main

EPS, H = 1e-2, 0.02
SCALES = (0.03, 0.1, 0.3, 3.0)
# the concentrating verifier keeps the height whose shot crosses zero at
# r_max = 50/sqrt(eps), an offset that grows as |V(0)| shrinks (ROADMAP item 11)
R_MAX_OFFSET = pytest.mark.xfail(strict=True, reason="concentrating r_max offset")


def _params(n_dim, q, k, a):
    return ModelParams.make(n_dim, q, EPS, k=k, potential=PotentialSpec.constant(-a))


@functools.cache
def _reduced(n_dim, q, k, a):
    params = _params(n_dim, q, k, a)
    _, state = solve_reduced(params, energy_constants(n_dim, q), ReductionConfig(h=H))
    return state, assemble_solution(state, params)


@functools.cache
def _verified(n_dim, q, k, a):
    """verify.json of one CLI run."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        main(["verify", "--N", str(n_dim), "--q", repr(q), "--k", str(k),
              "--eps", repr(EPS), "--h", repr(H), "--V", f"const:{-a!r}", "--out", out])
        return json.loads((Path(out) / "verify" / "verify.json").read_text())


@pytest.mark.parametrize("a", SCALES)
@pytest.mark.parametrize("n_dim, q", [(3, 4.0), (3, 7.0), (6, 1.8), (8, 1.5)])
def test_reduce_scales_with_constant_potential(n_dim, q, a):
    # measured at most 7.4e-9; at N = 6 and 8, a <= 0.1 puts xi_1 below 0
    state, sol = _reduced(n_dim, q, 2, a)
    assert np.max(np.abs(state.c)) < 1e-10
    params = _params(n_dim, q, 2, a)
    alpha = 2.0 / (params.p - 1.0)
    lam = a ** (1.0 / (alpha * (params.p - params.q)))
    r = sol.residual_radii(100)
    u = sol(r)
    u_one = _reduced(n_dim, q, 2, 1.0)[1](lam * r)
    assert np.max(np.abs(u - lam ** alpha * u_one)) < 1e-7 * np.max(u)


VERIFY_CASES = [(n_dim, q, k) for n_dim, q in [(3, 4.0), (3, 7.0), (6, 1.8), (8, 1.5)]
                for k in (1, 2)] + [(8, 2.1, 1)]


@pytest.mark.parametrize("a", SCALES)
@pytest.mark.parametrize("n_dim, q, k", VERIFY_CASES)
def test_rescaled_verify_decays_with_k_peaks(n_dim, q, k, a):
    payload = _verified(n_dim, q, k, a)
    assert payload["classification"] == "decaying"
    assert payload["ef_peaks"] == k
    assert max(abs(c) for c in payload["multipliers"]) < 1e-10


# every N = 3, q = 4 case misses (-0.26 to +1.6e-4 in the height), and so
# do the a = 0.03 concentrating cases at N = 6 and 8 (9.8e-5 to 3.1e-2)
MISSES = ({(3, 4.0, k, a) for k in (1, 2) for a in SCALES}
          | {(n_dim, q, k, 0.03) for n_dim, q in [(6, 1.8), (8, 1.5)] for k in (1, 2)})


@pytest.mark.parametrize("n_dim, q, k, a", [
    pytest.param(*case, a, marks=R_MAX_OFFSET if (*case, a) in MISSES else ())
    for case in VERIFY_CASES for a in SCALES])
def test_verify_scales_with_constant_potential(n_dim, q, k, a):
    payload, base = _verified(n_dim, q, k, a), _verified(n_dim, q, k, 1.0)
    params = _params(n_dim, q, k, a)
    height = a ** (1.0 / (params.p - params.q)) * base["shot_u0"]
    assert payload["shot_u0"] == pytest.approx(height, rel=1e-5)
    ratio = payload["sup_rel_tower"] / base["sup_rel_tower"]
    assert 1.0 / 1.5 <= ratio <= 1.5
