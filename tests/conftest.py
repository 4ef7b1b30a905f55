import math

import numpy as np
import pytest

from bubbletower import ModelParams, PotentialSpec, energy_constants


@pytest.fixture(scope="session")
def c4():
    return energy_constants(3, 4.0)


@pytest.fixture(scope="session")
def c7():
    return energy_constants(3, 7.0)


@pytest.fixture(scope="session")
def v_minus_one():
    return PotentialSpec.constant(-1.0)


def make_params(q=4.0, eps=1e-2, k=1, v=-1.0, n_dim=3):
    return ModelParams.make(n_dim, q, eps, k=k, potential=PotentialSpec.constant(v))


def scalar_omega(params, x: float) -> float:
    """omega(x) = V(r(x)) on floats, as verifier._ef_rhs forms it inline:
    a + b/(1 + e^{cx}), c = 4s/(N-2), with cx clipped at 700."""
    c = 4.0 * params.ef_sign / (params.n_dim - 2)
    pot = params.potential
    return pot.a + pot.b * (1.0 / (1.0 + math.exp(min(c * x, 700.0))))


def potential_id(pot) -> str:
    """The CLI spec of a potential's pair (a, b): const:a or rational:a,b."""
    return f"const:{pot.a:g}" if pot.b == 0.0 else f"rational:{pot.a:g},{pot.b:g}"


def probe_functions(grid, frame, count, seed):
    """Deterministic random bumps near the spikes, unit star norm."""
    from bubbletower import GridFunction, star_norm

    rng = np.random.default_rng(seed)
    x = grid.x
    out = []
    for _ in range(count):
        vals = np.zeros(grid.n)
        for xi in frame.xi:
            n_bumps = rng.integers(1, 4)
            for _ in range(n_bumps):
                amp = rng.normal()
                width = rng.uniform(0.5, 2.0)
                center = xi + rng.uniform(-3.0, 3.0)
                vals += amp / np.cosh(width * (x - center))
        gf = GridFunction(grid, vals)
        norm = star_norm(gf, frame)
        out.append(GridFunction(grid, vals / norm))
    return out
