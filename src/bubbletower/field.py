"""Discretized line functions, the energy, residuals and the linearized operator.

Functions live on a uniform grid over a truncated interval with homogeneous
(zero) values outside; all profiles here decay exponentially, so truncation
at max(30, 10/sigma) beyond the outer spikes keeps boundary effects far below
discretization error.  Second derivatives use the 3-point stencil with zero
ghost values; the energy's kinetic term uses the matching staggered first
difference (see energy).

TowerField holds one spike set's tower Ubar = sum_i U(. - xi_i) with what
the reduction's Newton iteration for the correction reads (weights,
(-d^2 + 1) Ubar, the kernel directions and the star-norm weight), built
once, not on every step; each step asks it only for the Newton right-hand
side and the Jacobian's diagonal at Ubar + phi (newton_system).  That
Jacobian is the one linearization: linearized_matrix is its matrix at
phi = 0, and nonlinear_remainder the quadratic remainder around Ubar.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from .errors import TruncationError
from .profiles import ModelParams, profile_U, profile_dU

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "Grid",
    "GridFunction",
    "SpikeFrame",
    "default_sigma",
    "default_window",
    "grid_for_spikes",
    "tower_ansatz",
    "star_norm",
    "energy",
    "ansatz_residual",
    "nonlinear_remainder",
    "linearized_matrix",
    "full_operator",
    "kernel_directions",
    "TowerField",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid x_i = x0 + i h, i = 0..n-1."""

    x0: float
    h: float
    n: int

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("grid spacing must be positive")
        if self.n < 3:
            raise ValueError("grid needs at least 3 nodes")

    @property
    def x1(self) -> float:
        return self.x0 + (self.n - 1) * self.h

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(self.n)

    @staticmethod
    def from_span(a: float, b: float, h: float) -> "Grid":
        n = int(math.ceil((b - a) / h)) + 1
        return Grid(x0=a, h=h, n=n)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w


@dataclass(frozen=True)
class GridFunction:
    """Samples on a Grid, optionally tagged with end decay rates.

    The tag declares exponential decay toward each truncation end; it feeds
    the integrability check of the energy and a soft boundary-consistency
    warning.  Derived quantities (residuals, increments) carry no tag.
    """

    grid: Grid
    values: np.ndarray
    decay: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ValueError("values shape does not match grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.decay is not None:
            self._soft_check_decay()

    def _soft_check_decay(self):
        # soft consistency: end values should be below what the decay tag
        # implies from the interior maximum; warn, never fail
        v = np.abs(self.values)
        peak = v.max()
        if peak == 0.0:
            return
        i_peak = int(v.argmax())
        for end, rate, dist in ((0, self.decay[0], i_peak * self.grid.h),
                                (-1, self.decay[1], (self.grid.n - 1 - i_peak) * self.grid.h)):
            implied = peak * math.exp(-min(rate * dist, 700.0))
            if v[end] > 50.0 * implied + 1e-12 * peak:
                warnings.warn(
                    f"end value {v[end]:.3e} exceeds decay-tag bound {implied:.3e}; "
                    "domain may be too short", stacklevel=3)


@dataclass(frozen=True)
class SpikeFrame:
    """Spike set and the weight exponent sigma of the weighted sup norm."""

    xi: np.ndarray
    sigma: float

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")

    def weight(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.exp(-self.sigma * np.abs(x[..., None] - self.xi)).sum(axis=-1)


def default_sigma(params: ModelParams) -> float:
    """Half of min{1, p*-1, 2q-p*-1}: safely interior to the admissible window."""
    p_star = params.p_star
    return 0.5 * min(1.0, p_star - 1.0, 2.0 * params.q - p_star - 1.0)


def default_window(sigma: float) -> float:
    return max(30.0, 10.0 / sigma)


def grid_for_spikes(xi, sigma: float, h: float = 0.02, pad: float = 0.0) -> Grid:
    """Truncated domain [xi_1 - W - pad, xi_k + W + pad] with W = max(30, 10/sigma)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    w = default_window(sigma) + pad
    return Grid.from_span(float(xi[0]) - w, float(xi[-1]) + w, h)


def tower_ansatz(xi, grid: Grid, params: ModelParams) -> GridFunction:
    """Sum of translated line profiles U(x - xi_i)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(np.diff(xi) <= 0.0):
        raise ValueError("spike locations must be strictly increasing")
    x = grid.x
    vals = np.zeros(grid.n)
    for s in xi:
        vals += profile_U(x - s, params.n_dim)
    return GridFunction(grid, vals, decay=(1.0, 1.0))


def star_norm(psi: GridFunction, frame: SpikeFrame) -> float:
    """Weighted sup norm: max |psi| / sum_i exp(-sigma |x - xi_i|)."""
    return float(np.max(np.abs(psi.values) / frame.weight(psi.grid.x)))


def second_difference(values: np.ndarray, h: float) -> np.ndarray:
    padded = np.concatenate(([0.0], values, [0.0]))
    return (padded[2:] - 2.0 * values + padded[:-2]) / (h * h)


def _weights(x: np.ndarray, params: ModelParams) -> Tuple[np.ndarray, np.ndarray]:
    """The weight pair (w_nl, omega w_pot) of the two powers.

    w_nl = exp(+eps x) in both regimes, since p - p* = s eps (see
    ModelParams.p); w_pot = exp(-(p*-q)x) sub-q, exp(+(p*-q)x) super-q, and
    omega w_pot is identically zero when V = 0.
    """
    w_nl = np.exp(params.epsilon * x)
    if params.potential.bound == 0.0:
        return w_nl, np.zeros_like(w_nl)
    w_pot = np.exp(-params.ef_sign * (params.p_star - params.q) * x)
    return w_nl, params.omega(x) * w_pot


def _check_potential_truncation(psi: GridFunction, params: ModelParams):
    """Declared decay must beat the growth of the potential weight at both ends."""
    if params.potential.bound == 0.0:
        return
    decay = psi.decay if psi.decay is not None else (1.0, 1.0)
    p_star = params.p_star
    qp = params.ef_sign * (p_star - params.q)   # weight is exp(-qp * x)
    net_left = (params.q + 1.0) * decay[0] - qp
    net_right = (params.q + 1.0) * decay[1] + qp
    if net_left <= 0.0 or net_right <= 0.0:
        raise TruncationError(
            f"potential term not integrable at truncation ends: net decay rates "
            f"({net_left:g}, {net_right:g}) must both be positive")


def energy(psi: GridFunction, params: ModelParams) -> float:
    """Ansatz energy on the truncated domain.

    0.5 int (psi'^2 + psi^2) - beta/(p+1) int w_nl |psi|^{p+1}
    + beta/(q+1) int omega w_pot |psi|^{q+1},  p = params.p,
    with the weights w_nl = exp(eps x) and the regime-oriented w_pot.

    The kinetic term uses the staggered (midpoint) difference and the other
    terms plain h-weighted sums, so this discrete energy is the exact
    Lyapunov function of the 3-point discrete operator: its gradient at a
    grid function equals the discrete equation residual, which is what lets
    the outer reduced solve drive the multipliers to zero.  Both choices
    are second-order accurate like centered differences.
    """
    _check_potential_truncation(psi, params)
    h = psi.grid.h
    vals = psi.values
    # staggered first difference including the two boundary half-cells
    # (zero values outside the domain)
    dv = np.diff(np.concatenate(([0.0], vals, [0.0]))) / h
    p = params.p
    beta = params.beta
    w_nl, w_pot = _weights(psi.grid.x, params)
    quad = 0.5 * h * (np.sum(dv * dv) + np.sum(vals * vals))
    av = np.abs(vals)
    term_nl = beta / (p + 1.0) * (h * np.sum(w_nl * av ** (p + 1.0)))
    term_pot = beta / (params.q + 1.0) * (h * np.sum(w_pot * av ** (params.q + 1.0)))
    return float(quad - term_nl + term_pot)


def ansatz_residual(xi, params: ModelParams, grid: Grid) -> GridFunction:
    """Residual of the pure tower in the transformed equation (analytic form).

    R = beta [ sum_i U_i^{p*} - w_nl Ubar^p + omega w_pot Ubar^q ] with
    p = params.p; the derivative part is exact because each translate
    solves the unperturbed profile equation.
    """
    x = grid.x
    ubar = tower_ansatz(xi, grid, params).values
    sum_crit = sum(profile_U(x - s, params.n_dim) ** params.p_star
                   for s in np.atleast_1d(xi))
    w_nl, w_pot = _weights(x, params)
    vals = sum_crit - w_nl * ubar ** params.p + w_pot * ubar ** params.q
    return GridFunction(grid, params.beta * vals)


def full_operator(psi: GridFunction, params: ModelParams) -> GridFunction:
    """Discrete nonlinear operator -psi'' + psi - beta (w_nl psi_+^p - omega w_pot psi_+^q).

    Uses the same 3-point Laplacian as the linearized matrix, so a grid
    function with this operator equal to sum_i c_i Z_i is a discrete
    solution of the transformed equation up to the kernel directions.
    """
    pos = np.maximum(psi.values, 0.0)
    w_nl, w_pot = _weights(psi.grid.x, params)
    nl = w_nl * pos ** params.p - w_pot * pos ** params.q
    vals = -second_difference(psi.values, psi.grid.h) + psi.values - params.beta * nl
    return GridFunction(psi.grid, vals)


def nonlinear_remainder(phi: GridFunction, xi, params: ModelParams) -> GridFunction:
    """Quadratic remainder of the nonlinearity around the tower Ubar:

    N(phi) = beta w_nl [ (Ubar+phi)_+^p - Ubar^p - p Ubar^{p-1} phi ]
    - beta omega w_pot [ (Ubar+phi)_+^q - Ubar^q - q Ubar^{q-1} phi ].
    """
    u, p, q = tower_ansatz(xi, phi.grid, params).values, params.p, params.q
    w_nl, w_pot = _weights(phi.grid.x, params)
    bumped = np.maximum(u + phi.values, 0.0)
    n1 = w_nl * (bumped ** p - u ** p - p * u ** (p - 1.0) * phi.values)
    n2 = w_pot * (bumped ** q - u ** q - q * u ** (q - 1.0) * phi.values)
    return GridFunction(phi.grid, params.beta * (n1 - n2))


def linearized_matrix(xi, params: ModelParams, grid: Grid) -> sp.csc_matrix:
    """Sparse symmetric matrix of the operator linearized at the tower, with
    zero end values: the Jacobian J(0) of TowerField.newton_system."""
    import scipy.sparse as sp
    tower = TowerField(xi, params, grid)
    off = tower.off_diagonal
    main = tower.newton_system(np.zeros(grid.n))[1]
    return sp.diags([off, main, off], offsets=(-1, 0, 1), format="csc")


def kernel_directions(xi, params: ModelParams, grid: Grid) -> np.ndarray:
    """Columns Z_i(x) = U'(x - xi_i): the approximate kernel of the operator."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = grid.x
    z = np.empty((grid.n, xi.size))
    for i, s in enumerate(xi):
        z[:, i] = profile_dU(x - s, params.n_dim)
    return z


class TowerField:
    """The tower Ubar = sum_i U(. - xi_i) on one grid, and what derives from it.

    Built once per spike set and reused by every Newton step of the
    correction: x, Ubar (from tower_ansatz), the weights w_nl and
    omega w_pot, the kernel directions Z, the off-diagonal -1/h^2 of
    -d^2, (-d^2 + 1) Ubar and the weight sum_i exp(-sigma |x - xi_i|) of
    the star norm (sigma defaults to default_sigma(params)).
    """

    def __init__(self, xi, params: ModelParams, grid: Grid,
                 sigma: Optional[float] = None):
        self.params = params
        self.grid = grid
        self.x = grid.x
        self.ubar = tower_ansatz(xi, grid, params)
        self.xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if sigma is None:
            sigma = default_sigma(params)
        self.frame = SpikeFrame(self.xi, sigma)
        self.star_weight = self.frame.weight(self.x)
        self.w_nl, self.w_pot = _weights(self.x, params)
        self.z = kernel_directions(self.xi, params, grid)
        self.off_diagonal = np.full(grid.n - 1, -1.0 / (grid.h * grid.h))
        u = self.ubar.values
        self.lin_ubar = -second_difference(u, grid.h) + u

    def newton_system(self, phi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Newton right-hand side and Jacobian diagonal at Ubar + phi.

        With F(phi) = full_operator(Ubar + phi) and its Jacobian
        J(phi) = -d^2 + 1 - W(Ubar + phi), where
        W(u) = beta [ p w_nl u_+^{p-1} - q omega w_pot u_+^{q-1} ], returns
        (J(phi) phi - F(phi), diagonal 2/h^2 + 1 - W of J(phi)); off_diagonal
        holds the -1/h^2.  The second differences of phi cancel in J phi - F,
        which is beta [ w_nl b^{p-1} (b - p phi) - omega w_pot b^{q-1}
        (b - q phi) ] - (-d^2 + 1) Ubar with b = (Ubar + phi)_+; at phi = 0 it
        is -full_operator(Ubar).
        """
        p, q = self.params.p, self.params.q
        b = np.maximum(self.ubar.values + phi, 0.0)
        t_p = self.w_nl * b ** (p - 1.0)
        t_q = self.w_pot * b ** (q - 1.0)
        beta = self.params.beta
        rhs = beta * (t_p * (b - p * phi) - t_q * (b - q * phi)) - self.lin_ubar
        h = self.grid.h
        return rhs, (2.0 / (h * h) + 1.0) - beta * (p * t_p - q * t_q)

    def star_norm(self, values: np.ndarray) -> float:
        """Weighted sup norm of grid values (see star_norm)."""
        return float(np.max(np.abs(values) / self.star_weight))
