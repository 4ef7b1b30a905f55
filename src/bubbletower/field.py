"""Discretized line functions, the energy, residuals and the linearized operator.

Functions live on a uniform grid over a truncated interval with zero values
outside.  Spikes are translates of U ~ exp(-|x|) and phi decays at the same
unit rate for every N and q (sigma weighs the star norm; it sizes no grid),
so truncation WINDOW = 30 beyond the outer spikes keeps boundary effects
far below discretization error.  At that rate the energy's potential term
omega w_pot |psi|^{q+1} decays like exp(-(1 + p*)|x|) at one end and
exp(-(2q + 1 - p*)|x|) at the other, both faster than exp(-2|x|) for every
q > N/(N-2) that ModelParams admits, so it needs no integrability check.
Second derivatives use the 3-point stencil with zero ghost values; the
energy's kinetic term uses the matching staggered first difference (see
energy).

TowerField is the one evaluator of a spike set's profiles: Ubar =
sum_i U(. - xi_i), the kernel directions, U''(. - xi_i) and the analytic
residual, with what the reduction's Newton iteration for the correction
reads (weights, (-d^2 + 1) Ubar and the star-norm weight), built once, not
on every step; each step asks it only for the Newton right-hand side and
the Jacobian's diagonal at Ubar + phi (newton_system).  tower_ansatz,
kernel_directions, ansatz_residual and nonlinear_remainder read one built
for the call.  That Jacobian is the one linearization: linearized_matrix
is its matrix at phi = 0, and nonlinear_remainder the quadratic remainder
around Ubar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from .profiles import _EXP_CLIP, ModelParams, profile_U

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "Grid",
    "GridFunction",
    "SpikeFrame",
    "default_sigma",
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


MAX_GRID_NODES = 10_000_000     # 80 MB per float array on the grid
# 30 units past a spike U and phi have fallen to e^-30 ~ 1e-13 of it
WINDOW = 30.0


@dataclass(frozen=True)
class Grid:
    """Uniform grid x_i = x0 + i h, i = 0..n-1, with 3 to MAX_GRID_NODES nodes."""

    x0: float
    h: float
    n: int

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("grid spacing must be positive")
        if self.n < 3:
            raise ValueError("grid needs at least 3 nodes")
        if self.n > MAX_GRID_NODES:
            raise ValueError(f"grid of {self.n:.3g} nodes above the ceiling {MAX_GRID_NODES:.0e}")

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
    """Finite samples on a Grid, read-only; a copy of the caller's values."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ValueError("values shape does not match grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class SpikeFrame:
    """Spike set, copied read-only, and the exponent sigma of the weighted sup norm."""

    xi: np.ndarray
    sigma: float

    def __post_init__(self):
        xi = np.array(self.xi, dtype=float)
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")

    def weight(self, x) -> np.ndarray:
        """sum_i exp(-sigma |x - xi_i|) at each point of x, in x's shape.

        The builtin sum adds the k rows exp(-sigma |xi_i - x|) in order, as
        TowerField sums Ubar: k long vectorized passes, not the n length-k
        reductions of a sum over a trailing spike axis.  The two agree bit
        for bit below 8 spikes; numpy pairs the terms of longer sums.
        """
        x = np.asarray(x, dtype=float)
        return sum(np.exp(-self.sigma * np.abs(np.subtract.outer(self.xi, x))))


def default_sigma(params: ModelParams) -> float:
    """Half of min{1, p*-1, 2q-p*-1}: safely interior to the admissible window."""
    p_star = params.p_star
    return 0.5 * min(1.0, p_star - 1.0, 2.0 * params.q - p_star - 1.0)


def grid_for_spikes(xi, h: float = 0.02, pad: float = 0.0) -> Grid:
    """Truncated domain [xi_1 - W - pad, xi_k + W + pad] with W = WINDOW."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    w = WINDOW + pad
    return Grid.from_span(float(xi[0]) - w, float(xi[-1]) + w, h)


def tower_ansatz(xi, grid: Grid, params: ModelParams) -> GridFunction:
    """Sum of translated line profiles U(x - xi_i) (TowerField.ubar)."""
    return TowerField(xi, params, grid).ubar


def star_norm(psi: GridFunction, frame: SpikeFrame) -> float:
    """Weighted sup norm: max |psi| / sum_i exp(-sigma |x - xi_i|)."""
    return float(np.max(np.abs(psi.values) / frame.weight(psi.grid.x)))


def second_difference(values: np.ndarray, h: float) -> np.ndarray:
    padded = np.concatenate(([0.0], values, [0.0]))
    return (padded[2:] - 2.0 * values + padded[:-2]) / (h * h)


def _weights(x: np.ndarray, params: ModelParams) -> Tuple[np.ndarray, np.ndarray]:
    """The weight pair (w_nl, omega w_pot) of the two powers.

    w_nl = exp(+eps x) in both regimes, since p - p* = s eps (see
    ModelParams.p); w_pot = exp(-gap x), gap = ModelParams.exponent_gap > 0,
    its exponent clipped at _EXP_CLIP as in the shooter (from N = 3, q = 27
    on it passes 709 at the grid's left end), so omega w_pot = 0 at V = 0.
    """
    w_pot = np.exp(np.minimum(-params.exponent_gap * x, _EXP_CLIP))
    return np.exp(params.epsilon * x), params.omega(x)[0] * w_pot


def energy(psi: GridFunction, params: ModelParams,
           weights: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> float:
    """Ansatz energy on the truncated domain.

    0.5 int (psi'^2 + psi^2) - beta/(p+1) int w_nl |psi|^{p+1}
    + beta/(q+1) int omega w_pot |psi|^{q+1},  p = params.p,
    with the weights w_nl = exp(eps x) and the regime-oriented w_pot.

    The kinetic term uses the staggered (midpoint) difference and the other
    terms plain h-weighted sums, so this discrete energy is the exact
    Lyapunov function of the 3-point discrete operator: its gradient at a
    grid function equals the discrete equation residual, so towers whose
    multipliers vanish are critical points of the reduced energy.  Both
    choices are second-order accurate like centered differences.

    weights is the pair _weights(psi.grid.x, params) where the caller
    already holds it (a TowerField's w_nl and w_pot on the same grid).
    """
    h = psi.grid.h
    vals = psi.values
    # staggered first difference including the two boundary half-cells
    # (zero values outside the domain)
    dv = np.diff(np.concatenate(([0.0], vals, [0.0]))) / h
    p = params.p
    beta = params.beta
    w_nl, w_pot = _weights(psi.grid.x, params) if weights is None else weights
    quad = 0.5 * h * (np.sum(dv * dv) + np.sum(vals * vals))
    av = np.abs(vals)
    term_nl = beta / (p + 1.0) * (h * np.sum(w_nl * av ** (p + 1.0)))
    term_pot = beta / (params.q + 1.0) * (h * np.sum(w_pot * av ** (params.q + 1.0)))
    return float(quad - term_nl + term_pot)


def ansatz_residual(xi, params: ModelParams, grid: Grid) -> GridFunction:
    """Analytic residual of the pure tower (TowerField.ansatz_residual)."""
    return TowerField(xi, params, grid).ansatz_residual()


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
    tower, p, q = TowerField(xi, params, phi.grid), params.p, params.q
    u, w_nl, w_pot = tower.ubar.values, tower.w_nl, tower.w_pot
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
    """Columns Z_i(x) = U'(x - xi_i), the operator's approximate kernel (TowerField.z)."""
    return TowerField(xi, params, grid).z


class TowerField:
    """One spike set's tower on one grid, and what derives from it.

    The only evaluator of the translated profiles: one profile_U and one
    tanh call on the k x n array x - xi_i give the rows U_i = U(. - xi_i) and
    th_i = tanh((. - xi_i)/m), m = (N-2)/2, and from them Ubar = sum_i U_i,
    the kernel directions Z_i = U_i' = -U_i th_i and the second derivatives
    U_i'' = U_i (th_i^2 - (1 - th_i^2)/m) as n x k columns.  Built once per
    spike set and reused by every Newton step of the correction, it also
    holds x, the weights w_nl and omega w_pot, the off-diagonal -1/h^2 of
    -d^2, (-d^2 + 1) Ubar and the weight sum_i exp(-sigma |x - xi_i|) of
    the star norm, sigma = default_sigma(params), in ``frame``.
    """

    def __init__(self, xi, params: ModelParams, grid: Grid):
        self.frame = SpikeFrame(np.atleast_1d(xi), default_sigma(params))
        xi = self.xi = self.frame.xi
        if np.any(np.diff(xi) <= 0.0):
            raise ValueError("spike locations must be strictly increasing")
        self.params, self.grid, self.x = params, grid, grid.x
        m = (params.n_dim - 2) / 2.0
        shifted = self.x - xi[:, None]
        u = self._rows = profile_U(shifted, params.n_dim)
        th = np.tanh(shifted / m)
        # the builtin sum adds the rows in order, as the per-spike sums
        # did; np.sum(axis=0) pairs them and rounds differently
        ubar = sum(u)
        self.ubar = GridFunction(grid, ubar)
        # C-contiguous n x k: transposed views round differently in the
        # BLAS products Z^T A^-1 Z and d2u^T phi
        self.z = np.ascontiguousarray((-u * th).T)
        self.d2u = np.ascontiguousarray((u * (th * th - (1.0 - th * th) / m)).T)
        self.star_weight = self.frame.weight(self.x)
        self.w_nl, self.w_pot = _weights(self.x, params)
        self.off_diagonal = np.full(grid.n - 1, -1.0 / (grid.h * grid.h))
        self.lin_ubar = -second_difference(ubar, grid.h) + ubar

    def ansatz_residual(self) -> GridFunction:
        """Analytic residual of the pure tower in the transformed equation,
        R = beta [ sum_i U_i^{p*} - w_nl Ubar^p + omega w_pot Ubar^q ], p =
        params.p: each translate solves the unperturbed profile equation."""
        p, ubar = self.params, self.ubar.values
        vals = sum(self._rows ** p.p_star) - self.w_nl * ubar ** p.p \
            + self.w_pot * ubar ** p.q
        return GridFunction(self.grid, p.beta * vals)

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
