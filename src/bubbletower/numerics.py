"""Numerical kernels on numpy alone: ports of the scipy routines the shooter
used, DOP853 (``integrate.ode``), Brent's method (``optimize.brentq``) and
piecewise polynomials (``interpolate.BPoly``, ``CubicSpline``), which the
tests compare with scipy, and the one tridiagonal LU of the reduction's
solver and the spline: LAPACK's dgttrf/dgttrs, called through ctypes in the
OpenBLAS that numpy's wheel ships and loads."""

from __future__ import annotations

import ctypes
import glob
import math
import os

import numpy as np

from .errors import LapackUnavailableError

__all__ = ["dop853", "brentq", "PiecewisePolynomial", "not_a_knot_spline",
           "tridiagonal_lu", "tridiagonal_solve"]


# The DOP853 coefficients, named as in Hairer's dop853.f (scipy's
# integrate/_ivp/dop853_coefficients.py holds the same numbers): nodes C_i,
# the nonzero stage weights A_ij, 8th-order weights B_i, and the 5th- and
# 3rd-order error estimators sum_i ER_i k_i and sum_i B_i k_i - BHH1 k_1 -
# BHH2 k_9 - BHH3 k_12
C2, C3, C4, C5, C6, C7 = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
                          0.2816496580927726, 0.3333333333333333, 0.25)
C8, C9, C10, C11 = 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571
A21, A31, A32 = 0.05260015195876773, 0.0197250569845379, 0.0591751709536137
A41, A43 = 0.02958758547680685, 0.08876275643042054
A51, A53, A54 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
A61, A64, A65 = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
A71, A74, A75, A76 = 0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125
A81, A84, A85, A86, A87 = (0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
                           -0.015319437748624402, 0.008273789163814023)
A91, A94, A95, A96, A97, A98 = (0.6241109587160757, -3.3608926294469414, -0.868219346841726,
                                27.59209969944671, 20.154067550477894, -43.48988418106996)
A101, A104, A105, A106, A107, A108, A109 = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627)
A111, A114, A115, A116, A117, A118, A119, A1110 = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196)
A121, A124, A125, A126, A127, A128, A129, A1210, A1211 = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636)
B1, B6, B7, B8, B9, B10, B11, B12 = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
ER1, ER6, ER7, ER8, ER9, ER10, ER11, ER12 = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
BHH1, BHH2, BHH3 = 0.2440944881889764, 0.7338466882816118, 0.022058823529411766
# dop853.f's defaults, which scipy's ode keeps: safety factor, bounds 1/fac1
# and 1/fac2 on h/h_new (fac1 = 0.3, fac2 = 6), rounding unit
_SAFE, _FACC1, _FACC2, _UROUND = 0.9, 1.0 / 0.3, 1.0 / 6.0, 2.3e-16


# The DOP library's licence notice (scipy/integrate/LICENSE_DOP), reproduced
# because dop853 ports its algorithm and coefficients:
#
# Copyright (C) 2025 SciPy developers
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions are met:
#
#     a. Redistributions of source code must retain the above copyright notice,
#        this list of conditions and the following disclaimer.
#     b. Redistributions in binary form must reproduce the above copyright
#        notice, this list of conditions and the following disclaimer in the
#        documentation and/or other materials provided with the distribution.
#     c. Names of the SciPy Developers may not be used to endorse or promote
#        products derived from this software without specific prior written
#        permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS"
# AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE
# IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE
# ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT HOLDERS OR CONTRIBUTORS
# BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL, EXEMPLARY,
# OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF
# SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS
# INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN
# CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING NEGLIGENCE OR OTHERWISE)
# ARISING IN ANY WAY OUT OF THE USE OF THIS SOFTWARE, EVEN IF ADVISED OF
# THE POSSIBILITY OF SUCH DAMAGE.
#
# DOP library consisting Dormand-Prince (4)5 and 8(5,3) integrators, is a
# C translation of the Fortran code written by Ernst Hairer, and Gerhard
# Wanner with the original descriptions below.
#
#     NUMERICAL SOLUTION OF A SYSTEM OF FIRST 0RDER
#     ORDINARY DIFFERENTIAL EQUATIONS  Y'=F(X,Y).
#     THIS IS AN EXPLICIT RUNGE-KUTTA METHOD OF ORDER 8(5,3)
#     DUE TO DORMAND & PRINCE (WITH STEPSIZE CONTROL AND
#     DENSE OUTPUT)
#
#     AUTHORS: E. HAIRER AND G. WANNER
#              UNIVERSITE DE GENEVE, DEPT. DE MATHEMATIQUES
#              CH-1211 GENEVE 24, SWITZERLAND
#              E-MAIL:  Ernst.Hairer@math.unige.ch
#                       Gerhard.Wanner@math.unige.ch
#
#     THIS CODE IS DESCRIBED IN:
#         E. HAIRER, S.P. NORSETT AND G. WANNER, SOLVING ORDINARY
#         DIFFERENTIAL EQUATIONS I. NONSTIFF PROBLEMS. 2ND EDITION.
#         SPRINGER SERIES IN COMPUTATIONAL MATHEMATICS,
#         SPRINGER-VERLAG (1993)
#
#     VERSION OF APRIL 25, 1996
#     (latest correction of a small bug: August 8, 2005)


def dop853(rhs, t: float, y: float, dy: float, t_end: float, stop, rtol: float,
           atol: float, max_steps: int):
    """Integrate y'' = rhs(t, y, y') from t toward t_end by DOP853.

    Dormand and Prince's Runge-Kutta method of order 8(5,3) with Hairer's
    step control (Hairer, Norsett & Wanner, Solving Ordinary Differential
    Equations I, 2nd ed., 1993, Sec. II.10; licence notice above) as
    scipy's ode("dop853") runs it on the first-order system (y, y')' =
    (y', rhs): safety 0.9, 0.3 <= h_new/h <= 6, h_max = |t_end - t|, HINIT's
    first step, h * 0.3 after a rejected step.  rhs maps floats to the float
    y''.  A stage's slope of y is its y' argument, so each stage makes one
    call of rhs and builds no tuple; the arithmetic is that of the
    first-order system, operation for operation.  A stage that raises
    OverflowError rejects the step.  Records the start and every accepted
    step and stops once stop(t, y) holds at one.  Returns the records' t, y, y'
    as arrays and DOP853's code: 1 at t_end, 2 at a stop, -2 after
    max_steps + 1 step attempts, -3 once the step size underflows.  No
    stiffness test, no dense output.
    """
    # numpy scalars would make every stage's arithmetic several times slower
    t, y, dy, t_end, rtol, atol = map(float, (t, y, dy, t_end, rtol, atol))
    steps = [(t, y, dy)]
    direction = math.copysign(1.0, t_end - t)
    h_max = abs(t_end - t)
    k1d = rhs(t, y, dy)
    h = _initial_step(rhs, t, y, dy, k1d, direction, h_max, rtol, atol)
    code, n_steps, reject, last = (2 if stop(t, y) else 0), 0, False, False
    while not code:
        if n_steps > max_steps or 0.1 * abs(h) <= abs(t) * _UROUND:
            code = -2 if n_steps > max_steps else -3
            break
        if (t + 1.01 * h - t_end) * direction > 0.0:
            h, last = t_end - t, True
        n_steps += 1
        try:
            err, y_new, dy_new = _step(rhs, t, y, dy, k1d, h, rtol, atol)
            if err <= 1.0:
                k_new = rhs(t + h, y_new, dy_new)
        except OverflowError:
            err = math.inf
        if err <= 1.0:
            h_new = h / max(_FACC2, min(_FACC1, err ** 0.125 / _SAFE))
            t, y, dy, k1d = t + h, y_new, dy_new, k_new
            steps.append((t, y, dy))
            code = 2 if stop(t, y) else 1 if last else 0
            if abs(h_new) > h_max:
                h_new = direction * h_max
            if reject:
                h_new = direction * min(abs(h_new), abs(h))
            reject = False
        else:
            # dop853.f takes h / min(1/fac1, err^(1/8) / safety) here;
            # scipy's DOP853 takes h * fac1 whatever the error
            h_new = h / _FACC1
            reject, last = True, False
        h = h_new
    t, y, dy = map(np.array, zip(*steps))
    return t, y, dy, code


def _step(rhs, t, y, dy, k1d, h, rtol, atol):
    """One DOP853 step of size h: dop853.f's weighted error and (y, y').
    Stage i's slope of y, kiy, is the y' it passes to rhs; k1y is y'."""
    k1y = dy
    k2y = dy + h * A21 * k1d
    k2d = rhs(t + C2 * h, y + h * A21 * k1y, k2y)
    k3y = dy + h * (A31 * k1d + A32 * k2d)
    k3d = rhs(t + C3 * h, y + h * (A31 * k1y + A32 * k2y), k3y)
    k4y = dy + h * (A41 * k1d + A43 * k3d)
    k4d = rhs(t + C4 * h, y + h * (A41 * k1y + A43 * k3y), k4y)
    k5y = dy + h * (A51 * k1d + A53 * k3d + A54 * k4d)
    k5d = rhs(t + C5 * h, y + h * (A51 * k1y + A53 * k3y + A54 * k4y), k5y)
    k6y = dy + h * (A61 * k1d + A64 * k4d + A65 * k5d)
    k6d = rhs(t + C6 * h, y + h * (A61 * k1y + A64 * k4y + A65 * k5y), k6y)
    k7y = dy + h * (A71 * k1d + A74 * k4d + A75 * k5d + A76 * k6d)
    k7d = rhs(t + C7 * h, y + h * (A71 * k1y + A74 * k4y + A75 * k5y + A76 * k6y), k7y)
    k8y = dy + h * (A81 * k1d + A84 * k4d + A85 * k5d + A86 * k6d + A87 * k7d)
    k8d = rhs(t + C8 * h, y + h * (A81 * k1y + A84 * k4y + A85 * k5y + A86 * k6y
                                   + A87 * k7y), k8y)
    k9y = dy + h * (A91 * k1d + A94 * k4d + A95 * k5d + A96 * k6d + A97 * k7d + A98 * k8d)
    k9d = rhs(t + C9 * h, y + h * (A91 * k1y + A94 * k4y + A95 * k5y + A96 * k6y
                                   + A97 * k7y + A98 * k8y), k9y)
    k10y = dy + h * (A101 * k1d + A104 * k4d + A105 * k5d + A106 * k6d + A107 * k7d
                     + A108 * k8d + A109 * k9d)
    k10d = rhs(t + C10 * h, y + h * (A101 * k1y + A104 * k4y + A105 * k5y + A106 * k6y
                                     + A107 * k7y + A108 * k8y + A109 * k9y), k10y)
    k11y = dy + h * (A111 * k1d + A114 * k4d + A115 * k5d + A116 * k6d + A117 * k7d
                     + A118 * k8d + A119 * k9d + A1110 * k10d)
    k11d = rhs(t + C11 * h, y + h * (A111 * k1y + A114 * k4y + A115 * k5y + A116 * k6y
                                     + A117 * k7y + A118 * k8y + A119 * k9y
                                     + A1110 * k10y), k11y)
    k12y = dy + h * (A121 * k1d + A124 * k4d + A125 * k5d + A126 * k6d + A127 * k7d
                     + A128 * k8d + A129 * k9d + A1210 * k10d + A1211 * k11d)
    k12d = rhs(t + h, y + h * (A121 * k1y + A124 * k4y + A125 * k5y + A126 * k6y
                               + A127 * k7y + A128 * k8y + A129 * k9y + A1210 * k10y
                               + A1211 * k11y), k12y)
    sum_y = (B1 * k1y + B6 * k6y + B7 * k7y + B8 * k8y + B9 * k9y + B10 * k10y + B11 * k11y
             + B12 * k12y)
    sum_d = (B1 * k1d + B6 * k6d + B7 * k7d + B8 * k8d + B9 * k9d + B10 * k10d + B11 * k11d
             + B12 * k12d)
    y_new, dy_new = y + h * sum_y, dy + h * sum_d
    sk_y = atol + rtol * max(abs(y), abs(y_new))
    sk_d = atol + rtol * max(abs(dy), abs(dy_new))
    e3_y = (sum_y - BHH1 * k1y - BHH2 * k9y - BHH3 * k12y) / sk_y
    e3_d = (sum_d - BHH1 * k1d - BHH2 * k9d - BHH3 * k12d) / sk_d
    e5_y = (ER1 * k1y + ER6 * k6y + ER7 * k7y + ER8 * k8y + ER9 * k9y + ER10 * k10y
            + ER11 * k11y + ER12 * k12y) / sk_y
    e5_d = (ER1 * k1d + ER6 * k6d + ER7 * k7d + ER8 * k8d + ER9 * k9d + ER10 * k10d
            + ER11 * k11d + ER12 * k12d) / sk_d
    err = e5_y * e5_y + e5_d * e5_d
    deno = err + 0.01 * (e3_y * e3_y + e3_d * e3_d)
    return abs(h) * err * math.sqrt(1.0 / (2.0 * (deno if deno > 0.0 else 1.0))), y_new, dy_new


def _initial_step(rhs, t, y, dy, kd, direction, h_max, rtol, atol) -> float:
    """dop853.f's HINIT: h^8 max(|f|, |f'|) = 0.01 in the weighted norm,
    at most 100 times an Euler step of relative size 0.01, and h_max.  The
    slope of y is y' itself, ky = dy."""
    sk_y, sk_d = atol + rtol * abs(y), atol + rtol * abs(dy)
    dnf = (dy / sk_y) ** 2 + (kd / sk_d) ** 2
    dny = (y / sk_y) ** 2 + (dy / sk_d) ** 2
    h = 1e-6 if dnf <= 1e-10 or dny <= 1e-10 else math.sqrt(dny / dnf) * 0.01
    h = math.copysign(min(h, h_max), direction)
    gy = dy + h * kd
    gd = rhs(t + h, y + h * dy, gy)
    der2 = math.sqrt(((gy - dy) / sk_y) ** 2 + ((gd - kd) / sk_d) ** 2) / h
    der12 = max(abs(der2), math.sqrt(dnf))
    h1 = max(1e-6, abs(h) * 1e-3) if der12 <= 1e-15 else (0.01 / der12) ** 0.125
    return math.copysign(min(100.0 * abs(h), h1, h_max), direction)


def brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """A zero of f between xa and xb by Brent's method (Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 4) as scipy's brentq
    runs it: the same calls of f, done once the bracket is at most
    xtol + rtol |x| wide.  ValueError where f has one sign at both ends,
    RuntimeError after maxiter steps, as from scipy."""
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        step = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:                       # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                                  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                step = stry
        spre, scur = (scur, step) if step is not None else (sbis, sbis)
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur!r}")


class PiecewisePolynomial:
    """A piecewise polynomial of degree K on increasing breaks x, evaluated
    as scipy's PPoly (power basis, derivatives nu >= 0) or BPoly (Bernstein,
    values): on [x_i, x_{i+1}], s = x - x_i, t = s / (x_{i+1} - x_i), it is
    sum_j c[j, i] s^{K-j} or sum_j c[j, i] C(K, j) t^j (1-t)^{K-j}.  The end
    pieces extrapolate.  The shot's septic needs the Bernstein form: in the
    power basis its steps lose up to 5e-6 relative to cancellation."""

    def __init__(self, c, x, bernstein: bool = False):
        self.c, self.x, self.bernstein = np.asarray(c, float), np.asarray(x, float), bernstein

    def __call__(self, xp, nu: int = 0):
        xp = np.asarray(xp, dtype=float)
        i = np.clip(np.searchsorted(self.x, xp, side="right") - 1, 0, self.x.size - 2)
        s, c = xp - self.x[i], self.c[:, i]
        order = c.shape[0] - 1
        res = np.zeros_like(s)
        if self.bernstein:
            if nu:
                raise ValueError("Bernstein pieces are evaluated without derivatives")
            s = s / (self.x[i + 1] - self.x[i])
            for j in range(order + 1):
                res = res + math.comb(order, j) * s ** j * (1.0 - s) ** (order - j) * c[j]
            return res
        z = 1.0
        for power in range(nu, order + 1):
            res = res + c[order - power] * z * float(math.perm(power, nu))
            z = z * s
        return res


# Where numpy's wheels keep their OpenBLAS (manylinux and Windows wheels in
# numpy.libs beside the package, macOS wheels in numpy/.dylibs), its file
# name, and its LAPACK routines, built with 64-bit integers and renamed
LAPACK_DIRS = (os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs"),
               os.path.join(os.path.dirname(np.__file__), ".dylibs"))
LAPACK_GLOB = "libscipy_openblas64_*"
LAPACK_SYMBOLS = ("scipy_dgttrf_64_", "scipy_dgttrs_64_")
_lapack_routines = None


def _lapack():
    """(dgttrf, dgttrs) of numpy's OpenBLAS, loaded on first use and kept.

    Raises LapackUnavailableError naming the directories and symbols it
    searched when no library there exports both routines."""
    global _lapack_routines
    if _lapack_routines is not None:
        return _lapack_routines
    int_p, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    for path in sorted(p for d in LAPACK_DIRS for p in glob.glob(os.path.join(d, LAPACK_GLOB))):
        try:
            lib = ctypes.CDLL(path)
            dgttrf, dgttrs = (getattr(lib, name) for name in LAPACK_SYMBOLS)
        except (OSError, AttributeError):
            continue
        # DGTTRF(N, DL, D, DU, DU2, IPIV, INFO)
        dgttrf.argtypes = [int_p, ptr, ptr, ptr, ptr, ptr, int_p]
        # DGTTRS(TRANS, N, NRHS, DL, D, DU, DU2, IPIV, B, LDB, INFO), then
        # the length of TRANS, which gfortran passes by value
        dgttrs.argtypes = [ctypes.c_char_p, int_p, int_p, ptr, ptr, ptr, ptr, ptr, ptr,
                           int_p, int_p, ctypes.c_size_t]
        dgttrf.restype = dgttrs.restype = None
        _lapack_routines = dgttrf, dgttrs
        return _lapack_routines
    raise LapackUnavailableError(
        f"no library {LAPACK_GLOB} exporting {' and '.join(LAPACK_SYMBOLS)} in "
        f"{', '.join(LAPACK_DIRS)}; the tridiagonal solver needs the OpenBLAS of "
        "numpy's wheel")


class TridiagonalLU:
    """dgttrf's factors of one tridiagonal matrix, ``factors`` = (dl, d, du,
    du2, ipiv), with ipiv's 1-based row indices as 64-bit integers.

    The addresses of the factors are taken once, here; each solve converts
    only its right-hand side.  Solves write nothing shared, so threads may
    solve with one factorization at the same time."""

    __slots__ = ("n", "info", "factors", "_n", "_addresses", "_dgttrs")

    def __init__(self, lower, diagonal, upper):
        dgttrf, self._dgttrs = _lapack()
        dl, d, du = (np.array(a, dtype=np.float64) for a in (lower, diagonal, upper))
        n = d.size
        if d.ndim != 1 or n < 1 or dl.shape != (n - 1,) or du.shape != (n - 1,):
            raise ValueError(f"tridiagonal bands of shapes {dl.shape}, {d.shape}, "
                             f"{du.shape}: need (n - 1,), (n,), (n - 1,) with n >= 1")
        self.n = n
        self.factors = (dl, d, du, np.empty(max(n - 2, 0)), np.empty(n, dtype=np.int64))
        self._n = ctypes.c_int64(n)
        self._addresses = tuple(a.ctypes.data for a in self.factors)
        info = ctypes.c_int64()
        dgttrf(self._n, *self._addresses, info)
        self.info = info.value


def tridiagonal_lu(lower, diagonal, upper):
    """LU factors of the tridiagonal matrix with the given sub-, main and
    super-diagonal (LAPACK dgttrf, partial pivoting, one band of fill), and
    dgttrf's info, nonzero where the matrix is singular.  The bands are
    copied, not overwritten."""
    lu = TridiagonalLU(lower, diagonal, upper)
    return lu, lu.info


def tridiagonal_solve(lu: TridiagonalLU, rhs) -> np.ndarray:
    """Solve with tridiagonal_lu's factors (dgttrs), rhs of n or n x m; the
    solution is a new array in Fortran order, as scipy's wrapper returns it."""
    b = np.array(rhs, dtype=np.float64, order="F")
    if b.ndim not in (1, 2) or b.shape[0] != lu.n:
        raise ValueError(f"right-hand side of shape {b.shape} for n = {lu.n}")
    nrhs = ctypes.c_int64(1 if b.ndim == 1 else b.shape[1])
    info = ctypes.c_int64()
    lu._dgttrs(b"N", lu._n, nrhs, *lu._addresses, b.ctypes.data, lu._n, info, 1)
    if info.value:
        raise ValueError(f"dgttrs rejected argument {-info.value}")
    return b


def not_a_knot_spline(x, y) -> PiecewisePolynomial:
    """The not-a-knot cubic spline through (x, y), at least 4 increasing x,
    as scipy's CubicSpline builds it: the knot slopes by tridiagonal_lu."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    diagonal = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
    b = np.empty(x.size)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    lu, info = tridiagonal_lu(np.append(dx[1:], d1), diagonal, np.append(d0, dx[:-1]))
    if info != 0:
        raise np.linalg.LinAlgError(f"singular spline system (dgttrf info {info})")
    s = tridiagonal_solve(lu, b)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return PiecewisePolynomial(np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])), x)
