"""Moment-constrained polynomial smoothing kernels for derivative estimation.

A kernel of order (L, j) on support [-1, rho], rho in (0, 1], is a
polynomial K satisfying

    integral_{-1}^{rho} t^l K(t) dt = (-1)^j j!   if l == j,   0 otherwise,

for l = 0 .. L-1, with K and K' vanishing at both endpoints so the
zero-extension is C^1. rho = 1 gives the interior kernel on [-1, 1]. Near
the left boundary of the data interval rho = (distance to boundary) /
bandwidth; right-boundary kernels are the reflections K~(t) = (-1)^j K(-t)
of the left ones.

Every support is the affine image t = c + h u of the reference interval
u in [-1, 1], with c = (rho - 1)/2 and h = (rho + 1)/2. There
K = (1 - u^2)^2 q(u), and the binomial theorem turns the targets into
moments in u,

    integral u^m K dt = C(m, j) (-c)^(m-j) h^(-m) (-1)^j j!  for m >= j,

and 0 for m < j. The Gram matrix G[m][i] = integral_{-1}^{1} u^(m+i)
(1 - u^2)^2 du does not depend on rho, so q = G^-1 mu / h with G^-1 built
once per L, exactly, from the orthogonal polynomials of the weight
(1 - u^2)^2. G is positive definite, so the solution of degree < L is
unique; without its trailing zeros it is the minimal-degree kernel. q is
mapped back to t and multiplied by the envelope (t + 1)^2 (rho - t)^2 in
integer arithmetic over one common denominator, and every moment
constraint is re-checked exactly in t before the kernel is returned.

The estimator's weight rows are these kernels corrected to the design
(``smoother``): the same envelope times a polynomial of degree below L,
with the moment conditions met exactly on the observations rather than
as integrals. The kernels stay the rows' continuous limit, and give the
norm ||K_j|| of the selection's threshold, the exact coefficients and
the kernel commands of the command line.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "SmoothingKernel",
    "make_kernel",
    "make_boundary_kernel",
    "eval_kernel",
]

_RHO_DECIMALS = 6


@dataclass(frozen=True)
class SmoothingKernel:
    """Polynomial kernel of order (L, j) on a fixed support interval.

    coeffs are ascending powers of t and define the kernel inside the open
    support; the kernel is zero outside and at the endpoints. norm2 is the
    exact integral of K^2 over the support, converted to float.

    coeffs_exact carries the same polynomial in exact rational arithmetic:
    the moment system is solved once per L on the reference interval
    [-1, 1] and carried to the support by an exact affine map (see the
    module docstring), and coeffs are its correctly rounded floats. For the
    most ill-conditioned boundary kernels (small rho, high j) the float64
    monomial coefficients alone cannot represent the solution to the full
    constraint accuracy, so exact verification must go through
    coeffs_exact.
    """

    L: int
    j: int
    support: tuple[float, float]
    coeffs: tuple[float, ...]
    norm2: float
    coeffs_exact: tuple[Fraction, ...] = field(repr=False, default=())
    support_exact: tuple[Fraction, Fraction] = field(repr=False, default=())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t):
        return eval_kernel(self, t)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for k, bk in enumerate(b):
            out[i + k] += ai * bk
    return out


def _weight_moment(e: int, k: int) -> Fraction:
    """integral_{-1}^{1} u^k (1 - u^2)^e du, exactly."""
    if k % 2:
        return Fraction(0)
    return sum(
        Fraction(2 * math.comb(e, r) * (-1) ** r, k + 2 * r + 1) for r in range(e + 1)
    )


def _common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of Fractions."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


@functools.lru_cache(maxsize=None)
def _orthogonal_polys(L: int) -> tuple[list, list]:
    """The monic orthogonal polynomials p_0 .. p_{L-1} of the weight
    (1 - u^2)^2 on [-1, 1] (ascending Fraction coefficients) and their
    squared norms <p_k, p_k>, from the three-term recurrence p_k = u p_{k-1}
    - beta_k p_{k-2}, which needs no elimination (the weight is even, so
    there is no linear term)."""
    g = [_weight_moment(2, k) for k in range(2 * L - 1)]

    def inner(p, r):
        return sum(pa * rb * g[x + y] for x, pa in enumerate(p) for y, rb in enumerate(r))

    polys = [[Fraction(1)]]
    norms = [inner(polys[0], polys[0])]
    for k in range(1, L):
        p = [Fraction(0)] + polys[-1]
        if k >= 2:
            beta = norms[-1] / norms[-2]
            for i, c in enumerate(polys[-2]):
                p[i] -= beta * c
        polys.append(p)
        norms.append(inner(p, p))
    return polys, norms


@functools.lru_cache(maxsize=None)
def _reference_solve(L: int):
    """Exact per-L data of the reference interval [-1, 1].

    Returns (N, D, Hn, DH): G^-1 = N / D for the envelope Gram matrix
    G[m][i] = integral u^(m+i) (1 - u^2)^2 du, m, i < L, and Hn[k] / DH =
    integral u^k (1 - u^2)^4 du for k <= 2L - 2, the Gram entries of norm2.
    G^-1 is the sum of p_k p_k^T / <p_k, p_k> over ``_orthogonal_polys``.
    """
    polys, norms = _orthogonal_polys(L)
    ginv = [
        sum(p[m] * p[i] / nk for p, nk in zip(polys, norms) if max(m, i) < len(p))
        for m in range(L)
        for i in range(L)
    ]
    flat, D = _common_denominator(ginv)
    N = tuple(tuple(flat[m * L : (m + 1) * L]) for m in range(L))
    Hn, DH = _common_denominator([_weight_moment(4, k) for k in range(2 * L - 1)])
    return N, D, tuple(Hn), DH


def _check_moments(num: list[int], den: int, a: int, b: int, L: int, j: int) -> None:
    """Re-check every moment constraint of K = sum_k num[k] t^k / den exactly.

    The support is [-1, a/b]. Moment l is sum_k num[k] (a^n - (-b)^n) /
    (n b^n den) with n = k + l + 1; scaled by lcm(1..top) b^top den it is an
    integer sum, compared with the scaled target without any Fraction.
    """
    top = len(num) + L - 1
    M = math.lcm(*range(1, top + 1))
    w = [0] + [(a**n - (-b) ** n) * b ** (top - n) * (M // n) for n in range(1, top + 1)]
    target = (-1) ** j * math.factorial(j) * M * b**top * den
    for l in range(L):
        got = sum(c * w[k + l + 1] for k, c in enumerate(num))
        if got != (target if l == j else 0):
            raise ArithmeticError(  # pragma: no cover
                f"kernel ({L}, {j}) on [-1, {a}/{b}] misses moment {l}"
            )


@functools.lru_cache(maxsize=None)
def _build_kernel(L: int, j: int, rho_num: int, rho_den: int) -> SmoothingKernel:
    lo = Fraction(-1)
    hi = Fraction(rho_num, rho_den)
    a, b = hi.numerator, hi.denominator
    # t = c + h u with c = -w / (2b), h = s / (2b): u = (2b t + w) / s
    s, w, b2 = a + b, b - a, 2 * b
    N, D, Hn, DH = _reference_solve(L)
    # the u-moments mu_m = C(m, j) (-c)^(m-j) h^-m (-1)^j j! are
    # (-1)^j j! b2^j nu_m / s^(L-1), so q = G^-1 mu / h = F * (N nu) with
    # F = (-1)^j j! b2^(j+1) / (D s^L)
    nu = [math.comb(m, j) * w ** (m - j) * s ** (L - 1 - m) if m >= j else 0
          for m in range(L)]
    Q = [sum(x * y for x, y in zip(row, nu)) for row in N]
    while Q[-1] == 0:  # the minimal-degree solution: drop exact trailing zeros
        Q.pop()
    d = len(Q) - 1
    # s^d q(u) / F in t: sum_i Q_i s^(d-i) (b2 t + w)^i
    P = [0] * (d + 1)
    lin = [1]
    for i, qi in enumerate(Q):
        if i:
            lin = _poly_mul(lin, [w, b2])
        scale = qi * s ** (d - i)
        for k, c in enumerate(lin):
            P[k] += scale * c
    # (1 - u^2)^2 = 16 b^2 (1 + t)^2 (a - b t)^2 / s^4
    env = _poly_mul([1, 2, 1], _poly_mul([a, -b], [a, -b]))
    sigma_j = (-1) ** j * math.factorial(j)
    lead = 16 * b * b * sigma_j * b2 ** (j + 1)
    num = [lead * c for c in _poly_mul(env, P)]
    den = D * s ** (L + d + 4)
    _check_moments(num, den, a, b, L, j)
    kc = tuple(Fraction(c, den) for c in num)
    # norm2 = h q^T H q = b2^(2j+1) sigma_j^2 sum_n (Q * Q)_n Hn_n / (D^2 DH s^(2L-1))
    quad = sum(c * Hn[n] for n, c in enumerate(_poly_mul(Q, Q)))
    norm2 = Fraction(b2 ** (2 * j + 1) * sigma_j**2 * quad, D * D * DH * s ** (2 * L - 1))
    return SmoothingKernel(
        L=L,
        j=j,
        support=(float(lo), float(hi)),
        coeffs=tuple(float(c) for c in kc),
        norm2=float(norm2),
        coeffs_exact=kc,
        support_exact=(lo, hi),
    )


def make_kernel(L: int, j: int) -> SmoothingKernel:
    """Interior kernel of order (L, j) on [-1, 1]."""
    return make_boundary_kernel(L, j, 1.0)


def make_boundary_kernel(L: int, j: int, rho: float) -> SmoothingKernel:
    """Left-boundary kernel of order (L, j) on [-1, rho], rho in (0, 1].

    rho = 1 reproduces the interior kernel. Results are memoized with rho
    rounded to 1e-6; a rho that rounds to 0 is rejected.
    """
    if not isinstance(L, (int, np.integer)) or not isinstance(j, (int, np.integer)):
        raise TypeError("L and j must be integers")
    if not 0 <= j < L:
        raise ValueError(f"need 0 <= j < L, got (L, j) = ({L}, {j})")
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    rho_num = round(rho * 10**_RHO_DECIMALS)
    if rho_num == 0:
        raise ValueError(f"rho = {rho} rounds to 0 at 1e-{_RHO_DECIMALS}")
    return _build_kernel(int(L), int(j), rho_num, 10**_RHO_DECIMALS)


def eval_kernel(k: SmoothingKernel, t):
    """Evaluate the kernel; exactly zero outside the open support."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    lo, hi = k.support
    inside = (arr > lo) & (arr < hi)
    out = np.zeros_like(arr)
    if np.any(inside):
        out[inside] = np.polynomial.polynomial.polyval(
            arr[inside], np.asarray(k.coeffs)
        )
    return float(out[0]) if scalar else out
