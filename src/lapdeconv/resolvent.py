"""Laplace-domain rational algebra for explicit deconvolution.

Given a convolution kernel with rational transform g~(s) = num(s)/den(s),
the observed curve q = g * f satisfies an explicit inversion formula

    f(t) = B_r^{-1} ( q^{(r)}(t) - sum_j b_j q^{(r-1-j)}(t)
                      - int_0^t q(t-x) phi1^{(r)}(x) dx )

where r = deg(den) - deg(num), B_r is the ratio of leading coefficients,
and the constants b_j and the exponential-polynomial kernel phi1 come from
the partial-fraction decomposition of

    phi~(s) = (s^r g~(s) - B_r) / (s^r g~(s)).

This module computes that decomposition. All arithmetic is complex; user
facing outputs (a0, b, phi1 values) are real with an asserted tolerance on
the imaginary residue. Polynomials in scope have degree <~ 10, so
companion-matrix root finding with one Newton polish step is adequate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Polynomial",
    "RationalLaplaceKernel",
    "PoleTerm",
    "ResolventDecomposition",
    "rational_kernel",
    "phi_tilde",
    "decompose",
    "exp_poly_kernel",
    "pole_multiset",
    "partial_fraction_terms",
    "polished_roots",
]

_TRIM_REL = 1e-12
_CLUSTER_RADIUS = 1e-6
_COPRIME_TOL = 1e-8
_REALNESS_TOL = 1e-8


def _assert_real(values, label: str) -> np.ndarray:
    """Real part of complex values, the one realness test of this module.

    ValueError when the largest imaginary part exceeds ``_REALNESS_TOL``
    times max(1, largest modulus).
    """
    values = np.asarray(values, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(values))))
    resid = float(np.max(np.abs(values.imag)))
    if resid > _REALNESS_TOL * scale:
        raise ValueError(
            f"{label} has imaginary residue {resid:.3e} beyond tolerance; "
            "the input transform is not real"
        )
    return values.real.copy()


def _trim(c: np.ndarray, tol) -> np.ndarray:
    """c without its trailing coefficients of magnitude at most tol (a
    scalar or one bound per coefficient); [0] when none is left."""
    keep = np.nonzero(np.abs(c) > tol)[0]
    return c[: keep[-1] + 1] if keep.size else np.zeros(1, dtype=complex)


class Polynomial:
    """Dense polynomial with ascending complex coefficients.

    Construction drops trailing exact zeros, so degree == len(coeffs) - 1
    is meaningful however stiff the coefficients are; a sum or difference
    also drops each trailing coefficient that cancels to at most 1e-12 of
    the larger of the two operand coefficients it was summed from.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        self.coeffs = _trim(c, 0.0)

    @classmethod
    def from_roots(cls, roots) -> "Polynomial":
        c = np.array([1.0 + 0.0j])
        for z in np.atleast_1d(np.asarray(roots, dtype=complex)):
            c = np.convolve(c, np.array([-z, 1.0 + 0.0j]))
        return cls(c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0.0

    def __call__(self, s):
        return np.polynomial.polynomial.polyval(s, self.coeffs)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0.0])
        return Polynomial(self.coeffs[1:] * np.arange(1, self.coeffs.size))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        return Polynomial(self.coeffs * other)

    __rmul__ = __mul__

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(self.coeffs.size, other.coeffs.size)
        a = np.zeros(n, dtype=complex)
        b = np.zeros(n, dtype=complex)
        a[: self.coeffs.size] = self.coeffs
        b[: other.coeffs.size] = other.coeffs
        return Polynomial(_trim(a + b, _TRIM_REL * np.maximum(abs(a), abs(b))))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (other * (-1.0))

    def shifted(self, s0: complex) -> "Polynomial":
        """Coefficients of p(u + s0) as a polynomial in u (Taylor shift)."""
        desc = self.coeffs[::-1].copy()
        n = desc.size
        out = np.empty(n, dtype=complex)
        for k in range(n):
            # synthetic division of desc by (s - s0); remainder is the
            # k-th Taylor coefficient at s0
            for i in range(1, desc.size):
                desc[i] += s0 * desc[i - 1]
            out[k] = desc[-1]
            desc = desc[:-1]
        return Polynomial(out)

    def real_coeffs(self) -> np.ndarray:
        return _assert_real(self.coeffs, "polynomial")

    def __repr__(self) -> str:  # pragma: no cover
        return f"Polynomial({np.array2string(self.coeffs, precision=6)})"


def polished_roots(p: Polynomial) -> np.ndarray:
    """Roots via the companion matrix, then one Newton polish step each."""
    if p.degree == 0:
        return np.array([], dtype=complex)
    r = np.roots(p.coeffs[::-1])
    dp = p.derivative()
    val = np.atleast_1d(p(r))
    der = np.atleast_1d(dp(r))
    ok = np.abs(der) > 0
    r = np.array(r, dtype=complex)
    r[ok] -= val[ok] / der[ok]
    return r


def _single_linkage(roots: np.ndarray, radius: float) -> list[list[complex]]:
    """Single-linkage clustering of complex points at the given radius."""
    pts = list(roots)
    k = len(pts)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for m in range(i + 1, k):
            if abs(pts[i] - pts[m]) <= radius:
                parent[find(i)] = find(m)
    groups: dict[int, list[complex]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(pts[i])
    ordered = sorted(
        groups.values(),
        key=lambda g: (min(z.real for z in g), min(z.imag for z in g)),
    )
    return ordered


def _verified_cluster(p: Polynomial, members: list[complex], radius: float, out: list):
    """Accept a candidate multiplicity-m cluster or split it recursively.

    An m-fold root of p is a simple root of the (m-1)-th derivative, so the
    cluster center is refined by ordinary Newton on that derivative; unlike
    Newton on p itself this is not limited by the eps^(1/m) noise floor of
    evaluating p near a multiple root. The candidate is accepted when all
    Taylor coefficients of p below order m vanish at noise level there.
    Genuinely separate roots accidentally linked by the generous radius
    fail that test and are re-clustered at a tighter radius.
    """
    m = len(members)
    c = sum(members) / m
    if m == 1:
        out.append((c, 1, 0.0))
        return
    low_der = p
    for _ in range(m - 1):
        low_der = low_der.derivative()
    next_der = low_der.derivative()
    for _ in range(40):
        der = next_der(c)
        if abs(der) == 0.0:
            break
        step = low_der(c) / der
        c -= step
        if abs(step) <= 1e-15 * max(1.0, abs(c)):
            break
    taylor = p.shifted(c).coeffs
    top = float(np.max(np.abs(taylor)))
    low = float(np.max(np.abs(taylor[:m]))) if m <= taylor.size else 0.0
    if low <= 1e-7 * top:
        out.append((c, m, low / top if top > 0.0 else 0.0))
        return
    for sub in _single_linkage(np.asarray(members), radius / 16.0):
        _verified_cluster(p, sub, radius / 16.0, out)


def pole_multiset(p: Polynomial, warn: bool = True) -> list[tuple[complex, int]]:
    """Roots of p grouped into (center, multiplicity) pairs.

    Companion-matrix estimates of an m-fold root scatter like eps^(1/m),
    so clustering starts from a radius generous enough for the highest
    multiplicity the degree allows and each candidate group is verified
    against the polynomial itself before being accepted.
    """
    roots = polished_roots(p)
    if roots.size == 0:
        return []
    deg = p.degree
    scale = max(1.0, float(np.max(np.abs(roots))))
    eps = float(np.finfo(float).eps)
    radius = scale * max(_CLUSTER_RADIUS, 8.0 * eps ** (1.0 / deg))
    out: list[tuple[complex, int, float]] = []
    for grp in _single_linkage(roots, radius):
        _verified_cluster(p, grp, radius, out)
    if warn and any(mult > 1 and quality > 1e-11 for _, mult, quality in out):
        warnings.warn(
            "nearby roots merged into a higher-multiplicity pole",
            RuntimeWarning,
            stacklevel=3,
        )
    out.sort(key=lambda t: (round(t[0].real, 9), round(t[0].imag, 9)))
    return [(c, mult) for c, mult, _ in out]


def _series_div(num: np.ndarray, den: np.ndarray, order: int) -> np.ndarray:
    """First `order` Taylor coefficients of num/den around 0; den[0] != 0."""
    if abs(den[0]) == 0.0:
        raise ZeroDivisionError("series division by a series with zero constant term")
    out = np.zeros(order, dtype=complex)
    for m in range(order):
        acc = num[m] if m < num.size else 0.0
        top = min(m, den.size - 1)
        for k in range(1, top + 1):
            acc -= den[k] * out[m - k]
        out[m] = acc / den[0]
    return out


def partial_fraction_terms(num: Polynomial, poles) -> list[tuple[complex, np.ndarray]]:
    """Partial fractions of num(s) / prod_l (s - s_l)^{alpha_l}.

    poles is a list of (s_l, alpha_l) with distinct centers; the numerator
    degree must be smaller than sum(alpha_l). Returns, per pole, the
    coefficient list c with

        F(s) = sum_l sum_i c[l][i] / (s - s_l)^(i+1).
    """
    total = sum(alpha for _, alpha in poles)
    if num.degree >= total and not num.is_zero:
        raise ValueError("partial fractions require a proper rational function")
    out = []
    for idx, (s_l, alpha) in enumerate(poles):
        rest = Polynomial([1.0])
        for k, (s_m, alpha_m) in enumerate(poles):
            if k == idx:
                continue
            rest = rest * Polynomial.from_roots([s_m] * alpha_m)
        nt = num.shifted(s_l).coeffs
        dt = rest.shifted(s_l).coeffs
        taylor = _series_div(nt, dt, alpha)
        out.append((s_l, taylor[::-1].copy()))
    return out


@dataclass(frozen=True)
class RationalLaplaceKernel:
    """Convolution kernel described by its rational Laplace transform.

    stable is True when every zero of the numerator has negative real part,
    so that the resolvent kernel phi decays; a zero with real part 0 (phi
    does not decay) or positive real part (phi grows exponentially) makes
    it False (``rational_kernel``).
    """

    num: Polynomial
    den: Polynomial
    r: int
    B_r: float
    description: str = ""
    stable: bool = True

    def transform(self, s):
        """Evaluate g~(s) = num(s)/den(s)."""
        return self.num(s) / self.den(s)


def rational_kernel(num, den, description: str = "") -> RationalLaplaceKernel:
    """Validate and package a rational transform num(s)/den(s).

    Requires r = deg(den) - deg(num) >= 1 (the kernel must vanish to order
    r - 1 at zero with a nonzero r-th derivative there, which is what makes
    the inversion formula explicit). A zero of the numerator with positive
    real part makes the resolvent kernel phi grow exponentially, and one
    with real part 0 keeps it from decaying: a zero at 0 gives phi a
    polynomial part, a pair on the imaginary axis an undamped oscillation.
    Either is recorded in the stability flag and warned about, not rejected;
    the warning names the worse of the two.
    """
    pnum = num if isinstance(num, Polynomial) else Polynomial(num)
    pden = den if isinstance(den, Polynomial) else Polynomial(den)
    if pnum.is_zero:
        raise ValueError("numerator must be nonzero")
    if pden.is_zero:
        raise ValueError("denominator must be nonzero")
    r = pden.degree - pnum.degree
    if r < 1:
        raise ValueError(
            f"deg(den) - deg(num) = {r}; the transform must be strictly proper "
            "(r >= 1) for the inversion formula to exist"
        )
    b_r = float(_assert_real(pnum.coeffs[-1] / pden.coeffs[-1],
                             "leading-coefficient ratio B_r"))
    nroots = polished_roots(pnum)
    droots = polished_roots(pden)
    scale = max(
        1.0,
        max((abs(z) for z in nroots), default=0.0),
        max((abs(z) for z in droots), default=0.0),
    )
    for zn in nroots:
        if droots.size and np.min(np.abs(droots - zn)) < _COPRIME_TOL * scale:
            raise ValueError(
                "numerator and denominator share a root (within 1e-8); "
                "reduce the fraction first"
            )
    stable = bool(np.all(nroots.real < 0.0))
    if np.any(nroots.real > 0.0):
        warnings.warn(
            "numerator has zeros with positive real part: the resolvent "
            "kernel phi grows exponentially and the inversion is numerically "
            "unstable at large t",
            RuntimeWarning,
            stacklevel=2,
        )
    elif not stable:
        warnings.warn(
            "numerator has zeros with real part 0: the resolvent kernel phi "
            "does not decay at large t (a polynomial part for a zero at 0, an "
            "undamped oscillation for a pair on the imaginary axis)",
            RuntimeWarning,
            stacklevel=2,
        )
    return RationalLaplaceKernel(
        num=pnum,
        den=pden,
        r=r,
        B_r=b_r,
        description=description,
        stable=stable,
    )


def phi_tilde(g: RationalLaplaceKernel) -> tuple[Polynomial, Polynomial]:
    """The transform phi~(s) = (s^r g~(s) - B_r) / (s^r g~(s)) as num, den.

    Returned as polynomials (s^r num - B_r den, s^r num) with any common
    factor at s = 0 cancelled (one is guaranteed whenever den(0) = 0).
    The result is strictly proper or identically zero.
    """
    shifted_num = Polynomial(
        np.concatenate([np.zeros(g.r, dtype=complex), g.num.coeffs])
    )
    n = shifted_num - Polynomial(g.den.coeffs * g.B_r)
    d = shifted_num
    if n.is_zero:
        return n, d
    # cancel common powers of s
    nscale = float(np.max(np.abs(n.coeffs)))
    while (
        d.coeffs.size > 1
        and abs(d.coeffs[0]) == 0.0
        and abs(n.coeffs[0]) <= _TRIM_REL * nscale
    ):
        n = Polynomial(n.coeffs[1:]) if n.coeffs.size > 1 else Polynomial([0.0])
        d = Polynomial(d.coeffs[1:])
        if n.is_zero:
            break
    return n, d


@dataclass(frozen=True)
class PoleTerm:
    """One pole s_l of phi~ with its coefficients: a pole away from the
    origin, or the origin itself when g~(0) = 0 raises its order above r,
    with a[i] = 0 for i < r (those coefficients are a0).

    a[i] multiplies x^i e^{s_l x} / i! in phi1; equivalently it is the
    coefficient of (s - s_l)^{-(i+1)} in the partial fraction expansion.
    """

    s: complex
    alpha: int
    a: tuple[complex, ...]


@dataclass(frozen=True)
class ResolventDecomposition:
    """Partial-fraction data of phi~ plus the derived inversion constants.

    a0[j] is the coefficient of t^j/j! in the polynomial part of phi;
    b[j] multiplies q^{(r-1-j)} in the inversion formula; poles carry
    phi1, the rest of phi: its exponential part and, when g~(0) = 0, the
    terms t^j/j! with j >= r of the pole at the origin.
    """

    a0: np.ndarray
    poles: tuple[PoleTerm, ...]
    b: np.ndarray
    r: int
    B_r: float

    @property
    def has_phi1(self) -> bool:
        return len(self.poles) > 0


def _pole_sort_key(term: PoleTerm):
    return (round(term.s.real, 9), round(abs(term.s.imag), 9), -term.s.imag)


def _symmetrize_conjugates(terms: list[PoleTerm], radius: float) -> list[PoleTerm]:
    """Enforce exact conjugate pairing of complex poles."""
    out: list[PoleTerm] = []
    used = [False] * len(terms)
    for i, t in enumerate(terms):
        if used[i]:
            continue
        if abs(t.s.imag) <= radius:
            s_real = complex(t.s.real, 0.0)
            out.append(PoleTerm(s_real, t.alpha, t.a))
            used[i] = True
            continue
        partner = None
        for k in range(i + 1, len(terms)):
            if used[k]:
                continue
            if (
                terms[k].alpha == t.alpha
                and abs(terms[k].s - t.s.conjugate()) <= 2 * radius
            ):
                partner = k
                break
        if partner is None:
            raise ValueError(
                "complex pole without a conjugate partner; the input "
                "transform does not have real coefficients"
            )
        used[i] = used[partner] = True
        p = terms[partner]
        s_sym = (t.s + p.s.conjugate()) / 2.0
        a_sym = tuple(
            (ai + pi.conjugate()) / 2.0 for ai, pi in zip(t.a, p.a)
        )
        out.append(PoleTerm(s_sym, t.alpha, a_sym))
        out.append(
            PoleTerm(s_sym.conjugate(), t.alpha, tuple(ai.conjugate() for ai in a_sym))
        )
    out.sort(key=_pole_sort_key)
    return out


def decompose(g: RationalLaplaceKernel) -> ResolventDecomposition:
    """Full pole decomposition of phi~ and the inversion constants b_j.

    The pole at the origin (order r, reduced when den(0) = 0 cancels part
    of it) yields a0, and its coefficients of index >= r, present when a
    zero of g~ at 0 raises its order above r, a PoleTerm at 0; every other
    zero s_l of the numerator of g~ contributes an exponential term. b_j
    combines both:

        b_j = a0[j] + sum_l sum_{i <= min(j, alpha_l - 1)}
              C(j, i) a_{l,i} s_l^{j - i}.
    """
    n, d = phi_tilde(g)
    r = g.r
    if n.is_zero:
        return ResolventDecomposition(
            a0=np.zeros(r),
            poles=(),
            b=np.zeros(r),
            r=r,
            B_r=g.B_r,
        )
    # structural pole order at the origin after cancellation
    r0 = 0
    while r0 < d.coeffs.size and abs(d.coeffs[r0]) == 0.0:
        r0 += 1
    num_part = Polynomial(d.coeffs[r0:])

    clustered = pole_multiset(num_part, warn=True)
    scale = max(1.0, max((abs(z) for z, _ in clustered), default=0.0))
    radius = _CLUSTER_RADIUS * scale
    # a zero of g~ at the origin would collide with the structural pole
    poles = [(complex(0.0), r0)]
    for center, mult in clustered:
        if abs(center) <= radius:
            poles[0] = (complex(0.0), r0 + mult)
        else:
            poles.append((center, mult))

    terms = partial_fraction_terms(_normalize_num(n, num_part), poles)

    a0 = np.zeros(r, dtype=complex)
    pole_terms: list[PoleTerm] = []
    for (s_l, alpha), (_, coeffs) in zip(poles, terms):
        if s_l == 0.0:
            take = min(alpha, r)
            a0[:take] = coeffs[:take]
            if alpha > r:
                # g~(0) = 0: phi's polynomial part of degree >= r stays in phi1
                pole_terms.append(PoleTerm(s_l, alpha, (0.0,) * r + tuple(coeffs[r:])))
        else:
            pole_terms.append(PoleTerm(s_l, alpha, tuple(coeffs)))

    pole_terms = _symmetrize_conjugates(pole_terms, radius)

    b = np.zeros(r, dtype=complex)
    for j in range(r):
        acc = a0[j]
        for term in pole_terms:
            for i in range(min(j, term.alpha - 1) + 1):
                acc += math.comb(j, i) * term.a[i] * term.s ** (j - i)
        b[j] = acc

    a0_real = _assert_real(a0, "a0")
    b_real = _assert_real(b, "b")
    return ResolventDecomposition(
        a0=a0_real,
        poles=tuple(pole_terms),
        b=b_real,
        r=r,
        B_r=g.B_r,
    )


def _normalize_num(n: Polynomial, num_part: Polynomial) -> Polynomial:
    """Scale the numerator so the denominator is monic over its root set."""
    lead = num_part.coeffs[-1]
    return Polynomial(n.coeffs / lead)


def exp_poly_kernel(a: float, rho, r: int) -> RationalLaplaceKernel:
    """Rational kernel for the shifted-basis parametric family

        g~(s) = P(s) / (s + a)^{k + r},   P(s) = sum_j rho[j] (s + a)^{k - j},

    with rho[0] = 1 and k = len(rho) - 1.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1 or rho.size < 1:
        raise ValueError("rho must be a nonempty 1-d sequence")
    if abs(rho[0] - 1.0) > 1e-12:
        raise ValueError("the family is normalized so that rho[0] = 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    k = rho.size - 1
    pz = Polynomial(rho[::-1].astype(complex))
    num = pz.shifted(a)
    den = Polynomial.from_roots([-a] * (k + r))
    return rational_kernel(num.real_coeffs(), den.real_coeffs())
