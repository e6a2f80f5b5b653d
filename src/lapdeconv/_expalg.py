"""Closed-form algebra on exponential-polynomial functions.

Functions of the form sum_l p_l(t) exp(s_l t), with polynomial p_l and
complex s_l, are closed under addition, differentiation, and convolution
on [0, infinity). This module implements that algebra exactly (up to
floating point), which gives the package closed-form time-domain
evaluation of any rational Laplace transform and exact convolution
oracles for the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .resolvent import (
    Polynomial,
    ResolventDecomposition,
    partial_fraction_terms,
    pole_multiset,
)

_MERGE_RADIUS = 1e-9


class ExpPoly:
    """Finite sum of terms p_l(t) * exp(s_l t).

    terms is a list of (s_l, coeffs) with coeffs ascending in t. Terms
    with (numerically) equal rates are merged on construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        merged: list[tuple[complex, np.ndarray]] = []
        for s, c in terms:
            c = np.atleast_1d(np.asarray(c, dtype=complex))
            placed = False
            for i, (sm, cm) in enumerate(merged):
                if abs(s - sm) <= _MERGE_RADIUS * max(1.0, abs(sm)):
                    n = max(cm.size, c.size)
                    acc = np.zeros(n, dtype=complex)
                    acc[: cm.size] += cm
                    acc[: c.size] += c
                    merged[i] = (sm, acc)
                    placed = True
                    break
            if not placed:
                merged.append((complex(s), c.copy()))
        merged.sort(key=lambda t: (round(t[0].real, 9), round(t[0].imag, 9)))
        self.terms = merged

    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls([])

    @classmethod
    def from_rational(cls, num, den, poles=None) -> "ExpPoly":
        """Inverse Laplace transform of a strictly proper num(s)/den(s).

        poles may supply the known (root, multiplicity) multiset of den,
        bypassing numerical root finding (used by convolve, which builds
        denominators from explicit root factors).
        """
        pnum = num if isinstance(num, Polynomial) else Polynomial(num)
        pden = den if isinstance(den, Polynomial) else Polynomial(den)
        if pnum.degree >= pden.degree and not pnum.is_zero:
            raise ValueError("inverse transform requires a strictly proper fraction")
        if pnum.is_zero:
            return cls.zero()
        if poles is None:
            poles = pole_multiset(pden, warn=False)
        if sum(m for _, m in poles) != pden.degree:
            raise ValueError("pole multiset does not match the denominator degree")
        lead = pden.coeffs[-1]
        pf = partial_fraction_terms(Polynomial(pnum.coeffs / lead), poles)
        terms = []
        for s_l, coeffs in pf:
            # c / (s - s_l)^(i+1)  <->  c t^i e^{s_l t} / i!
            poly = np.array(
                [coeffs[i] / math.factorial(i) for i in range(coeffs.size)],
                dtype=complex,
            )
            terms.append((s_l, poly))
        return cls(terms)

    @classmethod
    def phi_from_decomposition(cls, d: ResolventDecomposition) -> "ExpPoly":
        """The resolvent kernel phi = polynomial part + phi1 as an ExpPoly."""
        phi1 = cls.phi1_from_decomposition(d)
        if not d.a0.size:
            return phi1
        poly = np.array(
            [d.a0[j] / math.factorial(j) for j in range(d.a0.size)],
            dtype=complex,
        )
        return cls([(0.0 + 0.0j, poly)]) + phi1

    @classmethod
    def phi1_from_decomposition(cls, d: ResolventDecomposition) -> "ExpPoly":
        """Only the exponential part phi1 of the resolvent kernel."""
        terms = []
        for term in d.poles:
            poly = np.array(
                [term.a[i] / math.factorial(i) for i in range(term.alpha)],
                dtype=complex,
            )
            terms.append((term.s, poly))
        return cls(terms)

    @property
    def is_zero(self) -> bool:
        return all(np.all(c == 0.0) for _, c in self.terms)

    def __call__(self, t):
        ts = np.asarray(t, dtype=float)
        out = np.zeros(ts.shape, dtype=complex)
        for s, c in self.terms:
            out = out + np.polynomial.polynomial.polyval(ts, c) * np.exp(s * ts)
        return out

    def eval_real(self, t, tol: float = 1e-8):
        val = self(t)
        scale = np.maximum(1.0, np.abs(val))
        resid = float(np.max(np.abs(val.imag) / scale)) if val.size else 0.0
        if resid > tol:
            raise ValueError(f"imaginary residue {resid:.3e} beyond tolerance")
        return val.real

    def derivative(self) -> "ExpPoly":
        terms = []
        for s, c in self.terms:
            dc = c[1:] * np.arange(1, c.size) if c.size > 1 else np.zeros(0, complex)
            acc = np.zeros(c.size, dtype=complex)
            acc[: dc.size] += dc
            acc += s * c
            terms.append((s, acc))
        return ExpPoly(terms)

    def derivatives(self, order: int) -> "ExpPoly":
        out = self
        for _ in range(order):
            out = out.derivative()
        return out

    def antiderivative(self) -> "ExpPoly":
        """A primitive of the sum, term by term, in closed form.

        For a term p(t) e^{st} with s != 0 the primitive is q(t) e^{st}
        with q' + s q = p, solved from the top coefficient down. The s = 0
        term integrates as a plain polynomial. Integration constants are
        zero; only differences of the result are meaningful.
        """
        terms = []
        for s, c in self.terms:
            if s == 0.0:
                q = np.concatenate(([0.0], c / np.arange(1, c.size + 1)))
            else:
                q = np.zeros(c.size, dtype=complex)
                for i in range(c.size - 1, -1, -1):
                    carry = (i + 1) * q[i + 1] if i + 1 < c.size else 0.0
                    q[i] = (c[i] - carry) / s
            terms.append((s, q))
        return ExpPoly(terms)

    def scaled(self, factor) -> "ExpPoly":
        return ExpPoly([(s, c * factor) for s, c in self.terms])

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        return ExpPoly(list(self.terms) + list(other.terms))

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + other.scaled(-1.0)

    def transform(self) -> tuple[Polynomial, Polynomial]:
        """Laplace transform as a strictly proper rational num, den pair."""
        blocks = [(s, c, c.size - 1) for s, c in self.terms]
        den = Polynomial([1.0])
        for s, _, deg in blocks:
            den = den * Polynomial.from_roots([s] * (deg + 1))
        num = Polynomial([0.0])
        for idx, (s, c, deg) in enumerate(blocks):
            rest = Polynomial([1.0])
            for idx2, (s2, _, deg2) in enumerate(blocks):
                if idx2 != idx:
                    rest = rest * Polynomial.from_roots([s2] * (deg2 + 1))
            # L[t^i e^{st}] = i! / (s' - s)^(i+1), so this block contributes
            # sum_i c_i i! (s' - s)^(deg - i) over the common denominator
            local = Polynomial([0.0])
            for i in range(c.size):
                shifted = Polynomial.from_roots([s] * (deg - i))
                local = local + shifted * (c[i] * math.factorial(i))
            num = num + local * rest
        return num, den

    def _pole_multiset(self) -> list[tuple[complex, int]]:
        return [(s, c.size) for s, c in self.terms]

    def convolve(self, other: "ExpPoly") -> "ExpPoly":
        """Convolution on [0, t]: (f * g)(t) = int_0^t f(t - x) g(x) dx."""
        if self.is_zero or other.is_zero:
            return ExpPoly.zero()
        n1, d1 = self.transform()
        n2, d2 = other.transform()
        merged: list[tuple[complex, int]] = []
        for s, m in self._pole_multiset() + other._pole_multiset():
            for i, (sm, mm) in enumerate(merged):
                if abs(s - sm) <= _MERGE_RADIUS * max(1.0, abs(sm)):
                    merged[i] = (sm, mm + m)
                    break
            else:
                merged.append((s, m))
        return ExpPoly.from_rational(n1 * n2, d1 * d2, poles=merged)
