"""Closed-form exponential-polynomial functions sum_l p_l(t) exp(s_l t).

With polynomial p_l and complex s_l, such functions are the inverse
Laplace transforms of strictly proper rational transforms. This module
holds the part of their algebra the estimator runs: construction from a
rational transform or a resolvent decomposition, evaluation,
differentiation and closed-form antiderivatives (up to floating point).
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
    def from_rational(cls, num, den) -> "ExpPoly":
        """Inverse Laplace transform of a strictly proper num(s)/den(s)."""
        pnum = num if isinstance(num, Polynomial) else Polynomial(num)
        pden = den if isinstance(den, Polynomial) else Polynomial(den)
        if pnum.degree >= pden.degree and not pnum.is_zero:
            raise ValueError("inverse transform requires a strictly proper fraction")
        if pnum.is_zero:
            return cls([])
        lead = pden.coeffs[-1]
        pf = partial_fraction_terms(Polynomial(pnum.coeffs / lead),
                                    pole_multiset(pden, warn=False))
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

    def __call__(self, t):
        ts = np.asarray(t, dtype=float)
        out = np.zeros(ts.shape, dtype=complex)
        for s, c in self.terms:
            out = out + np.polynomial.polynomial.polyval(ts, c) * np.exp(s * ts)
        return out

    def eval_real(self, t):
        val = self(t)
        scale = np.maximum(1.0, np.abs(val))
        resid = float(np.max(np.abs(val.imag) / scale)) if val.size else 0.0
        if resid > 1e-8:
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
