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


def _t_coefficients(a) -> np.ndarray:
    """The coefficients a_i / i! of t^i e^(s t) from those a_i of
    (s - s_l)^-(i+1) in a partial fraction expansion."""
    return np.array([c / math.factorial(i) for i, c in enumerate(a)], dtype=complex)


class ExpPoly:
    """Finite sum of terms p_l(t) * exp(s_l t).

    terms is a list of (s_l, coeffs) with coeffs ascending in t, kept
    sorted by rate, which fixes the order in which ``__call__`` sums them.
    Terms of one rate are not merged: each is summed on its own.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = sorted(((complex(s), np.array(c, dtype=complex, ndmin=1))
                             for s, c in terms),
                            key=lambda t: (round(t[0].real, 9), round(t[0].imag, 9)))

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
        return cls((s_l, _t_coefficients(coeffs)) for s_l, coeffs in pf)

    @classmethod
    def phi1_from_decomposition(cls, d: ResolventDecomposition) -> "ExpPoly":
        """Only the exponential part phi1 of the resolvent kernel."""
        return cls((term.s, _t_coefficients(term.a)) for term in d.poles)

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
