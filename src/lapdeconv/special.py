"""Scalar special functions and deterministic Gaussian sampling.

Kept dependency-free on purpose: the only numerical building blocks the
package needs beyond numpy are the standard normal quantile (for
inverse-CDF sampling from a counter-based generator) and the regularized
lower incomplete gamma function at integer shapes, in closed form (for
the gamma-survival test signals).
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

import numpy as np

__all__ = [
    "normal_quantile",
    "standard_normals",
    "reg_lower_gamma",
]

_MASK64 = (1 << 64) - 1

# Most elements one inverse-CDF pass of ``standard_normals`` covers
_NOISE_CHUNK = 1 << 18

# Wichura's algorithm AS 241 (PPND16): rational approximations to the
# standard normal quantile, accurate to about 1e-15 in double precision.
_A = (
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
)
_B = (
    1.0,
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_C = (
    1.42343711074968357734e0,
    4.63033784615654529590e0,
    5.76949722146069140550e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
)
_D = (
    1.0,
    2.05319162663775882187e0,
    1.67638483018380384940e0,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_E = (
    6.65790464350110377720e0,
    5.46378491116411436990e0,
    1.78482653991729133580e0,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_F = (
    1.0,
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-5,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _ratpoly(num, den, r):
    """Evaluate the degree-7 rational num(r)/den(r), Horner form."""
    p = np.full_like(r, num[7])
    q = np.full_like(r, den[7])
    for i in range(6, -1, -1):
        p = p * r + num[i]
        q = q * r + den[i]
    return p / q


def normal_quantile(p):
    """Standard normal quantile function (inverse CDF).

    Accepts a scalar or array of probabilities strictly inside (0, 1).
    """
    arr = np.asarray(p, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("normal_quantile requires probabilities in (0, 1)")

    q = arr - 0.5
    out = np.empty_like(arr)

    central = np.abs(q) <= 0.425
    if np.any(central):
        qc = q[central]
        r = 0.180625 - qc * qc
        out[central] = qc * _ratpoly(_A, _B, r)

    tail = ~central
    if np.any(tail):
        qt = q[tail]
        r = np.where(qt < 0.0, arr[tail], 1.0 - arr[tail])
        r = np.sqrt(-np.log(r))
        val = np.empty_like(r)
        near = r <= 5.0
        if np.any(near):
            val[near] = _ratpoly(_C, _D, r[near] - 1.6)
        if np.any(~near):
            val[~near] = _ratpoly(_E, _F, r[~near] - 5.0)
        out[tail] = np.where(qt < 0.0, -val, val)

    return float(out[0]) if scalar else out


def standard_normals(seed: int, stream: int | Sequence[int], size: int) -> np.ndarray:
    """Deterministic standard normal draws from a counter-based generator.

    A Philox generator keyed by (seed, stream) yields 64-bit words; the top
    53 bits are centered into (0, 1) and pushed through the inverse CDF.
    The same (seed, stream, size) triple reproduces the same array on any
    platform, independent of draw order elsewhere in the process.

    stream is one integer (a Python or numpy int, or a 0-d integer array),
    giving a 1-D array of size draws, or a sequence of integers, giving a
    size x len(stream) array whose column k equals
    ``standard_normals(seed, stream[k], size)`` bit for bit. One Philox
    generator serves every stream: it is set to each key at counter 0,
    the state a new generator keyed so starts from, which costs a fraction
    of building one. The columns go through the inverse CDF together, in
    chunks of at most ``_NOISE_CHUNK`` elements (or one column), so a
    many-column draw makes one pass per chunk, not one per column, and
    holds no full-size temporary besides the result.
    """
    seed = operator.index(seed) & _MASK64
    try:
        streams = [operator.index(stream) & _MASK64]
        single = True
    except TypeError:
        streams = [operator.index(s) & _MASK64 for s in stream]
        single = False
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    fresh = bitgen.state
    out = np.empty((size, len(streams)))
    step = max(1, _NOISE_CHUNK // max(size, 1))
    for c0 in range(0, len(streams), step):
        cols = streams[c0 : c0 + step]
        raw = np.empty((size, len(cols)), dtype=np.uint64)
        for k, s in enumerate(cols):
            fresh["state"]["key"] = np.array([seed, s], dtype=np.uint64)
            bitgen.state = fresh
            raw[:, k] = bitgen.random_raw(size)
        u = ((raw >> np.uint64(11)) + 0.5) * 2.0 ** -53
        out[:, c0 : c0 + len(cols)] = normal_quantile(u)
    return out[:, 0] if single else out


def reg_lower_gamma(a, x):
    """Regularized lower incomplete gamma function P(a, x) at integer a.

    For an integer shape a >= 1, P(a, x) = 1 - e^{-x} sum_{m<a} x^m / m!
    (the Erlang distribution function); vectorized over x. Raises
    ValueError for a non-integer or a < 1, and for x < 0.
    """
    if not float(a).is_integer() or a < 1:
        raise ValueError("shape parameter must be an integer >= 1")
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0):
        raise ValueError("argument must be nonnegative")
    term = np.ones_like(xs)
    total = np.ones_like(xs)
    for m in range(1, int(a)):
        term = term * xs / m
        total = total + term
    out = 1.0 - np.exp(-xs) * total
    return float(out) if xs.ndim == 0 else out
