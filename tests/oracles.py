"""Independent oracles for the kernels, the resolvent layer and the sidecar schema.

These reference implementations are used only by the tests. They
recompute what the package computes along a different route, so a test
can compare the two:

- ``phi1_eval`` evaluates phi1 and its derivatives pointwise from the
  product rule; the package evaluates phi1 as an ``ExpPoly``.
- ``phi_from_decomposition`` is the whole resolvent kernel phi, the a0
  polynomial part plus phi1, which the estimator never forms.
- ``convolve_exp_poly`` evaluates the convolution of two ``ExpPoly``
  functions term pair by term pair in closed form: a Kummer series where
  the two rates are close on the scale 1/t, finite partial-fraction sums
  elsewhere. It finds no roots and forms no product transform.
- ``evaluate_decomposition`` rebuilds phi~(s) from a decomposition.
- ``exp_poly_coefficients`` / ``exp_poly_decomposition`` build the
  decomposition of the shifted-basis family from the quotient recursion
  and simple-pole residues, independently of ``decompose``.
- ``reference_boundary_kernel`` builds a boundary kernel by the
  minimal-degree search: Gaussian elimination over Fractions of the
  moment system on [-1, rho] for each trial degree until it is
  consistent; the package solves once on the reference interval instead.
- ``check_schema`` validates a JSON document against the vocabulary the
  shipped sidecar schema uses (type/required/properties/items/enum).
- ``dense_weights`` builds the estimator's weight matrix row by row in
  exact integer arithmetic: the Gram system of each local-polynomial row
  in monomials, solved by fraction-free elimination; the package forms
  the rows in float in an orthonormal basis, in blocks over each row's
  window only, or as one lattice row for a whole equispaced design, and
  never as one matrix.
- ``weight_matrix`` is one order's rows as a dense grid.size x n matrix,
  or a stack of several orders' from one call, the package's
  ``apply_rows`` on the identity; the package never forms it.
- ``admissible_levels`` is the admission of bandwidth levels by a scan:
  the grid 1.2^0 .. 1.2^-J, risen by a second grid above 1 when its top
  level fits but is refused, and each level's interior zone counted one
  at a time; the package forms one exponent range and counts every zone
  at once.
- ``convolve_terms_by_column`` is the phi1 product rule as two
  ``np.convolve`` per column; the package forms it as one blocked
  Toeplitz product over all columns.
- ``fixed_bandwidth_risk`` is the expected trimmed risk of a Monte-Carlo
  cell at fixed bandwidths in closed form, from the estimator's linear
  map; ``sim.run_experiment`` estimates the same risk by replication.
"""

import functools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import lapdeconv
from lapdeconv._expalg import ExpPoly
from lapdeconv.deconv import _cell_moments, _convolve_terms, trimmed_window
from lapdeconv.kernels import SmoothingKernel
from lapdeconv.resolvent import (
    _CLUSTER_RADIUS,
    PoleTerm,
    Polynomial,
    ResolventDecomposition,
    _assert_real,
    _symmetrize_conjugates,
    decompose,
    polished_roots,
)
from lapdeconv.sim import Scenario, builtin_f, builtin_g, forward_convolve
from lapdeconv import smoother
from lapdeconv.smoother import EstimationError, apply_rows

SIDECAR_SCHEMA_PATH = (
    Path(lapdeconv.__file__).resolve().parent / "schema" / "sidecar.schema.json"
)


def phi1_eval(d: ResolventDecomposition, x, deriv: int = 0):
    """Evaluate phi1^{(deriv)} at x (scalar or array), real output.

    phi1(x) = sum_l sum_j a_{l,j} x^j e^{s_l x} / j!; each derivative acts
    in closed form through the product rule, so no numerical
    differentiation is involved.
    """
    if deriv < 0:
        raise ValueError("derivative order must be nonnegative")
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    total = np.zeros(xs.shape, dtype=complex)
    m = deriv
    for term in d.poles:
        poly = np.zeros(term.alpha, dtype=complex)
        for jj, a_lj in enumerate(term.a):
            for i in range(min(m, jj) + 1):
                poly[jj - i] += a_lj * math.comb(m, i) * term.s ** (m - i) / math.factorial(jj - i)
        total += np.polynomial.polynomial.polyval(xs, poly) * np.exp(term.s * xs)
    scale = np.maximum(1.0, np.abs(total))
    resid = float(np.max(np.abs(total.imag) / scale)) if total.size else 0.0
    if resid > 1e-10:
        raise ValueError(f"phi1 imaginary residue {resid:.3e} beyond tolerance")
    out = total.real
    return float(out[0]) if scalar else out


def phi_from_decomposition(d: ResolventDecomposition) -> ExpPoly:
    """The resolvent kernel phi = a0 polynomial part + phi1 as an ExpPoly."""
    terms = list(ExpPoly.phi1_from_decomposition(d).terms)
    if d.a0.size:
        terms.append((0.0, [d.a0[j] / math.factorial(j) for j in range(d.a0.size)]))
    return ExpPoly(terms)


# Above this value of |z| - Re z (z the rate difference times t, oriented
# so that Re z >= 0) the Kummer series would cancel to about e^(|z| - Re z)
# and the partial-fraction sums, whose own cancellation falls with |z|,
# take over. At 10 both lose less than 1e-11 relative for degrees up to 10.
_SERIES_LIMIT = 10.0


def _kummer_series(alpha: int, gamma: int, w: np.ndarray) -> np.ndarray:
    """1F1(alpha; gamma; w) by its power series, 0 < alpha <= gamma.

    Every term is at most |w|^k / k!, so 3 max|w| + 40 terms reach far
    past the largest one.
    """
    term = np.ones_like(w)
    total = term.copy()
    for k in range(int(3 * np.max(np.abs(w), initial=0.0)) + 40):
        term = term * ((alpha + k) / (gamma + k)) * w / (k + 1)
        total = total + term
    return total


def _pair_integral(a: int, b: int, s1: complex, s2: complex,
                   t: np.ndarray) -> np.ndarray:
    """int_0^t (t - x)^a e^{s1 (t - x)} x^b e^{s2 x} dx for each t >= 0.

    With x = t u this is t^(a+b+1) e^{s1 t} B(a+1, b+1) 1F1(b+1; a+b+2; z),
    z = (s2 - s1) t. Swapping x and t - x exchanges (a, s1) and (b, s2),
    which is Kummer's transformation; it is used to make Re z >= 0, where
    the series terms do not cancel unless z is far off the real axis.
    There the finite partial-fraction form of 1 / ((s - s1)^(a+1)
    (s - s2)^(b+1)) is used instead; it is exact for s1 != s2.
    """
    if (s2 - s1).real < 0.0:
        a, b, s1, s2 = b, a, s2, s1
    z = (s2 - s1) * t
    out = np.empty(t.shape, dtype=complex)
    series = np.abs(z) - z.real <= _SERIES_LIMIT
    ts = t[series]
    beta = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 1)
    out[series] = (ts ** (a + b + 1) * np.exp(s1 * ts) * beta
                   * _kummer_series(b + 1, a + b + 2, z[series]))
    tf = t[~series]
    if tf.size:
        d = s1 - s2
        near_s1 = sum((-1) ** i * math.comb(b + i, i) * d ** -(b + 1 + i)
                      * tf ** (a - i) / math.factorial(a - i) for i in range(a + 1))
        near_s2 = sum((-1) ** j * math.comb(a + j, j) * (-d) ** -(a + 1 + j)
                      * tf ** (b - j) / math.factorial(b - j) for j in range(b + 1))
        out[~series] = math.factorial(a) * math.factorial(b) * (
            near_s1 * np.exp(s1 * tf) + near_s2 * np.exp(s2 * tf))
    return out


def convolve_exp_poly(f: ExpPoly, g: ExpPoly, t) -> np.ndarray:
    """(f * g)(t) = int_0^t f(t - x) g(x) dx at each t >= 0, complex values."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < 0.0):
        raise ValueError("the convolution is evaluated at t >= 0 only")
    out = np.zeros(ts.shape, dtype=complex)
    for s1, cf in f.terms:
        for s2, cg in g.terms:
            for a, ca in enumerate(cf):
                for b, cb in enumerate(cg):
                    if ca != 0.0 and cb != 0.0:
                        out += ca * cb * _pair_integral(a, b, s1, s2, ts)
    return out


def evaluate_decomposition(d: ResolventDecomposition, s):
    """Evaluate phi~ from its decomposition at complex s (round-trip check)."""
    ss = np.asarray(s, dtype=complex)
    out = np.zeros(ss.shape, dtype=complex)
    for j, a in enumerate(d.a0):
        out = out + a / ss ** (j + 1)
    for term in d.poles:
        for i, a in enumerate(term.a):
            out = out + a / (ss - term.s) ** (i + 1)
    return out


def exp_poly_coefficients(a: float, rho, r: int):
    """Coefficients of the shifted-basis inversion for the parametric family

        g~(s) = P(s) / (s + a)^{k + r},   P(s) = sum_j rho[j] (s + a)^{k - j},

    with rho[0] = 1 and P having k distinct roots. Returns (alpha, beta,
    roots): alpha are the polynomial-part coefficients in the (s + a)
    basis via the quotient recursion, beta the simple-pole residues

        beta_l = (s_l + a)^{k + r} / prod_{m != l} (s_l - s_m).
    """
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1 or rho.size < 1:
        raise ValueError("rho must be a nonempty 1-d sequence")
    if abs(rho[0] - 1.0) > 1e-12:
        raise ValueError("the family is normalized so that rho[0] = 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    k = rho.size - 1

    alpha = np.zeros(r + 1)
    alpha[r] = 1.0
    for l in range(1, r + 1):
        acc = 0.0
        for j in range(max(0, l - k), l):
            acc += alpha[r - j] * rho[l - j]
        alpha[r - l] = -acc

    # P in the plain s basis: coefficients in z = s + a, then shift
    pz = Polynomial(rho[::-1].astype(complex))
    ps = pz.shifted(a)
    roots = polished_roots(ps)
    if roots.size != k:
        raise ValueError("failed to locate all k roots of P")
    if k >= 2:
        dists = [
            abs(roots[i] - roots[m])
            for i in range(k)
            for m in range(i + 1, k)
        ]
        scale = max(1.0, float(np.max(np.abs(roots))))
        if min(dists) <= _CLUSTER_RADIUS * scale:
            raise ValueError(
                "P has (numerically) repeated roots; use the general "
                "decompose() path which handles multiplicities"
            )
    beta = np.empty(k, dtype=complex)
    for l in range(k):
        prod = 1.0 + 0.0j
        for m in range(k):
            if m != l:
                prod *= roots[l] - roots[m]
        beta[l] = (roots[l] + a) ** (k + r) / prod
    return alpha, beta, roots


def exp_poly_decomposition(a: float, rho, r: int) -> ResolventDecomposition:
    """ResolventDecomposition built from the shifted-basis coefficients.

    Independent of decompose(): the estimator here is assembled from the
    quotient recursion (alpha) and residues (beta), then mapped onto the
    (a0, poles, b) representation:

        b[r-1-l]   = - sum_{j=l}^{r} C(j, l) a^{j-l} alpha[j]
        a_{l,0}    = - beta_l / s_l^r
        a0[j]      =   b[j] - sum_l a_{l,0} s_l^j.
    """
    alpha, beta, roots = exp_poly_coefficients(a, rho, r)
    k = roots.size

    b = np.zeros(r, dtype=complex)
    for l in range(r):
        acc = 0.0
        for j in range(l, r + 1):
            acc += math.comb(j, l) * a ** (j - l) * alpha[j]
        b[r - 1 - l] = -acc

    if np.any(np.abs(roots) < 1e-12):
        raise ValueError("P has a root at the origin; the family is degenerate there")
    a_l0 = -beta / roots**r

    a0 = np.zeros(r, dtype=complex)
    for j in range(r):
        a0[j] = b[j] - np.sum(a_l0 * roots**j)

    terms = [
        PoleTerm(complex(roots[l]), 1, (complex(a_l0[l]),)) for l in range(k)
    ]
    scale = max(1.0, float(np.max(np.abs(roots))) if k else 0.0)
    terms = _symmetrize_conjugates(terms, _CLUSTER_RADIUS * scale)
    return ResolventDecomposition(
        a0=_assert_real(a0, "a0"),
        poles=tuple(terms),
        b=_assert_real(b, "b"),
        r=r,
        B_r=1.0,
    )


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for k, bk in enumerate(b):
            out[i + k] += ai * bk
    return out


def _poly_integral(coeffs, lo: Fraction, hi: Fraction) -> Fraction:
    total = Fraction(0)
    lo_pow, hi_pow = lo, hi
    for i, c in enumerate(coeffs):
        total += c * (hi_pow - lo_pow) / (i + 1)
        lo_pow *= lo
        hi_pow *= hi
    return total


def _power_moments(coeffs, lo: Fraction, hi: Fraction, pmax: int):
    """table[p] = integral of t^p * poly(coeffs) over [lo, hi] for p = 0..pmax.

    Every entry of the moment system is such an integral, so tabulating by
    total power replaces the per-entry quadrature with a lookup.
    """
    npow = pmax + len(coeffs) + 1
    lo_pow = [Fraction(1)]
    hi_pow = [Fraction(1)]
    for _ in range(npow):
        lo_pow.append(lo_pow[-1] * lo)
        hi_pow.append(hi_pow[-1] * hi)
    table = []
    for p in range(pmax + 1):
        total = Fraction(0)
        for i, c in enumerate(coeffs):
            k = p + i + 1
            total += c * (hi_pow[k] - lo_pow[k]) / k
        table.append(total)
    return table


def _solve_exact(rows, rhs, ncols):
    """Solve a possibly over/under-determined exact linear system.

    Gaussian elimination over Fractions. Returns a solution vector (free
    variables pinned to zero) or None when the system is inconsistent.
    """
    m = [list(row) + [r] for row, r in zip(rows, rhs)]
    nrows = len(m)
    pivot_cols = []
    row = 0
    for col in range(ncols):
        pivot = None
        for rr in range(row, nrows):
            if m[rr][col] != 0:
                pivot = rr
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        m[row] = [v / pv for v in m[row]]
        for rr in range(nrows):
            if rr != row and m[rr][col] != 0:
                factor = m[rr][col]
                m[rr] = [v - factor * w for v, w in zip(m[rr], m[row])]
        pivot_cols.append(col)
        row += 1
        if row == nrows:
            break
    for rr in range(row, nrows):
        if all(v == 0 for v in m[rr][:ncols]) and m[rr][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for rr, col in enumerate(pivot_cols):
        sol[col] = m[rr][ncols]
    return sol


def _build_kernel(L: int, j: int, rho_num: int, rho_den: int) -> SmoothingKernel:
    lo = Fraction(-1)
    hi = Fraction(rho_num, rho_den)
    # envelope (t - lo)^2 (hi - t)^2 enforces double zeros at both endpoints
    env = _poly_mul(
        _poly_mul([-lo, Fraction(1)], [-lo, Fraction(1)]),
        _poly_mul([hi, Fraction(-1)], [hi, Fraction(-1)]),
    )
    targets = [Fraction(0)] * L
    sign = -1 if j % 2 else 1
    targets[j] = Fraction(sign * math.factorial(j))

    # minimal-degree search: grow the polynomial factor until the exact
    # moment system becomes consistent (guaranteed at degree L - 1 since the
    # envelope-weighted Gram matrix of monomials is nonsingular)
    m_top = L + 1
    env_mom = _power_moments(env, lo, hi, L - 1 + m_top)
    for m_deg in range(m_top + 1):
        # entry (l, i) is the moment of envelope * t^(i + l)
        rows = [[env_mom[i + l] for i in range(m_deg + 1)] for l in range(L)]
        sol = _solve_exact(rows, targets, m_deg + 1)
        if sol is None:
            continue
        kc = _poly_mul(env, sol)
        # defensive re-check of every constraint in exact arithmetic
        for l in range(L):
            shifted = [Fraction(0)] * l + kc
            assert _poly_integral(shifted, lo, hi) == targets[l]
        norm2 = _poly_integral(_poly_mul(kc, kc), lo, hi)
        return SmoothingKernel(
            L=L,
            j=j,
            support=(float(lo), float(hi)),
            coeffs=tuple(float(c) for c in kc),
            norm2=float(norm2),
            coeffs_exact=tuple(kc),
            support_exact=(lo, hi),
        )
    raise RuntimeError(f"no kernel of order ({L}, {j}) found")  # pragma: no cover


def reference_boundary_kernel(L: int, j: int, rho: float) -> SmoothingKernel:
    """Boundary kernel of order (L, j) on [-1, rho] by the minimal-degree
    search, with rho quantized to 1e-6 as ``make_boundary_kernel`` does."""
    return _build_kernel(L, j, round(rho * 10**6), 10**6)


def load_sidecar_schema() -> dict:
    return json.loads(SIDECAR_SCHEMA_PATH.read_text(encoding="utf-8"))


def _type_ok(value, t: str) -> bool:
    if t == "object":
        return isinstance(value, dict)
    if t == "array":
        return isinstance(value, list)
    if t == "string":
        return isinstance(value, str)
    if t == "boolean":
        return isinstance(value, bool)
    if t == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if t == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if t == "null":
        return value is None
    return False


def check_schema(value, schema: dict, path: str = "$") -> list[str]:
    """Minimal JSON-schema checker: type/required/properties/items/enum.

    Covers exactly the vocabulary the shipped sidecar schema uses, so the
    sidecar can be validated without a third-party dependency.
    """
    errors: list[str] = []
    t = schema.get("type")
    if t is not None:
        types = t if isinstance(t, list) else [t]
        if not any(_type_ok(value, tt) for tt in types):
            errors.append(f"{path}: expected type {t}")
            return errors
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: value not in enum")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for req in schema.get("required", []):
            if req not in value:
                errors.append(f"{path}: missing required member {req!r}")
        for key, sub in props.items():
            if key in value:
                errors.extend(check_schema(value[key], sub, f"{path}.{key}"))
        extra = schema.get("additionalProperties")
        if extra is False:
            for key in value:
                if key not in props:
                    errors.append(f"{path}: unexpected member {key!r}")
        elif isinstance(extra, dict):
            for key in value:
                if key not in props:
                    errors.extend(check_schema(value[key], extra, f"{path}.{key}"))
    if isinstance(value, list) and "items" in schema:
        for idx, item in enumerate(value):
            errors.extend(check_schema(item, schema["items"], f"{path}[{idx}]"))
    return errors


def _exact_solve(M: list, F: list) -> tuple[list, int]:
    """(X, det) with M X = det F for the integer matrices M (L x L, with
    nonzero leading principal minors) and F (L x C), by fraction-free
    Gauss-Jordan elimination: every division is exact, and at the end each
    pivot equals det(M)."""
    L = len(M)
    rows = [list(M[i]) + list(F[i]) for i in range(L)]
    prev = 1
    for k in range(L):
        pivot = rows[k][k]
        if pivot == 0:
            raise ArithmeticError("singular Gram matrix: fewer than L observations")
        for i in range(L):
            if i == k:
                continue
            lead = rows[i][k]
            rows[i] = [(a * pivot - lead * b) // prev for a, b in zip(rows[i], rows[k])]
        prev = pivot
    return [row[L:] for row in rows], prev


def _scaled(value: float, S: int) -> int:
    """The float value times 2^S, an integer for S large enough."""
    num, den = value.as_integer_ratio()
    return num * (1 << S) // den


@functools.lru_cache(maxsize=1 << 12)
def _exact_rows(times_bytes: bytes, T: float, x: float, L: int, lam: float):
    """(window indices, rows (L x window)): the rows of every order j < L at
    the point x, each weight the exact rational rounded once.

    Every float is an exact rational with a power-of-two denominator, so
    at the scale 2^S of the finest of them the design, x, lam and T are
    integers: D_i = t_i - x, the support [Lo, Hi] = [max(-lam, -x),
    min(lam, T - x)], N_i = 2 D_i - Lo - Hi and Den = Hi - Lo, so that
    u_i = N_i / Den. The envelope weighs the observations with |N_i| < Den
    by (Den^2 - N_i^2)^2 / Den^4. In the monomials u^k, scaled by Den^-k,
    the Gram matrix is the integer Hankel matrix G_(k+l), G_p = sum_i
    (Den^2 - N_i^2)^2 N_i^p, and the target of order j is
    k!/(k-j)! (-(Lo + Hi))^(k-j) 2^((S+1) j) Den^4 for k >= j, since
    u(t) = (2^(S+1) (t - x) - Lo - Hi) / Den; Den^4 cancels against the
    envelope's."""
    times = np.frombuffer(times_bytes)
    lo_i = int(np.searchsorted(times, x - lam * (1 + 1e-9), side="left"))
    hi_i = int(np.searchsorted(times, x + lam * (1 + 1e-9), side="right"))
    near = times[lo_i:hi_i].tolist()
    S = max(-math.frexp(v)[1] + 60 for v in near + [x, lam, T])
    S = max(S, 0)
    X, Lam = _scaled(x, S), _scaled(lam, S)
    Lo, Hi = max(-Lam, -X), min(Lam, _scaled(T, S) - X)
    Den = Hi - Lo
    idx, N = [], []
    for i, t in enumerate(near):
        n_i = 2 * (_scaled(t, S) - X) - Lo - Hi
        if abs(n_i) < Den:
            idx.append(lo_i + i)
            N.append(n_i)
    env = [(Den * Den - n * n) ** 2 for n in N]
    G = [0] * (2 * L - 1)
    for e, n in zip(env, N):
        acc = e
        for p in range(2 * L - 1):
            G[p] += acc
            acc *= n
    M = [[G[k + l] for l in range(L)] for k in range(L)]
    F = [[math.perm(k, j) * (-(Lo + Hi)) ** (k - j) << ((S + 1) * j) if k >= j else 0
          for j in range(L)] for k in range(L)]
    Xs, det = _exact_solve(M, F)
    rows = np.empty((L, len(N)))
    for j in range(L):
        for i, (e, n) in enumerate(zip(env, N)):
            acc = 0
            for k in range(L - 1, -1, -1):
                acc = acc * n + Xs[k][j]
            rows[j, i] = (e * acc) / det
    rows.flags.writeable = False
    return np.array(idx, dtype=int), rows


def dense_weights(times, T, grid, j, L, lam):
    """Oracle W: the local-polynomial row of order j at each grid point,
    exact. Row x weighs the observations strictly inside its support
    [max(-1, -x/lam), min(1, (T - x)/lam)] in d = (t - x)/lam by the
    envelope (d - lo)^2 (hi - d)^2 times the polynomial of degree below L
    for which sum_i w_i P(t_i) = P^(j)(x) for every polynomial P of degree
    below L. The Gram system is solved in integers at the scale of the
    floats' common power of two (``_exact_rows``), and each weight is
    rounded once."""
    times = np.ascontiguousarray(times, dtype=float)
    times_bytes = times.tobytes()
    W = np.zeros((len(grid), times.size))
    for r, x in enumerate(np.asarray(grid, dtype=float).tolist()):
        idx, rows = _exact_rows(times_bytes, float(T), x, L, float(lam))
        W[r, idx] = rows[j]
    return W


def convolve_terms_by_column(Q0: np.ndarray, phi_r: ExpPoly, grid: np.ndarray) -> np.ndarray:
    """The product rule of ``deconv._convolve_terms``, column by column: out[k]
    approximates int_0^{t_k} q(t_k - x) phi_r(x) dx with the column piecewise
    linear between grid points and phi_r integrated exactly per cell."""
    K = Q0.shape[0] - 1
    M0, M1 = _cell_moments(phi_r, grid)
    w_same = np.append(M0 - M1, 0.0)
    w_prev = np.concatenate(([0.0], M1))
    out = np.empty_like(Q0)
    for c in range(Q0.shape[1]):
        col = Q0[:, c]
        # cell m of int_0^{t_k} pairs weight w_same[m] with col[k - m] and
        # w_prev[m + 1] with col[k - m - 1]; the subtraction removes the
        # m = k term the full convolution would add past the upper limit
        out[:, c] = (
            np.convolve(col, w_same)[: K + 1]
            - col[0] * w_same
            + np.convolve(col, w_prev)[: K + 1]
        )
    return out


def weight_matrix(times: np.ndarray, T: float, j, L: int, lam: float,
                  grid) -> np.ndarray:
    """The order-j rows at bandwidth lam on the grid as a dense grid.size x n
    matrix: ``apply_rows`` on the columns of the identity, each of whose
    estimates is one row weight times 1 plus exact zeros. For a sequence
    of orders j, their matrices stacked in that order, from one call that
    solves each point's Gram once for all of them."""
    n = len(times)
    orders = [int(k) for k in np.atleast_1d(j)]
    W = apply_rows(times, T, L, lam, grid, np.eye(n), orders)
    return W[j] if np.ndim(j) == 0 else np.stack([W[k] for k in orders])


def admissible_levels(times: np.ndarray, T: float, j: int, sigma: float, L: int):
    """(levels, zones) of order j as ``smoother._admissible`` returns them,
    by a scan: the grid a^0 > ... > a^-J, a = 1.2 and J from
    ``_grid_depth``; the first level at most T/2 whose zone holds two
    observations, found level by level; when that is a^0 = 1 and 1 is at
    most lam_min, the larger threshold of ``_pairs``, the levels a^1 ..
    a^K up to the first above lam_min (K at most log_a T) prepended and the
    scan run again; then the levels above lam_min from there."""
    levels = 1.2 ** (-np.arange(smoother._grid_depth(j, times.size, sigma, T) + 1.0))

    def first_level(levels):
        first = int(np.count_nonzero(levels > T / 2))
        while first < levels.size:
            i0, i1 = smoother._zone(times, T, levels[first])
            if i1 - i0 >= 2:
                break
            first += 1
        return first

    first = first_level(levels)
    if first == levels.size:
        if levels[-1] > T / 2:
            reason = "every level of the grid, from %g down to %g, exceeds T/2 = %g" % (
                levels[0], levels[-1], T / 2)
        else:
            reason = ("the design leaves fewer than two observations in the interior "
                      "zone [lam, T - lam] of every level up to T/2 = %g" % (T / 2))
        raise EstimationError("no admissible bandwidth level for j=%d: %s" % (j, reason))
    _, full, inner, _ = smoother._pairs(times, T, L)
    lam_min = max(full.max(), inner.max())
    if first == 0 and levels[0] <= lam_min:
        rise = levels[0] * 1.2 ** np.arange(1.0, math.log(T / levels[0], 1.2) + 1)
        rise = rise[: np.count_nonzero(rise <= lam_min) + 1]
        levels = np.concatenate((rise[::-1], levels))
        first = first_level(levels)
    last = first + int(np.count_nonzero(levels[first:] > lam_min))
    if last == first:
        raise EstimationError(
            "no admissible bandwidth level for j=%d: at lam = %g, the largest level tried "
            "up to T/2 = %g, %s" % (j, levels[first], T / 2,
                                    smoother._short_window(times, T, levels[first], L)))
    zones = {}
    for li in range(first, last):
        i0, i1 = smoother._zone(times, T, levels[li])
        zones[li] = (int(i0), int(i1))
    return levels, zones


def fixed_bandwidth_risk(sc: Scenario) -> float:
    """Expected trimmed risk of the cell sc at its fixed bandwidths, exactly.

    Every order j of the estimate has a fixed bandwidth (sc.config), so f_hat
    = A y is linear in the data: with W_j the order-j weight rows on the
    evaluation grid (``weight_matrix``), b and B_r from
    ``decompose`` and Phi the product-rule convolution with phi1^(r)
    (``deconv._convolve_terms``, linear in each column it is applied to),
    A = (W_r - sum_j b_j W_(r-1-j) - Phi W_0) / B_r. The cell's data are
    y = q + sigma eps with q = g * f on the design (``forward_convolve``, as
    ``cell_sample`` forms it) and eps standard normal, so the expected mean
    of (f_hat - f)^2 over the trimmed window is the window's mean of
    (A q - f)^2 + sigma^2 sum_i A_ki^2.
    """
    g, f = builtin_g(sc.g_name), builtin_f(sc.f_name)
    d = decompose(g)
    r = d.r
    times = np.arange(1, sc.n + 1) * (sc.T / sc.n)
    grid = np.linspace(0.0, sc.T, sc.config.grid_size)
    W = [weight_matrix(times, sc.T, j, sc.config.L, sc.config.fixed_bandwidth(j), grid)
         for j in range(r + 1)]
    A = W[r].copy()
    for jj in range(r):
        A -= d.b[jj] * W[r - 1 - jj]
    if d.has_phi1:
        A -= _convolve_terms(W[0], ExpPoly.phi1_from_decomposition(d).derivatives(r), grid)
    A /= d.B_r
    mask = trimmed_window(grid, sc.trim)
    A = A[mask]
    bias = A @ forward_convolve(g, f, times) - f(grid[mask])
    return float(np.mean(bias * bias + sc.sigma**2 * np.sum(A * A, axis=1)))
