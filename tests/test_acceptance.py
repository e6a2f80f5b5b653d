"""Acceptance checks for the package, one per shipped guarantee.

Each test prints one CRITERION line (PASS or FAIL with the measured
numbers) on the real stdout before asserting, so a full run leaves a
nine-line scoreboard regardless of capture settings.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from lapdeconv._expalg import ExpPoly
from lapdeconv.deconv import EstimatorConfig, _estimate_all
from lapdeconv.kernels import make_boundary_kernel
from lapdeconv.resolvent import decompose, rational_kernel
from lapdeconv.sim import (
    BUILTIN_F_NAMES,
    BUILTIN_G_NAMES,
    Scenario,
    builtin_f,
    builtin_g,
    forward_convolve,
    ladder_sigma,
    run_experiment,
    run_table,
)
from oracles import convolve_exp_poly, exp_poly_decomposition, phi_from_decomposition

T = 10.0


def _report(capsys, k: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nCRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}",
              flush=True)


def _pairs():
    return [(g, f) for g in BUILTIN_G_NAMES for f in BUILTIN_F_NAMES]


def test_criterion_1_benchmark_anchor_risks(capsys):
    """Monte-Carlo risks of the (g2, f1) anchor cells stay within a factor
    of two of their published reference values, 100 replications each."""
    targets = {(100, 0): 2.3e-3, (100, 4): 1.5e-5,
               (250, 0): 1.4e-3, (250, 4): 1.0e-5}
    parts, ok = [], True
    for (n, i), target in targets.items():
        sc = Scenario("g2", "f1", n=n, sigma=ladder_sigma("g2", i),
                      runs=100, seed=0)
        rep = run_experiment(sc)
        ratio = rep.mean_mse / target
        good = rep.failures == 0 and 0.5 <= ratio <= 2.0
        ok &= good
        parts.append("n=%d,i=%d: mse=%.3e target=%.1e ratio=%.2f %s"
                     % (n, i, rep.mean_mse, target, ratio,
                        "ok" if good else "OUT"))
    detail = "; ".join(parts)
    _report(capsys, 1, ok, detail)
    assert ok, detail


def test_criterion_2_noise_ladder_monotonicity(capsys):
    """Mean risk does not increase as the noise level halves down the
    ladder, for every builtin (kernel, target) pair at n=100 with 50
    replications; the two highest-order kernels are bias-dominated and
    are held to the ladder trend (last level at or below the first)."""
    cells = [(g, f, 100, i) for g, f in _pairs() for i in range(5)]
    results = dict(zip(
        [c for c in cells],
        [rep for _, rep in run_table(cells, runs=50, seed=0)],
    ))
    bad = []
    for g, f in _pairs():
        means = [results[(g, f, 100, i)].mean_mse for i in range(5)]
        fails = sum(results[(g, f, 100, i)].failures for i in range(5))
        if fails:
            bad.append(f"{g}/{f}: {fails} failed runs")
            continue
        if g in ("g4", "g5"):
            if not means[4] <= means[0]:
                bad.append("%s/%s trend: i4=%.3e > i0=%.3e"
                           % (g, f, means[4], means[0]))
        else:
            for i in range(4):
                if not means[i + 1] <= means[i]:
                    bad.append("%s/%s: i%d=%.3e > i%d=%.3e"
                               % (g, f, i + 1, means[i + 1], i, means[i]))
    ok = not bad
    detail = ("all 15 ladders monotone (g4/g5 by trend)" if ok
              else "; ".join(bad[:4]))
    _report(capsys, 2, ok, detail)
    assert ok, detail


def test_criterion_3_risk_decay_rate(capsys):
    """The (g2, f1) risk at the second-smallest noise level decays with the
    sample size at a log-log slope between -1.3 and -0.3."""
    ns = [100, 200, 400, 800]
    sigma = ladder_sigma("g2", 3)
    means = []
    for n in ns:
        rep = run_experiment(
            Scenario("g2", "f1", n=n, sigma=sigma, runs=50, seed=0)
        )
        assert rep.failures == 0
        means.append(rep.mean_mse)
    slope = np.polyfit(np.log(ns), np.log(means), 1)[0]
    ok = -1.3 <= slope <= -0.3
    detail = "slope=%.3f over n=%s (mse %s)" % (
        slope, ns, ", ".join("%.2e" % m for m in means))
    _report(capsys, 3, ok, detail)
    assert ok, detail


def test_criterion_4_resolvent_identity(capsys):
    """For every builtin kernel, the r-th kernel derivative satisfies
    g_r = B_r phi + g_r * phi with the reconstructed resolvent phi, to a
    relative L2 residual below 1e-6 on [0, 10] (500-point trapezoid)."""
    grid = np.linspace(0.0, T, 500)
    worst, parts = 0.0, []
    for name in BUILTIN_G_NAMES:
        g = builtin_g(name)
        d = decompose(g)
        gex = ExpPoly.from_rational(g.num.real_coeffs(), g.den.real_coeffs())
        g_r = gex.derivatives(d.r)
        phi = phi_from_decomposition(d)
        resid = g_r(grid) - d.B_r * phi(grid) - convolve_exp_poly(g_r, phi, grid)
        # the residual is analytically zero; count any imaginary leakage of
        # the complex-arithmetic evaluation against the error budget too
        rv = np.abs(resid)
        num = np.sqrt(np.trapezoid(rv**2, grid))
        den = np.sqrt(np.trapezoid(g_r.eval_real(grid) ** 2, grid))
        rel = num / den
        worst = max(worst, rel)
        parts.append("%s=%.1e" % (name, rel))
    ok = worst < 1e-6
    detail = "max rel residual %.2e (%s)" % (worst, ", ".join(parts))
    _report(capsys, 4, ok, detail)
    assert ok, detail


def test_criterion_5_explicit_inversions(capsys):
    """The first-order cases invert in closed form: g2 gives
    f = q' + 5 q exactly, and the (s+a+b)/(s+a)^2 family gives value
    coefficient a-b, convolution weight b^2, and decay rate a+b, each
    to 1e-10."""
    probs = []
    d2 = decompose(builtin_g("g2"))
    if not (d2.r == 1 and abs(d2.B_r - 1.0) < 1e-10):
        probs.append("g2 orders")
    if abs(d2.b[0] + 5.0) > 1e-10:
        probs.append("g2 b0=%r" % d2.b[0])
    if d2.poles:
        probs.append("g2 has poles")
    for a, b in [(1.0, 2.0), (2.0, 3.0), (0.5, 4.0), (3.0, 0.25), (1.5, 1.5)]:
        g = rational_kernel([a + b, 1.0], [a * a, 2.0 * a, 1.0])
        d = decompose(g)
        term = d.poles[0]
        checks = [
            ("b0", d.b[0], b - a),
            ("s1", term.s.real, -(a + b)),
            ("weight", -term.a[0].real * term.s.real, b * b),
        ]
        for label, got, want in checks:
            if abs(got - want) > 1e-10:
                probs.append("(a=%g,b=%g) %s: got %r want %r"
                             % (a, b, label, got, want))
    ok = not probs
    detail = ("g2 and five first-order family members exact to 1e-10"
              if ok else "; ".join(probs[:3]))
    _report(capsys, 5, ok, detail)
    assert ok, detail


def test_criterion_6_kernel_moments(capsys):
    """Every smoothing kernel on the order/boundary grid has its first L
    moments correct to 1e-8, checked with an exact rational integrator."""
    worst = 0.0
    for L in (2, 4, 6, 8):
        for rho in (0.25, 0.5, 0.75, 1.0):
            for j in range(min(L, 5)):
                k = make_boundary_kernel(L, j, rho)
                lo, hi = k.support_exact
                for power in range(L):
                    total = Fraction(0)
                    for i, c in enumerate(k.coeffs_exact):
                        p = power + i + 1
                        total += c * (hi**p - lo**p) / p
                    want = (-1) ** j * math.factorial(j) if power == j else 0
                    worst = max(worst, abs(float(total - want)))
    ok = worst <= 1e-8
    detail = "max moment error %.2e over L in {2,4,6,8}, rho in {0.25..1}" % worst
    _report(capsys, 6, ok, detail)
    assert ok, detail


def test_criterion_7_noiseless_round_trip(capsys):
    """With no noise, n=4000 samples, and a fixed bandwidth of 0.5, every
    builtin pair is recovered with interior relative L2 error below 10%."""
    n = 4000
    times = np.arange(1, n + 1) * (T / n)
    cfg = EstimatorConfig(fixed_bandwidths=0.5)
    worst, worst_pair, parts = 0.0, "", []
    for gname, fname in _pairs():
        g = builtin_g(gname)
        f = builtin_f(fname)
        q = forward_convolve(g, f, times)
        grid, F, _, _, _ = _estimate_all(times, T, q[:, None], 0.0, g, cfg)
        m = (grid >= 1.0) & (grid <= 9.0)
        truth = np.asarray(f(grid[m]), dtype=float)
        rel = math.sqrt(np.mean((F[m, 0] - truth) ** 2) / np.mean(truth**2))
        if rel > worst:
            worst, worst_pair = rel, f"{gname}/{fname}"
        parts.append(rel)
    ok = worst < 0.10
    detail = "worst interior rel L2 %.4f (%s); median %.5f" % (
        worst, worst_pair, float(np.median(parts)))
    _report(capsys, 7, ok, detail)
    assert ok, detail


def test_criterion_8_numerator_shift_construction(capsys):
    """Building the degree-gap-3 kernel family from its numerator-shift
    coefficients reproduces the direct decomposition of g4 to 1e-8."""
    g4 = builtin_g("g4")
    rho = g4.num.shifted(-1.0).real_coeffs()[::-1]
    d1 = decompose(g4)
    d2 = exp_poly_decomposition(1.0, rho, 3)
    worst = max(
        float(np.max(np.abs(d1.b - d2.b))),
        float(np.max(np.abs(d1.a0 - d2.a0))),
    )
    key = lambda t: (round(t.s.real, 6), round(t.s.imag, 6))
    for t1, t2 in zip(sorted(d1.poles, key=key), sorted(d2.poles, key=key)):
        worst = max(worst, abs(t1.s - t2.s), abs(t1.a[0] - t2.a[0]))
    ok = worst <= 1e-8 and len(d1.poles) == len(d2.poles)
    detail = "max coefficient difference %.2e" % worst
    _report(capsys, 8, ok, detail)
    assert ok, detail


def test_criterion_9_bitwise_reproducibility(capsys, tmp_path):
    """The simulate subcommand is byte-identical across reruns."""
    def run(tag: str):
        out = tmp_path / f"rep_{tag}.csv"
        js = tmp_path / f"rep_{tag}.json"
        data = tmp_path / f"data_{tag}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "lapdeconv.cli", "simulate",
             "--cell", "g2,f1,100,0", "--runs", "2", "--seed", "0",
             "--output", str(out), "--json", str(js),
             "--emit-data", str(data)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes() + js.read_bytes() + data.read_bytes()

    ok = run("a") == run("b")
    detail = "rerun outputs byte-identical" if ok else "outputs differ across reruns"
    _report(capsys, 9, ok, detail)
    assert ok, detail
