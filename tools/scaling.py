"""Time a first and a repeated warm deconvolve per sample size and fit the scaling in n.

    python3 tools/scaling.py [--src PATH [--src PATH]]

For each n in 1000, 2000, 4000 and 8000 a fresh interpreter imports the
package from PATH (default: src/ of this checkout), builds g2/f1 on the
equispaced design of [0, 10] with the noise of level 0 (seed 0), runs one
n = 250 estimate so that every kernel is built, and then times two
`deconvolve` calls at n on the same design with fresh noise each. The
estimator keeps nothing between calls but its kernels, so the second
call differs from the first only by warm caches. It reports both times and the
interpreter's peak resident set (import, design and warm-up included).

Each n is timed REPEATS = 3 times per tree, in its own interpreter each
time, and the medians are reported. Given a second --src, the two trees
are timed in pairs: for each n, REPEATS pairs of interpreters, one per tree,
with the tree that goes first alternating from pair to pair, so that drift
of the host's speed falls on both trees alike. Then each line also gives
the median over the pairs of the second tree's time over the first's.

One line per n is printed, then the least-squares slope of log median time
against log n for each of the two columns and each tree. Only one
interpreter runs at a time, with BLAS and OpenMP pinned to one thread.
Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import THREAD_VARS  # noqa: E402  (perfbench/run.py)

NS = (1000, 2000, 4000, 8000)
REPEATS = 3  # interpreters per tree and n; the medians are reported
T = 10.0
COLUMNS = ("first_s", "repeat_s", "peak_rss_mb")


def child(n: int) -> dict:
    """Time a first and a repeated warm deconvolve at n in this interpreter."""
    import resource
    import time

    import numpy as np

    import lapdeconv as ld

    g, f = ld.builtin_g("g2"), ld.builtin_f("f1")
    sigma = ld.ladder_sigma("g2", 0)

    def sample(size: int, stream: int):
        times = np.arange(1, size + 1) * (T / size)
        y = ld.forward_convolve(g, f, times) + sigma * ld.standard_normals(0, stream, size)
        return ld.NoisySample(times=times, values=y, sigma=sigma, T=T)

    ld.deconvolve(sample(250, 0), g)
    seconds = []
    for stream in (1, 2):
        data = sample(n, stream)
        t0 = time.perf_counter()
        ld.deconvolve(data, g)
        seconds.append(time.perf_counter() - t0)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {"n": n, "first_s": seconds[0], "repeat_s": seconds[1], "peak_rss_mb": rss}


def run_child(src: Path, n: int) -> dict:
    """One child interpreter at n with the package from src."""
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run([sys.executable, __file__, "--child", str(n)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"n={n} with {src} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def slope(points: list[dict], column: str) -> float:
    """Least-squares slope of log seconds in ``column`` against log n."""
    xs = [math.log(p["n"]) for p in points]
    ys = [math.log(p[column]) for p in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, action="append",
                    help="directory the lapdeconv package is imported from; "
                         "give it twice to compare two trees (default: src/)")
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child)))
        return 0
    srcs = [p.resolve() for p in (args.src or [ROOT / "src"])]
    if len(srcs) > 2:
        ap.error("--src is given at most twice")
    for k, src in enumerate(srcs):
        print(f"tree {'AB'[k]}: {src}")

    medians = [[] for _ in srcs]
    turn = 0
    for n in NS:
        runs = [[] for _ in srcs]
        for _ in range(REPEATS):
            order = range(len(srcs)) if turn % 2 == 0 else reversed(range(len(srcs)))
            turn += 1
            for k in order:
                try:
                    runs[k].append(run_child(srcs[k], n))
                except RuntimeError as exc:
                    print(f"scaling: {exc}", file=sys.stderr)
                    return 1
        line = f"n={n:5d}"
        for k, side in enumerate(runs):
            med = {c: statistics.median(r[c] for r in side) for c in COLUMNS}
            medians[k].append({"n": n, **med})
            line += (f"  {'AB'[k]}: first {med['first_s']:7.3f} s  repeat "
                     f"{med['repeat_s']:7.3f} s  {med['peak_rss_mb']:6.1f} MB")
        if len(srcs) == 2:
            ratio = {c: statistics.median(b[c] / a[c] for a, b in zip(*runs))
                     for c in ("first_s", "repeat_s")}
            line += f"  B/A first {ratio['first_s']:.3f} repeat {ratio['repeat_s']:.3f}"
        print(line, flush=True)
    for k, points in enumerate(medians):
        print(f"{'AB'[k]}: log-log slope first {slope(points, 'first_s'):.2f}"
              f"  repeat {slope(points, 'repeat_s'):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
