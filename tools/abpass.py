"""Pass-interleaved A/B timing of one perfbench workload on two source trees.

    python3 tools/abpass.py --a SRC --b SRC --workload {mc-cells,large-n,cli-cold} \
        [--pairs N] [--seed S]

SRC is a directory that holds the lapdeconv package, such as the src/ of a
checkout. Each side gets one long-lived interpreter that imports the
package from its SRC, with BLAS and OpenMP pinned to one thread, and
sets the workload up as perfbench does, with
the Workload classes of this checkout's perfbench/worker.py; so both sides
run the same op list. Then N pairs of timed passes run, pass k on both
sides with the same inputs, and the side that goes first alternates
from pair to pair. On cli-cold every op of a pass is a fresh CLI process,
which inherits its side's package path. Each pair also times one set-up
per side, in the same order as its passes: a fresh interpreter of this
checkout's perfbench/worker.py with --setup-only, whose setup_s runs from
its launch through imports and the workload's set-up, as perfbench's
setup_s does. Only one pass or set-up runs at a time.

Single benchmark runs on a loaded machine spread by tens of percent, more
than a change of about ten percent; two interleaved interpreters see the
same load, so the ratio of their pass times within a pair is the steadier figure.
Beside an A/B run, run an A/A control with the same seed and pairs, B a
byte-identical copy of A's tree at another path: an A/B ratio inside the
A/A quartiles is no evidence of a change. The
report gives each side's median pass and set-up times, the medians and
quartiles over the pairs of the B/A ratios of both, and whether the two
sides' output digests agree on every pass. Next to each side's pass time it gives the side's median
minor page faults per pass (``getrusage`` ``ru_minflt`` across
``run_pass``), which counts the freshly mapped pages the allocator hands
out, and its peak RSS after the last pass (``ru_maxrss``, as perfbench
reads ``peak_rss_mb``). Both are the child's own, or on cli-cold those of
the CLI processes it started. The last line is the verdict on the claim
that B's passes are faster: it holds when B wins at least 9 of every 10
pairs, ties counting for neither, and A's median pass exceeds B's by more
than the distance between A's pass-time quartiles. Standard library and
numpy only; exits 1 when a pass fails an op or the digests differ.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from run import THREAD_VARS  # noqa: E402  (perfbench/run.py)


def serve(workload: str, seed: int, work: str) -> None:
    """Child side: set up, then run pass k for every k read from stdin and
    write one JSON line per pass to the original stdout."""
    from worker import WORKLOADS

    reply = sys.stdout
    sys.stdout = sys.stderr  # nothing the workload prints reaches the replies
    w = WORKLOADS[workload](seed, Path(work))
    w.setup(None)
    w.prepare()
    reply.write("{}\n")
    reply.flush()
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    for line in sys.stdin:
        k = int(line)
        faults = resource.getrusage(who).ru_minflt
        t0 = time.perf_counter()
        ops = w.run_pass(k, None)
        wall = time.perf_counter() - t0
        faults = resource.getrusage(who).ru_minflt - faults
        reply.write(json.dumps({
            "wall_s": wall,
            "minflt": faults,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss * 1024 / 1e6,  # KiB
            "failed": sum(op.failed for op in ops),
            "errors": [e for op in ops for e in op.errors][:3],
            "digests": [op.digest for op in ops],
        }) + "\n")
        reply.flush()


class Side:
    """One long-lived interpreter running the workload on one source tree."""

    def __init__(self, name: str, src: Path, workload: str, seed: int, work: Path):
        env = dict(os.environ)
        env.update({k: "1" for k in THREAD_VARS})
        env["PYTHONPATH"] = str(src)
        work.mkdir()
        self.name, self.env, self.work = name, env, work
        self.workload, self.seed = workload, seed
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "serve", workload,
             str(seed), str(work)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._reply()

    def setup(self) -> float:
        """setup_s of one fresh set-up-only perfbench worker on this side."""
        cmd = [sys.executable, str(PERFBENCH / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--seconds", "0", "--work", str(self.work),
               "--setup-only"]
        proc = subprocess.run([*cmd, "--launched", repr(time.monotonic())], cwd=ROOT,
                              env=self.env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"side {self.name} set-up exited with {proc.returncode}: "
                               f"{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"side {self.name} ended (exit code {self.proc.wait()})")
        return json.loads(line)

    def run(self, k: int) -> dict:
        self.proc.stdin.write(f"{k}\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, type=Path, help="package directory of side A")
    ap.add_argument("--b", required=True, type=Path, help="package directory of side B")
    ap.add_argument("--workload", required=True, choices=("mc-cells", "large-n", "cli-cold"))
    ap.add_argument("--pairs", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    for src in (args.a, args.b):
        if not (src / "lapdeconv" / "__init__.py").is_file():
            ap.error(f"{src} holds no lapdeconv package")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="abpass-") as tmp:
        sides = []
        try:
            for name, src in (("A", args.a), ("B", args.b)):
                sides.append(Side(name, src.resolve(), args.workload, args.seed,
                                  Path(tmp) / name))
            walls = {"A": [], "B": []}
            setups = {"A": [], "B": []}
            faults = {"A": [], "B": []}
            peak = {}
            mismatched, failed = [], []
            for k in range(args.pairs):
                order = sides if k % 2 == 0 else sides[::-1]
                for side in order:
                    setups[side.name].append(side.setup())
                res = {side.name: side.run(k) for side in order}
                for name, r in res.items():
                    walls[name].append(r["wall_s"])
                    faults[name].append(r["minflt"])
                    peak[name] = r["peak_rss_mb"]
                    if r["failed"]:
                        failed.append((k, name, r["errors"]))
                if res["A"]["digests"] != res["B"]["digests"]:
                    mismatched.append(k)
        finally:
            for side in sides:
                side.close()

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"{os.cpu_count()} cores")
    for side in sides:
        q1, med, q3 = quartiles(walls[side.name])
        print(f"{side.name}: median setup {statistics.median(setups[side.name]):.3f} s, "
              f"median pass {med:.4f} s (quartiles {q1:.4f}-{q3:.4f}), "
              f"{statistics.median(faults[side.name]):.0f} minor page faults, "
              f"peak RSS {peak[side.name]:.1f} MB")
    for what, times in (("setup", setups), ("pass", walls)):
        ratios = [b / a for a, b in zip(times["A"], times["B"])]
        q1, med, q3 = quartiles(ratios)
        print(f"B/A {what} ratio: median {med:.3f}, quartiles {q1:.3f}-{q3:.3f}, "
              f"B faster in {sum(r < 1 for r in ratios)} of {len(ratios)} pairs")
    print("digests: " + ("identical on every pass" if not mismatched
                         else f"differ on passes {mismatched}"))
    for k, name, errors in failed:
        print(f"pass {k} side {name} failed: {errors}")
    wins = sum(b < a for a, b in zip(walls["A"], walls["B"]))
    q1, med_a, q3 = quartiles(walls["A"])
    gain = med_a - statistics.median(walls["B"])
    holds = 10 * wins >= 9 * args.pairs and gain > q3 - q1
    print(f"claim that B passes faster: B wins {wins} of {args.pairs} pairs, medians differ "
          f"by {gain:.4f} s against A's quartile distance {q3 - q1:.4f} s: claim "
          + ("holds" if holds else "does not hold"))
    return 1 if mismatched or failed else 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "serve":
        serve(sys.argv[2], int(sys.argv[3]), sys.argv[4])
    else:
        sys.exit(main())
