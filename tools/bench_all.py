"""Run the three perfbench workloads untraced and record one trajectory point.

    python3 tools/bench_all.py --k 6

Run it from anywhere inside a checkout; it uses that checkout's
perfbench/run.py and src/. Each workload (cli-cold, large-n, mc-cells) runs
once, one after the other, at seed 1 for the run_seconds of
BENCHMARK.json with --trace 0, so every trajectory point is comparable, and
BENCH_<k>.json at the root of the checkout gets each workload's result line
(the last line perfbench prints) next to the environment: nproc, the CPU
model, the Python version and the git commit ("+dirty" when tracked files
differ from it). Standard library only. Exits
1 when a workload fails to produce a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-cold", "large-n", "mc-cells")
SEED = 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def git_commit() -> str:
    """HEAD, with "+dirty" when tracked files differ from it."""
    head = git("rev-parse", "HEAD")
    if head is None:
        return "unknown"
    return head + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def run_workload(name: str, seconds: float) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
           "--seed", str(SEED), "--seconds", repr(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: perfbench exited with {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return {
        "result": json.loads(lines[-1]),
        # the header line names the machine and the libraries the run used
        "header": lines[0] if lines[0].startswith("#") else None,
        "run_s": round(time.monotonic() - started, 1),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, required=True,
                    help="trajectory index: writes BENCH_<k>.json")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(bench["run_seconds"])
    record = {
        "k": args.k,
        "seed": SEED,
        "seconds": seconds,
        "env": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "git_commit": git_commit(),
        },
        "workloads": {},
    }
    for name in WORKLOADS:
        try:
            record["workloads"][name] = run_workload(name, seconds)
        except RuntimeError as exc:
            print(f"bench_all: {exc}", file=sys.stderr)
            return 1
        metrics = record["workloads"][name]["result"]["metrics"]
        print(name, " ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items()))
    out = ROOT / f"BENCH_{args.k}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
