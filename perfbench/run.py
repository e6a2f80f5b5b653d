"""lapdeconv benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {cli-cold,large-n,mc-cells} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the package is used from src/ (it need
not be installed). Every interpreter it starts runs with BLAS and OpenMP
pinned to one thread and LAPDECONV_THREADS unset, one at a time. The last
line of standard output is {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The lines before it print every figure by name with its unit,
and the full record (environment, digests, per-op results) is written
to perfbench/.work/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
RUN_LIMIT_S = 170  # every interpreter of a run has ended by then
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up-only interpreters per untraced run besides the worker, which sets
# up once and then runs whole timed passes for --seconds. Half of them start
# before the worker and half after it, and setup_s is the median of all the
# run's set-ups. mc-cells has none: its set-up is a 15 s cold pass, and a
# second one would not fit the time the benchmark's runs may take in all.
EXTRA_SETUPS = {"cli-cold": 6, "large-n": 2, "mc-cells": 0}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "replications_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# printed with the end-to-end metrics but not part of the result line:
# scaling_exponent exists on large-n only, risk_geomean varies with the
# seed's noise draw more than any timing bound allows, fail_frac is 0, and
# kernels_built_timed (kernels built in the timed passes of an in-process
# workload) is 0 on large-n
REPORTED = {"scaling_exponent": "1", "risk_geomean": "mse", "fail_frac": "ratio",
            "kernels_built_timed": "count"}
PER_LAYER = {
    "kernels.busy_s": "s", "kernels.built": "count", "kernels.calls": "count",
    "kernels.ms_per_build": "ms", "kernels.setup_busy_s": "s",
    "kernels.setup_built": "count",
    "smoother.select_s": "s", "smoother.select_max_order_s": "s",
    "smoother.levels_probed": "count", "smoother.levels_admissible": "count",
    "smoother.comparison_points": "count", "smoother.eval_s": "s",
    "smoother.weight_matrix_mb": "MB",
    "resolvent.decompose_s": "s", "deconv.self_s": "s",
    "sim.forward_s": "s", "sim.self_s": "s",
    "special.noise_s": "s", "special.gamma_s": "s",
    "cli.import_s": "s", "cli.self_s": "s", "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LAPDECONV_THREADS"}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args, env: dict, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--work", str(WORK)]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.monotonic()
    # a session of its own, so that a timeout also stops the CLI processes
    # the worker may have started
    proc = subprocess.Popen([*cmd, "--launched", repr(launched)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"the run did not finish within {RUN_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _environment(env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads": {k: env[k] for k in THREAD_VARS},
        "LAPDECONV_THREADS": env.get("LAPDECONV_THREADS", "unset"),
        "git_commit": _git_commit(),
    }


def scaling_exponent(latencies: dict) -> float:
    """Least-squares slope of log median latency on log n over n = 500..2000."""
    xs = [math.log(n) for n in (500, 1000, 2000)]
    ys = [math.log(statistics.median(latencies[f"g2/f1/{n}/0"])) for n in (500, 1000, 2000)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def run(args) -> dict:
    if not (ROOT / "src" / "lapdeconv" / "__init__.py").is_file():
        raise BenchError(f"no lapdeconv package under {ROOT / 'src'}; run from a checkout")
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    env = _env()
    extra = 0 if args.trace else EXTRA_SETUPS[args.workload]
    setups = [_worker(args, env, deadline, setup_only=True) for _ in range(extra // 2)]
    res = _worker(args, env, deadline)
    setups.append(res)
    setups += [_worker(args, env, deadline, setup_only=True) for _ in range(extra - extra // 2)]
    passes = res["passes"]
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(p["outputs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wall = statistics.median(p["ops_s"] for p in plain)
    figures = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": wall,
        "replications_per_s": plain[0]["outputs"] / wall,
        "peak_rss_mb": res["peak_rss_mb"],
        "risk_geomean": res["risk_geomean"],
        "fail_frac": failed / attempted,
    }
    built = [p["kernels_built"] for p in plain]
    if None not in built:
        figures["kernels_built_timed"] = sum(built)
    if args.workload == "large-n":
        figures["scaling_exponent"] = scaling_exponent(res["latency_s"])
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "env": {**res["env"], **_environment(env)},
        "figures": figures,
        "attempted": attempted,
        "failed": failed,
        "setups_s": [s["setup_s"] for s in setups],
        "passes": passes,
        "latency_s": res["latency_s"],
        # outputs of the first pass: a pure function of the seed
        "ops": res["ops"],
        "digests_stable": res["digests_stable"],
    }
    if args.trace:
        for key in ("per_layer", "unmeasured", "missing_crossings"):
            record[key] = res[key]
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lapdeconv benchmark (one workload, one seed)")
    ap.add_argument("--workload", required=True, choices=sorted(EXTRA_SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        res = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    record = WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    env = res["env"]
    print(f"# {args.workload} seed={args.seed} nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']!r} "
          f"threads=1 commit={env['git_commit']}")
    units = {**END_TO_END, **REPORTED}
    for name, value in res["figures"].items():
        print(f"{name} {value:.6g} {units[name]}")
    print("kernels_built_per_pass " + " ".join(str(p["kernels_built"]) for p in res["passes"]))
    if args.trace:
        for name, value in res["per_layer"].items():
            print(f"{name} {value:.6g} {PER_LAYER[name]}")
        if res["unmeasured"]:
            print("unmeasured: " + ", ".join(res["unmeasured"]))
    for op in res["ops"]:
        print(f"op {op['key']} digest={op['digest']} failed={op['failed']}"
              + (f" error={op['errors'][0].splitlines()[-1]}" if op["errors"] else ""))
    print(f"record {record.relative_to(ROOT)}")

    if args.trace:
        metrics = {k: {"value": res["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": res["figures"][k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
