"""One run of one lapdeconv benchmark workload, in a fresh interpreter.

run.py starts this script with PYTHONPATH=src and every thread count pinned
to 1, and passes the monotonic time at which it launched the interpreter, so
the set-up time printed here covers interpreter start, imports and the
untimed warm-up. With --setup-only the script stops there; otherwise it runs
timed passes of the workload's fixed op list until --seconds have elapsed,
checks every output and prints one JSON object as its last line.

With --trace 1 the passes go traced, untraced, untraced, traced, ... (the
first pass after set-up is traced); per-layer figures come from the traced
passes and the set-up, and the ratio of their wall times gives the tracing
overhead. Every pass records the kernels it built.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from checks import (
    array_digest,
    check_cli_output,
    check_estimate,
    check_risk,
    failed_replications,
    trimmed_mse,
)
from spans import UNMEASURED, Tracer, kernel_misses, layer_totals, mark_unmeasured

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
T = 10.0
GRID_SIZE = 1024  # EstimatorConfig's default evaluation grid
CHILD_TIMEOUT_S = 150


def _key(g: str, f: str, n: int, i: int) -> str:
    return f"{g}/{f}/{n}/{i}"


class Op:
    """Outcome of one output: latency, risk, failure reason, digest."""

    def __init__(self, key: str, outputs: int = 1):
        self.key = key
        self.outputs = outputs
        self.latency = 0.0
        self.risks: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.digest = ""

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(reason)

    def as_dict(self) -> dict:
        return {"key": self.key, "latency_s": self.latency, "outputs": self.outputs,
                "failed": self.failed, "errors": self.errors[:3], "digest": self.digest}


class Workload:
    """Set-up plus a fixed op list; run_pass returns the ops of one pass."""

    name = ""
    root_crossing: str | None = None  # crossing that opens the deconv span

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        # traced-pass counters
        self.counters = {"cli.import_s": 0.0, "cli.output_bytes": 0}

    def kernels_built(self, before: int | None) -> int | None:
        """Kernels the last pass built, given kernel_misses() before it;
        None when the package no longer exposes its kernel cache."""
        return None if before is None else kernel_misses() - before

    def setup(self, tracer: Tracer | None) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work after set-up that is not part of it (writing inputs)."""

    def run_pass(self, k: int, tracer: Tracer | None) -> list[Op]:
        raise NotImplementedError


class CliCold(Workload):
    """Fresh-interpreter `lapdeconv deconvolve` per op: every call builds kernels."""

    name = "cli-cold"
    root_crossing = "cli.deconvolve"
    INPUTS = (("g2", "f1", 250, 0), ("g4", "f2", 250, 0), ("g1", "f1", 250, 2))

    def setup(self, tracer):
        import lapdeconv
        import lapdeconv.cli  # noqa: F401  (what every CLI call imports)
        self.ld = lapdeconv

    def prepare(self):
        ld = self.ld
        self.items = []
        for stream, (g, f, n, i) in enumerate(self.INPUTS):
            times = np.arange(1, n + 1) * (T / n)
            kernel = ld.builtin_g(g)
            sigma = ld.ladder_sigma(g, i)
            y = ld.forward_convolve(kernel, ld.builtin_f(f), times)
            y = y + sigma * ld.standard_normals(self.seed, stream, n)
            path = self.work / f"input-{g}-{f}-{n}-{i}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("t,y\n")
                for t, v in zip(times, y):
                    fh.write("%.17g,%.17g\n" % (t, v))
            # f on the output grid, evaluated here so that the checks do not
            # run inside the spans of the timed passes
            truth = ld.builtin_f(f)(np.linspace(0.0, T, GRID_SIZE))
            self.items.append((_key(g, f, n, i), g, truth, sigma, kernel.r, path))

    def kernels_built(self, before):
        # the kernels are built in the CLI processes, which count them only
        # when traced
        return self.child_built

    def run_pass(self, k, tracer):
        ops = []
        self.child_built = None if tracer is None else 0
        for key, g, truth, sigma, r, path in self.items:
            op = Op(key)
            out = self.work / (path.stem.replace("input", "output") + ".csv")
            sidecar = Path(str(out) + ".json")
            for stale in (out, sidecar):
                stale.unlink(missing_ok=True)
            cli_args = ["deconvolve", "--input", str(path), "--output", str(out),
                        "--kernel", json.dumps({"form": "builtin", "name": g}),
                        "--sigma", "%.17g" % sigma]
            spans_path = self.work / "child-spans.json"
            if tracer is None:
                cmd = [sys.executable, "-m", "lapdeconv.cli", *cli_args]
            else:
                spans_path.unlink(missing_ok=True)
                cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *cli_args]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc = None
            op.latency = time.perf_counter() - t0
            ops.append(op)
            if proc is None:
                op.fail(f"timed out after {CHILD_TIMEOUT_S} s")
                continue
            if tracer is not None and spans_path.exists():
                child = json.loads(spans_path.read_text(encoding="utf-8"))
                tracer.extend(child["spans"])
                for name in child["missing"]:
                    if name not in tracer.missing:
                        tracer.missing.append(name)
                self.counters["cli.import_s"] += child["import_s"]
                built = child["kernels_built"]
                self.child_built = None if None in (built, self.child_built) \
                    else self.child_built + built
            if proc.returncode != 0:
                op.fail(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            risk, reason, digest = check_cli_output(
                key, str(out), str(sidecar), r, truth, T
            )
            op.risks.append(risk)
            op.digest = digest
            if reason:
                op.fail(reason)
            else:
                self.counters["cli.output_bytes"] += out.stat().st_size + sidecar.stat().st_size
        return ops


class LargeN(Workload):
    """Warm in-process deconvolve of g2/f1 at growing n; fresh noise per op."""

    name = "large-n"
    NS = (250, 500, 1000, 2000)

    def setup(self, tracer):
        import lapdeconv as ld
        self.ld = ld
        self.g = ld.builtin_g("g2")
        self.f = ld.builtin_f("f1")
        self.sigma = ld.ladder_sigma("g2", 0)
        self.truth = self.f(np.linspace(0.0, T, GRID_SIZE))
        self.design = {}
        for n in self.NS:
            times = np.arange(1, n + 1) * (T / n)
            self.design[n] = (times, ld.forward_convolve(self.g, self.f, times))
        # one estimate builds every kernel the timed ops use: the selected
        # bandwidths and the evaluation grid do not depend on n here
        self._deconvolve(self._sample(250, stream=0), tracer)

    def _sample(self, n, stream):
        times, q = self.design[n]
        y = q + self.sigma * self.ld.standard_normals(self.seed, stream, n)
        return self.ld.NoisySample(times=times, values=y, sigma=self.sigma, T=T)

    def _deconvolve(self, sample, tracer):
        if tracer is None:
            return self.ld.deconvolve(sample, self.g)
        return tracer.call("deconv", self.ld.deconvolve, sample, self.g)

    def run_pass(self, k, tracer):
        ops = []
        for idx, n in enumerate(self.NS):
            op = Op(_key("g2", "f1", n, 0))
            sample = self._sample(n, 1 + k * len(self.NS) + idx)
            t0 = time.perf_counter()
            try:
                res = self._deconvolve(sample, tracer)
            except Exception:  # one failed op is counted, the run goes on
                res = None
                op.fail(traceback.format_exc(limit=3))
            op.latency = time.perf_counter() - t0
            ops.append(op)
            if res is None:
                continue
            risk = trimmed_mse(res.grid, res.f_hat, self.truth, T)
            op.risks.append(risk)
            op.digest = array_digest(res.f_hat)
            reason = check_estimate(op.key, res.f_hat, GRID_SIZE, risk)
            if reason:
                op.fail(reason)
        return ops


class McCells(Workload):
    """Warm run_table over three cells, 100 replications, one seed per pass."""

    name = "mc-cells"
    root_crossing = "sim._estimate_all"
    CELLS = (("g2", "f1", 250, 0), ("g5", "f3", 250, 0), ("g1", "f1", 250, 2))
    RUNS = 100

    def setup(self, tracer):
        import lapdeconv
        self.ld = lapdeconv
        # the cold pass every `lapdeconv simulate` invocation pays
        self._table(self.seed * 1000, tracer)

    def _table(self, seed, tracer):
        if tracer is None:
            return self.ld.run_table(list(self.CELLS), runs=self.RUNS, seed=seed)
        return tracer.call("sim", self.ld.run_table, list(self.CELLS), runs=self.RUNS, seed=seed)

    def run_pass(self, k, tracer):
        ops = [Op(_key(*cell), outputs=self.RUNS) for cell in self.CELLS]
        t0 = time.perf_counter()
        try:
            results = self._table(self.seed * 1000 + 1 + k, tracer)
        except Exception:
            results = None
            reason = traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
        for op in ops:  # one call makes all three outputs
            op.latency = wall / len(ops)
            if results is None:
                op.fail(reason, op.outputs)
        if results is None:
            return ops
        for op, (_, rep) in zip(ops, results):
            per_run = np.asarray(rep.per_run_mse, dtype=float)
            op.risks.extend(per_run.tolist())
            op.digest = array_digest(per_run)
            bad = failed_replications(op.key, per_run)
            if bad:
                worst = check_risk(op.key, float(np.nanmax(per_run))) or rep.error
                op.fail(f"{bad} replications failed: {worst}", bad)
        return ops


WORKLOADS = {w.name: w for w in (CliCold, LargeN, McCells)}


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def _per_layer(w: Workload, tracer: Tracer, setup_end: int, setup_built: int | None,
               passes: list[dict]) -> tuple[dict, list]:
    """Per-layer metrics: per traced pass, except the kernels.setup_* pair."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p["ops_s"] for p in passes if not p["traced"]]
    n = len(traced)
    setup = layer_totals(tracer, 0, setup_end)
    timed = layer_totals(tracer, setup_end)
    sec = timed["sec"]
    counts = [p["kernels_built"] for p in traced]
    counted = setup_built is not None and None not in counts
    built = sum(counts) if counted else 0
    builds = setup_built + built if counted else 0
    kernel_s = setup["sec"].get("kernels", 0.0) + sec.get("kernels", 0.0)
    m = {
        "kernels.busy_s": sec.get("kernels", 0.0) / n,
        "kernels.built": built / n if counted else UNMEASURED,
        "kernels.calls": timed["count"].get("kernels", 0) / n,
        "kernels.ms_per_build": 1e3 * kernel_s / builds if builds else 0.0,
        "kernels.setup_busy_s": setup["sec"].get("kernels", 0.0),
        "kernels.setup_built": float(setup_built) if counted else UNMEASURED,
        "smoother.select_s": sec.get("smoother.select", 0.0) / n,
        "smoother.select_max_order_s": timed["select_max_order_s"] / n,
        "smoother.levels_probed": timed["levels"] / n,
        "smoother.levels_admissible": timed["admissible"] / n,
        "smoother.comparison_points": timed["comparison_points"] / n,
        "smoother.eval_s": sec.get("smoother.eval", 0.0) / n,
        "smoother.weight_matrix_mb": timed["weight_matrix_mb"],
        "resolvent.decompose_s": sec.get("resolvent", 0.0) / n,
        "deconv.self_s": sec.get("deconv", 0.0) / n,
        "sim.forward_s": sec.get("sim.forward", 0.0) / n,
        "sim.self_s": sec.get("sim", 0.0) / n,
        "special.noise_s": sec.get("special.noise", 0.0) / n,
        "special.gamma_s": sec.get("special.gamma", 0.0) / n,
        "cli.import_s": w.counters["cli.import_s"] / n,
        "cli.self_s": sec.get("cli", 0.0) / n,
        "cli.output_bytes": w.counters["cli.output_bytes"] / n,
        "trace.overhead_frac": (statistics.median(p["ops_s"] for p in traced)
                                / statistics.median(untraced) - 1.0),
    }
    unmeasured = mark_unmeasured(m, tracer.missing + tracer.broken, w.root_crossing)
    if not counted:  # the package no longer exposes its kernel cache
        m["kernels.ms_per_build"] = UNMEASURED
        unmeasured += ["kernels.built", "kernels.ms_per_build", "kernels.setup_built"]
    return m, sorted(set(unmeasured))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget for the timed passes of this process")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() just before this interpreter was started")
    ap.add_argument("--work", required=True, help="scratch directory inside the checkout")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload](args.seed, Path(args.work))
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    misses0 = kernel_misses() if tracer is not None else None
    w.setup(tracer)
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer is not None:
        misses = kernel_misses()
        setup_built = None if misses is None else misses - misses0
        setup_end = len(tracer.spans)
        tracer.uninstall()
    w.prepare()

    passes: list[dict] = []
    latencies: dict[str, list[float]] = {}
    first_ops: list[Op] = []
    digests_stable = True
    t_start = time.perf_counter()
    k = 0
    while True:
        # traced passes go T U U T T U ...: the first pass after set-up is
        # traced, and traced and untraced passes share positions evenly
        traced = tracer is not None and k % 4 in (0, 3)
        if traced:
            tracer.install()
        before = kernel_misses()
        t0 = time.perf_counter()
        ops = w.run_pass(k, tracer if traced else None)
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        passes.append({"wall_s": wall, "traced": traced,
                       "ops_s": sum(op.latency for op in ops),
                       "kernels_built": w.kernels_built(before),
                       "outputs": sum(op.outputs for op in ops),
                       "failed": sum(op.failed for op in ops)})
        for op in ops:
            latencies.setdefault(op.key, []).append(op.latency)
        if k == 0:
            first_ops = ops
        elif w.name == "cli-cold":
            # cli-cold repeats the same inputs, so every pass must match the first
            digests_stable &= [o.digest for o in ops] == [o.digest for o in first_ops]
        k += 1
        # whole passes until the budget is spent; a traced run needs one
        # untraced and one traced pass
        if time.perf_counter() - t_start >= args.seconds and (tracer is None or k >= 2):
            break

    risks = [r for op in first_ops for r in op.risks if math.isfinite(r) and r > 0]
    result = {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": _peak_rss_mb(w.name == "cli-cold"),
        # first pass only: its inputs depend on the seed alone
        "risk_geomean": math.exp(statistics.fmean(math.log(r) for r in risks)) if risks else float("nan"),
        "digests_stable": digests_stable,
        "ops": [op.as_dict() for op in first_ops],
        "latency_s": latencies,
        "env": _environment(),
    }
    if tracer is not None:
        result["per_layer"], result["unmeasured"] = _per_layer(
            w, tracer, setup_end, setup_built, passes)
        result["missing_crossings"] = tracer.missing + tracer.broken
    print(json.dumps(result))
    return 0


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


if __name__ == "__main__":
    sys.exit(main())
