"""Command-line front end: deconvolution runs, benchmark batches, kernels.

Subcommands
-----------
deconvolve      read a t,y sample CSV, estimate f, write t,f_hat plus a
                JSON sidecar with bandwidths and the kernel decomposition
simulate        run benchmark cells (single --cell or the --full grid) and
                write the report as CSV and optional JSON
make-kernel     print a smoothing kernel's coefficients, optionally with a
                sampled CSV profile
inspect-kernel  print the inversion constants of a convolution kernel

Each input rule is checked by the library function that needs it; this
module parses flags and maps the library's exceptions to exit codes:
0 success, 2 malformed input or an invalid parameter (a ValueError),
3 kernel-spec or make-kernel order violation, 4 estimator failure (an
EstimationError, or a MemoryError, named with the grid size). An output
file or standard output that cannot be written also exits 2, and a failed
run removes every output file it had written. Every failure prints a
one-line diagnostic naming the violated precondition. Flag defaults are those of
EstimatorConfig and Scenario. Input CSVs and kernel-spec files are read as
UTF-8 with an optional byte-order mark. ``_write_columns`` writes every
two-column CSV, at 17 significant digits so files round-trip losslessly,
and ``sim.write_json`` every JSON document; every output is a pure
function of (input bytes, flags, seed).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import stat
import sys
from pathlib import Path

import numpy as np

from .deconv import EstimatorConfig, deconvolve
from .kernels import make_boundary_kernel
from .resolvent import (
    RationalLaplaceKernel,
    decompose,
    exp_poly_kernel,
    rational_kernel,
)
from .sim import (
    BUILTIN_F_NAMES,
    BUILTIN_G_NAMES,
    Scenario,
    builtin_f,
    builtin_g,
    cell_sample,
    ladder_sigma,
    run_table,
    table_cells,
    write_json,
    write_report_csv,
    write_report_json,
)
from .smoother import (
    EstimationError,
    NoisySample,
    estimate_sigma,
)

__all__ = ["main"]

EXIT_BAD_INPUT = 2
EXIT_BAD_KERNEL = 3
EXIT_ESTIMATOR = 4


class CliError(Exception):
    """Failure with a process exit code and a one-line diagnostic."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def parse_kernel_spec(text: str) -> RationalLaplaceKernel:
    """Kernel from an inline JSON object or a path to a JSON file.

    Forms: {"form":"rational","num":[...],"den":[...]},
    {"form":"exp-poly","a":...,"r":...,"rho":[...]}, or
    {"form":"builtin","name":"g1".."g5","params":{...}}.
    """
    raw = text.strip()
    if not raw.startswith("{"):
        try:
            raw = Path(text).read_text(encoding="utf-8-sig")
        except OSError as exc:
            raise CliError(
                EXIT_BAD_KERNEL, f"kernel spec: cannot read file {text!r} ({exc})"
            ) from None
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_BAD_KERNEL, f"kernel spec: invalid JSON ({exc})") from None
    if not isinstance(obj, dict) or "form" not in obj:
        raise CliError(EXIT_BAD_KERNEL, 'kernel spec: missing "form" member')
    form = obj["form"]
    try:
        if form == "builtin":
            name = obj.get("name")
            if not isinstance(name, str):
                raise ValueError('builtin form needs a "name" string')
            return builtin_g(name, obj.get("params"))
        if form == "rational":
            return rational_kernel(
                _number_list(obj, "num"), _number_list(obj, "den")
            )
        if form == "exp-poly":
            for key in ("a", "r", "rho"):
                if key not in obj:
                    raise ValueError(f'exp-poly form needs a "{key}" member')
            a, r = obj["a"], obj["r"]
            if not _is_number(a):
                raise ValueError('"a" must be a number')
            if not isinstance(r, int) or isinstance(r, bool):
                raise ValueError('"r" must be an integer')
            return exp_poly_kernel(float(a), _number_list(obj, "rho"), r)
    except (ValueError, TypeError) as exc:
        raise CliError(EXIT_BAD_KERNEL, f"kernel spec: {exc}") from None
    raise CliError(EXIT_BAD_KERNEL, f"kernel spec: unknown form {form!r}")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number_list(obj: dict, key: str) -> list[float]:
    val = obj.get(key)
    if not isinstance(val, list) or not val or not all(map(_is_number, val)):
        raise ValueError(f'"{key}" must be a nonempty list of numbers')
    return [float(v) for v in val]


def load_samples(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a t,y CSV; any structural defect exits with the input code."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CliError(EXIT_BAD_INPUT, f"cannot read input: {exc}") from None
    if not rows or [c.strip() for c in rows[0][:2]] != ["t", "y"]:
        raise CliError(EXIT_BAD_INPUT, "input must be a CSV with header t,y")
    times, values = [], []
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) < 2:
            raise CliError(EXIT_BAD_INPUT, f"input line {ln}: expected two columns")
        try:
            times.append(float(row[0]))
            values.append(float(row[1]))
        except ValueError:
            raise CliError(
                EXIT_BAD_INPUT, f"input line {ln}: non-numeric value"
            ) from None
    return np.asarray(times), np.asarray(values)


def _parse_bandwidths(text: str | None):
    if text is None:
        return None
    try:
        vals = [float(p) for p in text.split(",")]
    except ValueError:
        raise CliError(
            EXIT_BAD_INPUT, "--bandwidth must be a float or comma-separated floats"
        ) from None
    return vals[0] if len(vals) == 1 else tuple(vals)


def _estimator_config(args) -> EstimatorConfig:
    try:
        return EstimatorConfig(
            L=args.L,
            grid_size=args.grid_size,
            fixed_bandwidths=_parse_bandwidths(args.bandwidth),
        )
    except ValueError as exc:
        raise CliError(EXIT_BAD_INPUT, f"invalid parameter: {exc}") from None


def _out_of_memory(cfg: EstimatorConfig) -> CliError:
    """The estimator failure for a MemoryError, naming the grid size, the
    setting that sizes the evaluation arrays."""
    return CliError(EXIT_ESTIMATOR,
                    f"estimator: out of memory with an evaluation grid of "
                    f"{cfg.grid_size} points (--grid-size)")


# ---------------------------------------------------------------------------
# JSON sidecar; schema/sidecar.schema.json documents its format


# The sidecar's "config": the settings that shape f_hat, which are the fields
# of EstimatorConfig. The parsed flags are JSON types already; a tuple of
# fixed bandwidths is written as a list.
SIDECAR_CONFIG = ("L", "grid_size", "fixed_bandwidths")


class _Outputs:
    """The output files of one command run.

    write(path, fill, newline) opens path for writing, lets fill(fh) write
    it and closes it; an OSError on the way exits 2 naming the path.
    Leaving the ``with`` block by an exception removes every regular file
    that write opened, the half-written one included, so a failed run
    leaves no output file behind. A path that could not be opened is left
    alone, and so is a device or a symbolic link (such as /dev/stdout).
    """

    def __init__(self):
        self.opened = []

    def write(self, path: str, fill, newline: str | None = None) -> None:
        try:
            with open(path, "w", newline=newline, encoding="utf-8") as fh:
                self.opened.append(path)
                fill(fh)
        except OSError as exc:
            raise CliError(EXIT_BAD_INPUT,
                           f"cannot write {path}: {exc.strerror or exc}") from None

    def stdout(self, fill) -> None:
        """fill(sys.stdout), then a flush; an OSError on the way exits 2 as
        in write. Standard output is then pointed at the null device, so
        the interpreter's own flush at exit meets no second error."""
        try:
            fill(sys.stdout)
            sys.stdout.flush()
        except OSError as exc:
            try:
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, sys.stdout.fileno())
                os.close(null)
            except (OSError, ValueError):
                pass
            raise CliError(EXIT_BAD_INPUT,
                           f"cannot write standard output: {exc.strerror or exc}") from None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            for path in self.opened:
                try:
                    if stat.S_ISREG(os.lstat(path).st_mode):
                        os.remove(path)
                except OSError:
                    pass
        return False


def _write_columns(fh, header: tuple[str, str], xs, ys) -> None:
    """A two-column CSV: the header, then one row per (x, y) at 17 digits."""
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(["%.17g" % x, "%.17g" % y] for x, y in zip(xs, ys))


def _sidecar_document(args, data: NoisySample, g, result, sigma_estimated: bool):
    d = result.decomposition
    settings = vars(result.config)
    return {
        "n": int(data.n),
        "T": float(data.T),
        "sigma": float(data.sigma),
        "sigma_estimated": sigma_estimated,
        "input": str(args.input),
        "output": str(args.output),
        "kernel": {
            "num": [float(c) for c in g.num.real_coeffs()],
            "den": [float(c) for c in g.den.real_coeffs()],
            "r": int(g.r),
            "B_r": float(g.B_r),
            "stable": bool(g.stable),
        },
        "decomposition": {
            "r": int(d.r),
            "B_r": float(d.B_r),
            "b": [float(v) for v in d.b],
            "a0": [float(v) for v in d.a0],
            "poles": [
                {
                    "re": float(t.s.real),
                    "im": float(t.s.imag),
                    "alpha": int(t.alpha),
                    "a": [[float(c.real), float(c.imag)] for c in t.a],
                }
                for t in d.poles
            ],
        },
        "bandwidths": {
            str(j): float(lam) for j, lam in enumerate(result.bandwidths)
        },
        "config": {key: settings[key] for key in SIDECAR_CONFIG},
    }


# ---------------------------------------------------------------------------
# Subcommands


def cmd_deconvolve(args, outputs: _Outputs) -> int:
    times, values = load_samples(args.input)
    g = parse_kernel_spec(args.kernel)
    T = float(times[-1]) if times.size else 0.0
    try:
        sigma = args.sigma
        if sigma is None:
            probe = NoisySample(times=times, values=values, T=T, sigma=0.0)
            sigma = estimate_sigma(probe)
        data = NoisySample(times=times, values=values, T=T, sigma=sigma)
    except EstimationError as exc:
        raise CliError(EXIT_ESTIMATOR, f"estimator: {exc}") from None
    except ValueError as exc:
        raise CliError(EXIT_BAD_INPUT, f"input: {exc}") from None

    cfg = _estimator_config(args)
    try:
        result = deconvolve(data, g, cfg)
    except EstimationError as exc:
        raise CliError(EXIT_ESTIMATOR, f"estimator: {exc}") from None
    except ValueError as exc:
        raise CliError(EXIT_BAD_INPUT, f"invalid parameter: {exc}") from None
    except MemoryError:
        raise _out_of_memory(cfg) from None

    outputs.write(args.output, lambda fh: _write_columns(
        fh, ("t", "f_hat"), result.grid, result.f_hat), newline="")
    sidecar = _sidecar_document(args, data, g, result,
                                sigma_estimated=args.sigma is None)
    outputs.write(args.sidecar or (args.output + ".json"),
                  lambda fh: write_json(fh, sidecar))
    return 0


def _parse_cell(text: str) -> tuple[str, str, int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise CliError(
            EXIT_BAD_INPUT, "--cell must look like g2,f1,100,0 (kernel,target,n,i)"
        )
    gn, fn, n_str, i_str = parts
    try:
        n = int(n_str)
        i = int(i_str)
    except ValueError:
        raise CliError(EXIT_BAD_INPUT, "--cell n and i must be integers") from None
    if gn not in BUILTIN_G_NAMES or fn not in BUILTIN_F_NAMES:
        raise CliError(EXIT_BAD_KERNEL, f"unknown builtin pair {gn},{fn}")
    return gn, fn, n, i


def cmd_simulate(args, outputs: _Outputs) -> int:
    if args.cell is not None:
        cells = [_parse_cell(args.cell)]
    else:
        cells = table_cells()
    if args.emit_data and args.cell is None:
        raise CliError(EXIT_BAD_INPUT, "--emit-data requires --cell")

    config = _estimator_config(args)
    try:
        results = run_table(cells, runs=args.runs, seed=args.seed, config=config,
                            trim=args.trim)
    except ValueError as exc:
        raise CliError(EXIT_BAD_INPUT, f"invalid parameter: {exc}") from None
    except MemoryError:
        raise _out_of_memory(config) from None
    if args.output:
        outputs.write(args.output, lambda fh: write_report_csv(fh, results),
                      newline="")
    else:
        outputs.stdout(lambda fh: write_report_csv(fh, results))
    if args.json:
        extra = {"runs": args.runs, "seed": args.seed}
        outputs.write(args.json, lambda fh: write_report_json(fh, results, extra=extra))
    if args.emit_data:
        gn, fn, n, i = cells[0]
        times, Y = cell_sample(builtin_g(gn), builtin_f(fn), n, ladder_sigma(gn, i),
                               args.seed, 1, Scenario.T)
        outputs.write(args.emit_data, lambda fh: _write_columns(
            fh, ("t", "y"), times, Y[:, 0]), newline="")
    return 0


def cmd_make_kernel(args, outputs: _Outputs) -> int:
    try:
        kern = make_boundary_kernel(args.L, args.j, args.rho)
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_BAD_KERNEL, f"kernel order: {exc}") from None
    payload = {
        "L": int(kern.L),
        "j": int(kern.j),
        "rho": float(args.rho),
        "support": [float(kern.support[0]), float(kern.support[1])],
        "degree": int(kern.degree),
        "coeffs": [float(c) for c in kern.coeffs],
        "norm2": float(kern.norm2),
    }
    if args.output:
        ts = np.linspace(*kern.support, 1001)
        outputs.write(args.output, lambda fh: _write_columns(
            fh, ("t", "K"), ts, kern(ts)), newline="")
    if args.json:
        outputs.write(args.json, lambda fh: write_json(fh, payload))
    else:
        outputs.stdout(lambda fh: write_json(fh, payload))
    return 0


def cmd_inspect_kernel(args, outputs: _Outputs) -> int:
    g = parse_kernel_spec(args.kernel)
    try:
        d = decompose(g)
    except ValueError as exc:
        raise CliError(EXIT_BAD_KERNEL, f"kernel spec: {exc}") from None
    lines = [f"r: {d.r}", f"B_r: {'%.12g' % d.B_r}",
             f"stable: {'yes' if g.stable else 'no'}",
             "b: " + " ".join(f"b_{j}={'%.12g' % v}" for j, v in enumerate(d.b))]
    if d.poles:
        parts = [
            f"{'%.12g' % t.s.real}{'%+.12g' % t.s.imag}i (mult {t.alpha})"
            for t in d.poles
        ]
        lines.append("poles: " + "; ".join(parts))
    else:
        lines.append("poles: none (no convolution term)")
    outputs.stdout(lambda fh: fh.write("".join(line + "\n" for line in lines)))
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_estimator_flags(sub) -> None:
    sub.add_argument("--L", type=int, default=EstimatorConfig.L,
                     help="kernel order (default %(default)s)")
    sub.add_argument("--grid-size", type=int, default=EstimatorConfig.grid_size,
                     dest="grid_size",
                     help="evaluation grid size (default %(default)s)")
    sub.add_argument("--bandwidth", default=None,
                     help="fixed bandwidth(s), scalar or comma list per "
                          "derivative order (skips adaptation)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapdeconv",
        description="Noisy convolution inversion with adaptive smoothing",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_dec = subs.add_parser("deconvolve", help="estimate f from a t,y sample")
    p_dec.add_argument("--input", required=True, help="sample CSV with header t,y")
    p_dec.add_argument("--kernel", required=True,
                       help="kernel spec: inline JSON or path to a JSON file")
    p_dec.add_argument("--output", required=True, help="output CSV path (t,f_hat)")
    p_dec.add_argument("--sidecar", default=None,
                       help="JSON sidecar path (default: <output>.json)")
    group = p_dec.add_mutually_exclusive_group(required=True)
    group.add_argument("--sigma", type=float, default=None,
                       help="known noise standard deviation")
    group.add_argument("--estimate-sigma", action="store_true",
                       dest="estimate_sigma",
                       help="estimate sigma from differences of order 8 "
                            "(needs at least 9 rows)")
    _add_estimator_flags(p_dec)
    p_dec.set_defaults(func=cmd_deconvolve)

    p_sim = subs.add_parser("simulate", help="run benchmark cells")
    pick = p_sim.add_mutually_exclusive_group(required=True)
    pick.add_argument("--cell", default=None,
                      help="single cell g,f,n,i (e.g. g2,f1,100,0)")
    pick.add_argument("--full", action="store_true",
                      help="run the full benchmark grid")
    p_sim.add_argument("--runs", type=int, default=Scenario.runs,
                       help="replications per cell (default %(default)s)")
    p_sim.add_argument("--seed", type=int, default=Scenario.seed,
                       help="base seed (default %(default)s)")
    p_sim.add_argument("--output", default=None,
                       help="report CSV path (default: stdout)")
    p_sim.add_argument("--json", default=None, help="report JSON path")
    p_sim.add_argument("--emit-data", default=None, dest="emit_data",
                       help="write the first replication's t,y CSV "
                            "(requires --cell)")
    _add_estimator_flags(p_sim)
    p_sim.add_argument("--trim", type=float, default=Scenario.trim,
                       help="boundary trim fraction for risk summaries "
                            "(default %(default)s)")
    p_sim.set_defaults(func=cmd_simulate)

    p_mk = subs.add_parser("make-kernel", help="construct a smoothing kernel")
    p_mk.add_argument("--L", type=int, required=True, help="kernel order")
    p_mk.add_argument("--j", type=int, required=True, help="derivative order")
    p_mk.add_argument("--rho", type=float, default=1.0,
                      help="boundary support parameter in (0, 1] (default 1)")
    p_mk.add_argument("--output", default=None,
                      help="CSV path for a 1001-point t,K profile")
    p_mk.add_argument("--json", default=None,
                      help="JSON path for the coefficients (default: stdout)")
    p_mk.set_defaults(func=cmd_make_kernel)

    p_ins = subs.add_parser("inspect-kernel",
                            help="print inversion constants of a kernel")
    p_ins.add_argument("--kernel", required=True,
                       help="kernel spec: inline JSON or path to a JSON file")
    p_ins.set_defaults(func=cmd_inspect_kernel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _Outputs() as outputs:
            return args.func(args, outputs)
    except CliError as exc:
        print(f"lapdeconv: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
