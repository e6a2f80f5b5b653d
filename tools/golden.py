"""Capture and compare the golden CLI outputs that a refactor must keep.

    python3 tools/golden.py capture DIR [--src PATH]
    python3 tools/golden.py compare A B

`capture` writes the golden set into DIR through `python -m lapdeconv.cli`,
importing the package from PATH (default: src/ of this checkout), so the
outputs of another checkout can be captured by pointing --src at its src/:

- `deconvolve` CSV and sidecar for g2/f1, g4/f2 and g1/f1 at n = 250,
  g5/f3 at n = 100 and g2/f1 at n = 2000, each on the first replication
  of noise level 0 at seed 0 (written by `simulate --emit-data`, and kept
  with the outputs) with that level's sigma, and the same for two sparse
  inputs whose windows at the bandwidth 1 hold too few observations, so
  that the grid rises above 1: g2/f1 at n = 60 and g5/f3 at n = 40;
- `deconvolve --bandwidth 0.5,0.4` CSV and sidecar on the g2/f1 input,
  which takes the fixed-bandwidth path instead of the selection;
- `deconvolve --estimate-sigma` CSV and sidecar on the g4/f2 input, whose
  noise scale comes from the data instead of `--sigma`;
- `deconvolve` CSV and sidecar on two inputs that are not lattices, made
  from emitted inputs by dropping rows: g4/f2 at n = 600 without the rows
  4 <= t <= 5 (a design gap), and the g2/f1 n = 2000 input keeping each
  row where `random.Random(0).random() < 0.5`, drawn row by row;
- `simulate --runs 20 --seed 3` CSV and JSON for the cells g2,f1,100,0,
  g4,f2,100,1 and g5,f3,100,0, and for g2,f1,100,0 again with
  `--trim 0.2`, which pins a risk window other than the default;
- `simulate --full --runs 2 --seed 3` CSV and JSON: the 150-cell table,
  whose cells on one design share its output-grid rows across kernels of
  inversion order r = 1, 3 and 4;
- the same table with `--bandwidth 1.1,1.3` (FULL_FIXED_BANDWIDTH), CSV
  and JSON: orders 0 and 1 are fixed at two bandwidths, each applied by
  a call of one order, which fills or takes the shared rows like any
  other call, while orders 2..r stay adaptive and apply some of the
  shared rows' orders;
- `make-kernel --L 8 --j 3 --rho 0.1234`, coefficient JSON and profile CSV,
  and the same command's stdout without `--json`;
- the stdout of `inspect-kernel` on the g4 kernel in exp-poly form, and on
  three rational kernels with a pole at the origin: 1/(s(s+1)), 1/s^2
  and (s+2)/(s^2(s+1)).

Every command runs inside DIR with relative file names, so the paths the
sidecars record are the same for every capture. `compare` prints one line
per file name found in A or B: "identical" when the bytes agree, otherwise
the largest relative difference between corresponding numbers, or why the
files cannot be matched number by number. For a sidecar, whose
`bandwidths` hold each order's selection, and a simulate JSON, whose
`bandwidth_counts` hold each cell's and order's, a file that differs also
reads "selections identical" or names the cells and orders whose
selection moved, so that a moved selection is not lost in the round-off
of the risks. It exits 0 only when every file is identical. Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (kernel, target, n, sigma of noise level 0 for that kernel)
DECONVOLVE_CELLS = (
    ("g2", "f1", 250, "0.01"),
    ("g4", "f2", 250, "0.002"),
    ("g1", "f1", 250, "0.001"),
    ("g5", "f3", 100, "0.002"),
    ("g2", "f1", 2000, "0.01"),
    ("g2", "f1", 60, "0.01"),
    ("g5", "f3", 40, "0.002"),
)
# (kernel, target, n, sigma, --bandwidth) of the fixed-bandwidth run; its
# input is the one written for that cell in DECONVOLVE_CELLS
FIXED_CELL = ("g2", "f1", 250, "0.01", "0.5,0.4")
# (kernel, target, n) of the run with an estimated sigma, on its input of
# DECONVOLVE_CELLS
SIGMA_CELL = ("g4", "f2", 250)
# (kernel, target, n, sigma, name, keep) of the inputs that are not
# lattices: the emitted input of that cell without the rows where
# keep(t, rng) is false, with one rng = random.Random(0) per input
DROPPED_CELLS = (
    ("g4", "f2", 600, "0.002", "gap", lambda t, rng: not 4.0 <= t <= 5.0),
    ("g2", "f1", 2000, "0.01", "thinned", lambda t, rng: rng.random() < 0.5),
)
SIMULATE_CELLS = ("g2,f1,100,0", "g4,f2,100,1", "g5,f3,100,0")
# (cell, --trim) of the simulate run with a non-default risk window
TRIM_CELL = ("g2,f1,100,0", "0.2")
# --bandwidth of the second run of the full table
FULL_FIXED_BANDWIDTH = "1.1,1.3"
# g4 as an exp-poly spec, the form inspect-kernel is captured on
G4_EXP_POLY = ('{"form": "exp-poly", "a": 1.0, "r": 3, '
               '"rho": [1.0, 5.5, 14.5625, 6.25, 35.265625]}')
# name -> (num, den) of the rational kernels with a pole at the origin
ORIGIN_POLES = {
    "s_s1": ("[1]", "[0, 1, 1]"),
    "s2": ("[1]", "[0, 0, 1]"),
    "s2_s1": ("[2, 1]", "[0, 0, 1, 1]"),
}

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def cli(out_dir: Path, src: Path, *args: str) -> str:
    """Run lapdeconv in out_dir with the package from src; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "lapdeconv.cli", *args],
                          cwd=out_dir, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"lapdeconv {' '.join(args)} exited with "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def emit(out_dir: Path, src: Path, g: str, f: str, n: int) -> str:
    """Write the first replication of cell g,f,n at noise level 0 and seed
    0 into out_dir; its file name."""
    name = f"{g}_{f}_{n}.in.csv"
    cli(out_dir, src, "simulate", "--cell", f"{g},{f},{n},0", "--runs", "1",
        "--seed", "0", "--output", os.devnull, "--emit-data", name)
    return name


def deconvolve(out_dir: Path, src: Path, source: str, g: str, sigma: str | None,
               output: str, *args: str) -> None:
    """deconvolve source with builtin g at sigma, or with an estimated
    sigma when it is None."""
    cli(out_dir, src, "deconvolve", "--input", source,
        "--kernel", '{"form":"builtin","name":"%s"}' % g,
        *(("--sigma", sigma) if sigma is not None else ("--estimate-sigma",)),
        "--output", output, *args)


def capture(out_dir: Path, src: Path) -> list[str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    for g, f, n, sigma in DECONVOLVE_CELLS:
        deconvolve(out_dir, src, emit(out_dir, src, g, f, n), g, sigma,
                   f"deconvolve_{g}_{f}_{n}.csv")
    for g, f, n, sigma, name, keep in DROPPED_CELLS:
        stem = f"{g}_{f}_{n}_{name}"
        rng = random.Random(0)
        header, *rows = (out_dir / emit(out_dir, src, g, f, n)).read_text(
            encoding="utf-8").splitlines(keepends=True)
        rows = [row for row in rows if keep(float(row.split(",")[0]), rng)]
        (out_dir / f"{stem}.in.csv").write_text(header + "".join(rows), encoding="utf-8")
        deconvolve(out_dir, src, f"{stem}.in.csv", g, sigma, f"deconvolve_{stem}.csv")
    g, f, n, sigma, bandwidth = FIXED_CELL
    deconvolve(out_dir, src, f"{g}_{f}_{n}.in.csv", g, sigma,
               f"deconvolve_{g}_{f}_{n}_fixed.csv", "--bandwidth", bandwidth)
    g, f, n = SIGMA_CELL
    deconvolve(out_dir, src, f"{g}_{f}_{n}.in.csv", g, None,
               f"deconvolve_{g}_{f}_{n}_estimate_sigma.csv")
    for cell in SIMULATE_CELLS:
        stem = "simulate_" + cell.replace(",", "_")
        cli(out_dir, src, "simulate", "--cell", cell, "--runs", "20", "--seed", "3",
            "--output", f"{stem}.csv", "--json", f"{stem}.json")
    cell, trim = TRIM_CELL
    stem = "simulate_" + cell.replace(",", "_") + "_trim" + trim
    cli(out_dir, src, "simulate", "--cell", cell, "--runs", "20", "--seed", "3",
        "--trim", trim, "--output", f"{stem}.csv", "--json", f"{stem}.json")
    cli(out_dir, src, "simulate", "--full", "--runs", "2", "--seed", "3",
        "--output", "simulate_full.csv", "--json", "simulate_full.json")
    cli(out_dir, src, "simulate", "--full", "--runs", "2", "--seed", "3",
        "--bandwidth", FULL_FIXED_BANDWIDTH,
        "--output", "simulate_full_fixed.csv", "--json", "simulate_full_fixed.json")
    cli(out_dir, src, "make-kernel", "--L", "8", "--j", "3", "--rho", "0.1234",
        "--output", "make_kernel.csv", "--json", "make_kernel.json")
    stdout = {
        "make_kernel.stdout": ("make-kernel", "--L", "8", "--j", "3", "--rho", "0.1234"),
        "inspect_kernel_g4.stdout": ("inspect-kernel", "--kernel", G4_EXP_POLY),
        **{f"inspect_kernel_{name}.stdout": (
            "inspect-kernel", "--kernel", '{"form": "rational", "num": %s, "den": %s}' % nd)
           for name, nd in ORIGIN_POLES.items()},
    }
    for name, args in stdout.items():
        (out_dir / name).write_text(cli(out_dir, src, *args), encoding="utf-8")
    return sorted(p.name for p in out_dir.iterdir())


def difference(a: bytes, b: bytes) -> str:
    """'identical', or the largest relative difference of matching numbers."""
    if a == b:
        return "identical"
    ta, tb = a.decode("utf-8"), b.decode("utf-8")
    if NUMBER.split(ta) != NUMBER.split(tb):
        return "differs outside its numbers"
    worst = 0.0
    for x, y in zip(NUMBER.findall(ta), NUMBER.findall(tb)):
        x, y = float(x), float(y)
        if x == y:
            continue
        # x != y excludes 0 == 0; a nan or an infinity counts as infinitely far
        rel = abs(x - y) / max(abs(x), abs(y))
        worst = max(worst, rel if math.isfinite(rel) else math.inf)
    return f"max relative difference {worst:.3g}"


def selections(data: bytes) -> dict | None:
    """{(cell, order): selection} of a sidecar's `bandwidths` (cell "") or a
    simulate JSON's `bandwidth_counts` (cell "g,f,n,i"); None for any other
    file."""
    try:
        doc = json.loads(data)
    except ValueError:
        return None
    if not isinstance(doc, dict):
        return None
    if "bandwidths" in doc:
        return {("", int(j)): lam for j, lam in doc["bandwidths"].items()}
    if "rows" in doc:
        return {("{g},{f},{n},{i}".format(**row), j): counts
                for row in doc["rows"] for j, counts in enumerate(row["bandwidth_counts"])}
    return None


def moved(a: bytes, b: bytes) -> str | None:
    """'selections identical', the cells and orders whose selection moved,
    or None when a and b are not both files of selections."""
    sa, sb = selections(a), selections(b)
    if sa is None or sb is None:
        return None
    keys = sorted(k for k in sa.keys() | sb.keys() if sa.get(k) != sb.get(k))
    if not keys:
        return "selections identical"
    return "selections moved: " + ", ".join(
        f"{cell} order {j}".lstrip() for cell, j in keys)


def compare(a_dir: Path, b_dir: Path) -> bool:
    names = sorted({p.name for p in a_dir.iterdir()} | {p.name for p in b_dir.iterdir()})
    same = True
    for name in names:
        pa, pb = a_dir / name, b_dir / name
        if not pa.is_file() or not pb.is_file():
            verdict = f"only in {a_dir if pa.is_file() else b_dir}"
        else:
            a, b = pa.read_bytes(), pb.read_bytes()
            verdict = difference(a, b)
            if verdict != "identical":
                verdict = "; ".join(filter(None, (verdict, moved(a, b))))
        same = same and verdict == "identical"
        print(f"{name}: {verdict}")
    return same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    cap = sub.add_parser("capture", help="write the golden set into DIR")
    cap.add_argument("dir", type=Path)
    cap.add_argument("--src", type=Path, default=ROOT / "src",
                     help="directory holding the lapdeconv package "
                          "(default: src/ of this checkout)")
    cmp_ = sub.add_parser("compare", help="compare two captured golden sets")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    if args.command == "capture":
        try:
            names = capture(args.dir.resolve(), args.src.resolve())
        except RuntimeError as exc:
            print(f"golden: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {len(names)} files to {args.dir}")
        return 0
    return 0 if compare(args.a, args.b) else 1


if __name__ == "__main__":
    sys.exit(main())
