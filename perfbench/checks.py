"""Correctness checks and digests for the outputs the benchmark collects.

An output fails when it is non-finite, has the wrong shape, or has a risk
above the ceiling recorded for its input; a CLI output also fails when the
CSV is not t,f_hat with grid_size rows, or when the sidecar does not parse
or lacks a bandwidth for some order j <= r. Digests are reported only; they
never decide whether an output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

TRIM = 0.1

# Trimmed grid MSE ceilings per input: three times the largest risk the
# estimator reached on that input over seeds 0-39 at the commit that
# introduced the benchmark (for g2/f1/250/0, over the cli-cold, large-n and
# mc-cells draws; for mc-cells, over all 100 replications of each seed).
# They catch broken outputs, not accuracy changes: an estimate of zero
# scores 0.089 on f1 and 0.195 on f2, above these ceilings. On g5/f3 the
# estimator's own risk (median 2.7) already exceeds that of a zero
# estimate (0.079), so its ceiling only catches blow-ups.
CEILINGS = {
    "g2/f1/250/0": 4.7e-3,
    "g4/f2/250/0": 0.16,
    "g1/f1/250/2": 1.8e-2,
    "g2/f1/500/0": 1.5e-3,
    "g2/f1/1000/0": 8.3e-4,
    "g2/f1/2000/0": 3.6e-4,
    "g5/f3/250/0": 9.3,
}


def trimmed_mse(grid: np.ndarray, f_hat: np.ndarray, truth: np.ndarray, T: float) -> float:
    """Mean squared error against truth (f on grid) on [TRIM*T, (1-TRIM)*T]."""
    mask = (grid >= TRIM * T - 1e-12) & (grid <= (1.0 - TRIM) * T + 1e-12)
    diff = f_hat[mask] - truth[mask]
    return float(np.mean(diff * diff))


def check_estimate(key: str, f_hat: np.ndarray, grid_size: int, risk: float) -> str | None:
    """None when an in-memory estimate passes, else the reason it failed."""
    if f_hat.shape != (grid_size,):
        return f"f_hat has shape {f_hat.shape}, expected ({grid_size},)"
    if not np.all(np.isfinite(f_hat)):
        return "f_hat is not finite"
    return check_risk(key, risk)


def check_risk(key: str, risk: float) -> str | None:
    if not math.isfinite(risk):
        return "risk is not finite"
    if risk > CEILINGS[key]:
        return f"risk {risk:.3e} above the ceiling {CEILINGS[key]:.1e}"
    return None


def read_cli_output(csv_path: str, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(t, f_hat) from a deconvolve CSV; ValueError when it is malformed."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows or rows[0] != ["t", "f_hat"]:
        raise ValueError("CSV header is not t,f_hat")
    if len(rows) - 1 != grid_size:
        raise ValueError(f"CSV has {len(rows) - 1} rows, expected {grid_size}")
    try:
        data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    except ValueError:
        raise ValueError("CSV holds a non-numeric or short row") from None
    return data[:, 0], data[:, 1]


def read_sidecar(path: str, r: int) -> dict:
    """Parsed sidecar; ValueError when it lacks a bandwidth for some j <= r."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"sidecar does not parse ({exc})") from None
    bands = doc.get("bandwidths") if isinstance(doc, dict) else None
    if not isinstance(bands, dict):
        raise ValueError("sidecar has no bandwidths object")
    for j in range(r + 1):
        lam = bands.get(str(j))
        if not isinstance(lam, (int, float)) or not lam > 0:
            raise ValueError(f"sidecar lacks a bandwidth for order j={j}")
    return doc


def check_cli_output(key: str, csv_path: str, sidecar_path: str, r: int,
                     truth: np.ndarray, T: float) -> tuple[float, str | None, str]:
    """(risk, failure reason or None, digest) for one deconvolve run.

    truth holds f on the expected output grid, which fixes grid_size.
    """
    grid_size = truth.size
    try:
        grid, f_hat = read_cli_output(csv_path, grid_size)
        doc = read_sidecar(sidecar_path, r)
    except (OSError, ValueError) as exc:
        return float("nan"), str(exc), ""
    risk = trimmed_mse(grid, f_hat, truth, T)
    reason = check_estimate(key, f_hat, grid_size, risk)
    with open(csv_path, "rb") as fh:
        csv_bytes = fh.read()
    return risk, reason, cli_digest(csv_bytes, doc)


def cli_digest(csv_bytes: bytes, sidecar: dict) -> str:
    """Digest of the CSV bytes and the sidecar without its path members."""
    kept = {k: v for k, v in sidecar.items() if k not in ("input", "output")}
    h = hashlib.sha256(csv_bytes)
    h.update(json.dumps(kept, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()[:16]


def array_digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()[:16]


def failed_replications(key: str, per_run_mse: np.ndarray) -> int:
    """Replications whose risk is missing, non-finite or above the ceiling."""
    per_run = np.asarray(per_run_mse, dtype=float)
    return int(np.sum(~np.isfinite(per_run) | (per_run > CEILINGS[key])))
