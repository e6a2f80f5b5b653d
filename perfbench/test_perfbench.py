"""Tests of the benchmark's own checks and spans.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json

import numpy as np
import pytest

import lapdeconv as ld
from checks import CEILINGS, check_cli_output, failed_replications
from spans import CROSSINGS, UNMEASURED, Span, Tracer, layer_totals, mark_unmeasured

T = 10.0
KEY = "g2/f1/250/0"


def _write_output(tmp_path, grid, f_hat):
    """A well-formed deconvolve output: CSV and a sidecar with bandwidths for j <= 1."""
    csv_path = tmp_path / "f_hat.csv"
    rows = ["t,f_hat"] + ["%.17g,%.17g" % (t, v) for t, v in zip(grid, f_hat)]
    csv_path.write_text("\n".join(rows) + "\n")
    sidecar = tmp_path / "f_hat.csv.json"
    sidecar.write_text(json.dumps({"input": "x", "output": "y",
                                   "bandwidths": {"0": 1.0, "1": 1.0}}))
    return csv_path, sidecar


@pytest.fixture
def cli_output(tmp_path):
    """A deconvolve output equal to the truth."""
    grid = np.linspace(0.0, T, 1024)
    truth = ld.builtin_f("f1")(grid)
    return (*_write_output(tmp_path, grid, truth), truth)


def _check(csv_path, sidecar, truth):
    return check_cli_output(KEY, str(csv_path), str(sidecar), 1, truth, T)


def test_intact_output_passes(cli_output):
    risk, reason, digest = _check(*cli_output)
    assert reason is None and risk == 0.0 and digest


def _set_row(lines, k, value):
    lines[k] = lines[k].split(",")[0] + "," + value
    return lines


@pytest.mark.parametrize("corrupt", [
    lambda lines: _set_row(lines, 500, "nan"),
    lambda lines: _set_row(lines, 500, "inf"),
    lambda lines: _set_row(lines, 500, "abc"),
    lambda lines: lines[:-10],
    lambda lines: ["t,y"] + lines[1:],
])
def test_corrupted_csv_is_counted(cli_output, corrupt):
    csv_path, sidecar, truth = cli_output
    csv_path.write_text("\n".join(corrupt(csv_path.read_text().splitlines())) + "\n")
    _, reason, _ = _check(csv_path, sidecar, truth)
    assert reason is not None


def test_shifted_estimate_fails_its_risk_ceiling(cli_output):
    csv_path, sidecar, truth = cli_output
    rows = csv_path.read_text().splitlines()
    shifted = [rows[0]] + ["%s,%.17g" % (r.split(",")[0], float(r.split(",")[1]) + 1.0)
                           for r in rows[1:]]
    csv_path.write_text("\n".join(shifted) + "\n")
    risk, reason, _ = _check(csv_path, sidecar, truth)
    assert risk == pytest.approx(1.0) and "ceiling" in reason


@pytest.mark.parametrize("key,f", [("g2/f1/250/0", "f1"), ("g4/f2/250/0", "f2"),
                                   ("g1/f1/250/2", "f1")])
def test_zero_estimate_fails_its_risk_ceiling(tmp_path, key, f):
    grid = np.linspace(0.0, T, 1024)
    csv_path, sidecar = _write_output(tmp_path, grid, np.zeros_like(grid))
    _, reason, _ = check_cli_output(key, str(csv_path), str(sidecar), 1,
                                    ld.builtin_f(f)(grid), T)
    assert "ceiling" in reason


@pytest.mark.parametrize("doc", ["{not json", json.dumps({"bandwidths": {"0": 1.0}})])
def test_broken_sidecar_is_counted(cli_output, doc):
    csv_path, sidecar, truth = cli_output
    sidecar.write_text(doc)
    _, reason, _ = _check(csv_path, sidecar, truth)
    assert reason is not None


def test_sidecar_paths_do_not_enter_the_digest(cli_output):
    csv_path, sidecar, truth = cli_output
    before = _check(csv_path, sidecar, truth)[2]
    doc = json.loads(sidecar.read_text())
    doc["input"] = "elsewhere.csv"
    sidecar.write_text(json.dumps(doc))
    assert _check(csv_path, sidecar, truth)[2] == before


def test_failed_replications_counts_nan_and_ceiling():
    per_run = np.array([1e-4, np.nan, 2 * CEILINGS[KEY], 3e-4])
    assert failed_replications(KEY, per_run) == 2


def test_self_time_subtracts_direct_children():
    tracer = Tracer(crossings={})
    tracer.spans = [
        Span("deconv", 0.0, 10.0),
        Span("smoother.select", 1.0, 7.0, parent=0, attrs={"j": 0, "levels": 3,
                                                             "admissible": 2,
                                                             "comparison_points": 9}),
        Span("kernels", 2.0, 3.0, parent=1),
        Span("smoother.select", 7.0, 9.0, parent=0, attrs={"j": 1, "levels": 3,
                                                             "admissible": 1,
                                                             "comparison_points": 9}),
    ]
    tot = layer_totals(tracer)
    assert tot["sec"] == {"deconv": 2.0, "smoother.select": 7.0, "kernels": 1.0}
    assert tot["select_max_order_s"] == 2.0
    assert (tot["levels"], tot["admissible"], tot["comparison_points"]) == (6, 3, 18)


def _small_deconvolve():
    g = ld.builtin_g("g2")
    times = np.arange(1, 101) * (T / 100)
    y = ld.forward_convolve(g, ld.builtin_f("f1"), times)
    sample = ld.NoisySample(times=times, values=y + 0.01 * ld.standard_normals(0, 0, 100),
                            sigma=0.01, T=T)
    return ld.deconvolve(sample, g, ld.EstimatorConfig(L=4, grid_size=64))


def test_spans_cover_the_crossings_and_uninstall_restores():
    from lapdeconv import deconv
    original = deconv._lepski_batch
    tracer = Tracer()
    tracer.install()
    try:
        tracer.call("deconv", _small_deconvolve)
    finally:
        tracer.uninstall()
    assert deconv._lepski_batch is original
    assert tracer.missing == [] and tracer.broken == []
    layers = {s.layer for s in tracer.spans}
    assert {"deconv", "smoother.select", "smoother.eval", "resolvent", "kernels"} <= layers
    assert all(s.end >= s.start for s in tracer.spans)


def test_missing_crossing_marks_its_metrics_unmeasured(monkeypatch):
    from lapdeconv import deconv
    monkeypatch.delattr(deconv, "_lepski_batch")  # as if renamed by a refactor
    tracer = Tracer(crossings={**CROSSINGS, "no_such_module.f": "sim"})
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["deconv._lepski_batch", "no_such_module.f"]
    metrics = {"smoother.select_s": 1.0, "resolvent.decompose_s": 1.0, "deconv.self_s": 1.0}
    hit = mark_unmeasured(metrics, tracer.missing)
    assert hit == ["deconv.self_s", "smoother.select_s"]
    assert metrics == {"smoother.select_s": UNMEASURED, "resolvent.decompose_s": 1.0,
                       "deconv.self_s": UNMEASURED}
