"""End-to-end tests of the command-line interface (in-process)."""

import csv
import errno
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from lapdeconv import EstimatorConfig, cli
from lapdeconv.cli import (
    SIDECAR_CONFIG,
    _estimator_config,
    build_parser,
    load_samples,
    main,
    parse_kernel_spec,
)
from lapdeconv.sim import Scenario
from oracles import check_schema, load_sidecar_schema

G2 = '{"form":"builtin","name":"g2"}'
G3 = '{"form":"builtin","name":"g3"}'
G4 = '{"form":"builtin","name":"g4"}'
G4_EXP_POLY = json.dumps({
    "form": "exp-poly", "a": 1.0, "r": 3,
    "rho": [1.0, 5.5, 14.5625, 6.25, 35.265625],
})
# 1 / (s + 50)^8, whose leading coefficient is 1 against a constant of 3.9e13
STIFF_G = json.dumps({"form": "exp-poly", "a": 50.0, "r": 8, "rho": [1.0]})
# what the one-line diagnostic of each malformed --cell names; the n and i
# rules are the library's (Scenario, ladder_sigma), the rest the parser's
BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark
BAD_CELL_TEXT = {
    "g2,f1,100": "--cell must look like",
    "g2,f1,5,0": "need n >= 10",
    "g2,f1,100,9": "ladder index",
    "g2,f1,ten,0": "--cell n and i must be integers",
    "g9,f1,100,0": "unknown builtin pair",
    "g2,f9,100,0": "unknown builtin pair",
}


def write_csv(path, rows, header=("t", "y")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return str(path)


def one_error_line(capsys) -> str:
    """The stderr of the last command, asserted to be one lapdeconv: line."""
    err = capsys.readouterr().err
    assert err.startswith("lapdeconv: ")
    assert err.count("\n") == 1
    return err


def emit_cell(tmp_path, cell="g2,f1,100,0", seed=0, name="data.csv"):
    data = tmp_path / name
    rc = main([
        "simulate", "--cell", cell, "--runs", "1", "--seed", str(seed),
        "--output", str(tmp_path / "cell_report.csv"),
        "--emit-data", str(data),
    ])
    assert rc == 0
    return str(data)


def assert_unwritable(tmp_path, monkeypatch, capsys, argv, failing):
    """Run argv in an empty directory: it must exit 2 with one line naming
    the output it could not write, and leave no file in the directory."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    capsys.readouterr()
    assert main(argv) == 2
    assert one_error_line(capsys).startswith(f"lapdeconv: cannot write {failing}: ")
    assert [p.name for p in run_dir.iterdir()] == []


def assert_directory_kept(tmp_path, monkeypatch, capsys, argv):
    """Run argv in a directory that holds only the directory "out", which
    argv names as an output: it must exit 2 with one line naming "out" and
    leave the directory as the only entry, still empty."""
    run_dir = tmp_path / "run"
    (run_dir / "out").mkdir(parents=True)
    monkeypatch.chdir(run_dir)
    capsys.readouterr()
    assert main(argv) == 2
    assert one_error_line(capsys).startswith("lapdeconv: cannot write out: ")
    assert [p.name for p in run_dir.iterdir()] == ["out"]
    assert list((run_dir / "out").iterdir()) == []


class TestKernelSpecParsing:
    def test_inline_builtin(self):
        g = parse_kernel_spec(G2)
        assert g.r == 1 and g.B_r == 1.0

    def test_rational_form(self):
        g = parse_kernel_spec('{"form":"rational","num":[1],"den":[5,1]}')
        np.testing.assert_allclose(g.den.real_coeffs(), [5.0, 1.0])

    def test_file_path(self, tmp_path):
        spec = tmp_path / "kernel.json"
        spec.write_text(G3)
        g = parse_kernel_spec(str(spec))
        assert g.r == 1

    @pytest.mark.parametrize("spec", [G3, '{"form":"rational","num":[1],"den":[5,1]}',
                                      G4_EXP_POLY], ids=["builtin", "rational", "exp-poly"])
    def test_file_with_byte_order_mark(self, tmp_path, spec):
        plain, marked = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_bytes(spec.encode())
        marked.write_bytes(BOM + spec.encode())
        ga, gb = parse_kernel_spec(str(plain)), parse_kernel_spec(str(marked))
        assert ga.r == gb.r
        np.testing.assert_array_equal(ga.num.real_coeffs(), gb.num.real_coeffs())
        np.testing.assert_array_equal(ga.den.real_coeffs(), gb.den.real_coeffs())

    def test_exp_poly_matches_builtin(self):
        ga = parse_kernel_spec(G4_EXP_POLY)
        gb = parse_kernel_spec(G4)
        np.testing.assert_allclose(ga.num.real_coeffs(), gb.num.real_coeffs(),
                                   atol=1e-10)
        np.testing.assert_allclose(ga.den.real_coeffs(), gb.den.real_coeffs(),
                                   atol=1e-10)

    @pytest.mark.parametrize(
        "spec",
        [
            '{"form":"builtin","name":"g9"}',
            '{"form":"rational","num":[1,1],"den":[2,1]}',
            '{"form":"rational","num":[1],"den":[]}',
            '{"form":"exp-poly","a":1.0,"r":3,"rho":[2.0,1.0]}',
            '{"form":"exp-poly","a":1.0,"r":3}',
            '{"form":"exp-poly","a":1.0,"r":2.7,"rho":[1.0,5.5]}',
            '{"form":"exp-poly","a":true,"r":"2","rho":[1.0,5.5]}',
            '{"form":"exp-poly","a":1.0,"r":true,"rho":[1.0,5.5]}',
            '{"form":"exp-poly","a":"1.0","r":2,"rho":[1.0,5.5]}',
            '{"form":"mystery"}',
            '{"num":[1],"den":[5,1]}',
            '{broken json',
            "/nonexistent/kernel.json",
        ],
    )
    def test_bad_specs_exit_3(self, spec):
        assert main(["inspect-kernel", "--kernel", spec]) == 3


class TestDeconvolveCommand:
    @pytest.mark.parametrize(
        "cell,kernel,r,poles",
        [("g2,f1,100,0", G2, 1, 0), ("g4,f2,100,0", G4, 3, 4)],
        ids=["g2", "g4"],
    )
    def test_happy_path_with_sidecar(self, tmp_path, cell, kernel, r, poles):
        data = emit_cell(tmp_path, cell=cell)
        out = tmp_path / "f.csv"
        rc = main(["deconvolve", "--input", data, "--kernel", kernel,
                   "--sigma", "0.01", "--output", str(out)])
        assert rc == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["t", "f_hat"]
        assert len(rows) == 1 + 1024
        side = json.loads((tmp_path / "f.csv.json").read_text())
        assert check_schema(side, load_sidecar_schema()) == []
        assert side["n"] == 100
        assert side["sigma"] == 0.01
        assert side["sigma_estimated"] is False
        assert side["kernel"]["r"] == r
        assert sorted(side["bandwidths"]) == [str(j) for j in range(r + 1)]
        assert len(side["decomposition"]["poles"]) == poles
        if kernel == G2:
            assert side["decomposition"]["b"] == [-5.0]
        else:
            assert all(p["im"] != 0.0 for p in side["decomposition"]["poles"])

    def test_estimate_sigma_flag(self, tmp_path):
        data = emit_cell(tmp_path)
        out = tmp_path / "f.csv"
        rc = main(["deconvolve", "--input", data, "--kernel", G2,
                   "--estimate-sigma", "--output", str(out)])
        assert rc == 0
        side = json.loads((tmp_path / "f.csv.json").read_text())
        assert side["sigma_estimated"] is True
        assert 0.005 < side["sigma"] < 0.02

    def test_recovers_target(self, tmp_path):
        data = emit_cell(tmp_path)
        out = tmp_path / "f.csv"
        assert main(["deconvolve", "--input", data, "--kernel", G2,
                     "--sigma", "0.01", "--output", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        t, f_hat = rows[:, 0], rows[:, 1]
        m = (t >= 1.0) & (t <= 9.0)
        truth = t[m] ** 2 * np.exp(-t[m])
        assert np.mean((f_hat[m] - truth) ** 2) < 5e-3

    def test_custom_sidecar_path(self, tmp_path):
        data = emit_cell(tmp_path)
        side = tmp_path / "meta.json"
        rc = main(["deconvolve", "--input", data, "--kernel", G2,
                   "--sigma", "0.01", "--output", str(tmp_path / "f.csv"),
                   "--sidecar", str(side)])
        assert rc == 0
        assert side.exists()

    @pytest.mark.parametrize("flags,fixed", [
        ([], None),
        (["--bandwidth", "0.5"], 0.5),
        (["--bandwidth", "0.5,0.4"], [0.5, 0.4]),
    ], ids=["adaptive", "scalar", "list"])
    def test_sidecar_records_fixed_bandwidths(self, tmp_path, flags, fixed):
        # n = 250: at n = 100 the window (0, 0.5) holds 4 < L observations
        data = emit_cell(tmp_path, cell="g2,f1,250,0")
        rc = main(["deconvolve", "--input", data, "--kernel", G2, "--sigma", "0.01",
                   "--output", str(tmp_path / "f.csv")] + flags)
        assert rc == 0
        side = json.loads((tmp_path / "f.csv.json").read_text())
        assert check_schema(side, load_sidecar_schema()) == []
        assert sorted(side["config"]) == sorted(SIDECAR_CONFIG)
        assert side["config"]["fixed_bandwidths"] == fixed
        assert type(side["config"]["fixed_bandwidths"]) is type(fixed)

    @pytest.mark.parametrize("flags,failing", [
        (["--output", "missing/f.csv"], "missing/f.csv"),
        (["--output", "f.csv", "--sidecar", "missing/s.json"], "missing/s.json"),
    ], ids=["output", "sidecar"])
    def test_unwritable_output_exits_2_and_leaves_no_file(self, tmp_path, monkeypatch,
                                                          capsys, flags, failing):
        argv = ["deconvolve", "--input", emit_cell(tmp_path), "--kernel", G2,
                "--sigma", "0.01"] + flags
        assert_unwritable(tmp_path, monkeypatch, capsys, argv, failing)

    @pytest.mark.parametrize("flags", [["--output", "out"],
                                       ["--output", "f.csv", "--sidecar", "out"]],
                             ids=["output", "sidecar"])
    def test_directory_output_exits_2_and_is_kept(self, tmp_path, monkeypatch, capsys,
                                                  flags):
        argv = ["deconvolve", "--input", emit_cell(tmp_path), "--kernel", G2,
                "--sigma", "0.01"] + flags
        assert_directory_kept(tmp_path, monkeypatch, capsys, argv)

    def test_failed_write_removes_the_half_written_file(self, tmp_path, monkeypatch,
                                                         capsys):
        def disk_full(fh, doc):
            fh.write("{")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "write_json", disk_full)
        argv = ["deconvolve", "--input", emit_cell(tmp_path), "--kernel", G2,
                "--sigma", "0.01", "--output", "f.csv"]
        assert_unwritable(tmp_path, monkeypatch, capsys, argv, "f.csv.json")

    def test_failed_run_keeps_a_linked_output(self, tmp_path, monkeypatch):
        # only regular files are removed: an output through a link, as
        # /dev/stdout is one, keeps the link and its target
        data = emit_cell(tmp_path)
        link = tmp_path / "out.csv"
        link.symlink_to(os.devnull)
        monkeypatch.chdir(tmp_path)
        rc = main(["deconvolve", "--input", data, "--kernel", G2, "--sigma", "0.01",
                   "--output", "out.csv", "--sidecar", "missing/s.json"])
        assert rc == 2
        assert link.is_symlink() and os.path.exists(os.devnull)

    def test_byte_order_mark_is_accepted(self, tmp_path, monkeypatch):
        # the same relative paths in one directory per run, so the sidecars'
        # input and output members agree
        emit_cell(tmp_path)
        data = (tmp_path / "data.csv").read_bytes()
        outputs = []
        for name, bom in (("plain", b""), ("bom", BOM)):
            run_dir = tmp_path / name
            run_dir.mkdir()
            (run_dir / "in.csv").write_bytes(bom + data)
            (run_dir / "g.json").write_bytes(bom + G4_EXP_POLY.encode())
            monkeypatch.chdir(run_dir)
            rc = main(["deconvolve", "--input", "in.csv", "--kernel", "g.json",
                       "--sigma", "0.01", "--output", "f.csv"])
            assert rc == 0
            outputs.append(((run_dir / "f.csv").read_bytes(),
                            (run_dir / "f.csv.json").read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_load_samples_skips_a_byte_order_mark(self, tmp_path, newline):
        text = newline.join(["t,y", "0.5,1.25", "1,-2e-3", ""]).encode()
        (tmp_path / "plain.csv").write_bytes(text)
        (tmp_path / "bom.csv").write_bytes(BOM + text)
        times, values = load_samples(str(tmp_path / "bom.csv"))
        np.testing.assert_array_equal(times, [0.5, 1.0])
        np.testing.assert_array_equal(values, [1.25, -2e-3])
        for got, want in zip((times, values), load_samples(str(tmp_path / "plain.csv"))):
            np.testing.assert_array_equal(got, want)

    def test_stiff_kernel_needs_a_higher_order(self, tmp_path, capsys):
        # r = 8 is kept, so the default L = 8 is refused before any estimate
        data = emit_cell(tmp_path)
        capsys.readouterr()
        rc = main(["deconvolve", "--input", data, "--kernel", STIFF_G,
                   "--sigma", "0.01", "--output", str(tmp_path / "f.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "lapdeconv: invalid parameter: kernel order L=8 must exceed the "
            "inversion order r=8\n")
        assert not (tmp_path / "f.csv").exists()

    def test_fixed_bandwidth_allows_sigma_zero(self, tmp_path):
        data = emit_cell(tmp_path, cell="g2,f1,250,0")
        rc = main(["deconvolve", "--input", data, "--kernel", G2,
                   "--sigma", "0", "--output", str(tmp_path / "f.csv"),
                   "--bandwidth", "0.5"])
        assert rc == 0

    def test_fixed_bandwidth_below_L_observations_exits_4(self, tmp_path, capsys):
        # n = 100 on [0, 10]: the window (0, 0.5) of x = 0 holds 4 observations
        data = emit_cell(tmp_path)
        capsys.readouterr()
        rc = main(["deconvolve", "--input", data, "--kernel", G2, "--sigma", "0.01",
                   "--output", str(tmp_path / "f.csv"), "--bandwidth", "0.5"])
        assert rc == 4
        assert one_error_line(capsys) == (
            "lapdeconv: estimator: bandwidth 0.5 for j=0: the window (x - lam, x + lam) "
            "at x = 0 holds 4 observations in (0, T), fewer than L = 8; increase the "
            "bandwidth or the sample size\n")
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("gap", [0.0, 1e-13, 1e-9])
    def test_tied_times_count_once(self, tmp_path, capsys, gap):
        # 100 times on (0, 10], each listed twice or with a copy gap earlier:
        # the window (0, 0.45) of x = 0 holds 8 observations but 4 distinct
        # times, fewer than L = 8
        times = np.arange(1, 101) * 0.1
        times = np.sort(np.concatenate((times, times - gap)))
        data = write_csv(tmp_path / "tied.csv", zip(times, np.sin(times)))
        argv = ["deconvolve", "--input", data, "--kernel", G2, "--sigma", "0.01",
                "--output", str(tmp_path / "f.csv")]
        assert main(argv + ["--bandwidth", "0.45"]) == 4
        assert one_error_line(capsys) == (
            "lapdeconv: estimator: bandwidth 0.45 for j=0: the window (x - lam, x + lam) "
            "at x = 0 holds 4 distinct observation times in (0, T), fewer than L = 8; "
            "increase the bandwidth or the sample size\n")
        assert not (tmp_path / "f.csv").exists()
        assert main(argv) == 0
        with open(tmp_path / "f.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows and np.all(np.isfinite(np.array(rows, dtype=float)))

    def test_empty_bandwidth_field_exits_2(self, tmp_path, capsys):
        # skipping the empty field would give order 1 the bandwidth 0.4
        data = emit_cell(tmp_path, cell="g2,f1,250,0")
        capsys.readouterr()
        rc = main(["deconvolve", "--input", data, "--kernel", G2, "--sigma", "0.01",
                   "--output", str(tmp_path / "f.csv"), "--bandwidth", "0.5,,0.4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("lapdeconv: --bandwidth ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["deconvolve", "simulate"])
    def test_bandwidths_beyond_the_orders_exit_2(self, tmp_path, capsys, command):
        # g2 has r = 1, so a third bandwidth has no order to go to
        out = str(tmp_path / "out.csv")
        if command == "simulate":
            argv = ["simulate", "--cell", "g2,f1,250,0", "--runs", "1", "--output", out]
        else:
            argv = ["deconvolve", "--input", emit_cell(tmp_path, cell="g2,f1,250,0"),
                    "--kernel", G2, "--sigma", "0.01", "--output", out]
        capsys.readouterr()
        rc = main(argv + ["--bandwidth", "0.5,0.4,0.3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("lapdeconv: invalid parameter: ")
        assert "r + 1 = 2" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    def test_sigma_zero_adaptive_exits_4(self, tmp_path):
        data = emit_cell(tmp_path)
        rc = main(["deconvolve", "--input", data, "--kernel", G2,
                   "--sigma", "0", "--output", str(tmp_path / "f.csv")])
        assert rc == 4

    def test_tiny_sigma_adaptive_exits_4(self, tmp_path, capsys):
        # sigma^2 T^2 underflows to 0, so the grid depth has no finite value
        data = emit_cell(tmp_path, cell="g2,f1,250,0")
        capsys.readouterr()
        rc = main(["deconvolve", "--input", data, "--kernel", G2,
                   "--sigma", "1e-200", "--output", str(tmp_path / "f.csv")])
        assert rc == 4
        assert one_error_line(capsys).startswith(
            "lapdeconv: estimator: sigma = 1e-200 is so small")

    def test_tiny_interval_exits_4(self, tmp_path, capsys):
        # T = 1e-80: order 1's whole bandwidth grid lies above T/2
        T = 1e-80
        times = np.arange(1, 251) * (T / 250)
        rng = np.random.default_rng(0)
        values = np.sin(3 * times / T) + 0.01 * rng.standard_normal(times.size)
        data = write_csv(tmp_path / "tiny.csv", zip(times, values))
        rc = main(["deconvolve", "--input", data, "--kernel", G2,
                   "--sigma", "0.01", "--output", str(tmp_path / "f.csv")])
        assert rc == 4
        assert one_error_line(capsys).startswith(
            "lapdeconv: estimator: no admissible bandwidth level for j=1: every level "
            "of the grid")
        assert not (tmp_path / "f.csv").exists()

    def test_unsorted_input_exits_2(self, tmp_path):
        data = write_csv(tmp_path / "bad.csv",
                         [[2.0, 0.1], [1.0, 0.2], [3.0, 0.3]])
        rc = main(["deconvolve", "--input", data, "--kernel", G2,
                   "--sigma", "0.1", "--output", str(tmp_path / "f.csv")])
        assert rc == 2

    def test_non_numeric_input_exits_2(self, tmp_path):
        data = write_csv(tmp_path / "bad.csv", [[1.0, 0.1], ["x", 0.2]])
        rc = main(["deconvolve", "--input", data, "--kernel", G2,
                   "--sigma", "0.1", "--output", str(tmp_path / "f.csv")])
        assert rc == 2

    def test_wrong_header_exits_2(self, tmp_path):
        data = write_csv(tmp_path / "bad.csv", [[1.0, 0.1], [2.0, 0.2]],
                         header=("time", "value"))
        rc = main(["deconvolve", "--input", data, "--kernel", G2,
                   "--sigma", "0.1", "--output", str(tmp_path / "f.csv")])
        assert rc == 2

    def test_single_row_exits_2(self, tmp_path, capsys):
        data = write_csv(tmp_path / "bad.csv", [[1.0, 0.1]])
        rc = main(["deconvolve", "--input", data, "--kernel", G2,
                   "--sigma", "0.1", "--output", str(tmp_path / "f.csv")])
        assert rc == 2
        assert "need at least two observations" in one_error_line(capsys)

    def test_missing_input_exits_2(self, tmp_path):
        rc = main(["deconvolve", "--input", str(tmp_path / "nope.csv"),
                   "--kernel", G2, "--sigma", "0.1",
                   "--output", str(tmp_path / "f.csv")])
        assert rc == 2

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
    def test_negative_sigma_exits_2(self, tmp_path, capsys, sigma):
        data = emit_cell(tmp_path)
        capsys.readouterr()
        rc = main(["deconvolve", "--input", data, "--kernel", G2,
                   "--sigma", sigma, "--output", str(tmp_path / "f.csv")])
        assert rc == 2
        assert "sigma must be" in one_error_line(capsys)

    def test_estimate_sigma_on_too_few_rows_exits_4(self, tmp_path, capsys):
        # eight rows leave no difference of order 8 to estimate sigma from
        data = write_csv(tmp_path / "short.csv", [("%g" % t, "0") for t in range(1, 9)])
        rc = main(["deconvolve", "--input", data, "--kernel", G2, "--estimate-sigma",
                   "--output", str(tmp_path / "f.csv")])
        assert rc == 4
        assert "needs more than 8 observations" in one_error_line(capsys)

    def test_estimate_sigma_on_huge_values_is_one_line(self, tmp_path):
        # squaring differences near 1e200 overflows; the estimate must not
        # warn, and the failure must be the CLI's one-line diagnostic
        t = np.linspace(0.1, 10.0, 100)
        y = 1e200 * np.exp(-t) * (1 + 0.5 * np.sin(50 * t))
        data = write_csv(tmp_path / "huge.csv", [("%.17g" % a, "%.17g" % b) for a, b in zip(t, y)])
        proc = subprocess.run(
            [sys.executable, "-m", "lapdeconv.cli", "deconvolve", "--input", data,
             "--kernel", G2, "--estimate-sigma", "--output", str(tmp_path / "f.csv")],
            capture_output=True, text=True,
        )
        assert proc.returncode in (2, 4)
        assert proc.stderr.startswith("lapdeconv: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["deconvolve", "simulate"])
    def test_order_too_low_exits_2(self, tmp_path, capsys, command):
        # g2 has r = 1; both commands reach the estimator's one L > r rule
        out = str(tmp_path / "out.csv")
        if command == "simulate":
            argv = ["simulate", "--cell", "g2,f1,100,0", "--runs", "1", "--output", out]
        else:
            argv = ["deconvolve", "--input", emit_cell(tmp_path), "--kernel", G2,
                    "--sigma", "0.01", "--output", out]
        capsys.readouterr()
        rc = main(argv + ["--L", "1"])
        assert rc == 2
        assert one_error_line(capsys) == (
            "lapdeconv: invalid parameter: kernel order L=1 must exceed the "
            "inversion order r=1\n"
        )

    def test_grid_size_one_exits_2(self, tmp_path):
        # g4 has a convolution term, whose cell moments need two grid points
        data = emit_cell(tmp_path)
        rc = main(["deconvolve", "--input", data, "--kernel", G4,
                   "--sigma", "0.01", "--grid-size", "1",
                   "--output", str(tmp_path / "f.csv")])
        assert rc == 2

    def test_gapped_design_exits_4(self, tmp_path, capsys):
        times = np.concatenate([np.linspace(0.0, 1.0, 91)[1:], np.linspace(9.1, 10.0, 10)])
        data = write_csv(tmp_path / "gapped.csv", zip(times, np.sin(times)))
        rc = main(["deconvolve", "--input", data, "--kernel", G2,
                   "--sigma", "0.01", "--output", str(tmp_path / "f.csv")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("lapdeconv: estimator: no admissible bandwidth level")
        assert ("the window (x - lam, x + lam) at x = 5.4 holds 0 observations in "
                "(0, T), fewer than L = 8") in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--L", "0"],
            ["--grid-size", "0"],
            ["--bandwidth", "0"],
            ["--bandwidth", "nan"],
            ["--bandwidth", "1e9"],
        ],
    )
    def test_invalid_estimator_parameter_exits_2(self, tmp_path, capsys, flags):
        data = emit_cell(tmp_path)
        capsys.readouterr()
        rc = main(["deconvolve", "--input", data, "--kernel", G2,
                   "--sigma", "0.01", "--output", str(tmp_path / "f.csv")] + flags)
        assert rc == 2
        assert one_error_line(capsys).startswith("lapdeconv: invalid parameter: ")
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("command", ["deconvolve", "simulate"])
    def test_memory_error_exits_4_naming_the_grid_size(self, tmp_path, capsys,
                                                      monkeypatch, command):
        # the library entry points raise as numpy does for an 800 GB grid;
        # no test builds one
        def exhausted(*args, **kwargs):
            raise MemoryError

        data = emit_cell(tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(cli, "deconvolve", exhausted)
        monkeypatch.setattr(cli, "run_table", exhausted)
        out = str(tmp_path / "f.csv")
        argv = {"deconvolve": ["deconvolve", "--input", data, "--kernel", G2,
                               "--sigma", "0.01", "--output", out],
                "simulate": ["simulate", "--cell", "g2,f1,100,0", "--output", out]}[command]
        assert main(argv + ["--grid-size", "100000000000"]) == 4
        assert one_error_line(capsys) == (
            "lapdeconv: estimator: out of memory with an evaluation grid of "
            "100000000000 points (--grid-size)\n")
        assert not (tmp_path / "f.csv").exists()

    def test_diagnostic_on_stderr(self, tmp_path, capsys):
        rc = main(["deconvolve", "--input", str(tmp_path / "nope.csv"),
                   "--kernel", G2, "--sigma", "0.1",
                   "--output", str(tmp_path / "f.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("lapdeconv: ")
        assert err.count("\n") == 1


class TestSimulateCommand:
    def test_report_csv(self, tmp_path):
        rep = tmp_path / "rep.csv"
        rc = main(["simulate", "--cell", "g2,f1,60,4", "--runs", "2",
                   "--output", str(rep)])
        assert rc == 0
        rows = list(csv.reader(open(rep)))
        assert rows[0] == ["g", "f", "n", "i", "mean", "std", "runs", "failures"]
        assert rows[1][:4] == ["g2", "f1", "60", "4"]
        assert float(rows[1][4]) > 0

    def test_stdout_default(self, capsys):
        rc = main(["simulate", "--cell", "g2,f1,60,4", "--runs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("g,f,n,i,")

    def test_json_report(self, tmp_path):
        rep = tmp_path / "rep.csv"
        js = tmp_path / "rep.json"
        rc = main(["simulate", "--cell", "g2,f1,60,4", "--runs", "2",
                   "--seed", "7", "--output", str(rep), "--json", str(js)])
        assert rc == 0
        doc = json.loads(js.read_text())
        assert doc["runs"] == 2 and doc["seed"] == 7
        assert len(doc["rows"][0]["per_run_mse"]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--cell", "g2,f1,60,3", "--runs", "2", "--seed", "5"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags,failing", [
        (["--output", "missing/r.csv"], "missing/r.csv"),
        (["--output", "r.csv", "--json", "missing/r.json"], "missing/r.json"),
        (["--output", "r.csv", "--json", "r.json", "--emit-data", "missing/d.csv"],
         "missing/d.csv"),
    ], ids=["output", "json", "emit-data"])
    def test_unwritable_output_exits_2_and_leaves_no_file(self, tmp_path, monkeypatch,
                                                          capsys, flags, failing):
        argv = ["simulate", "--cell", "g2,f1,60,0", "--runs", "1"] + flags
        assert_unwritable(tmp_path, monkeypatch, capsys, argv, failing)

    @pytest.mark.parametrize("flags", [
        ["--output", "out"],
        ["--output", "r.csv", "--json", "out"],
        ["--output", "r.csv", "--json", "r.json", "--emit-data", "out"],
    ], ids=["output", "json", "emit-data"])
    def test_directory_output_exits_2_and_is_kept(self, tmp_path, monkeypatch, capsys,
                                                  flags):
        argv = ["simulate", "--cell", "g2,f1,60,0", "--runs", "1"] + flags
        assert_directory_kept(tmp_path, monkeypatch, capsys, argv)

    def test_an_error_after_a_write_removes_the_written_files(self, tmp_path,
                                                              monkeypatch):
        # the data sample is drawn after the report files are written
        def no_sample(*args):
            raise RuntimeError("no sample")

        monkeypatch.setattr(cli, "cell_sample", no_sample)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(RuntimeError, match="no sample"):
            main(["simulate", "--cell", "g2,f1,60,0", "--runs", "1", "--output", "r.csv",
                  "--json", "r.json", "--emit-data", "d.csv"])
        assert list(tmp_path.iterdir()) == []

    def test_seed_changes_report(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "--cell", "g2,f1,60,3", "--runs", "2"]
        assert main(base + ["--seed", "1", "--output", str(a)]) == 0
        assert main(base + ["--seed", "2", "--output", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_emit_data_round_trip(self, tmp_path):
        data = tmp_path / "d.csv"
        rc = main(["simulate", "--cell", "g3,f1,100,0", "--runs", "1",
                   "--output", str(tmp_path / "rep.csv"),
                   "--emit-data", str(data)])
        assert rc == 0
        rows = np.loadtxt(data, delimiter=",", skiprows=1)
        assert rows.shape == (100, 2)
        np.testing.assert_allclose(rows[:, 0], np.arange(1, 101) * 0.1)
        rc = main(["deconvolve", "--input", str(data), "--kernel", G3,
                   "--sigma", "0.1", "--output", str(tmp_path / "f.csv")])
        assert rc == 0

    @pytest.mark.parametrize(
        "cell,code",
        [
            ("g2,f1,100", 2),
            ("g2,f1,5,0", 2),
            ("g2,f1,100,9", 2),
            ("g2,f1,ten,0", 2),
            ("g9,f1,100,0", 3),
            ("g2,f9,100,0", 3),
        ],
    )
    def test_bad_cells(self, tmp_path, capsys, cell, code):
        rc = main(["simulate", "--cell", cell, "--runs", "1",
                   "--output", str(tmp_path / "rep.csv")])
        assert rc == code
        assert BAD_CELL_TEXT[cell] in one_error_line(capsys)

    def test_zero_runs_exits_2(self, tmp_path, capsys):
        rc = main(["simulate", "--cell", "g2,f1,60,0", "--runs", "0",
                   "--output", str(tmp_path / "rep.csv")])
        assert rc == 2
        assert "need runs >= 1" in one_error_line(capsys)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--L", "1"],
            ["--grid-size", "1"],
            ["--grid-size", "2"],
            ["--trim", "0.6"],
            ["--L", "0"],
            ["--grid-size", "0"],
            ["--trim", "-0.1"],
            ["--trim", "nan"],
            ["--bandwidth", "0"],
            ["--bandwidth", "nan"],
        ],
    )
    def test_invalid_estimator_parameter_exits_2(self, tmp_path, capsys, flags):
        rc = main(["simulate", "--cell", "g2,f1,100,0", "--runs", "1",
                   "--output", str(tmp_path / "rep.csv")] + flags)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("lapdeconv: invalid parameter: ")
        assert err.count("\n") == 1

    def test_trim_sets_the_report_window(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--cell", "g2,f1,60,0", "--runs", "2", "--seed", "1"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b), "--trim", "0.3"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_emit_data_requires_cell(self, tmp_path):
        rc = main(["simulate", "--full", "--runs", "1",
                   "--output", str(tmp_path / "rep.csv"),
                   "--emit-data", str(tmp_path / "d.csv")])
        assert rc == 2


class TestMakeKernel:
    def test_stdout_payload(self, capsys):
        rc = main(["make-kernel", "--L", "4", "--j", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["L"] == 4 and doc["j"] == 1 and doc["rho"] == 1.0
        assert doc["norm2"] > 0
        assert len(doc["coeffs"]) == doc["degree"] + 1
        assert doc["support"][0] < doc["support"][1]

    def test_profile_csv(self, tmp_path):
        out = tmp_path / "kern.csv"
        rc = main(["make-kernel", "--L", "4", "--j", "0", "--rho", "0.5",
                   "--output", str(out), "--json", str(tmp_path / "kern.json")])
        assert rc == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["t", "K"]
        assert len(rows) == 1 + 1001

    @pytest.mark.parametrize("flags,failing", [
        (["--output", "missing/k.csv"], "missing/k.csv"),
        (["--output", "k.csv", "--json", "missing/k.json"], "missing/k.json"),
    ], ids=["output", "json"])
    def test_unwritable_output_exits_2_and_leaves_no_file(self, tmp_path, monkeypatch,
                                                          capsys, flags, failing):
        argv = ["make-kernel", "--L", "4", "--j", "0"] + flags
        assert_unwritable(tmp_path, monkeypatch, capsys, argv, failing)

    @pytest.mark.parametrize("flags", [["--output", "out"],
                                       ["--output", "k.csv", "--json", "out"]],
                             ids=["output", "json"])
    def test_directory_output_exits_2_and_is_kept(self, tmp_path, monkeypatch, capsys,
                                                  flags):
        argv = ["make-kernel", "--L", "4", "--j", "0"] + flags
        assert_directory_kept(tmp_path, monkeypatch, capsys, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["make-kernel", "--L", "4", "--j", "4"],
            ["make-kernel", "--L", "0", "--j", "0"],
            ["make-kernel", "--L", "4", "--j", "0", "--rho", "0"],
            ["make-kernel", "--L", "4", "--j", "0", "--rho", "1.5"],
            ["make-kernel", "--L", "4", "--j", "0", "--rho", "1e-7"],
        ],
    )
    def test_invalid_orders_exit_3(self, argv):
        assert main(argv) == 3


class TestInspectKernel:
    def test_pure_derivative_kernel(self, capsys):
        rc = main(["inspect-kernel", "--kernel", G2])
        assert rc == 0
        out = capsys.readouterr().out
        assert "r: 1" in out
        assert "B_r: 1" in out
        assert "b_0=-5" in out
        assert "poles: none" in out

    def test_kernel_with_poles(self, capsys):
        rc = main(["inspect-kernel", "--kernel", G3])
        assert rc == 0
        out = capsys.readouterr().out
        assert "b_0=1" in out
        assert "-3" in out and "mult 1" in out

    @pytest.mark.parametrize("num, den, mult", [([0, 1], [1, 3, 3, 1], 3),
                                                ([0, 0, 1], [1, 4, 6, 4, 1], 4),
                                                ([0, 3, 1], [1, 4, 6, 4, 1], 3)])
    def test_kernel_vanishing_at_the_origin_names_its_pole(self, num, den, mult, capsys):
        # r = 2 for each, and the pole of phi~ at 0 adds the zeros of g~ there
        spec = json.dumps({"form": "rational", "num": num, "den": den})
        with pytest.warns(RuntimeWarning):
            assert main(["inspect-kernel", "--kernel", spec]) == 0
        out = capsys.readouterr().out
        assert "r: 2" in out and "0+0i (mult %d)" % mult in out

    def test_stiff_kernel_keeps_its_order(self, capsys):
        assert main(["inspect-kernel", "--kernel", STIFF_G]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["r: 8", "B_r: 1"]

    def test_spec_file_with_byte_order_mark(self, tmp_path, capsys):
        (tmp_path / "g.json").write_bytes(BOM + G4_EXP_POLY.encode())
        assert main(["inspect-kernel", "--kernel", str(tmp_path / "g.json")]) == 0
        out_a = capsys.readouterr().out
        assert main(["inspect-kernel", "--kernel", G4_EXP_POLY]) == 0
        assert capsys.readouterr().out == out_a

    def test_exp_poly_equals_builtin(self, capsys):
        assert main(["inspect-kernel", "--kernel", G4_EXP_POLY]) == 0
        out_a = capsys.readouterr().out
        assert main(["inspect-kernel", "--kernel", G4]) == 0
        out_b = capsys.readouterr().out
        assert out_a == out_b


REQUIRED_ARGS = {
    "deconvolve": ["deconvolve", "--input", "in.csv", "--kernel", G2, "--output", "f.csv",
                   "--sigma", "0.01"],
    "simulate": ["simulate", "--cell", "g2,f1,100,0"],
}


@pytest.mark.parametrize("command", sorted(REQUIRED_ARGS))
def test_flag_defaults_are_the_config_defaults(command):
    args = build_parser().parse_args(REQUIRED_ARGS[command])
    assert _estimator_config(args) == EstimatorConfig()
    if command == "simulate":
        defaults = {f.name: f.default for f in fields(Scenario)}
        assert (args.runs, args.seed, args.trim) == (
            defaults["runs"], defaults["seed"], defaults["trim"])


@pytest.mark.parametrize("flag", ["--C", "--a", "--threshold-mult", "--threads"])
@pytest.mark.parametrize("command", sorted(REQUIRED_ARGS))
def test_selection_constant_flags_are_rejected(capsys, command, flag):
    # the threshold scale, the grid ratio and the threshold multiplier of
    # the selection are constants, not flags, and every estimate runs on
    # the calling thread, so no flag sets a thread count
    with pytest.raises(SystemExit) as exc:
        main(REQUIRED_ARGS[command] + [flag, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


def test_sidecar_config_holds_the_settings_that_shape_f_hat():
    settings = {f.name for f in fields(EstimatorConfig)}
    assert set(SIDECAR_CONFIG) == settings
    schema = load_sidecar_schema()["properties"]["config"]
    assert schema["required"] == list(SIDECAR_CONFIG)
    assert set(schema["properties"]) == settings


class TestSchemaChecker:
    def test_shipped_schema_loads(self):
        schema = load_sidecar_schema()
        assert schema["type"] == "object"
        assert "kernel" in schema["properties"]

    def test_type_mismatch(self):
        errs = check_schema({"n": "one hundred"},
                            {"type": "object",
                             "properties": {"n": {"type": "integer"}}})
        assert errs and "expected type" in errs[0]

    def test_missing_required(self):
        errs = check_schema({}, {"type": "object", "required": ["n"]})
        assert errs and "missing required" in errs[0]

    def test_unexpected_member(self):
        errs = check_schema({"x": 1}, {"type": "object", "properties": {},
                                       "additionalProperties": False})
        assert errs and "unexpected member" in errs[0]

    def test_additional_properties_schema(self):
        schema = {"type": "object", "properties": {},
                  "additionalProperties": {"type": "number"}}
        assert check_schema({"0": 1.5}, schema) == []
        assert check_schema({"0": "big"}, schema)

    def test_items(self):
        schema = {"type": "array", "items": {"type": "number"}}
        assert check_schema([1, 2.5], schema) == []
        assert check_schema([1, "x"], schema)


def test_estimates_leave_numpy_ma_unimported(tmp_path):
    # the first np.unique of a process imports numpy.ma, about 20 ms of a
    # cold deconvolve; neither the CLI nor the table calls it
    data = emit_cell(tmp_path, cell="g4,f2,100,0")
    out = str(tmp_path / "f.csv")
    script = "\n".join([
        "import sys",
        "from lapdeconv import cli",
        "from lapdeconv.sim import run_table",
        f"assert cli.main(['deconvolve', '--input', {data!r}, '--kernel', {G4!r},"
        f" '--sigma', '0.01', '--output', {out!r}]) == 0",
        "assert 'numpy.ma' not in sys.modules",
        "run_table([('g2', 'f1', 100, 0), ('g5', 'f3', 100, 1)], runs=3)",
        "assert 'numpy.ma' not in sys.modules",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "lapdeconv.cli", "make-kernel",
         "--L", "2", "--j", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["L"] == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [
    ["make-kernel", "--L", "4", "--j", "0"],
    ["simulate", "--cell", "g2,f1,60,0", "--runs", "1"],
    ["inspect-kernel", "--kernel", '{"form":"builtin","name":"g4"}'],
], ids=["make-kernel", "simulate", "inspect-kernel"])
def test_full_standard_output_exits_2_with_one_line(argv):
    # standard output goes through the same OSError mapping as output files
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "lapdeconv.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr == ("lapdeconv: cannot write standard output: "
                           "No space left on device\n")
