import csv
import hashlib
import io
import os
import subprocess
import sys

import numpy as np
import pytest

import baryblend
from baryblend import Interpolant, NodeSet, get_function
from baryblend.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_process(argv):
    """The CLI in a fresh interpreter, so that warnings reach its stderr."""
    src = os.path.dirname(os.path.dirname(baryblend.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "baryblend.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


class TestEval:
    def test_node_value_at_origin(self, capsys):
        code, out, err = run_cli(
            ["eval", "--interval", "-5", "5", "--n", "10", "--d", "0",
             "--e", "0", "--fn", "runge", "--at", "0"], capsys)
        assert code == 0
        assert err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "x,r"
        x, r = lines[1].split(",")
        assert float(x) == 0.0
        assert abs(float(r) - 1.0) < 1e-12

    def test_d_above_n_exits_2(self, capsys):
        code, out, err = run_cli(["eval", "--n", "4", "--d", "9"], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "d must satisfy 0 <= d <= n" in err

    def test_e_above_d_exits_2(self, capsys):
        code, _, err = run_cli(
            ["eval", "--n", "8", "--d", "4", "--e", "5"], capsys)
        assert code == 2
        assert "e must satisfy 0 <= e <= d" in err

    def test_grid_output_row_count(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--n", "8", "--d", "3", "--grid", "11"], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == 12

    def test_negative_numbers_in_exponent_form(self, capsys):
        # the CSV prints small values as -1e-05: they must be read back as
        # numbers, not refused as options
        base = ["eval", "--n", "4", "--d", "1"]
        code, out, err = run_cli(base + ["--at", "-1e-3"], capsys)
        assert (code, err) == (0, "")
        assert (0, out, "") == run_cli(base + ["--at=-1e-3"], capsys)
        code, out, err = run_cli(base + ["--interval", "-2e0", "1",
                                         "--grid", "3"], capsys)
        assert (code, err) == (0, "")
        assert [line.split(",")[0] for line in out.split()] == [
            "x", "-2.0", "-0.5", "1.0"]

    @pytest.mark.parametrize("at", ["-inf", "-x"])
    def test_other_dash_values_still_refused(self, at, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--n", "4", "--d", "1", "--at", at])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_huge_interval_evaluates(self):
        # the end-table rows below the lead one would hold h**4 =
        # (5e299)**4, which overflows; only the lead rows are formed (Runge
        # at 2e300 also squares to inf, a sample of 0.0). The values equal
        # those of the build on
        # the interval scaled by 2**-996, with the samples scaled by k and
        # the values scaled back: k = 1 for O(1) samples, else 2**-996.
        s = 2.0 ** -996
        with np.errstate(over="ignore"):
            for fn, at, k in (("runge", 0.3, 1.0), ("poly:0,1", 1.7e300, s)):
                out = cli_process(
                    ["eval", "--fn", fn, "--interval", "0", "2e300", "--n",
                     "4", "--d", "4", "--e", "4", "--at", repr(at)])
                assert out.returncode == 0
                assert out.stderr == ""
                nodes = NodeSet.equispaced(0.0, 2e300, 4)
                ys = get_function(fn)(nodes.xs)
                scaled = Interpolant(
                    NodeSet.equispaced(0.0, 2e300 * s, 4), ys * k, 4, 4)
                assert out.stdout == f"x,r\n{at!r},{scaled(at * s) / k!r}\n"
                x = np.linspace(0.0, 2e300, 2001)
                r = Interpolant(nodes, ys, 4, 4)
                assert np.array_equal(r(x), scaled(x * s) / k)

    def test_overflowing_samples_give_one_line(self):
        # x**2 at 1e200 is an inf sample. numpy's overflow warning must
        # not add two lines before the diagnostic.
        out = cli_process(
            ["eval", "--fn", "poly:0,0,1", "--interval", "0", "1e200",
             "--n", "4", "--d", "4", "--e", "4", "--at", "0.3"])
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.count("\n") == 1
        assert out.stderr.startswith("error: ")

    def test_weight_underflow_exits_2(self, capsys):
        # every binomial weight 2**300 / 300! or less rounds to zero, and
        # r(x) would print nan
        code, out, err = run_cli(
            ["eval", "--interval", "-500", "500", "--n", "400", "--d", "300",
             "--e", "0", "--at", "0.3001"], capsys)
        assert code == 2
        assert out == ""
        assert "underflowed" in err

    def test_unknown_function_exits_2(self, capsys):
        code, _, err = run_cli(
            ["eval", "--n", "8", "--d", "3", "--fn", "wat"], capsys)
        assert code == 2
        assert "unknown function" in err

    def test_empty_poly_coefficient_exits_2(self, capsys):
        code, out, err = run_cli(
            ["eval", "--fn", "poly:1,,2", "--n", "8", "--d", "3",
             "--at", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: empty coefficient in 'poly:1,,2'\n"


class TestScan:
    def test_rectangular_with_na_above_diagonal(self, capsys):
        code, out, err = run_cli(
            ["scan", "--n", "8", "--fn", "runge", "--interval", "-5", "5",
             "--dmax", "3", "--emax", "3", "--grid", "501"], capsys)
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "n,d,e,linf,l1,lebesgue,seed,sigma"
        assert len(lines) == 1 + 16
        # cell d=0,e=1 lies above the diagonal
        row = [ln for ln in lines if ln.startswith("8,0,1,")][0]
        assert row == "8,0,1,NA,NA,NA,NA,NA"

    def test_negative_dmax_or_emax_exits_2(self, capsys):
        # range(0) would leave a header-only CSV
        for flags in (["--dmax", "-1", "--emax", "2"],
                      ["--dmax", "2", "--emax", "-1"]):
            code, out, err = run_cli(["scan", "--n", "8", *flags,
                                      "--grid", "501"], capsys)
            assert (code, out) == (2, "")
            assert err == ("error: d and e must be non-empty ranges of "
                           "integers >= 0\n")

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_64_bits_exits_2(self, seed, capsys):
        code, out, err = run_cli(
            ["scan", "--n", "8", "--dmax", "2", "--emax", "1", "--grid", "11",
             "--sigma", "0.1", "--seed", seed], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "seed" in err

    def test_seeded_scan_records_noise_columns(self, capsys):
        code, out, _ = run_cli(
            ["scan", "--n", "8", "--dmax", "2", "--emax", "0",
             "--grid", "501", "--sigma", "1e-8", "--seed", "7"], capsys)
        assert code == 0
        assert out.strip().split("\n")[1].endswith(",7,1e-08")


class TestConverge:
    def test_one_curve_per_config(self, capsys):
        code, out, _ = run_cli(
            ["converge", "--configs", "fh:3", "ext:14,4", "cheb", "spline",
             "--nmax", "40", "--grid", "501"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        methods = {r["method"] for r in rows}
        assert methods == {"fh:3", "ext:14,4", "cheb", "spline"}

    def test_explicit_n_list(self, capsys):
        code, out, _ = run_cli(
            ["converge", "--configs", "cheb", "--n-list", "8,16",
             "--grid", "501"], capsys)
        assert code == 0
        ns = [ln.split(",")[1] for ln in out.strip().split("\n")[1:]]
        assert ns == ["8", "16"]

    def test_bad_config_exits_2(self, capsys):
        code, _, err = run_cli(
            ["converge", "--configs", "spl1ne", "--grid", "501"], capsys)
        assert code == 2
        assert "bad config" in err

    def test_nmax_below_the_first_default_n_exits_2(self, capsys):
        code, out, err = run_cli(["converge", "--configs", "cheb", "--nmax",
                                  "9", "--grid", "501"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: --nmax must be >= 10\n"

    def test_empty_n_list_token_exits_2(self, capsys):
        for text in ("8,,9", "8,", ""):
            code, out, err = run_cli(["converge", "--configs", "cheb",
                                      "--n-list", text, "--grid", "501"], capsys)
            assert (code, out) == (2, "")
            assert err == f"error: empty n in --n-list {text!r}\n"

    def test_config_with_missing_field_exits_2(self, capsys):
        for token in ("ext:3", "ext:3,1,2", "fh:", "cheb:", "fh:x"):
            code, out, err = run_cli(["converge", "--configs", token,
                                      "--n-list", "8", "--grid", "501"], capsys)
            assert (code, out) == (2, "")
            assert err == (f"error: bad config {token!r}; expected fh:D, "
                           "ext:D,E, cheb or spline\n")

    def test_infinite_interval_gives_one_line(self):
        # refused before the Chebyshev nodes are formed, so numpy's
        # invalid-value warning does not come first
        out = cli_process(["converge", "--configs", "cheb", "--n-list", "8",
                           "--interval", "0", "inf"])
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "error: invalid interval: need finite a < b\n"


class TestLebesgueCmd:
    def test_single_cell(self, capsys):
        code, out, _ = run_cli(
            ["lebesgue", "--n", "16", "--d", "4", "--e", "0",
             "--interval", "-1", "1"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,d,e,lebesgue,argmax_x"
        lam = float(lines[1].split(",")[3])
        assert lam > 1.0

    @pytest.mark.parametrize("extra", [["--grid", "5"],
                                       ["--sigma", "0.5", "--seed", "7"]])
    def test_unread_flags_refused(self, extra, capsys):
        # lebesgue_constant reads no grid and no noise
        with pytest.raises(SystemExit) as exc:
            main(["lebesgue", "--n", "16", "--d", "6", "--e", "2",
                  "--interval", "-1", "1", *extra])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRungeTable:
    def test_five_rows(self, capsys):
        code, out, _ = run_cli(["runge-table", "--grid", "2001"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "10" and first[1] == "0"
        assert abs(float(first[2]) - 3.606e-2) < 5e-4


class TestOutputHandling:
    def test_out_file_and_determinism(self, tmp_path, capsys):
        argv = ["scan", "--n", "8", "--dmax", "2", "--emax", "2",
                "--grid", "501", "--sigma", "1e-8", "--seed", "3"]
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        assert main(argv + ["--out", str(f1)]) == 0
        assert main(argv + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("argv, digest", [
        ("lebesgue --n 64 --d 12 --e 4 --interval -1 1", "8adcc2f3fe79f9a2"),
        ("scan --n 32 --dmax 4 --emax 3 --grid 2001 --sigma 0.001 --seed 5",
         "d97163e94c305bae"),
        ("runge-table --grid 2001", "eed8ef610b83fec7"),
        # its batches go through the sweep in 32,768-point chunks
        ("eval --n 40 --d 14 --e 4 --grid 100001", "43361cd304c95e1e"),
    ])
    def test_stdout_bytes_are_pinned(self, argv, digest, capsys):
        # the first 16 hex digits of the stdout sha256
        code, out, err = run_cli(argv.split(), capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        argv = ["eval", "--n", "4", "--d", "1", "--grid", "5",
                "--out", str(tmp_path / "missing_dir" / "x.csv")]
        code = main(argv)
        _, err = capsys.readouterr()
        assert code == 1
        assert "error:" in err


def test_import_leaves_scipy_interpolate_out():
    # only the spline baseline needs it, and it is most of the import time
    src = os.path.dirname(os.path.dirname(baryblend.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, baryblend.cli; "
         "print('scipy.interpolate' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
