import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclolab import __version__
from cyclolab.cli import (BINS_CAP, HANDLERS, build_parser, main, _command_parsers, _csv_cell,
                          _dumps, _parse, _plain, _read, _to_csv)
from cyclolab.equidist import ArcBox
from cyclolab.heights import parse_minpoly


def record_schema():
    import importlib.resources as res

    return json.loads(res.files("cyclolab").joinpath("schema/record.schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def run_capped(*argv):
    """`python -m cyclolab.cli argv --no-timing` in a subprocess under a
    1 GB address-space limit and a 10 s timeout."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "cyclolab.cli", *argv, "--no-timing"],
                          env=env, preexec_fn=cap_memory, capture_output=True, text=True,
                          timeout=10)


class TestCommands:
    def test_sn_survey_n1(self, capsys):
        code, rec = run_json(capsys, "sn-survey", "--N", "1", "--dmax", "10", "--no-timing")
        assert code == 0
        members = [r["d"] for r in rec["results"] if r["status"] == "member"]
        assert members == [1]

    def test_weyl(self, capsys):
        code, rec = run_json(capsys, "weyl", "--m", "12", "--k", "2,3", "--n", "3,2")
        assert code == 0 and rec["results"]["value"] == "1"

    def test_height_radical(self, capsys):
        code, rec = run_json(capsys, "height", "--radical", "2", "--n", "3")
        assert code == 0
        assert abs(rec["results"]["height"] - 0.23104906018664842) < 1e-12

    def test_height_minpoly(self, capsys):
        code, rec = run_json(capsys, "height", "--minpoly", "x^2-x-1")
        assert code == 0 and rec["results"]["degree"] == 2

    def test_height_minpoly_repeated_factor(self, capsys):
        # (x^2+x+1)^2: its roots are roots of unity, so a height would read 0
        code, out = run_cli(capsys, "height", "--minpoly", "x^4+2x^3+3x^2+2x+1")
        assert code == 2 and out == ""
        code, rec = run_json(capsys, "height", "--minpoly", "x^3-2", "--no-timing")
        assert code == 0 and rec["status"] == "ok"
        assert rec["results"] == {"degree": 3, "height": 0.23104906018664848,
                                  "mahler_measure": 2.0}

    def test_height_minpoly_one_root_pass(self, capsys, monkeypatch):
        from cyclolab import heights
        calls = []
        poly_roots = heights.poly_roots
        monkeypatch.setattr(heights, "poly_roots", lambda p: calls.append(p) or poly_roots(p))
        code, rec = run_json(capsys, "height", "--minpoly", "x^3-2", "--no-timing")
        assert code == 0 and len(calls) == 1
        assert rec["results"] == {"degree": 3, "height": heights.weil_height([-2, 0, 0, 1]),
                                  "mahler_measure": heights.mahler_measure([-2, 0, 0, 1])}

    def test_height_minpoly_leading_minus(self, capsys):
        # argparse takes "--minpoly -x^2+2x+5" for two options; the "=" form
        # reads it
        code, rec = run_json(capsys, "height", "--minpoly=-x^2+2x+5", "--no-timing")
        assert code == 0 and rec["results"]["degree"] == 2
        assert abs(rec["results"]["height"] - 0.8047189562170503) < 1e-12
        assert rec["results"]["mahler_measure"] == 5.0

    def test_height_minpoly_degree_after_trim(self, capsys):
        code, rec = run_json(capsys, "height", "--minpoly", "0x^3+x-1", "--no-timing")
        assert code == 0 and rec["results"]["degree"] == 1
        assert rec["results"]["mahler_measure"] == 1.0

    @pytest.mark.parametrize("text", ["", "x2", "x++1", "2*x", "x^", "x-"])
    def test_height_minpoly_syntax_exit_2(self, capsys, text):
        code = main(["height", "--minpoly", text])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert repr(text) in err and '"x^3-2"' in err

    @pytest.mark.parametrize("text", ["0", "0x^2", "5", "x^3-6x^2+12x-8"])
    def test_height_minpoly_zero_constant_cube_exit_2(self, capsys, text):
        code, out = run_cli(capsys, "height", "--minpoly", text)
        assert code == 2 and out == ""

    def test_height_minpoly_past_double_range_exit_2(self, capsys):
        code = main(["height", "--minpoly", "x^2-2" + "0" * 400])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "exceeds the double limit of ~1.8e308" in err

    @pytest.mark.parametrize("argv", [["--minpoly", "x^2-2", "--radical", "3"], ["--n", "2"]])
    def test_height_needs_one_branch(self, capsys, argv):
        assert main(["height", *argv]) == 2
        err = capsys.readouterr().err
        assert "--minpoly" in err and "--radical" in err

    def test_height_minpoly_refuses_n(self, capsys, tmp_path):
        # also when a cached --minpoly entry would otherwise answer
        args = ["height", "--minpoly", "x^2-2", "--cache", str(tmp_path)]
        assert run_cli(capsys, *args)[0] == 0
        for n in ("3", "1"):
            code = main([*args, "--n", n])
            out, err = capsys.readouterr()
            assert code == 2 and out == ""
            assert "--n belongs to --radical" in err

    def test_height_radical_n_defaults_to_1(self, capsys, tmp_path):
        # one record and one cache entry with or without --n 1
        args = ["height", "--radical", "2", "--no-timing", "--cache", str(tmp_path)]
        code, rec = run_json(capsys, *args)
        assert code == 0 and rec["inputs"] == {"n": 1, "radical": "2"}
        code, again = run_json(capsys, *args, "--n", "1")
        assert code == 0 and again == {**rec, "cached": True}
        assert len(list(tmp_path.iterdir())) == 1

    @pytest.mark.parametrize("m,k", [(1, 1), (12, 8), (64, 3), (1000, 0), (4096, -6),
                                     (10007, 100), (65536, 12)])
    def test_arc_count_hist_out_bytes(self, capsys, tmp_path, m, k):
        # the file np.histogram of the listed angles writes, byte for byte
        import numpy as np
        from cyclolab.cli import _write_hist
        want = tmp_path / "want.csv"
        angles = [((r * k) % m) / m for r in range(1, m + 1)]
        _write_hist(want, *np.histogram(angles, bins=64, range=(0.0, 1.0)))
        got = tmp_path / "got.csv"
        code, _ = run_cli(capsys, "arc-count", "--m", str(m), "--k", str(k),
                          "--arcs", "0:0.5", "--threads", "1", "--hist-out", str(got))
        assert code == 0 and got.read_bytes() == want.read_bytes()

    def test_arc_count_hist_at_the_cap(self):
        from cyclolab.equidist import ARC_M_CAP, _turn_histogram
        t0 = time.perf_counter()
        counts, edges = _turn_histogram(ARC_M_CAP, 128 * 7)  # each residue 128 times
        assert time.perf_counter() - t0 < 0.05
        assert sum(counts) == ARC_M_CAP and len(edges) == 65
        assert all(c % 128 == 0 and abs(c - ARC_M_CAP / 64) < 128 for c in counts)

    def test_flat_verify(self, capsys):
        code, rec = run_json(
            capsys, "flat-verify", "--d", "2", "--exponents", "0,1",
            "--coeffs", "1/2*z^1 + 1/2*z^7 @ 8;1/2*z^1 + 1/2*z^3 @ 8",
        )
        assert code == 0
        assert rec["status"] == "flat"
        assert rec["results"]["validity"]["subset_sums_nonzero"]

    @pytest.mark.parametrize("argv", [
        ["flat-verify", "--exponents", "0,1", "--coeffs", "1 @ 1"],
        ["flat-verify", "--numeric", "--exponents", "0,1", "--coeffs", "1+0j"],
        ["reduce", "--exponents", "0", "--coeffs", "1 @ 1;1 @ 1"],
    ])
    def test_one_coefficient_per_exponent(self, capsys, argv):
        code = main([*argv, "--d", "2"])
        out, err = capsys.readouterr()
        n_exp = len(argv[argv.index("--exponents") + 1].split(","))
        n_coef = len(argv[argv.index("--coeffs") + 1].split(";"))
        assert code == 2 and out == ""
        assert f"{n_exp} exponents but {n_coef} coefficients" in err

    def test_flat_verify_numeric(self, capsys):
        code, rec = run_json(
            capsys, "flat-verify", "--numeric", "--d", "2", "--exponents", "0,1",
            "--coeffs", "0.7071067811865476+0j;0.7071067811865476j",
        )
        assert code == 0 and rec["status"] == "flat"
        assert rec["results"]["max_deviation"] < 1e-9

    def test_flat_search(self, capsys):
        code, rec = run_json(
            capsys, "flat-search", "--d", "2", "--exponents", "0,1",
            "--restarts", "6", "--seed", "1",
        )
        assert code == 0 and rec["status"] == "numeric_member"

    def test_reduce(self, capsys):
        code, rec = run_json(
            capsys, "reduce", "--d", "2", "--exponents", "0,1",
            "--coeffs", "1/2*z^1 + 1/2*z^7 @ 8;1/2*z^1 + 1/2*z^3 @ 8",
        )
        assert code == 0
        assert rec["results"]["d_prime"] == 1 and rec["results"]["c"] == [0]

    def test_arc_count(self, capsys):
        code, rec = run_json(
            capsys, "arc-count", "--m", "4", "--k", "1", "--arcs", "0:0.785398163",
        )
        assert code == 0 and rec["results"]["count"] == 1

    def test_arc_count_m_above_cap_exit_2(self, capsys):
        code = main(["arc-count", "--m", str(10**10 + 19), "--k", "1", "--arcs", "0t:1/4t"])
        err = capsys.readouterr().err
        assert code == 2 and f"m = {10**10 + 19} exceeds the arc modulus cap {10**9}" in err

    def test_arc_count_walk_past_cap_exit_2(self, capsys):
        # the walk of a 3-D box of 3-rad arcs at m = 999,999,937 ran past
        # 15 s; it is refused from the member intervals before it starts
        t0 = time.perf_counter()
        code = main(["arc-count", "--m", "999999937", "--k", "1,2,3", "--arcs", "0:3,0:3,0:3"])
        assert time.perf_counter() - t0 < 1
        assert code == 2 and "arc walk cap" in capsys.readouterr().err

    def test_flat_verify_large_coefficients(self, capsys):
        # the first coefficient is exactly 1 in Q(zeta_3)
        big = ("1000000000000000000000000000001 + 1000000000000000000000000000000*z^1"
               " + 1000000000000000000000000000000*z^2 @ 3")
        code, rec = run_json(capsys, "flat-verify", "--d", "1", "--exponents", "0,1",
                             "--coeffs", big + ";-1 @ 1")
        validity = rec["results"]["validity"]
        assert code == 0 and not validity["subset_sums_nonzero"]
        assert validity["failing_subset"] == [0, 1]

    def test_strict_check(self, capsys):
        code, rec = run_json(
            capsys, "strict-check", "--seq", "7:1,1;11:1,1;13:1,1",
        )
        assert code == 0 and rec["status"] == "obstructed"

    def test_strict_check_exact_norm(self, capsys):
        k = "112816,120358,179675,104136,73252,212178"
        code, rec = run_json(capsys, "strict-check", "--seq", f"322735:{k};322735:{k}",
                             "--threshold", "6", "--no-timing")
        assert code == 0 and rec["status"] == "obstructed"
        assert rec["results"]["shortest_norm"] == 5
        assert rec["results"]["relation"] == [4, -2, 3, -4, 3, 5]

    def test_strict_check_past_node_budget_exit_2(self, capsys, monkeypatch):
        from cyclolab import lattice
        monkeypatch.setattr(lattice, "ENUM_NODES", 5)
        k = "112816,120358,179675,104136,73252,212178"
        code = main(["strict-check", "--seq", f"322735:{k};322735:{k}", "--threshold", "6"])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "search nodes" in err

    @pytest.mark.parametrize("argv", [
        ["arc-count", "--m", "101", "--k", "1,3", "--arcs", "0:nan,0:0.5"],
        ["arc-count", "--m", "101", "--k", "1,3", "--arcs", "inf:0.5,0:0.5"],
        ["strict-check", "--seq", "7:1,1;11:1,1", "--threshold", "nan"],
        ["strict-check", "--seq", "7:1,1;11:1,1", "--threshold", "inf"],
        ["dgamma", "--sum", "1 * 2^(1/3)", "--eps", "nan"],
        ["sigma-search", "--sum", "1 * 2^(1/3)", "--eps", "inf", "--arcs", "0:1"],
        ["sigma-search", "--sum", "1 * 2^(1/3)", "--eps", "0.1", "--arcs", "nan:1"],
        ["flat-verify", "--d", "5", "--exponents", "0,1", "--coeffs", "nan;1", "--numeric"],
        ["flat-verify", "--d", "5", "--exponents", "0,1", "--coeffs", "1;-infj", "--numeric"],
        ["flat-verify", "--d", "5", "--exponents", "0,1", "--coeffs", "1;1", "--numeric",
         "--mu", "1e400"],
        ["height", "--radical", "1e400", "--n", "1"],
        ["height", "--radical", "1e309", "--n", "3"],
    ])
    @pytest.mark.filterwarnings("error")  # no numpy overflow warning either
    def test_nonfinite_input_exit_2(self, capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "finite" in err

    @pytest.mark.parametrize("arcs, part, reason", [
        ("1/0t:1t", "1/0t:1t", "Fraction(1, 0)"),
        ("1/3t:0.5", "1/3t:0.5", "could not convert string to float: '1/3t'"),
        ("0.5", "0.5", "could not convert string to float: ''"),
        ("0:0.5,nan:1", "nan:1", "arc center must be finite"),
    ], ids=["zero-denominator", "turn-center-radian-halfwidth", "no-colon", "nan-center"])
    def test_arc_notation_exit_2(self, capsys, arcs, part, reason):
        # each error names the part and the notation; the first two were
        # "Fraction(1, 0)" and "could not convert ..." alone
        code = main(["arc-count", "--m", "10", "--k", "3", "--arcs", arcs])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f'error: cannot read {part!r} as an arc "center:halfwidth": {reason}\n'

    @pytest.mark.parametrize("argv, message", [
        (["kummer", "--a", "1/0", "--d", "2", "--m", "8"],
         """cannot read --a '1/0' as a rational such as "-3/4\""""),
        (["kummer", "--a", "x", "--d", "2", "--m", "8"],
         """cannot read --a 'x' as a rational such as "-3/4\""""),
        (["flat-verify", "--d", "2", "--exponents", "0,1", "--coeffs", "1 @ 1;1 @ 1",
          "--mu", "1/0"], """cannot read --mu '1/0' as a rational such as "-3/4\""""),
        (["reduce", "--d", "2", "--exponents", "0,1", "--coeffs", "1 @ 1;1 @ 1", "--mu", "½"],
         """cannot read --mu '½' as a rational such as "-3/4\""""),
        (["height", "--radical", "abc"],
         """cannot read --radical 'abc' as a rational such as "-3/4\""""),
        (["dgamma", "--sum", "2 ** 3", "--eps", "0.1"], "empty factor in the term '2 ** 3'"),
        (["dgamma", "--sum", "1 * 2^(1/2) *", "--eps", "0.1"],
         "empty factor in the term '1 * 2^(1/2) *'"),
        (["dgamma", "--sum", "1 - - 2^(1/2)", "--eps", "0.1"], "empty factor in the term '-'"),
        (["dgamma", "--sum", "1/0 * 2^(1/2)", "--eps", "0.1"],
         "cannot read the factor '1/0': Fraction(1, 0)"),
        (["strict-check", "--seq", "11:1,1;x:1"],
         """cannot read 'x:1' as an instance "m:k1,k2": """
         "invalid literal for int() with base 10: 'x'"),
        (["weyl", "--m", "12", "--k", "2,x", "--n", "3,2"],
         """cannot read --k '2,x' as integers such as "2,3\""""),
        (["weyl", "--m", "12", "--k", "2,3", "--n", "3,1.5"],
         """cannot read --n '3,1.5' as integers such as "2,3\""""),
        (["flat-search", "--d", "5", "--exponents", "0,x"],
         """cannot read --exponents '0,x' as integers such as "2,3\""""),
        (["orbit", "--sum", "1 * 2^(1/3)", "--c", "1;2"],
         """cannot read --c '1;2' as integers such as "2,3\""""),
        (["flat-verify", "--numeric", "--d", "2", "--exponents", "0,1", "--coeffs", "1;x"],
         """cannot read --coeffs '1;x' as complex numbers such as "1;-0.5+2j\""""),
        (["dgamma", "--sum", "2 * -3", "--eps", "0.1"],
         """a sign follows "*" in '2 * -3': write a signed factor in parentheses,"""
         """ such as "(-3)\""""),
    ], ids=["kummer-a-1/0", "kummer-a-x", "flat-verify-mu-1/0", "reduce-mu-half", "height-radical",
            "sum-double-star", "sum-trailing-star", "sum-lone-minus", "sum-factor-1/0",
            "strict-check-seq", "weyl-k", "weyl-n", "flat-search-exponents", "orbit-c",
            "flat-verify-numeric-coeffs", "sum-sign-after-star"])
    def test_text_refusals_name_the_text(self, capsys, argv, message):
        # each was a bare "Fraction(1, 0)", "Invalid literal for Fraction: ...",
        # "invalid literal for int() ..." or "complex() arg is a malformed
        # string", or, for an empty factor, accepted: "2 ** 3" read 6, and
        # "1 - - 2^(1/2)" read 1 - 1 - 2^(1/2); "2 * -3" was refused as an
        # empty factor in the term "2 *"
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("cmd", [
        ["dgamma"], ["sigma-search", "--arcs", "0/1t:1/2t"]], ids=["dgamma", "sigma-search"])
    def test_negative_eps_exit_2(self, capsys, cmd):
        code = main([*cmd, "--sum", "(1/2) + (1/2) * 2^(1/2)", "--eps", "-0.5"])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "eps must be nonnegative" in err

    @pytest.mark.parametrize("argv", [
        ["flat-search", "--d", "100000000", "--exponents", "0,1", "--restarts", "1"],
        ["flat-verify", "--numeric", "--d", "100000000", "--exponents", "0,1", "--coeffs", "1;1"],
    ])
    def test_unit_matrix_bounded_exit_2(self, capsys, monkeypatch, argv):
        import numpy as np

        def arange(*args, **kwargs):  # the matrix's first allocation
            raise AssertionError("unit matrix built past the cap")
        monkeypatch.setattr(np, "arange", arange)
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "unit matrix cap" in err

    @pytest.mark.parametrize("argv, cap", [
        (["flat-search", "--d", "3", "--exponents", "0,1", "--restarts", "100000000"],
         "search work cap"),
        (["flat-search", "--d", "120000", "--exponents", "0,1,2,3,4,5,6,7"], "search work cap"),
        (["sn-survey", "--N", "2", "--dmax", "100000000"], "survey row cap"),
        (["sn-survey", "--N", "3", "--dmax", "40"], "search work cap"),
    ])
    def test_work_bounded_exit_2(self, capsys, argv, cap):
        # each ran past 15 s before its cost was counted up front
        t0 = time.perf_counter()
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and cap in err
        assert time.perf_counter() - t0 < 2.0

    def test_dumps_refuses_nonfinite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                _dumps({"max_deviation": bad})
        assert _dumps({"x": 1e308}) == '{\n "x": 1e+308\n}'

    @pytest.mark.parametrize("argv", [
        ["flat-search", "--d", "5", "--exponents", "0,1", "--mu", "nan"],
        ["flat-search", "--d", "5", "--exponents", "0,1", "--mu", "inf"],
        ["flat-search", "--d", "5", "--exponents", "0,1", "--mu=-inf"],
        ["flat-search", "--d", "5", "--exponents", "0,1", "--restarts", "0"],
        ["flat-search", "--d", "5", "--exponents", "0,1", "--restarts", "-3"],
        ["sn-survey", "--N", "2", "--dmax", "5", "--restarts", "0"],
        ["sn-survey", "--N", "3", "--dmax", "2", "--restarts", "-3"],
    ])
    def test_bad_mu_or_restarts_exit_2(self, capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("bins", ["0", "-3", str(BINS_CAP + 1), str(10**9)])
    def test_orbit_bins_bounded(self, capsys, monkeypatch, bins):
        # refused before the sum is even parsed
        from cyclolab import radical
        monkeypatch.setattr(radical, "parse_radical_sum", None)
        code = main(["orbit", "--sum", "1 * 2^(1/3)", "--bins", bins])
        out, err = capsys.readouterr()
        message = ("--bins must be positive" if int(bins) < 1
                   else f"--bins = {bins} exceeds the bins cap {BINS_CAP}")
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("bins", [1, BINS_CAP])
    def test_orbit_bins_bounds_accepted(self, capsys, bins):
        code, rec = run_json(capsys, "orbit", "--sum", "1 * 2^(1/3)", "--bins", str(bins))
        assert code == 0 and len(rec["results"]["histogram"]) == bins

    def test_orbit_dgamma_sigma_factor(self, capsys, tmp_path):
        code, rec = run_json(capsys, "orbit", "--sum", "1 * 2^(1/3)", "--bins", "4",
                             "--hist-out", str(tmp_path / "h.csv"))
        assert code == 0 and rec["results"]["orbit_size"] == 3
        assert (tmp_path / "h.csv").read_text().startswith("lo,hi,count")
        code, rec = run_json(capsys, "dgamma", "--sum", "(1/2) + (1/2) * 2^(1/2)",
                             "--eps", "0.5")
        assert code == 0 and rec["results"]["fraction"] == "1/2"
        code, rec = run_json(capsys, "sigma-search", "--sum", "(1/2) + (1/2) * 2^(1/2)",
                             "--eps", "3.0", "--arcs", "0/1t:1/2t")
        assert code == 0 and rec["results"]["count"] == 2
        code, rec = run_json(capsys, "factor-out", "--sum", "1 * 2^(3/6) + 1 * 2^(5/6)")
        assert code == 0 and rec["results"]["monomial"] == "2^(1/2)"

    @pytest.mark.parametrize("total", [
        "187187625 * 3^(1/3) - 6932875 * 3^(10/3)",
        "1000000 * 7^(1/5) - (1000000/7) * 7^(6/5)",
        "123456789 * 11^(2/9) - (123456789/11) * 11^(11/9)",
        "999999 * 13^(1/2) - (999999/13) * 13^(3/2)",
        "1000003 * 2^(1/2) * 3^(1/3) - (1000003/2) * 2^(3/2) * 3^(1/3)",
        "2 * 2^(1/2) - 1 * 2^(3/2)",
        "3 * 5^(1/7) * z3^1 - (3/5) * 5^(8/7) * z3^1",
    ])
    def test_factor_out_cancelling_sum(self, capsys, total):
        # two terms of one value, written with exponents a whole power
        # apart: the whole power is folded into the coefficient, the terms
        # merge to 0, and the zero sum is refused
        code = main(["factor-out", "--sum", total, "--no-timing"])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "cannot factor the zero sum" in err

    def test_factor_out_common_whole_power(self, capsys):
        # a whole power every term shares stays in the monomial; it is not
        # folded into the coefficient, so the record keeps small numbers
        code, rec = run_json(capsys, "factor-out", "--sum", "1 * 2^(30000/2)", "--no-timing")
        assert code == 0 and rec["results"] == {
            "monomial": "2^(15000)", "monomial_exponents": ["15000"],
            "reduced_denominators": [1],
            "reduced_terms": [{"coefficient": "1 @ 1", "exponents": [0]}]}

    def test_kummer(self, capsys):
        code, rec = run_json(capsys, "kummer", "--a", "2", "--d", "2", "--m", "8",
                             "--oracle")
        assert code == 0
        assert rec["results"]["c"] == 2 and rec["results"]["degree"] == 1
        assert rec["results"]["oracle"]["status"] == "true"


class TestPlumbing:
    def test_unknown_command_exit_2(self, capsys):
        assert main(["no-such-command"]) == 2

    def test_input_error_exit_2(self, capsys):
        assert main(["weyl", "--m", "12", "--k", "2,3", "--n", "0,0"]) == 2

    def test_determinism(self, capsys):
        _, out1 = run_cli(capsys, "flat-search", "--d", "5", "--exponents", "0,1",
                          "--seed", "3", "--restarts", "4", "--no-timing")
        _, out2 = run_cli(capsys, "flat-search", "--d", "5", "--exponents", "0,1",
                          "--seed", "3", "--restarts", "4", "--no-timing")
        assert out1 == out2  # byte-identical with timing suppressed

    @pytest.mark.parametrize("coeffs", ["1/2 @ -3", "1/2 @ 0", "...", "1/0 @ 4", "z^x @ 4"])
    def test_bad_cyclotomic_text_exit_2(self, capsys, coeffs):
        code = main(["flat-verify", "--d", "2", "--exponents", "0", "--coeffs", coeffs])
        err = capsys.readouterr().err
        assert code == 2
        assert repr(coeffs) in err and '"c0 + c1*z^1 + ... @ D"' in err

    def test_cache_round_trip(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        args = ["weyl", "--m", "12", "--k", "2,3", "--n", "3,2", "--cache", cache,
                "--no-timing"]
        code1, rec1 = run_json(capsys, *args)
        code2, rec2 = run_json(capsys, *args)
        assert code1 == code2 == 0
        assert rec1["results"] == rec2["results"]
        assert rec2.get("cached") is True and "cached" not in rec1

    def test_cache_seed_separates(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        base = ["flat-search", "--d", "2", "--exponents", "0,1", "--restarts", "2",
                "--cache", str(cache), "--no-timing"]
        run_json(capsys, *base, "--seed", "1")
        run_json(capsys, *base, "--seed", "2")
        assert len(list(cache.glob("*.json"))) == 2

    def test_cache_corruption_recovers(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ["weyl", "--m", "6", "--k", "1", "--n", "2", "--cache", str(cache),
                "--no-timing"]
        run_json(capsys, *args)
        victim = next(cache.glob("*.json"))
        victim.write_text("{ not json")
        code, rec = run_json(capsys, *args)
        assert code == 0 and rec["results"]["value"] == "0"

    def test_cache_other_version_recomputed(self, capsys, tmp_path):
        # an entry stored by another version is a miss: the record is
        # computed again and overwrites the entry
        cache = tmp_path / "cache"
        args = ["weyl", "--m", "12", "--k", "2,3", "--n", "3,2", "--cache", str(cache),
                "--no-timing"]
        _, fresh = run_json(capsys, *args)
        entry = next(cache.glob("*.json"))
        entry.write_text(json.dumps({**fresh, "version": "0.0.0", "results": "stale"}))
        code, rec = run_json(capsys, *args)
        assert code == 0 and rec == fresh and "cached" not in rec
        assert json.loads(entry.read_text()) == fresh
        assert fresh["version"] == __version__

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "weyl", "--m", "12", "--k", "2,3", "--n", "3,2",
                            "--format", "csv")
        assert code == 0 and out.startswith("key,value")

    def test_csv_list_rows_round_trip(self, capsys):
        # a list of result dicts: one row per result under the union of the
        # flattened keys, blank where a result lacks one; a cell with a
        # comma is quoted and reads back through csv.reader
        argv = ["sn-survey", "--N", "1", "--dmax", "2", "--no-timing"]
        _, rec = run_json(capsys, *argv)
        code, out = run_cli(capsys, *argv, "--format", "csv")
        reason = rec["results"][1]["evidence"]["reason"]
        assert code == 0 and reason.startswith("gcd(0, d) = d > 1:")
        assert f'"{reason}"' in out
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["d", "evidence.mu", "evidence.reason", "evidence.verified_exact",
                          "evidence.witness_coefficients.0", "evidence.witness_exponents.0",
                          "status"]
        assert rows == [["1", "1", "", "True", "1 @ 1", "0", "member"],
                        ["2", "", reason, "", "", "", "excluded"]]

    def test_csv_cells_quote(self):
        # quotes are doubled inside a quoted cell; commas, quotes and
        # newlines all round-trip
        cells = ['say "hi"', "a,b", "two\nlines", "plain"]
        assert _csv_cell(cells[0]) == '"say ""hi"""' and _csv_cell("plain") == "plain"
        record = {"results": [{"v": c, "i": i} for i, c in enumerate(cells)]}
        header, *rows = csv.reader(io.StringIO(_to_csv(record)))
        assert header == ["i", "v"] and rows == [[str(i), c] for i, c in enumerate(cells)]
        record = {"results": {"k,1": 'x"y'}}
        assert list(csv.reader(io.StringIO(_to_csv(record)))) == [["key", "value"], ["k,1", 'x"y']]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rec.json"
        code, out = run_cli(capsys, "weyl", "--m", "12", "--k", "2,3", "--n", "3,2",
                            "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["command"] == "weyl"

    def test_schema_validates(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        schema = record_schema()
        for argv in (
            ["weyl", "--m", "12", "--k", "2,3", "--n", "3,2"],
            ["height", "--radical", "2", "--n", "3"],
            ["sn-survey", "--N", "1", "--dmax", "5"],
            ["kummer", "--a", "2", "--d", "2", "--m", "8"],
        ):
            _, rec = run_json(capsys, *argv)
            jsonschema.validate(rec, schema)

    def test_inconclusive_exit_3(self, capsys, monkeypatch):
        from cyclolab import kummer
        from cyclolab.kummer import OracleReport

        def fake_oracle(a, e, m, scales=(1,)):
            return OracleReport("inconclusive", None, {})

        monkeypatch.setattr(kummer, "root_membership_oracle", fake_oracle)
        code, rec = run_json(capsys, "kummer", "--a", "2", "--d", "2", "--m", "8",
                             "--oracle")
        assert code == 3 and rec["status"] == "inconclusive"
        assert rec["results"]["oracle"] == {"status": "inconclusive", "certificate": None}
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(rec, record_schema())

    def test_out_into_missing_directory_exit_2(self, capsys, tmp_path):
        code = main(["weyl", "--m", "12", "--k", "2,3", "--n", "3,2",
                     "--out", str(tmp_path / "missing" / "rec.json")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")

    def test_cache_on_regular_file_exit_2(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["weyl", "--m", "12", "--k", "2,3", "--n", "3,2",
                     "--cache", str(blocker)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "cache directory unusable" in captured.err

    def test_failed_cache_rename_leaves_no_temp_file(self, capsys, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        code = main(["weyl", "--m", "12", "--k", "2,3", "--n", "3,2", "--cache", str(tmp_path)])
        assert code == 2 and "cache directory unusable" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_plain_numpy_values(self):
        import numpy as np

        values = {"flag": np.bool_(True), "x": np.float64(0.5), "n": np.int64(3),
                  "v": np.array([[1, 2], [3, 4]])}
        plain = _plain(values)
        assert plain == {"flag": True, "x": 0.5, "n": 3, "v": [[1, 2], [3, 4]]}
        assert [type(plain[k]) for k in ("flag", "x", "n")] == [bool, float, int]
        assert json.loads(_dumps(plain)) == plain

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CYCLOLAB_CACHE", str(tmp_path / "envcache"))
        run_json(capsys, "weyl", "--m", "6", "--k", "1", "--n", "3", "--no-timing")
        assert len(list((tmp_path / "envcache").glob("*.json"))) == 1

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cyclolab.cli", "weyl", "--m", "12", "--k", "2,3",
             "--n", "3,2", "--no-timing"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["value"] == "1"


class TestCacheAndBounds:
    def test_cache_hit_skips_handler(self, capsys, tmp_path, monkeypatch):
        from cyclolab import cli as cli_mod

        cache = tmp_path / "cache"
        args = ["weyl", "--m", "12", "--k", "2,3", "--n", "3,2", "--cache", str(cache),
                "--no-timing"]
        _, rec1 = run_json(capsys, *args)

        def must_not_run(args):
            raise AssertionError("handler ran on a cache hit")

        monkeypatch.setitem(cli_mod.HANDLERS, "weyl", must_not_run)
        code, rec2 = run_json(capsys, *args)
        assert code == 0 and rec2.pop("cached") is True and rec2 == rec1
        assert [p.name.endswith(".json") for p in cache.iterdir()] == [True]

    def test_cached_inconclusive_keeps_exit_3(self, capsys, tmp_path, monkeypatch):
        from cyclolab import cli as cli_mod, kummer
        from cyclolab.kummer import OracleReport

        monkeypatch.setattr(kummer, "root_membership_oracle",
                            lambda a, e, m: OracleReport("inconclusive", None, {}))
        args = ["kummer", "--a", "2", "--d", "2", "--m", "8", "--oracle",
                "--cache", str(tmp_path)]
        assert run_json(capsys, *args)[0] == 3
        monkeypatch.setitem(cli_mod.HANDLERS, "kummer", None)
        code, rec = run_json(capsys, *args)
        assert code == 3 and rec["cached"] is True and rec["status"] == "inconclusive"

    def test_hist_out_written_on_cached_rerun(self, capsys, tmp_path):
        args = ["orbit", "--sum", "1 * 2^(1/3)", "--cache", str(tmp_path / "cache"),
                "--no-timing"]
        run_json(capsys, *args)
        hist = tmp_path / "h.csv"
        code, rec = run_json(capsys, *args, "--hist-out", str(hist))
        assert code == 0 and rec["results"]["orbit_size"] == 3
        assert hist.read_text().startswith("lo,hi,count")

    def test_radicand_beyond_float_range(self, capsys):
        code, rec = run_json(capsys, "kummer", "--a", str(10**400), "--d", "2", "--m", "8")
        assert code == 0 and rec["results"] == {"c": 2, "degree": 1}

    @pytest.mark.parametrize("argv", [
        ["factor-out", "--sum", "1 * 2^(3/100000000000) + 1 * 2^(5/6)"],
        ["kummer", "--a", "2", "--d", "1000000007", "--m", "1000000007"],
    ])
    def test_root_order_past_bit_length_bounded(self, argv):
        # radical orders far beyond the radicand's bit length: the integer
        # k-th roots there are 1, and taking them builds no k-bit power
        proc = run_capped(*argv)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert json.loads(proc.stdout)["status"] == "ok"

    @pytest.mark.parametrize("total, code", [
        ("1 * 2^(1000000000000/2)", 0),
        ("3 * 2^(1000000000001/2) + 1 * 2^(1000000000000/2)", 0),
        ("1 * 2^(1/2) + 1 * 2^(1000000000001/2)", 2),
        ("1 * 2^(1/2) * 3^(1/3) - 1 * 2^(1/2) * 3^(30001/3)", 2),
    ])
    def test_factor_out_huge_whole_power_bounded(self, total, code):
        # a common whole power stays in the exponents and a relative one
        # past the fold cap is refused: neither builds its integer
        proc = run_capped("factor-out", "--sum", total)
        assert proc.returncode == code, proc.stderr[-500:]
        if code == 2:
            assert proc.stdout == "" and "folded whole power" in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["height", "--minpoly", "x^30000000+1"],
         "the degree = 30000000 exceeds the degree cap 64"),
        (["factor-out", "--sum", f"{'9' * 4300} * 2^(1/2) + {'9' * 4300} * 2^(1/2)"],
         "Exceeds the limit (4300 digits) for integer string conversion"),
        (["flat-search", "--d", "3", "--exponents", "0,1", "--mu", "1e308"],
         "Out of range float values are not JSON compliant"),
    ], ids=["minpoly-degree", "merged-4301-digit-coefficient", "search-mu-1e308"])
    def test_traceback_inputs_exit_2(self, argv, message):
        # each ended in a traceback (exit 1): the dense list of the written
        # degree ran out of memory before the degree cap was read, the
        # record of a coefficient past Python's int-to-str limit was built
        # outside the handler's exit-2 path, and a search whose penalty
        # overflowed in every restart kept no point
        proc = run_capped(*argv)
        assert proc.returncode == 2, proc.stderr[-500:]
        assert proc.stdout == "" and message in proc.stderr
        # the one line of the refusal: no numpy warning before it
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")

    def test_zero_leading_term_of_huge_degree_read_sparsely(self):
        proc = run_capped("height", "--minpoly", "0x^100000000+x-1")
        assert proc.returncode == 0, proc.stderr[-500:]
        assert json.loads(proc.stdout)["results"] == {
            "degree": 1, "height": 0.0, "mahler_measure": 1.0}

    def test_unfactorable_radicand_exit_2(self, capsys):
        t0 = time.perf_counter()
        n = 604462909807314587365499 * 1208925819614629174707179  # two 80-bit primes
        assert main(["kummer", "--a", str(n), "--d", "2", "--m", "8"]) == 2
        assert "step budget" in capsys.readouterr().err
        assert time.perf_counter() - t0 < 10.0


def _readme_commands():
    """The `cyclolab ...` lines of README.md's command-line block, as argv."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cyclolab ")]


# sha256 of json.dumps(fields, sort_keys=True) over the deterministic record
# fields of each README command, in README order.  A faster commit keeps
# every one; a change of result changes its hash.
README_RECORD_FIELDS = ("command", "inputs", "results", "status", "seed")
README_RECORD_SHA256 = (
    "3116a051c94f0049acdfe8c844f7ab0d69d8f8f78f657da79ee97f726b105cfe",
    "80ee6cae97f0faec4923bce7341bbeddec698bb8157fb16c3c12403b83725e08",
    "ad1125db913da88c89c8d5b6e7a56a83562962236c8d2229f6704639757c3010",
    "b70669d8d1a9796e33378db2c18c161380ec42b9fc2f0224724606ed805ca850",
    "0dbb7873dd0a8bf85fc86e2138184eb0d5de24833497dbfa1c9f84c16afc139d",
    "dc3ba3cfc73d1781b3cd3ea65d44de401e249a94e2c34eab64b306ea26c6e5c1",
    "6dfc4992b439ac627d4ce23f5ef4f820984f54a476357875003a9b21188a2430",
    "b6fcfc6a7f9fa6d787a28b2e4baceaaa0c797e9483efb7ef5197432d48ed144c",
    "a913eb5fc211f488bf75db0ac817c4bc2aab6f6707bf0c49405d3187885b9937",
    "4ee00dc9fb38b93a14d29f7c41e6ec30e74fb3f3375f4f5163b2994b0881a2fb",
    "1ef386b2f694d4e33b5c365ec48739d345867537a0288727ad86d635e695d005",
    "42bd929d1de6da6f4e8fb3c90d3464ebc779d1dba17e1a249b7226142da3f8ba",
    "3d9a1dab188a44fd8dd17de3a00319bd2ffaa712c892c794f38e2af7ead5efdb",
    "d6ce072e6ea7ae09b915f8a4f0b3aef64c90b7f9784d7581fc7944a10a464411",
)
# The cache file name (sha256 key, without ".json") of each README command,
# in README order: a faster commit keeps every stored entry reachable.
README_CACHE_KEYS = (
    "8289db0dfec7aa8dad1afe87e39f48f0ebe8667a10650f8f155c18a8fc6d56d6",
    "6d9f935c6c6a4565a8fe851217f2be4e4921b22c378f088e1451db111ddd7162",
    "a916650e95ddd05ab5470571fe13117de86a2290af5daa19e45beee7b2c23ff3",
    "7b2dfd52c953a7097da2b39ec26f8925c9897e7223e2d6c49f99dd98c7ee74fa",
    "7016cd745203d3d00db06b472d44a0d161a29dd8398c73630e1478b5309606cd",
    "7e83fd205c46f054618886f5b39389ce4745dafeb0ecf359d4ea8c8fa69587a6",
    "836f82f6aae0edc076bd99d67c77248d8ab22c58983dcdee1d13a91f9692171b",
    "7b5288320143ee4ed4c1ed3a2616cc0812becedd8334ac868a9b05f3ea0be62c",
    "84422a4ca6ae229a683dcb40632e3db29ae5d298680cbd0cb9d7e45391bae1a1",
    "50e8e20b7948f275047710791aca1f3e316099c64c90d85dba463a37bafc4326",
    "2e2db3dbbcd13ba9784e3f69e3dc9280000ceea6fa449b1879973d6536f09430",
    "2e70585ecdea4316550ec68c5e8d7c9026adb58b713b49ecaa09469a3b38f77c",
    "d8c62690a2313398fbf64aed14b60d59f4436f4089bdb7835b40b4662ba55dda",
    "826799e5811447f3a74535258bb16c49219a7fec0d0df11fb7ce21acabb2387b",
)


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) == len(README_RECORD_SHA256) == len(README_CACHE_KEYS) == 14
    monkeypatch.chdir(tmp_path)  # `--hist-out hist.csv` writes here
    cache = tmp_path / "cache"
    for argv, want, key in zip(commands, README_RECORD_SHA256, README_CACHE_KEYS):
        assert main(argv + ["--no-timing", "--cache", str(cache)]) == 0, argv
        record = json.loads(capsys.readouterr().out)
        pinned = json.dumps({f: record[f] for f in README_RECORD_FIELDS}, sort_keys=True)
        assert hashlib.sha256(pinned.encode()).hexdigest() == want, argv
        assert (cache / f"{key}.json").is_file(), argv
    assert len(list(cache.glob("*.json"))) == 14


def _without_hist_out(argv):
    """argv without --hist-out, with which every run computes."""
    i = argv.index("--hist-out") if "--hist-out" in argv else len(argv)
    return argv[:i] + argv[i + 2:]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_readme_hits_print_the_stored_entry(capsys, tmp_path, monkeypatch, fmt):
    # a hit prints the entry marked cached, byte for byte what encoding the
    # marked record gives, and computes nothing; as CSV, what the cold run
    # printed
    from cyclolab import cli as cli_mod

    for i, argv in enumerate(_readme_commands()):
        cache = tmp_path / str(i)
        argv = _without_hist_out(argv) + ["--no-timing", "--cache", str(cache), "--format", fmt]
        assert main(argv) == 0, argv
        cold = capsys.readouterr().out
        entry = next(cache.glob("*.json")).read_text()
        with monkeypatch.context() as m:
            m.setitem(cli_mod.HANDLERS, argv[0], None)  # a compute would exit 2
            assert main(argv) == 0, argv
        hit = capsys.readouterr().out
        if fmt == "json":
            assert cold == entry + "\n"
            assert hit == _dumps({**json.loads(entry), "cached": True}) + "\n", argv
        else:
            assert hit == cold, argv


@pytest.mark.parametrize("fmt, cached, calls", [
    ("json", True, 1), ("json", False, 1), ("csv", True, 1), ("csv", False, 0)])
def test_cold_run_encodes_at_most_once(capsys, tmp_path, monkeypatch, fmt, cached, calls):
    # one encoding serves the cache entry and the JSON output; CSV with no
    # cache needs none
    from cyclolab import cli as cli_mod

    seen = []
    monkeypatch.setattr(cli_mod, "_dumps", lambda r: seen.append(r) or _dumps(r))
    args = ["weyl", "--m", "12", "--k", "2,3", "--n", "3,2", "--format", fmt, "--no-timing"]
    code, out = run_cli(capsys, *args, *(["--cache", str(tmp_path)] if cached else []))
    assert code == 0 and len(seen) == calls
    assert out == (_dumps(seen[0]) + "\n" if fmt == "json" else "key,value\nperiod,12\nvalue,1\n")


@pytest.mark.parametrize("encode", [
    lambda r: json.dumps(r),
    lambda r: json.dumps(r, separators=(",", ":")),
    lambda r: json.dumps(dict(reversed(r.items())), indent=1),
], ids=["compact", "no-spaces", "reversed"])
def test_hand_written_entry_prints_canonical_form(capsys, tmp_path, encode):
    cache = tmp_path / "cache"
    args = ["weyl", "--m", "12", "--k", "2,3", "--n", "3,2", "--cache", str(cache),
            "--no-timing"]
    run_cli(capsys, *args)
    entry = next(cache.glob("*.json"))
    stored = json.loads(entry.read_text())
    entry.write_text(encode(stored))
    code, out = run_cli(capsys, *args)
    assert code == 0 and out == _dumps({**stored, "cached": True}) + "\n"


# Argument lists that the full parser refuses, answers with help or the
# version, or reads; the README commands are added below.
PARSE_CASES = [
    "", "-h", "--help", "--version", "--version weyl", "-- weyl", "no-such-command", "wey",
    "weyl -h", "weyl --help", "weyl --he", "weyl --m 12 --k 2,3 --n 3,2 -h",
    "weyl --m 12 --k 2,3", "weyl --m x --k 2 --n 3", "weyl --format xml --m 1 --k 1 --n 1",
    "weyl --m 12 --k 2,3 --n 3,2 --seed", "weyl --m 12 --k 2,3 --n 3,2 --bogus",
    "weyl --m 12 --k 2,3 --n 3,2 extra", "weyl --m 12 --k 2,3 --n 3,2 --",
    "weyl --m 12 --k 2,3 --n 3,2 -- x", "weyl -- --m 12", "weyl --m 12 --k 2,3 --n 3,2 --version",
    "weyl --=x", "weyl --m 12 --k 2,3 --n 3,2 --=x", "weyl -- --=x",
    "weyl --m=12 --k=2,3 --n=3,2 --no-timing", "kummer --a 2 --d 2 --m 8 --orac",
    "kummer --a 2 --d 2 --m 8 --o", "height", "height --minpoly x^3-2 --radical 2",
    "height --minpoly x^2-2 --n 3",
]


@pytest.mark.parametrize("line", PARSE_CASES + [shlex.join(a) for a in _readme_commands()])
def test_direct_parse_matches_full_parser(capsys, line):
    # the command's own parser reads what the full parser reads, and
    # anything else leaves it to the full parser's usage and messages
    argv = shlex.split(line)

    def outcome(parse):
        try:
            got = vars(parse(argv))
        except SystemExit as exc:
            got = exc.code
        return got, capsys.readouterr()

    assert outcome(_parse) == outcome(build_parser().parse_args)


STRAY_TOKENS = ["--", "-h", "--help", "--version", "--=x", "-", "", "x", "-2"]
BAD_VALUES = ["x", "1.5", "nine", "-x", "--", "xml"]


def _good_values(action) -> list:
    """Values that the option's type and choices accept; a negative one unless it has choices."""
    if action.choices is not None:
        return list(action.choices)
    if action.type in (int, float):
        return ["3", "12", "-2"] if action.type is int else ["0.5", "1e3", "-0.5"]
    return ["2,3", "x^2-2", "", "-1"]


@st.composite
def _given(draw, opt, action, messy):
    """One occurrence of an option; if `messy`, maybe abbreviated, a flag
    given "=value", a bad value or a separate negative one."""
    name = opt[:-1] if messy and draw(st.integers(0, 5)) == 5 else opt
    if action.nargs == 0:
        return [f"{name}=1"] if messy and draw(st.booleans()) else [name]
    value = draw(st.sampled_from(_good_values(action) + (BAD_VALUES if messy else [])))
    joined = draw(st.booleans()) or value.startswith("-") and not messy
    return [f"{name}={value}"] if joined else [name, value]


@st.composite
def _command_argv(draw, command):
    """argv for `command`: its options in any order, each left out, given
    once or repeated, separately or joined by "="; if the argv is messy,
    with abbreviations, bad values and stray tokens ("--", help, a negative
    number) too.  A required option is left out one time in four and any
    other option three times in four, and the members of a mutually
    exclusive group (the `height` branches) come both, one or neither."""
    sub = _command_parsers()[command]
    table = sub._option_string_actions
    grouped = [a for g in sub._mutually_exclusive_groups for a in g._group_actions]
    bits = draw(st.integers(0, 2 ** len(grouped) - 1))  # which grouped options to give
    kept = {a for i, a in enumerate(grouped) if bits >> i & 1}
    messy = draw(st.booleans())
    argv = [command]
    for opt in draw(st.permutations(sorted(o for o in table if o not in ("-h", "--help")))):
        action = table[opt]
        if not (action in kept if action in grouped
                else draw(st.integers(0, 3)) < (3 if action.required else 1)):
            continue
        for _ in range(draw(st.integers(1, 2))):
            argv += draw(_given(opt, action, messy))
        if messy and draw(st.integers(0, 4)) == 4:
            argv.append(draw(st.sampled_from(STRAY_TOKENS)))
    return argv


def _parse_outcome(parse, argv):
    """The namespace `parse` reads in argv, in order, or its exit code,
    with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = list(vars(parse(argv)).items())
        except SystemExit as exc:
            got = exc.code
    return got, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argv=st.sampled_from(sorted(HANDLERS)).flatmap(_command_argv))
@example(argv=["height", "--minpoly=x^2-2", "--radical", "2"])
@example(argv=["height", "--n", "3"])
def test_read_matches_full_parser(argv):
    # the direct read and the full parser agree on every drawn argv:
    # the same namespace, or the same exit, usage and message
    assert _parse_outcome(_parse, argv) == _parse_outcome(build_parser().parse_args, argv)


def _refuse_argparse(*args, **kwargs):
    raise AssertionError("argparse parsed an argv")


@pytest.mark.parametrize("argv", [_without_hist_out(a) for a in _readme_commands()]
                         + [["kummer", "--a=-2", "--d", "2", "--m", "12", "--oracle"]],
                         ids=shlex.join)
def test_hit_reads_argv_without_argparse(capsys, tmp_path, monkeypatch, argv):
    # a warm-cache rerun is read off the option table, then one file
    import argparse

    argv = argv + ["--no-timing", "--cache", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", _refuse_argparse)
    assert main(argv) == 0
    assert capsys.readouterr().out == '{\n "cached": true,' + cold[1:]


def test_abbreviation_gets_the_full_parsers_reading(capsys):
    argv = ["flat-search", "--exp", "0,1", "--d", "3", "--restarts", "1", "--no-timing"]
    assert _read(argv) is None
    assert vars(_parse(argv)) == vars(build_parser().parse_args(argv))
    code, rec = run_json(capsys, *argv)
    assert code == 0 and rec["inputs"]["exponents"] == "0,1"


COEFFS = "1/2*z^1 + 1/2*z^7 @ 8;1/2*z^1 + 1/2*z^3 @ 8"

# Each command's record `inputs` keys (the cache key's fields), with one
# cheap argument list per command and per `height` branch.
INPUT_FIELDS = {
    "flat-verify": (("d", "exponents", "coeffs", "mu", "numeric"),
                    ["--d", "2", "--exponents", "0,1", "--coeffs", COEFFS]),
    "flat-search": (("d", "exponents", "mu", "restarts"),
                    ["--d", "2", "--exponents", "0,1", "--restarts", "1"]),
    "sn-survey": (("N", "dmax", "restarts"), ["--N", "1", "--dmax", "3"]),
    "reduce": (("d", "exponents", "coeffs", "mu"),
               ["--d", "2", "--exponents", "0,1", "--coeffs", COEFFS]),
    "arc-count": (("m", "k", "arcs"),
                  ["--m", "4", "--k", "1", "--arcs", "0:0.785398163", "--hist-out", "{hist}"]),
    "weyl": (("m", "k", "n"), ["--m", "12", "--k", "2,3", "--n", "3,2"]),
    "strict-check": (("seq", "threshold"), ["--seq", "7:1,1;11:1,1"]),
    "orbit": (("sum", "D", "c", "bins"), ["--sum", "1 * 2^(1/3)", "--hist-out", "{hist}"]),
    "dgamma": (("sum", "eps", "D", "c"),
               ["--sum", "(1/2) + (1/2) * 2^(1/2)", "--eps", "0.5", "--hist-out", "{hist}"]),
    "sigma-search": (("sum", "eps", "arcs", "D", "c"),
                     ["--sum", "(1/2) + (1/2) * 2^(1/2)", "--eps", "3.0",
                      "--arcs", "0/1t:1/2t"]),
    "factor-out": (("sum", "D", "c"), ["--sum", "1 * 2^(3/6) + 1 * 2^(5/6)"]),
    "height": (("radical", "n"), ["--radical", "2", "--n", "3"]),
    "height-minpoly": (("minpoly",), ["--minpoly", "x^2-x-1"]),
    "kummer": (("a", "d", "m", "oracle"), ["--a", "2", "--d", "2", "--m", "8"]),
}


class TestParser:
    @pytest.mark.parametrize("case", sorted(INPUT_FIELDS))
    def test_input_fields(self, capsys, tmp_path, case):
        fields, argv = INPUT_FIELDS[case]
        command = case.removesuffix("-minpoly")
        argv = [a.replace("{hist}", str(tmp_path / "h.csv")) for a in argv]
        code, rec = run_json(capsys, command, *argv, "--seed", "1", "--threads", "1",
                             "--format", "json", "--cache", str(tmp_path / "c"),
                             "--no-timing")
        assert code == 0
        assert sorted(rec["inputs"]) == sorted(fields)

    def test_every_command_has_a_field_list(self):
        assert set(HANDLERS) == {c.removesuffix("-minpoly") for c in INPUT_FIELDS}

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("command", sorted(HANDLERS))
    def test_help(self, capsys, command):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: cyclolab {command}") and "--threads" in out


class TestParsers:
    def test_minpoly(self):
        assert parse_minpoly("x^3-2") == (-2, 0, 0, 1)
        assert parse_minpoly("3x - 1") == (-1, 3)
        assert parse_minpoly("x^2 - x - 1") == (-1, -1, 1)
        assert parse_minpoly("-x^2+2x+5") == (5, 2, -1)
        assert parse_minpoly("0x^3 + x - 1") == (-1, 1)
        assert parse_minpoly("x^2 - x^2") == ()
        with pytest.raises(ValueError, match='"x\\^3-2"'):
            parse_minpoly("x^3-+2")

    def test_arcs(self):
        box = ArcBox.parse("0:0.5,1/4t:1/8t")
        assert not box.arcs[0].exact and box.arcs[1].exact
