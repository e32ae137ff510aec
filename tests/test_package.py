"""The package's import boundary: `import cyclolab` and `import cyclolab.cli`
load no layer module and no numpy; the layers load numpy only in their
numeric branches, so the exact commands never do; each public name loads
its submodule on first use and is the object that submodule defines."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclolab

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY = ("numpy", "mpmath", "cyclolab.flatsums", "cyclolab.equidist", "cyclolab.radical",
        "cyclolab.heights", "cyclolab.kummer", "cyclolab.lattice")
# what `import cyclolab.cli` leaves to the code that uses it
CLI_DEFERRED = ("argparse", "hashlib", "json", "dataclasses", "fractions", "tempfile",
                "cyclolab._arith", "cyclolab.cyclotomic")
COEFFS = "1/2*z^1 + 1/2*z^7 @ 8;1/2*z^1 + 1/2*z^3 @ 8"


def _last_stderr_json(code: str):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stderr.splitlines()[-1])


def test_import_loads_no_layer():
    code = ("import json, sys, cyclolab, cyclolab.cli; "
            f"print(json.dumps([m for m in {LAZY!r} if m in sys.modules]), file=sys.stderr)")
    assert _last_stderr_json(code) == []


def test_cli_import_defers_its_helpers():
    # against sys.modules just before the import, since `site` may preload
    # some of the standard library
    code = ("import sys; before = set(sys.modules); import cyclolab.cli; "
            "new = sorted(set(sys.modules) - before); "
            "import json; print(json.dumps(new), file=sys.stderr)")
    loaded = _last_stderr_json(code)
    assert "cyclolab.cli" in loaded
    assert [m for m in CLI_DEFERRED if m in loaded] == []


def test_layer_imports_and_constructors_load_no_numpy():
    # numpy loads in the numeric functions, never on import or in the
    # constructors and exact steps of the flatsums, heights and radical layers
    code = ("import json, sys, cyclolab.flatsums, cyclolab.heights, cyclolab.radical as R; "
            "from cyclolab.heights import AlgebraicNumber; "
            "seen = ['numpy' in sys.modules]; "
            "AlgebraicNumber((-2, 0, 0, 1)); "
            "x = R.parse_radical_sum('(1/2) * z8^1 * 2^(3/6) + 3^(1/4)'); "
            "R.apply_galois(R.GaloisElement(3, (1, 1)), x); x.evaluate(); "
            "R.factor_out_division_point(x); "
            "seen.append('numpy' in sys.modules); "
            "R.marginal_orbit_stats(x, 0.5); "
            "seen.append('numpy' in sys.modules); "
            "print(json.dumps(seen), file=sys.stderr)")
    assert _last_stderr_json(code) == [False, False, True]


def test_root_finder_refuses_before_loading_numpy():
    code = ("import json, sys; from cyclolab.heights import AlgebraicNumber, weil_height\n"
            "try:\n    weil_height(AlgebraicNumber((-2 * 10**400, 0, 1)))\n"
            "except ValueError as exc:\n"
            "    print(json.dumps([str(exc), 'numpy' in sys.modules]), file=sys.stderr)")
    message, numpy_loaded = _last_stderr_json(code)
    assert "double limit" in message and not numpy_loaded


def test_exact_commands_load_no_numpy():
    # the exact README commands: flat-verify, reduce, sn-survey at N = 1 and
    # 2, factor-out and kummer; a numeric command then loads it
    code = ("import json, sys, cyclolab.cli as cli; seen = []; "
            f"seen.append(cli.main(['flat-verify', '--d', '2', '--exponents', '0,1', "
            f"'--coeffs', {COEFFS!r}, '--no-timing'])); "
            f"seen.append(cli.main(['reduce', '--d', '2', '--exponents', '0,1', "
            f"'--coeffs', {COEFFS!r}, '--no-timing'])); "
            "seen.append(cli.main(['sn-survey', '--N', '1', '--dmax', '50', '--no-timing'])); "
            "seen.append(cli.main(['sn-survey', '--N', '2', '--dmax', '50', '--no-timing'])); "
            "seen.append(cli.main(['factor-out', '--sum', '1 * 2^(3/6) + 1 * 2^(5/6)', "
            "'--no-timing'])); "
            "seen.append(cli.main(['kummer', '--a', '2', '--d', '2', '--m', '8', '--oracle', "
            "'--no-timing'])); "
            "seen.append('numpy' in sys.modules); "
            "seen.append(cli.main(['height', '--minpoly', 'x^3-2', '--no-timing'])); "
            "seen.append('numpy' in sys.modules); "
            "print(json.dumps(seen), file=sys.stderr)")
    assert _last_stderr_json(code) == [0, 0, 0, 0, 0, 0, False, 0, True]


def test_integer_equidist_commands_load_no_numpy():
    # weyl and strict-check run integer code; numpy loads only for arc counts
    code = ("import json, sys, cyclolab.equidist, cyclolab.cli as cli; "
            "seen = ['numpy' in sys.modules]; "
            "seen.append(cli.main(['weyl', '--m', '12', '--k', '2,3', '--n', '3,2'])); "
            "seen.append(cli.main(['strict-check', '--seq', '12:2,3;20:2,3'])); "
            "seen.append('numpy' in sys.modules); "
            "print(json.dumps(seen), file=sys.stderr)")
    assert _last_stderr_json(code) == [False, 0, 0, False]


def test_two_dim_arc_count_loads_no_numpy():
    # a box of at most two arcs is counted on the orbit lattice in integers;
    # only the walk of a 3-D box loads numpy
    code = ("import json, sys, cyclolab.cli as cli; seen = []; "
            "seen.append(cli.main(['arc-count', '--m', '999999937', '--k', '1,1237', "
            "'--arcs', '0:0.5,1:0.5', '--no-timing'])); "
            "seen.append(cli.main(['arc-count', '--m', '1009', '--k', '7', "
            "'--arcs', '0t:1/8t', '--no-timing'])); "
            "seen.append('numpy' in sys.modules); "
            "seen.append(cli.main(['arc-count', '--m', '1009', '--k', '1,7,100', "
            "'--arcs', '0:0.5,1:0.5,2:0.5', '--no-timing'])); "
            "seen.append('numpy' in sys.modules); "
            "print(json.dumps(seen), file=sys.stderr)")
    assert _last_stderr_json(code) == [0, 0, False, 0, True]


def test_arc_count_hist_out_loads_no_numpy(tmp_path):
    # the turn histogram's edges are b/64, with no np.linspace
    out = tmp_path / "hist.csv"
    code = ("import json, sys, cyclolab.cli as cli; "
            "seen = [cli.main(['arc-count', '--m', '1009', '--k', '1,7', "
            f"'--arcs', '0:0.5,1:0.5', '--hist-out', {str(out)!r}, '--no-timing'])]; "
            "seen.append('numpy' in sys.modules); "
            "print(json.dumps(seen), file=sys.stderr)")
    assert _last_stderr_json(code) == [0, False]
    assert len(out.read_text().splitlines()) == 65


def test_exports_are_the_defining_objects():
    # a name listed under two submodules would collapse into one entry
    assert len(cyclolab.__all__) == sum(map(len, cyclolab._LAYERS.values()))
    for name, module in cyclolab._EXPORTS.items():
        defining = importlib.import_module(f"cyclolab.{module}")
        assert getattr(cyclolab, name) is getattr(defining, name), name
        assert name in vars(cyclolab), name  # cached after the first read


def test_dir_lists_public_names():
    listed = set(dir(cyclolab))
    assert set(cyclolab.__all__) <= listed
    assert {"__version__", "flatsums", "kummer", "lattice"} <= listed


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        cyclolab.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cyclolab import *", namespace)
    for name in cyclolab.__all__:
        assert namespace[name] is getattr(cyclolab, name), name


def test_submodules_stay_reachable():
    from cyclolab import kummer

    assert kummer is importlib.import_module("cyclolab.kummer") is cyclolab.kummer
    assert cyclolab.lattice is importlib.import_module("cyclolab.lattice")
