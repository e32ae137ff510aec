"""Static checks on the package source."""
import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    Names listed in a literal `__all__` and imports whose first line
    carries `# noqa: F401` are re-exports and count as used; an `__all__`
    built at run time exports nothing here.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            try:
                exported |= set(ast.literal_eval(node.value))
            except ValueError:
                pass
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used and name not in exported]


def test_checker_flags_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path as osp\n"
              "import sys  # noqa: F401\n"
              "from math import gcd, lcm\n"
              "__all__ = ['lcm']\n"
              "print(os.sep)\n")
    assert unused_imports(source) == ["osp (line 3)", "gcd (line 5)"]
    built = "from math import gcd\n__all__ = list(('gcd',))\n"
    assert unused_imports(built) == ["gcd (line 1)"]


def test_no_unused_imports_in_src():
    found = {str(p.relative_to(SRC)): unused_imports(p.read_text())
             for p in sorted(SRC.rglob("*.py"))}
    assert {path: names for path, names in found.items() if names} == {}


def hand_positivity_checks(source: str) -> list[int]:
    """Lines of each `if` that compares a name or attribute with `< 1` in
    its test and raises in its body: a positivity check written by hand,
    whose one home is `_arith.positive`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and any(
                isinstance(c, ast.Compare) and isinstance(c.left, (ast.Name, ast.Attribute))
                and isinstance(c.ops[0], ast.Lt)
                and isinstance(c.comparators[0], ast.Constant) and c.comparators[0].value == 1
                for c in ast.walk(node.test)) and any(
                isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt)):
            found.append(node.lineno)
    return found


def test_checker_flags_hand_positivity_check():
    source = ("def f(n, dens, self):\n"
              "    if n < 1:\n"
              "        raise ValueError('n must be positive')\n"
              "    if any(d < 1 for d in dens) or self.D < 1:\n"
              "        raise ValueError('bad')\n"
              "    if n < 1:\n"
              "        return 0\n"
              "    if n < 2 or n <= 0:\n"
              "        raise ValueError('other bound')\n")
    assert hand_positivity_checks(source) == [2, 4]


def test_positivity_has_one_home():
    """An order, modulus, count or root order is gated by `_arith.positive`
    alone."""
    found = {p.name: hand_positivity_checks(p.read_text())
             for p in sorted((SRC / "cyclolab").glob("*.py")) if p.name != "_arith.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def hand_finiteness_checks(source: str) -> list[int]:
    """Lines of each `if` whose test reads `isfinite` (called, or handed to
    `map`) and whose body raises: a finiteness check written by hand, whose
    one home is `_arith.as_float` and `_arith.as_complex`."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.If)
            and any(isinstance(n, ast.Name) and n.id == "isfinite"
                    or isinstance(n, ast.Attribute) and n.attr == "isfinite"
                    for n in ast.walk(node.test))
            and any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))]


def test_checker_flags_hand_finiteness_check():
    source = ("def f(mu, terms, x):\n"
              "    if not math.isfinite(mu):\n"
              "        raise ValueError('mu must be finite')\n"
              "    if not all(map(cmath.isfinite, terms)) or mu < 0:\n"
              "        raise ValueError('bad')\n"
              "    if isfinite(x):\n"
              "        return x\n"
              "    if x < 0:\n"
              "        raise ValueError('negative')\n")
    assert hand_finiteness_checks(source) == [2, 4]


def test_finiteness_has_one_home():
    """Every real or complex input is refused when NaN or infinite by
    `_arith.as_float` or `_arith.as_complex` alone.  The one exemption is
    `cli.py`'s check of the Mahler measure that `height` prints: a result,
    not an input."""
    found = {p.name: hand_finiteness_checks(p.read_text())
             for p in sorted((SRC / "cyclolab").glob("*.py")) if p.name != "_arith.py"}
    cli_lines = (SRC / "cyclolab" / "cli.py").read_text().splitlines()
    assert [cli_lines[n - 1].strip() for n in found.pop("cli.py")] == [
        "if not math.isfinite(mahler):"]
    assert {name: lines for name, lines in found.items() if lines} == {}


_NUMERIC = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)


def numeric_constants(source: str) -> set[str]:
    """ALL-CAPS names that the module binds at its top level to arithmetic
    on number literals, such as `CAP = 2 * 10**6`."""
    return {t.id for node in ast.parse(source).body if isinstance(node, ast.Assign)
            and all(isinstance(n, _NUMERIC) for n in ast.walk(node.value))
            for t in node.targets if isinstance(t, ast.Name) and t.id.lstrip("_").isupper()}


def hand_cap_checks(source: str, constants: set[str]) -> list[int]:
    """Lines of each `if` that raises in its body and compares a name or
    attribute of `constants`, a name assigned from an expression that reads
    one, or, by <, <=, > or >=, an int literal of two or more digits: a cap
    refusal written by hand, whose one home is `_arith.check_cap`."""
    tree = ast.parse(source)

    def reads(node, names):
        return any(isinstance(n, ast.Name) and n.id in names
                   or isinstance(n, ast.Attribute) and n.attr in names for n in ast.walk(node))

    def literal_bound(c):
        return any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in c.ops) and any(
            isinstance(x, ast.Constant) and type(x.value) is int and abs(x.value) >= 10
            for x in (c.left, *c.comparators))
    names = constants | {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign)
                         and reads(n.value, constants)
                         for t in n.targets if isinstance(t, ast.Name)}
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.If) and any(
        isinstance(c, ast.Compare) and (reads(c, names) or literal_bound(c))
        for c in ast.walk(node.test)) and any(
        isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))]


def test_checker_flags_hand_cap_check():
    source = ("CAP = 2 * 10**6\n"
              "TERM_RE = re.compile('x')\n"
              "def f(n, terms):\n"
              "    if n > CAP:\n"
              "        raise ValueError('too large')\n"
              "    limit = CAP // n\n"
              "    if len(terms) > limit or not terms:\n"
              "        raise ValueError('too many')\n"
              "    if heights.DEGREE_CAP < n:\n"
              "        raise ValueError('degree')\n"
              "    if n > 3 or n == 64 or TERM_RE.match(terms) is None:\n"
              "        raise ValueError('not implemented')\n"
              "    if n * len(terms) > 64:\n"
              "        raise ValueError('inline cap')\n"
              "    if n > CAP:\n"
              "        return 0\n")
    assert numeric_constants(source) == {"CAP"}
    assert hand_cap_checks(source, {"CAP", "DEGREE_CAP"}) == [4, 7, 9, 13]


def test_caps_have_one_home():
    """Every size and work cap is refused through `_arith.check_cap`; the
    run-time budget ENUM_NODES, counted while the search runs, is not a
    cap of that kind."""
    sources = {p.name: p.read_text() for p in sorted((SRC / "cyclolab").glob("*.py"))}
    constants = set().union(*map(numeric_constants, sources.values())) - {"ENUM_NODES"}
    found = {name: hand_cap_checks(text, constants)
             for name, text in sources.items() if name != "_arith.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def layer_reads(source: str) -> list[str]:
    """What a front end should leave to the layers, each as "<what> (line
    N)": an import of `re` (a text grammar), an ALL-CAPS name imported from
    a package module or read off one that `from . import` bound (a layer's
    constant, such as a cap), a call of `Arc` (the exact-arc rule) and a
    call of `gcd` (a residue count)."""
    tree = ast.parse(source)
    modules = {a.asname or a.name for n in ast.walk(tree)
               if isinstance(n, ast.ImportFrom) and n.level and n.module is None
               for a in n.names}
    found = []
    for n in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0)):
        if isinstance(n, ast.Import):
            found += [f"re (line {n.lineno})" for a in n.names if a.name == "re"]
        elif isinstance(n, ast.ImportFrom):
            found += [f"{a.name} (line {n.lineno})" for a in n.names
                      if n.module == "re" or n.level and a.name.isupper()]
        elif (isinstance(n, ast.Attribute) and n.attr.isupper()
              and isinstance(n.value, ast.Name) and n.value.id in modules):
            found.append(f"{n.value.id}.{n.attr} (line {n.lineno})")
        elif isinstance(n, ast.Call):
            name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            if name in ("Arc", "gcd"):
                found.append(f"{name}() (line {n.lineno})")
    return found


def test_checker_flags_layer_reads():
    source = ("import os, re\n"
              "from typing import TYPE_CHECKING\n"
              "from . import __version__, equidist\n"
              "from .heights import DEGREE_CAP, parse_minpoly\n"
              "BINS_CAP = 10\n"
              "def f(args):\n"
              "    from re import compile\n"
              "    box = equidist.ArcBox([equidist.Arc(0.0, 1.0)])\n"
              "    if BINS_CAP < equidist.ARC_M_CAP < os.O_RDONLY:\n"
              "        return math.gcd(args.k, args.m), equidist.ArcBox.parse(args.arcs)\n")
    assert layer_reads(source) == [
        "re (line 1)", "DEGREE_CAP (line 4)", "compile (line 7)", "Arc() (line 8)",
        "equidist.ARC_M_CAP (line 9)", "gcd() (line 10)"]


def test_cli_leaves_notation_and_caps_to_the_layers():
    """cli.py keeps argv, records, the cache and the output: minimal
    polynomials are read by `heights.parse_minpoly`, arcs by
    `equidist.ArcBox.parse`, each cap is read by its own layer, and the
    `--hist-out` bins of `arc-count` are counted by `equidist`."""
    assert layer_reads((SRC / "cyclolab" / "cli.py").read_text()) == []


def galois_conjugate_callers(source: str) -> list[str]:
    """Qualified names of the functions whose body reads an attribute
    `galois_conjugate` ("<module>" at the top level)."""
    found = []

    def walk(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, child.name if name == "<module>" else f"{name}.{child.name}")
            else:
                if isinstance(child, ast.Attribute) and child.attr == "galois_conjugate":
                    found.append(name)
                walk(child, name)
    walk(ast.parse(source), "<module>")
    return found


def test_checker_finds_galois_conjugate_callers():
    source = ("def f(a, t):\n"
              "    return a.galois_conjugate(t)\n"
              "class C:\n"
              "    def g(self, a):\n"
              "        h = a.galois_conjugate\n"
              "        return h(-1) + a.conjugate()\n"
              "x = zeta(5).galois_conjugate(2)\n")
    assert galois_conjugate_callers(source) == ["f", "C.g", "<module>"]


def test_coefficient_action_has_one_home():
    """Outside `cyclotomic.py`, only `radical._conjugated` conjugates a
    cyclotomic number, so phi_t acts on coefficients in one place."""
    found = {str(p.relative_to(SRC)): galois_conjugate_callers(p.read_text())
             for p in sorted(SRC.rglob("*.py")) if p.name != "cyclotomic.py"}
    assert {path: callers for path, callers in found.items() if callers} == {
        "cyclolab/radical.py": ["_conjugated"]}


def _definitions(tree, prefix=""):
    """(qualified name, node) of every function and class under `tree`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from _definitions(node, f"{prefix}{node.name}.")
        else:
            yield from _definitions(node, prefix)


def uncalled_definitions(sources: dict[str, str], elsewhere: str = "",
                         exported=frozenset()) -> list[str]:
    """Functions and classes of `sources` (file name -> text) that nothing
    else names: their name is not a code token of any source outside their
    own definition (string literals and comments do not count), not a word
    of the text `elsewhere`, and not in `exported`.  Dunders are exempt."""
    tokens: dict[str, list[tuple[str, int]]] = {}
    for fname, text in sources.items():
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                tokens.setdefault(tok.string, []).append((fname, tok.start[0]))
    found = []
    for fname, text in sources.items():
        for qualname, node in _definitions(ast.parse(text)):
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in exported:
                continue
            if any(f != fname or not node.lineno <= line <= node.end_lineno
                   for f, line in tokens.get(name, ())):
                continue
            if re.search(rf"\b{re.escape(name)}\b", elsewhere):
                continue
            found.append(f"{fname}:{qualname} (line {node.lineno})")
    return found


def test_checker_flags_uncalled_definition():
    sources = {
        "a.py": ("def used(n):\n"
                 "    return n\n"
                 "def recursive(n):\n"
                 "    return recursive(n - 1) if n else 0\n"
                 "class Box:\n"
                 "    def __len__(self):\n"
                 "        return 0\n"
                 "    def size(self):  # used\n"
                 "        return 'used'\n"
                 "def exported():\n"
                 "    pass\n"
                 "def benched():\n"
                 "    pass\n"),
        "b.py": "from a import Box, used\nprint(used(1), Box)\n",
    }
    assert uncalled_definitions(sources, "wraps a.benched by name", {"exported"}) == [
        "a.py:recursive (line 3)", "a.py:Box.size (line 8)"]


def test_every_definition_has_a_library_caller():
    """A function or class of `src/` must be called or named by library
    code, be named in bench/ (the tracer names functions in strings),
    demos/ or README, or be a public layer name; one only tests use
    belongs in tests/_reference.py."""
    import cyclolab

    sources = {p.name: p.read_text() for p in sorted((SRC / "cyclolab").glob("*.py"))}
    elsewhere = "\n".join(p.read_text() for p in [
        *sorted((ROOT / "bench").glob("*.py")), *sorted((ROOT / "bench").glob("*.md")),
        *sorted((ROOT / "demos").glob("*.py")), ROOT / "README.md"])
    exported = {name for names in cyclolab._LAYERS.values() for name in names}
    assert uncalled_definitions(sources, elsewhere, exported) == []


def test_traced_names_resolve():
    """bench/tracer.py wraps these functions by name; each must stay, and
    __rmul__ must stay the same function object as __mul__ so that the
    one wrapper covers both."""
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_tracer", SRC.parent / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for modname, attr, _, _ in tracer.TRACED:
        target = importlib.import_module(f"cyclolab.{modname}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (modname, attr)
    from cyclolab.cyclotomic import CyclotomicNumber
    assert CyclotomicNumber.__rmul__ is CyclotomicNumber.__mul__


def test_tracer_installs_from_bench_imports():
    """The tracer finds each traced layer in `sys.modules`, so the modules
    that bench/run.py imports must load every one: in a fresh process with
    `src/` and then `bench/` put first on `sys.path` as run.py does, it
    installs and uninstalls.  A layer imported only lazily, or only under
    TYPE_CHECKING, by the package broke every traced run with a KeyError
    that the test above, which imports each module itself, does not see."""
    import subprocess
    import sys

    code = ("import sys; sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2]); "
            "import cyclolab, workloads, tracer; t = tracer.Tracer(); t.install(); t.uninstall()")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC), str(ROOT / "bench")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
