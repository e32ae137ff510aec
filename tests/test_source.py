"""Static checks on the package source."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


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
