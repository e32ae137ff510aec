"""Rebuild ``bench/reference.json``: every query the workloads can draw,
with the digest of its result and its cost at the current commit.

    python3 bench/make_reference.py

Run from the repository root.  It measures every kind in one run, at one
commit, and overwrites the file.  A later commit is judged against the
digests written here, so rebuild only when a result is meant to change.
Candidates that the program rejects with an input error are left out of
the pool; a failing independent check is printed and kept, so a defect
stays visible.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile
import time
from fractions import Fraction
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in run.py, before numpy is imported
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402
from cyclolab.cyclotomic import euler_phi  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def oracle_candidates(tail: bool):
    """The criterion-12 grid widened to ten radicands: m <= 24, e <= 4 with
    e * phi(m) <= 64, and e <= 2 where phi(m) >= 16.  The tail is
    e * phi(m) >= 20, where one query takes 0.03-4.2 s."""
    radicands = ["2", "3", "5", "-2", "-3", "1/2", "-3/4", "9", "-4", "8"]
    for m in range(1, 25):
        for e in range(1, 3 if euler_phi(m) >= 16 else 5):
            if e * euler_phi(m) <= 64 and (e * euler_phi(m) >= 20) == tail:
                for a in radicands:
                    yield (a, e, m)


def sweep_candidates():
    for a in ("2", "3", "-2", "5/3", "12", "-7"):
        for m in range(2, 201):
            yield (a, m)


def gauss_candidates():
    for c in ("2", "-2", "3", "1/2", "2/3", "-3/2", "5", "6"):
        a = Fraction(c) ** 3
        for d in (6, 12):
            for m in range(3, 61):
                if m % d == 0 or (m % 2 and (2 * m) % d == 0):
                    yield (str(a), d, m)


def power_candidates():
    rng = random.Random("power")
    seen = set()
    while len(seen) < 80:
        deg = rng.randint(2, 4)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        n = rng.choice([2, 3, -2])
        if coeffs[0] == 0 or (tuple(coeffs), n) in seen:
            continue
        seen.add((tuple(coeffs), n))
        yield (coeffs, n)


def _flat_pair(k: int) -> str:
    # (1/sqrt2, i/sqrt2) times zeta_8^k: flat on mu_2 at level 1
    return (f"1/2*z^{(1 + k) % 8} + 1/2*z^{(7 + k) % 8} @ 8;"
            f"1/2*z^{(1 + k) % 8} + 1/2*z^{(3 + k) % 8} @ 8")


RADICAL_SUMS = (
    "(1/2) + (1/2) * 2^(1/2)", "(1/3) + (2/3) * 3^(1/3)", "1 * 2^(1/4) + (1/2) * 3^(1/2)",
    "(1/2) * z8^1 * 2^(3/6) + 3 * 5^(1/2) - 1/4", "1 + 2^(1/3) + 2^(2/3)",
    "(2/3) * z3^1 + (1/3) * 5^(1/4)", "1 * 2^(1/2) * 3^(1/2) + (1/2)", "(1/4) + z5^2 * 7^(1/5)",
)
RANK1_SUMS = ("(1/2) + (1/2) * 2^(1/2)", "(1/3) + (2/3) * 3^(1/3)", "1 + 2^(1/3) + 2^(2/3)",
              "(2/3) * z3^1 + (1/3) * 5^(1/4)", "(1/4) + z5^2 * 7^(1/5)",
              "(1/2) * z4^1 + 3^(1/6)")
PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def cli_candidates(command: str):
    c = command
    if c == "flat-verify":
        for k in range(8):
            yield [c, "--d", "2", "--exponents", "0,1", "--coeffs", _flat_pair(k)]
        for coeffs in ("1;1j", "0.7071067811865476;0.7071067811865476j", "1;1"):
            yield [c, "--d", "2", "--exponents", "0,1", "--coeffs", coeffs, "--numeric"]
    elif c == "flat-search":
        for d in range(3, 9):
            for seed in range(3):
                yield [c, "--d", str(d), "--exponents", "0,1", "--restarts", "3",
                       "--seed", str(seed)]
    elif c == "sn-survey":
        for dmax in (3, 4):
            for seed in range(4):
                yield [c, "--N", "3", "--dmax", str(dmax), "--restarts", "2", "--seed", str(seed)]
        for n in (1, 2):
            for dmax in (20, 40, 60, 80):
                yield [c, "--N", str(n), "--dmax", str(dmax)]
    elif c == "reduce":
        for k in range(8):
            yield [c, "--d", "2", "--exponents", "0,1", "--coeffs", _flat_pair(k)]
    elif c == "arc-count":
        for m in (200003, 300007, 400009, 500009):
            for k2 in (100, 1237):
                yield [c, "--m", str(m), "--k", f"1,{k2}", "--arcs", "0:0.5,1:0.5"]
        for m in (1009, 2003, 3001, 4001):
            for k2 in (7, 100):
                yield [c, "--m", str(m), "--k", f"1,{k2}", "--arcs", "0t:1/8t,1/4t:1/8t"]
    elif c == "weyl":
        for m in (12, 20, 30, 60, 84):
            for k, n in (("2,3", "3,2"), ("1,5", "5,1"), ("3,4", "4,3")):
                yield [c, "--m", str(m), "--k", k, "--n", n]
    elif c == "strict-check":
        for i in range(len(PRIMES) - 2):
            for k in ("1,1", "1,2"):
                seq = ";".join(f"{p}:{k}" for p in PRIMES[i:i + 3])
                yield [c, "--seq", seq]
    elif c in ("orbit", "dgamma"):
        for s in RADICAL_SUMS:
            yield ([c, "--sum", s, "--bins", "16"] if c == "orbit"
                   else [c, "--sum", s, "--eps", "0.5"])
    elif c == "sigma-search":
        for s in RANK1_SUMS:
            yield [c, "--sum", s, "--eps", "3.0", "--arcs", "0/1t:1/2t"]
    elif c == "factor-out":
        for base in ("2", "3", "5"):
            for p, q in ((3, 5), (1, 5), (2, 4)):
                yield [c, "--sum", f"1 * {base}^({p}/6) + 1 * {base}^({q}/6)"]
    elif c == "height":
        for poly in ("x^3-2", "x^4-x-1", "x^2-x-1", "2x^3-3x+1", "x^5-x+1", "3x^4-2"):
            yield [c, "--minpoly", poly]
        for a in ("2", "3/2", "10"):
            for n in ("2", "3"):
                yield [c, "--radical", a, "--n", n]
    elif c == "kummer":
        for a in ("2", "3", "-2", "5", "6", "-3/4"):
            for d, m in ((2, 8), (2, 12), (2, 5), (4, 8)):
                yield [c, f"--a={a}", "--d", str(d), "--m", str(m), "--oracle"]
    else:
        raise ValueError(c)


def candidates(kind: str):
    if kind == "oracle":
        return oracle_candidates(tail=False)
    if kind == "oracle-tail":
        return oracle_candidates(tail=True)
    if kind == "sweep":
        return sweep_candidates()
    if kind in ("chirp", "chirp-large"):
        odd = range(3, 42, 2) if kind == "chirp" else range(43, 64, 2)
        return [(d, c) for d in odd for c in [c for c in range(1, d) if gcd(c, d) == 1][:6]]
    if kind == "reduce":
        names = [f"witness{n}d{d}" for n in (2, 3, 4) for d in (1, 2)]
        names += [f"chirp{d}" for d in (3, 5, 7, 11)]
        return [(name, twist) for name in names for twist in range(0, 24, 3)]
    if kind.startswith("arith-"):
        return [(int(kind[6:]), i) for i in range(80)]
    if kind == "gauss":
        return gauss_candidates()
    if kind == "marginal":
        return [(i, (0.1, 0.5, 1.0)[i % 3]) for i in range(60)]
    if kind == "power":
        return power_candidates()
    if kind.startswith("cli-"):
        return cli_candidates(kind[4:])
    raise ValueError(kind)


GROUP_SIZE = 3


def structural_group(kind: str, params, result) -> str | None:
    """Queries that differ only in what the seed may vary, and so cost
    about the same; None leaves the kind to groups of cost neighbours."""
    if kind.startswith("oracle"):
        _, e, m = params
        return f"e={e} m={m} {result['status']}"
    if kind == "sweep":
        return f"m={params[1]}"
    if kind.startswith("chirp"):
        return f"d={params[0]}"
    if kind == "reduce":
        return params[0]
    return None


def assign_groups(entries: dict) -> None:
    """Cut each structural group (or the whole kind, where it has none) into
    runs of GROUP_SIZE cost neighbours, so members differ by a few percent."""
    by_label: dict = {}
    for key, entry in entries.items():
        by_label.setdefault(entry["group"], []).append(key)
    for label, keys in by_label.items():
        keys.sort(key=lambda k: (entries[k]["cost_ms"], k))
        for rank, key in enumerate(keys):
            entries[key]["group"] = f"{label or 'cost'} #{rank // GROUP_SIZE}"


def measure(kind: str, params, tmp: str, repeats: int):
    """Result and least cost over ``repeats`` calls, each with a fresh CLI
    cache; the results must agree."""
    spec = W.KINDS[kind]
    digests, costs = set(), []
    for _ in range(repeats):
        ctx = W.Context(tempfile.mkdtemp(dir=tmp), 2, [])
        t0 = time.perf_counter()
        with W.deadline(spec.deadline_s):
            result = spec.run(params, ctx)
        costs.append(time.perf_counter() - t0)
        digests.add(W.digest(result))
    if len(digests) != 1:
        raise RuntimeError(f"{W.query_key(kind, params)} is not reproducible")
    return result, min(costs)


def main() -> int:
    reference = {}
    tmp_root = os.path.join(os.getcwd(), ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        for kind in sorted(W.KINDS):
            spec = W.KINDS[kind]
            # one call for the slow oracle pools, whose groups are structural
            repeats = 1 if kind.startswith("oracle") else 3
            entries = {}
            for params in candidates(kind):
                key = W.query_key(kind, params)
                try:
                    result, cost = measure(kind, params, tmp, repeats)
                except (ValueError, ArithmeticError) as exc:
                    print(f"skip {key}: {exc}", file=sys.stderr)
                    continue
                if kind.startswith("cli-") and result["exit"] not in (0, 3):
                    print(f"skip {key}: exit {result['exit']}", file=sys.stderr)
                    continue
                problem = spec.check(params, result) if spec.check else None
                if problem:
                    print(f"CHECK FAILED {key}: {problem}", file=sys.stderr)
                entries[key] = {"kind": kind, "params": list(params),
                                "digest": W.digest(result), "cost_ms": round(cost * 1000, 3),
                                "group": structural_group(kind, params, result)}
            assign_groups(entries)
            reference.update(entries)
            print(f"{kind}: {len(entries)} queries", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    with open(REFERENCE, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                                   for k, v in sorted(reference.items())) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
