"""Command-line front end: subcommand dispatch, JSON/CSV record emission
and content-addressed result caching.

Importing this module loads only `os`, `sys`, `time`, `math`, `functools`
and `typing`: the parser, JSON, the cache's hashing, the exact types
and every layer are imported where they are used, and each handler imports
the layer it runs.  numpy loads only in the numeric branch of a layer, so
the exact commands (`flat-verify` without --numeric, `reduce`, `sn-survey`
at N <= 2, `factor-out`, `kummer`) never load it, and a cache hit loads no
layer.  In a one-shot process wall_ms therefore includes the layer's first
import.  Each argv is read off its command's own option table, with argparse
only as the fallback, and a hit encodes no JSON: it prints the stored entry
with the "cached" key spliced in.

Every run emits one experiment record {command, inputs, results, status,
seed, version, wall_ms}.  Records rerun with identical inputs and seed
reproduce the results payload bit for bit; wall_ms is timing metadata and
is excluded from cache keys (drop it entirely with --no-timing).
Exit codes: 0 success, 2 input error, 3 inconclusive.
"""
from __future__ import annotations

import functools
import math
import os
import sys
import time
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    import argparse
    from fractions import Fraction

    from . import radical
    from .cyclotomic import CyclotomicNumber

CACHE_ENV = "CYCLOLAB_CACHE"
BINS_CAP = 10**4  # largest `orbit --bins`


# ------------------------------------------------------------- serialization


def _plain(obj):
    """Recursively convert to JSON-ready data: Fractions as "p/q" strings,
    complex as {re, im}, cyclotomic values as their text form.  A plain
    None, bool, int, float or str returns before any import."""
    if obj is None or type(obj) in (bool, int, float, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    from dataclasses import asdict, is_dataclass
    from fractions import Fraction

    from .cyclotomic import CyclotomicNumber
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}" if obj.denominator != 1 else str(obj.numerator)
    if isinstance(obj, CyclotomicNumber):
        return obj.to_text()
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: _plain(v) for k, v in asdict(obj).items()}
    if type(obj).__module__ == "numpy":  # scalars and arrays, without importing numpy
        return _plain(obj.tolist())
    return obj


def _dumps(payload) -> str:
    import json
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1,
                      allow_nan=False)


def _flatten(d, prefix=""):
    rows = []
    if isinstance(d, dict):
        for k in sorted(d):
            rows += _flatten(d[k], f"{prefix}{k}.")
    elif isinstance(d, list):
        for i, v in enumerate(d):
            rows += _flatten(v, f"{prefix}{i}.")
    else:
        rows.append((prefix.rstrip("."), d))
    return rows


def _to_csv(record) -> str:
    results = record["results"]
    lines = []
    if isinstance(results, list) and results and all(isinstance(r, dict) for r in results):
        keys = sorted({k for r in results for k, _ in _flatten(r)})
        lines.append(",".join(keys))
        for r in results:
            flat = dict(_flatten(r))
            lines.append(",".join(_csv_cell(flat.get(k, "")) for k in keys))
    else:
        lines.append("key,value")
        for k, v in _flatten(results):
            lines.append(f"{_csv_cell(k)},{_csv_cell(v)}")
    return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    s = str(v)
    if "," in s or '"' in s or "\n" in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


# ------------------------------------------------------------------ parsing


def _parse_ints(text: str, option: str) -> list[int]:
    """The integers of an option's comma-separated text; ValueError quoting both."""
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f'cannot read {option} {text!r} as integers such as "2,3"') from None


def _rational(text: str, option: str) -> Fraction:
    """The rational an option's text names; ValueError quoting both."""
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f'cannot read {option} {text!r} as a rational such as "-3/4"') from None


def _parse_coeffs(text: str) -> list[CyclotomicNumber]:
    from .cyclotomic import CyclotomicNumber
    return [CyclotomicNumber.parse(part.strip()) for part in text.split(";")]


def _terms(exponents: list[int], coeffs: list) -> list:
    """The (exponent, coefficient) pairs of a sum, one coefficient per exponent."""
    if len(exponents) != len(coeffs):
        raise ValueError(f"{len(exponents)} exponents but {len(coeffs)} coefficients")
    return list(zip(exponents, coeffs))


def _radical_from_args(args) -> radical.RadicalSum:
    from . import radical
    failures = _parse_ints(args.c, "--c") if args.c else None
    return radical.parse_radical_sum(args.sum, D=args.D, failures=failures)


def _moduli_histogram(moduli, bins):
    import numpy as np
    lo, hi = min(moduli), max(moduli)
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5  # constant orbit: widen for binning
    return np.histogram(moduli, bins=bins, range=(lo, hi))


def _write_hist(path, hist, edges):
    """Histogram as CSV rows lo,hi,count."""
    with open(path, "w") as fh:
        fh.write("lo,hi,count\n")
        for i in range(len(hist)):
            fh.write(f"{float(edges[i])!r},{float(edges[i+1])!r},{int(hist[i])}\n")


# ------------------------------------------------------------------ handlers


def _handle_flat_verify(args):
    from . import flatsums
    mu = _rational(args.mu, "--mu")
    if args.numeric:
        try:
            coeffs = [complex(c) for c in args.coeffs.split(";")]
        except ValueError:
            raise ValueError(f"cannot read --coeffs {args.coeffs!r} as complex numbers"
                             ' such as "1;-0.5+2j"') from None
        f = flatsums.numeric_sum(
            args.d, _terms(_parse_ints(args.exponents, "--exponents"), coeffs), mu)
        rep = flatsums.is_flat(f)
        results = {"flat": rep.flat, "witness": rep.witness,
                   "max_deviation": rep.max_deviation, "mode": rep.mode}
    else:
        coeffs = _parse_coeffs(args.coeffs)
        f = flatsums.exact_sum(
            args.d, _terms(_parse_ints(args.exponents, "--exponents"), coeffs), mu)
        validity = flatsums.validate_definition(f)  # its subset cap refuses first
        rep = flatsums.is_flat(f)
        results = {"flat": rep.flat, "witness": rep.witness, "mode": rep.mode,
                   "validity": validity}
    status = "flat" if rep.flat else "not-flat"
    return results, status


def _handle_flat_search(args):
    from . import flatsums
    res = flatsums.flat_search(_parse_ints(args.exponents, "--exponents"), args.d, args.mu,
                               restarts=args.restarts, seed=args.seed)
    return res, res["verdict"]


def _handle_sn_survey(args):
    from . import flatsums
    return flatsums.sn_survey(args.N, args.dmax, restarts=args.restarts, seed=args.seed), "ok"


def _handle_reduce(args):
    from . import flatsums
    terms = _terms(_parse_ints(args.exponents, "--exponents"), _parse_coeffs(args.coeffs))
    f = flatsums.exact_sum(args.d, terms, _rational(args.mu, "--mu"))
    cert = flatsums.reduce_instance(f)
    results = {
        "q": cert.q, "q_prime": cert.q_prime, "e": cert.e, "d_prime": cert.d_prime,
        "p": list(cert.p), "c": list(cert.c), "groups": [list(g) for g in cert.groups],
        "reduced_exponents": list(cert.reduced.exponents),
        "reduced_coefficients": [a for _, a in cert.reduced.terms],
        "mu": cert.reduced.mu,
    }
    return results, "ok"


def _handle_arc_count(args):
    from . import equidist
    orbit = equidist.RootTupleOrbit(args.m, tuple(_parse_ints(args.k, "--k")))
    rep = equidist.arc_count(orbit, equidist.ArcBox.parse(args.arcs))
    if args.hist_out:
        _write_hist(args.hist_out, *equidist._turn_histogram(orbit.m, orbit.k[0]))
    return rep, "ok"


def _handle_weyl(args):
    from . import equidist
    orbit = equidist.RootTupleOrbit(args.m, tuple(_parse_ints(args.k, "--k")))
    val = equidist.weyl_sum(orbit, _parse_ints(args.n, "--n"))
    return {"value": val, "period": equidist.orbit_period(orbit)}, "ok"


def _handle_strict_check(args):
    from . import equidist
    res = equidist.strictness_window(equidist.parse_window(args.seq), threshold=args.threshold)
    return res, res["verdict"]


def _handle_orbit(args):
    from ._arith import check_cap, positive
    check_cap("--bins", positive(args.bins, "--bins"), "bins cap", BINS_CAP)
    import numpy as np
    from . import radical
    x = _radical_from_args(args)
    moduli = radical.orbit_moduli(x)
    hist, edges = _moduli_histogram(moduli, args.bins)
    results = {
        "orbit_size": len(moduli),
        "min": min(moduli), "max": max(moduli),
        "mean": float(np.mean(moduli)),
        "histogram": [
            {"lo": float(edges[i]), "hi": float(edges[i + 1]), "count": int(hist[i])}
            for i in range(len(hist))
        ],
        "moduli": moduli if len(moduli) <= 64 else None,
    }
    if args.hist_out:
        _write_hist(args.hist_out, hist, edges)
    return results, "ok"


def _handle_dgamma(args):
    from . import radical
    x = _radical_from_args(args)
    frac, concyclic = radical.d_gamma_eps(x, args.eps)
    if args.hist_out:
        _write_hist(args.hist_out, *_moduli_histogram(radical.orbit_moduli(x), 32))
    return {"fraction": frac, "concyclic": concyclic}, "ok"


def _handle_sigma_search(args):
    from . import equidist, radical
    x = _radical_from_args(args)
    found = radical.sigma_search(x, equidist.ArcBox.parse(args.arcs), args.eps)
    results = {"count": len(found), "elements": [{"t": g.t, "r": list(g.r)} for g in found]}
    return results, "ok"


def _handle_factor_out(args):
    from . import radical
    x = _radical_from_args(args)
    y, z = radical.factor_out_division_point(x)
    results = {
        "monomial": z.to_text(),
        "monomial_exponents": [e for e in z.exponents],
        "reduced_denominators": list(y.context.denominators),
        "reduced_terms": [
            {"coefficient": a, "exponents": list(k)} for a, k in y.terms
        ],
    }
    return results, "ok"


def _handle_height(args):
    from . import heights
    if args.radical is not None:
        import numpy as np
        a = _rational(args.radical, "--radical")
        h = heights.radical_height(a, args.n)
        with np.errstate(over="ignore"):
            mahler = float(np.exp(h * args.n))
        degree = args.n
    else:
        poly = heights.parse_minpoly(args.minpoly)
        h, mahler = heights.height_and_measure(poly)
        degree = len(poly) - 1
    if not math.isfinite(mahler):
        raise ValueError("the Mahler measure overflows: not finite as a double")
    return {"height": h, "degree": degree, "mahler_measure": mahler}, "ok"


def _handle_kummer(args):
    from . import kummer
    a = _rational(args.a, "--a")
    c, degree = kummer.rank1_failure(a, args.d, args.m)
    results = {"c": c, "degree": degree}
    status = "ok"
    if args.oracle:
        rep = kummer.root_membership_oracle(a, c, args.m)
        results["oracle"] = {"status": rep.status, "certificate": rep.certificate}
        if rep.status == "inconclusive":
            status = "inconclusive"
    return results, status


HANDLERS = {
    "flat-verify": _handle_flat_verify,
    "flat-search": _handle_flat_search,
    "sn-survey": _handle_sn_survey,
    "reduce": _handle_reduce,
    "arc-count": _handle_arc_count,
    "weyl": _handle_weyl,
    "strict-check": _handle_strict_check,
    "orbit": _handle_orbit,
    "dgamma": _handle_dgamma,
    "sigma-search": _handle_sigma_search,
    "factor-out": _handle_factor_out,
    "height": _handle_height,
    "kummer": _handle_kummer,
}

def _inputs(args) -> dict:
    """The parsed arguments that make up the record `inputs` and the cache
    key: all but the shared options and --hist-out; `height` keeps only the
    fields of the branch it takes."""
    skip = _not_inputs()
    if args.cmd == "height":
        skip |= {"minpoly"} if args.radical is not None else {"radical", "n"}
    return {k: v for k, v in vars(args).items() if k not in skip}


# ------------------------------------------------------------------- parser


@functools.cache
def _common() -> argparse.ArgumentParser:
    """The options every subcommand shares."""
    import argparse
    c = argparse.ArgumentParser(add_help=False)
    c.add_argument("--format", choices=["json", "csv"], default="json")
    c.add_argument("--out", default=None)
    c.add_argument("--cache", default=None)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--threads", type=int, default=1,
                   help="ignored: no command starts a thread of its own")
    c.add_argument("--no-timing", action="store_true")
    return c


@functools.cache
def _not_inputs() -> frozenset:  # the argument names no record input holds
    return frozenset({"cmd", "hist_out", *(a.dest for a in _common()._actions)})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    import argparse
    p = argparse.ArgumentParser(prog="cyclolab")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)
    command = functools.partial(sub.add_parser, parents=[_common()])

    sp = command("flat-verify")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--exponents", required=True)
    sp.add_argument("--coeffs", required=True)
    sp.add_argument("--mu", default="1")
    sp.add_argument("--numeric", action="store_true")

    sp = command("flat-search")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--exponents", required=True)
    sp.add_argument("--mu", type=float, default=1.0)
    sp.add_argument("--restarts", type=int, default=20)

    sp = command("sn-survey")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--dmax", type=int, required=True)
    sp.add_argument("--restarts", type=int, default=8)

    sp = command("reduce")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--exponents", required=True)
    sp.add_argument("--coeffs", required=True)
    sp.add_argument("--mu", default="1")

    sp = command("arc-count")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--k", required=True)
    sp.add_argument("--arcs", required=True)
    sp.add_argument("--hist-out", default=None)

    sp = command("weyl")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--k", required=True)
    sp.add_argument("--n", required=True)

    sp = command("strict-check")
    sp.add_argument("--seq", required=True)
    sp.add_argument("--threshold", type=float, default=None)

    for name in ("orbit", "dgamma", "sigma-search", "factor-out"):
        sp = command(name)
        sp.add_argument("--sum", required=True)
        sp.add_argument("--D", type=int, default=None)
        sp.add_argument("--c", default=None)
        if name == "orbit":
            sp.add_argument("--bins", type=int, default=32)
        if name in ("orbit", "dgamma"):
            sp.add_argument("--hist-out", default=None)
        if name in ("dgamma", "sigma-search"):
            sp.add_argument("--eps", type=float, required=True)
        if name == "sigma-search":
            sp.add_argument("--arcs", required=True)

    sp = command("height")
    branch = sp.add_mutually_exclusive_group(required=True)
    branch.add_argument("--minpoly")
    branch.add_argument("--radical")
    sp.add_argument("--n", type=int, default=None,
                    help="root order of --radical, the only branch that takes it (default: 1)")

    sp = command("kummer")
    sp.add_argument("--a", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--oracle", action="store_true")

    return p


@functools.cache
def _command_parsers() -> dict:
    """Each command's own parser, by name."""
    return next(a.choices for a in build_parser()._actions if a.dest == "cmd")


def _read(argv: list) -> argparse.Namespace | None:
    """argv read off its command's own option table, the one argparse built:
    exact option strings, each value joined by "=" or in the next token and
    read by its type and choices, then the defaults, required options and
    exclusive groups; or None where argparse's own rules must decide."""
    import argparse
    sub = argv and _command_parsers().get(argv[0])
    if not sub:
        return None
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        opt, eq, text = token.partition("=")
        action = sub._option_string_actions.get(opt)
        if not isinstance(action, (argparse._StoreAction, argparse._StoreTrueAction)):
            return None  # help, an abbreviation, "--", or no option at all
        if action.nargs == 0 and not eq:  # a flag
            given[action] = action.const
            continue
        text = text if eq else next(tokens, "-")
        if action.nargs == 0 or text == "--" or text.startswith("-") and not eq:
            return None  # a flag given "=value"; "--" reads as no value, "-..." by argparse's rules
        try:
            given[action] = action.type(text) if action.type else text  # the last repeat wins
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and given[action] not in action.choices:
            return None
    if any(a.required and a not in given for a in sub._actions) or not all(
            g.required <= sum(a in given for a in g._group_actions) <= 1
            for g in sub._mutually_exclusive_groups):
        return None  # a required option or group missing, or two of one group given
    return argparse.Namespace(cmd=argv[0], **{a.dest: given.get(a, a.default) for a in sub._actions
                                              if a.default is not argparse.SUPPRESS})


def _parse(argv: list) -> argparse.Namespace:
    """argv read by `_read`, or else whole by the full parser, the reference
    for usage, help and messages."""
    return _read(argv) or build_parser().parse_args(argv)


# --------------------------------------------------------------------- main


def _cache_key(command: str, inputs: dict, seed: int) -> str:
    import hashlib
    import json
    blob = json.dumps({"command": command, "inputs": _plain(inputs),
                       "seed": seed, "version": __version__},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_read(path: str) -> tuple[dict, str] | None:
    """The stored record at `path` and its text, or None for a miss."""
    import json
    try:
        with open(path) as fh:
            text = fh.read()
        stored = json.loads(text)
    except OSError:  # no entry yet, or one that cannot be read: recompute
        return None
    except ValueError:  # undecodable bytes or JSON
        print("warning: corrupted cache entry, recomputing", file=sys.stderr)
        return None
    if isinstance(stored, dict) and stored.get("version") == __version__:
        return stored, text
    return None


def _cache_write(path: str, text: str) -> None:
    """Write through a temp file in the same directory, then rename, so a
    reader never sees a partial entry."""
    import tempfile
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.cmd == "height":  # --n belongs to --radical, where it defaults to 1
        if args.n is not None and args.radical is None:
            print("error: --n belongs to --radical, not --minpoly", file=sys.stderr)
            return 2
        args.n = 1 if args.n is None else args.n
    inputs = _inputs(args)
    cache_dir = args.cache or os.environ.get(CACHE_ENV)
    path = cache_dir and os.path.join(cache_dir, _cache_key(args.cmd, inputs, args.seed) + ".json")
    # a --hist-out run computes, so that the histogram file gets written
    hit = _cache_read(path) if path and not getattr(args, "hist_out", None) else None
    if hit:
        record, text = hit
        if args.format == "json":
            # _dumps wrote the entry, and "cached" sorts before its first
            # key "command": mark it without encoding it again
            text = ('{\n "cached": true,' + text[1:] if text.startswith('{\n "command": ')
                    else _dumps({**record, "cached": True}))
    else:
        t0 = time.perf_counter()
        try:  # a result past the int-to-str digit limit fails to print here
            results, status = HANDLERS[args.cmd](args)
            record = {
                "command": args.cmd,
                "inputs": _plain(inputs),
                "results": _plain(results),
                "status": status,
                "seed": args.seed,
                "version": __version__,
                "wall_ms": None if args.no_timing else (time.perf_counter() - t0) * 1000.0,
            }
            text = _dumps(record) if path or args.format == "json" else None
        except (ValueError, TypeError, ArithmeticError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if path:
            try:
                _cache_write(path, text)
            except OSError as exc:
                print(f"error: cache directory unusable: {exc}", file=sys.stderr)
                return 2

    text = _to_csv(record) if args.format == "csv" else text + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 3 if record["status"] == "inconclusive" else 0


if __name__ == "__main__":
    sys.exit(main())
