"""Query kinds, the three workload mixes, their schedule and the known defects.

A query is a (kind, params) pair.  Its key, ``kind:<json params>``, names
it in ``reference.json``, which holds, for every query a workload can
draw, the digest of its result at the baseline commit and its cost
there.  The pool of a workload is exactly the reference entries of its
kinds, so every seed draws only queries whose answer is known.

Importing this module imports ``cyclolab``; the caller puts ``src/`` on
``sys.path`` first.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Callable

from cyclolab import cli, cyclotomic, flatsums, heights, kummer, radical
from cyclolab.cyclotomic import CyclotomicNumber


# ------------------------------------------------------------------ digests


def plain(obj):
    """Library results as JSON-ready data, by value: cyclotomic numbers by
    their reduced coordinates, so a change of internal representation that
    keeps the value keeps the digest."""
    if isinstance(obj, CyclotomicNumber):
        return {"order": obj.order, "canonical": [plain(c) for c in obj.canonical()]}
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, complex):
        return [repr(obj.real), repr(obj.imag)]
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if hasattr(obj, "tolist"):  # numpy scalars and arrays
        return plain(obj.tolist())
    raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(result) -> str:
    blob = json.dumps(plain(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def query_key(kind: str, params) -> str:
    return kind + ":" + json.dumps(list(params), separators=(",", ":"))


# --------------------------------------------------------------- execution


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM inside an overrunning query.  A BaseException,
    so the library's own ``except`` clauses do not swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@contextlib.contextmanager
def deadline(seconds: float):
    """Interrupt the main thread's pure-Python loops after ``seconds``."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Context:
    """Per-run state the query kinds share: the CLI cache directory of the
    current round, the explicit thread count, and the ``cached`` flag of
    every CLI record in issue order."""

    cache_dir: str
    threads: int
    cache_flags: list


# ------------------------------------------------------------- query kinds


@dataclass(frozen=True)
class Kind:
    """How to run one kind of query and how to check it independently.

    ``run(params, ctx)`` returns the result to digest; ``check(params,
    result)`` returns an error text or None and runs after the timed loop.
    ``deadline_s`` bounds one call; an overrun counts as a failure.
    """

    run: Callable
    check: Callable | None
    deadline_s: float


def _oracle(params, ctx):
    a, e, m = params
    rep = kummer.root_membership_oracle(Fraction(a), e, m)
    return {"status": rep.status, "certificate": rep.certificate}


def _oracle_check(params, result):
    a, e, m = params
    want = "true" if kummer.has_nth_root_in_cyclotomic(Fraction(a), e, m) else "false"
    if result["status"] != want:
        return f"oracle says {result['status']}, exact test says {want}"
    return None


def _sweep(params, ctx):
    a, m = params
    return [kummer.rank1_failure(Fraction(a), d, m)
            for d in range(1, m + 1) if m % d == 0]


def _rank1(params, ctx):
    a, d, m = params
    return kummer.rank1_failure(Fraction(a), d, m)


def chirp_sum(d: int, c: int) -> flatsums.SparseExpSum:
    """sum_j zeta_d^(c j^2) z^j, flat at level d for odd d and c prime to d
    (the autocorrelation at rho is zeta_d^(c rho^2) times a sum of the
    (2 c rho)-th powers of the d-th roots of unity); c = 1 is chirp(d)."""
    if c == 1:
        return flatsums.chirp(d)
    return flatsums.exact_sum(d, [(j, cyclotomic.zeta(d, (c * j * j) % d)) for j in range(d)],
                              Fraction(d))


def _chirp(params, ctx):
    return flatsums.is_flat(chirp_sum(*params))


def _chirp_check(params, result):
    return None if result.flat else "chirp of odd order reported not flat"


def flat_instance(name: str, twist: int) -> flatsums.SparseExpSum:
    """Admissible flat sums; multiplying every coefficient by the same root
    of unity zeta_24^twist keeps flatness and admissibility."""
    if name.startswith("chirp"):
        f = flatsums.chirp(int(name[5:]))
    else:
        n_terms, d = (int(t) for t in name[7:].split("d"))
        f = flatsums.known_member_witness(n_terms, d)
    rot = cyclotomic.zeta(24, twist)
    return flatsums.exact_sum(f.d, [(b, a * rot) for b, a in f.terms], f.mu)


def _reduce(params, ctx):
    f = flat_instance(*params)
    return {"validity": flatsums.validate_definition(f),
            "certificate": flatsums.reduce_instance(f)}


def random_element(rng: random.Random, order: int, terms: int) -> CyclotomicNumber:
    coeffs = [Fraction(0)] * order
    for _ in range(terms):
        coeffs[rng.randrange(order)] += Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]),
                                                 rng.randint(1, 4))
    return CyclotomicNumber(order, coeffs)


def arith_operands(order: int, index: int) -> tuple[CyclotomicNumber, CyclotomicNumber]:
    rng = random.Random(f"arith:{order}:{index}")
    while True:
        x = random_element(rng, order, 4)
        y = random_element(rng, order, 4)
        if not x.is_zero():
            return x, y


def _arith(params, ctx):
    x, y = arith_operands(*params)
    prod = x * y
    return {"product": list(prod.canonical()), "inverse": x.inverse(),
            "conjugate": x.galois_conjugate(params[0] - 1)}


def _arith_check(params, result):
    x, _ = arith_operands(*params)
    return None if x * result["inverse"] == 1 else "x * x.inverse() != 1"


def marginal_sum(index: int) -> radical.RadicalSum:
    rng = random.Random(f"marginal:{index}")
    b = rng.randint(1, 2)
    gens = rng.sample([Fraction(2), Fraction(3), Fraction(5)], b)
    dens = [rng.choice([2, 3, 4]) for _ in range(b)]
    order = rng.choice([3, 4, 5, 8])
    ctx = radical.RadicalContext(gens, dens, order)
    terms = [(cyclotomic.zeta(order, rng.randrange(order))
              * Fraction(rng.randint(1, 4), rng.randint(1, 3)),
              tuple(rng.randint(-2, 2) for _ in range(b)))
             for _ in range(rng.randint(1, 2))]
    return radical.RadicalSum(ctx, terms)


def _marginal(params, ctx):
    index, eps = params
    return radical.marginal_orbit_stats(marginal_sum(index), eps)


def _marginal_check(params, result):
    return None if result["identity_exact"] else "averaging identity failed"


def _power(params, ctx):
    coeffs, n = params
    return heights.power_transform(heights.AlgebraicNumber(tuple(coeffs)), n)


def run_cli(argv, cache_dir: str, threads: int) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv) + ["--no-timing", "--threads", str(threads),
                                      "--cache", cache_dir])
    return code, out.getvalue()


# The parts of a record that a faster commit must keep byte for byte;
# metadata such as ``cached``, ``wall_ms`` or added timing fields may change.
RECORD_FIELDS = ("command", "inputs", "results", "status", "seed")


def _cli(params, ctx):
    code, text = run_cli(params, ctx.cache_dir, ctx.threads)
    record = json.loads(text) if code in (0, 3) else None
    ctx.cache_flags.append(bool(record and record.get("cached", False)))
    return {"exit": code,
            "record": record and {f: record.get(f) for f in RECORD_FIELDS}}


def _turn_inside(t: Fraction, center: Fraction, half: Fraction) -> bool:
    return 2 * half >= 1 or (t - (center - half)) % 1 <= 2 * half


def _arc_check(params, result):
    """Brute-force count of the exact-turn box, independent of equidist."""
    argv = list(params)
    m = int(argv[argv.index("--m") + 1])
    k = [int(v) for v in argv[argv.index("--k") + 1].split(",")]
    arcs = []
    for part in argv[argv.index("--arcs") + 1].split(","):
        c_s, _, h_s = part.partition(":")
        if not (c_s.endswith("t") and h_s.endswith("t")):
            return None  # radian boxes are covered by the reference digest
        arcs.append((Fraction(c_s[:-1]), Fraction(h_s[:-1])))
    count = sum(
        all(_turn_inside(Fraction((r * kj) % m, m), c, h) for kj, (c, h) in zip(k, arcs))
        for r in range(1, m + 1))
    got = result["record"]["results"]["count"]
    return None if got == count else f"arc count {got}, brute force {count}"


CLI_COMMANDS = ("flat-verify", "flat-search", "sn-survey", "reduce", "arc-count", "weyl",
                "strict-check", "orbit", "dgamma", "sigma-search", "factor-out",
                "height", "kummer")

KINDS: dict[str, Kind] = {
    "oracle": Kind(_oracle, _oracle_check, 120.0),
    "oracle-tail": Kind(_oracle, _oracle_check, 120.0),
    "sweep": Kind(_sweep, None, 10.0),
    "chirp": Kind(_chirp, _chirp_check, 60.0),
    "chirp-large": Kind(_chirp, _chirp_check, 60.0),
    "reduce": Kind(_reduce, None, 30.0),
    "arith-24": Kind(_arith, _arith_check, 30.0),
    "arith-120": Kind(_arith, _arith_check, 30.0),
    "arith-210": Kind(_arith, _arith_check, 60.0),
    "gauss": Kind(_rank1, None, 30.0),
    "marginal": Kind(_marginal, _marginal_check, 30.0),
    "power": Kind(_power, None, 30.0),
}
KINDS.update({f"cli-{c}": Kind(_cli, _arc_check if c == "arc-count" else None, 60.0)
              for c in CLI_COMMANDS})


# -------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    """``mix`` lists (kind, picks, every): rounds r with r % every == 0 draw
    one query from each of ``picks`` cost strata of that kind.  ``rerun``
    issues each round a second time, after the cold half."""

    name: str
    mix: tuple
    rerun: bool = False


WORKLOADS = {
    # LLL-bound: oracle queries with e * phi(m) <= 64 over m <= 24 (lattice
    # dimension phi(m) + 1 from 2 to 23), split at e * phi(m) = 20 into a
    # body (median 30 ms) and a tail (median 0.6 s, up to 4.2 s at m = 23,
    # e = 2), plus cheap rank-1 sweeps over all d | m.  A tail query every
    # second round leaves most of the time to the body, whose many samples
    # set the median and p90.
    "kummer-oracle": Workload("kummer-oracle", (
        ("oracle", 12, 1), ("oracle-tail", 1, 2), ("sweep", 4, 1))),
    # Exact arithmetic with no LLL: chirp flatness, certified reductions,
    # CyclotomicNumber mul/canonical/inverse at D = 24, 120, 210, Gauss-sum
    # rank-1 failures, orbit marginals and power transforms.  The 1-4 ms
    # kinds make up over half of a round, so the median lies on a plateau
    # of like-cost queries rather than between two clusters.
    "exact-arith": Workload("exact-arith", (
        ("chirp", 4, 1), ("chirp-large", 1, 4), ("reduce", 2, 1), ("arith-24", 4, 1),
        ("arith-120", 2, 1), ("arith-210", 1, 2), ("gauss", 4, 1), ("marginal", 3, 1),
        ("power", 3, 1))),
    # Every CLI subcommand once per round, cold then as a rerun that finds
    # the cache the cold half wrote.
    "cli-cache": Workload("cli-cache", tuple((f"cli-{c}", 1, 1) for c in CLI_COMMANDS),
                          rerun=True),
}


def schedule(reference: dict, workload: Workload) -> dict[str, list[list[list[str]]]]:
    """kind -> cost strata -> groups -> keys.

    A group holds queries of about equal cost that differ only in what the
    seed may vary (see ``make_reference.py``).  A kind's groups, sorted by
    their mean baseline cost, are cut into ``picks`` equal strata, cheap to
    dear, and each stratum cycles through its groups in a fixed order."""
    out = {}
    for kind, picks, _ in workload.mix:
        by_group: dict[str, list[str]] = {}
        for key, entry in sorted(reference.items()):
            if entry["kind"] == kind:
                by_group.setdefault(entry["group"], []).append(key)
        groups = sorted(by_group.values(), key=lambda keys: (
            sum(reference[k]["cost_ms"] for k in keys) / len(keys), keys[0]))
        if len(groups) < picks:
            raise ValueError(f"reference holds {len(groups)} {kind} groups, too few")
        strata = [groups[len(groups) * i // picks: len(groups) * (i + 1) // picks]
                  for i in range(picks)]
        for s, stratum in enumerate(strata):
            random.Random(f"{kind}:{s}").shuffle(stratum)
        out[kind] = strata
    return out


def round_keys(workload: Workload, plan: dict, seed: int, r: int) -> list[str]:
    """Round r takes, for every kind due in it, the next group of each
    stratum.  The seed picks the query a group gives on its first visit;
    later visits take its other queries in turn, so a query comes back in
    a run only after its whole group has been issued.  The groups and
    their order do not depend on the seed, so neither does a round's cost."""
    keys = []
    for kind, _, every in workload.mix:
        if r % every == 0:
            for s, stratum in enumerate(plan[kind]):
                visit, g = divmod(r // every, len(stratum))
                group = stratum[g]
                first = random.Random(f"{workload.name}:{seed}:{kind}:{s}:{g}").randrange(
                    len(group))
                keys.append(group[(first + visit) % len(group)])
    random.Random(f"{workload.name}:{r}").shuffle(keys)
    return keys


def planned_rounds(workload: Workload, plan: dict, reference: dict, seconds: float) -> int:
    """The number of rounds whose baseline cost, with the rerun half where
    there is one, first reaches ``seconds``.  It depends on neither the
    seed nor the speed of the commit under test, so every run of a
    workload does the same work."""
    def mean_s(keys):
        return sum(reference[k]["cost_ms"] for k in keys) / len(keys) / 1000.0

    halves = 2 if workload.rerun else 1
    total, r = 0.0, 0
    while total < seconds:
        for kind, _, every in workload.mix:
            if r % every == 0:
                total += halves * sum(mean_s(stratum[(r // every) % len(stratum)])
                                      for stratum in plan[kind])
        r += 1
    return r


# ------------------------------------------------------ known defects


# Big-integer perfect powers whose exact answers are known by construction.
# At the baseline they fail (a float root, an OverflowError, a trial
# division that does not end); they run after the timed loop, each under a
# deadline, and are reported apart from the timed queries.
KNOWN_DEFECTS = (
    ("rank1_failure((10**20+7)**3, 3, 3)", ((10**20 + 7) ** 3, 3, 3), (3, 1)),
    ("rank1_failure(10**400, 2, 8)", (10**400, 2, 8), (2, 1)),
    ("rank1_failure((10**20+7)**2, 2, 4)", ((10**20 + 7) ** 2, 2, 4), (2, 1)),
)
KNOWN_DEFECT_DEADLINE_S = 1.0
