"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and time budget is pinned here.
"""
import json
import math
import random
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from cyclolab import cli
from cyclolab.cyclotomic import CyclotomicNumber, cyclotomic_polynomial, zeta
from cyclolab.equidist import (
    Arc,
    ArcBox,
    RootTupleOrbit,
    arc_count,
    relation_lattice,
    weyl_sum,
)
from cyclolab.flatsums import (
    chirp,
    exact_sum,
    exponent_bound_scan,
    is_flat,
    known_member_witness,
    reduce_instance,
    sn_survey,
    sn_upper_bound,
    validate_definition,
)
from cyclolab.heights import (
    AlgebraicNumber,
    is_root_of_unity,
    power_transform,
    radical_height,
    weil_height,
)
from cyclolab.kummer import (
    has_nth_root_in_cyclotomic,
    rank1_failure,
    root_membership_oracle,
)
from cyclolab.radical import (
    GaloisElement,
    RadicalContext,
    RadicalSum,
    apply_galois,
    cosine_expansion,
    cosine_identity_sides,
    marginal_orbit_stats,
)

from _reference import abs_squared, evaluate_exact, in_lattice

F = Fraction


def report(number: int, description: str, passed: bool, elapsed: float, budget: float):
    tag = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"[{tag}] criterion {number:2d}: {description} "
          f"({elapsed:.2f}s / budget {budget:.0f}s)")
    assert passed, f"criterion {number} failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_s1_exactness(capsys):
    t0 = time.perf_counter()
    code = cli.main(["sn-survey", "--N", "1", "--dmax", "50", "--no-timing"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    rec = json.loads(out)
    members = [r["d"] for r in rec["results"] if r["status"] == "member"]
    with capsys.disabled():
        report(1, "single-term survey reports members exactly {1}",
               code == 0 and members == [1], elapsed, 1.0)


def test_criterion_02_bound_values(capsys):
    t0 = time.perf_counter()
    ok = sn_upper_bound(2) == 48 and sn_upper_bound(3) == 512
    with capsys.disabled():
        report(2, "order bounds 4^N(N^2-1): 48 at N=2, 512 at N=3",
               ok, time.perf_counter() - t0, 5.0)


def test_criterion_03_s2_determination(capsys):
    t0 = time.perf_counter()
    rows = sn_survey(2, 48)
    members = [r["d"] for r in rows if r["status"] == "member"]
    ok = members == [1, 2]
    # d = 2 carries an exact flat witness
    w2 = known_member_witness(2, 2)
    ok &= is_flat(w2).flat and validate_definition(w2).all_ok
    # d >= 3 excluded by exact autocorrelation infeasibility
    ok &= all(r["evidence"]["reason"] == "autocorrelation_infeasible"
              for r in rows if r["d"] >= 3)
    # independent oracle: residue-class analysis, d | 2b with gcd(b, d) = 1
    # forces d <= 2
    for d in range(3, 49):
        feasible = [b for b in range(1, d)
                    if gcd(b, d) == 1 and (2 * b) % d == 0]
        ok &= feasible == []
    with capsys.disabled():
        report(3, "two-term members over d <= 48 are exactly {1, 2}",
               ok, time.perf_counter() - t0, 60.0)


def test_criterion_04_chirp_flatness(capsys):
    t0 = time.perf_counter()
    ok = True
    for d in range(1, 26, 2):
        f = chirp(d)
        ok &= is_flat(f).flat  # autocorrelation is a delta of mass d
        for l in range(d):    # and directly: |f(zeta_d^l)|^2 = d exactly
            ok &= abs_squared(evaluate_exact(f, l)) == d
    with capsys.disabled():
        report(4, "quadratic-phase sums satisfy |f|^2 = d on mu_d, odd d <= 25",
               ok, time.perf_counter() - t0, 30.0)


def test_criterion_05_exponent_bound_scan(capsys):
    t0 = time.perf_counter()
    ok = True
    for M, d in ((2, 4), (2, 9), (3, 9), (3, 16)):
        for seed in range(5):
            rep = exponent_bound_scan(M, d, trials=200, seed=seed)
            ok &= rep["counterexamples"] == []
    with capsys.disabled():
        report(5, "short-exponent scan finds no flat counterexamples",
               ok, time.perf_counter() - t0, 30.0)


def test_criterion_06_reduction_certificates(capsys):
    t0 = time.perf_counter()
    instances = [known_member_witness(2, 1), known_member_witness(2, 2)]
    # chirps from criterion 4 that meet the reduction preconditions:
    # admissible (chirp(9) has a vanishing subset sum) and small enough for
    # the subset check (N <= 20 caps d at 19)
    for d in range(1, 20, 2):
        f = chirp(d)
        if validate_definition(f).all_ok:
            instances.append(f)
    ok = True
    for f in instances:
        cert = reduce_instance(f)
        ok &= cert.c[0] == 0
        ok &= gcd(cert.d_prime, *cert.c) == 1 if len(cert.c) else True
        g = cert.d_prime
        for ck in cert.c:
            g = gcd(g, ck)
        ok &= g == 1
        ok &= all(4 * abs(ck) < cert.d_prime for ck in cert.c)
        ok &= cert.e == gcd(cert.q, f.d) and cert.d_prime * cert.e == f.d
        ok &= is_flat(cert.reduced).flat
    with capsys.disabled():
        report(6, f"reduction certificates verified on {len(instances)} flat inputs",
               ok, time.perf_counter() - t0, 10.0)


def test_criterion_07_arc_count_bound(capsys):
    t0 = time.perf_counter()
    orbit = RootTupleOrbit(10007, (1, 100))
    ok = True
    for eps in (0.3, 0.5):
        rep = arc_count(orbit, ArcBox([Arc(0.0, eps), Arc(0.0, eps)]))
        ratio = float(rep.ratio)
        ok &= ratio >= (1 - eps) * (eps / (2 * math.pi)) ** 2
        ok &= abs(ratio - (eps / math.pi) ** 2) <= 0.02
    with capsys.disabled():
        report(7, "arc-box counts at m = 10007 meet the Haar lower bound",
               ok, time.perf_counter() - t0, 1.0)


def test_criterion_08_weyl_law(capsys):
    t0 = time.perf_counter()
    rng = random.Random(0)
    ok = True
    for m in range(1, 201):
        ks = [(1, math.isqrt(m)), (2, 3),
              (rng.randint(-10, 10), rng.randint(-10, 10))]
        for k in ks:
            orbit = RootTupleOrbit(m, k)
            basis = relation_lattice(m, list(k))
            for n1 in range(-3, 4):
                for n2 in range(-3, 4):
                    if n1 == n2 == 0:
                        continue
                    val = weyl_sum(orbit, (n1, n2))
                    ok &= val in (0, 1)
                    ok &= (val == 1) == in_lattice(basis, [n1, n2])
    with capsys.disabled():
        report(8, "character sums are 0/1 and match relation-lattice membership",
               ok, time.perf_counter() - t0, 10.0)


def test_criterion_09_cosine_expansion(capsys):
    t0 = time.perf_counter()
    rng = random.Random(99)
    worst = 0.0
    for _ in range(1000):
        b = rng.randint(1, 2)
        gens = rng.sample([F(2), F(3), F(5), F(7, 2)], b)
        dens = [rng.choice([2, 3, 4, 6, 8, 12]) for _ in range(b)]
        D = rng.choice([1, 3, 4, 8, 12])
        ctx = RadicalContext(gens, dens, D)
        terms = [
            (zeta(D, rng.randrange(D)) * F(rng.randint(1, 5), rng.randint(1, 4)),
             tuple(rng.randint(-4, 4) for _ in range(b)))
            for _ in range(rng.randint(1, 3))
        ]
        x = RadicalSum(ctx, terms)
        sig = GaloisElement(1, tuple(rng.randrange(n) for n in ctx.group))
        direct = abs(apply_galois(sig, x).evaluate()) ** 2
        worst = max(worst, abs(cosine_expansion(x, sig) - direct))
    with capsys.disabled():
        report(9, f"cosine expansion matches direct conjugation (max dev {worst:.2e})",
               worst < 1e-9, time.perf_counter() - t0, 30.0)


def test_criterion_10_averaging_identity(capsys, marginal_reference):
    t0 = time.perf_counter()
    rng = random.Random(7)
    ok = True
    for _ in range(50):
        b = rng.randint(1, 2)
        gens = rng.sample([F(2), F(3), F(5)], b)
        dens = [rng.choice([2, 3, 4]) for _ in range(b)]
        D = rng.choice([3, 4, 5, 8])
        ctx = RadicalContext(gens, dens, D)
        terms = [
            (zeta(D, rng.randrange(D)) * F(rng.randint(1, 4), rng.randint(1, 3)),
             tuple(rng.randint(-2, 2) for _ in range(b)))
            for _ in range(rng.randint(1, 2))
        ]
        x = RadicalSum(ctx, terms)
        eps = rng.choice([0.1, 0.5, 1.0])
        st = marginal_orbit_stats(x, eps)
        ref = marginal_reference(x, eps)
        ok &= st["rows"] == ref["rows"]
        ok &= st["full_group_fraction"] == ref["full_group_fraction"]
        ok &= st["identity_exact"]
        ok &= st["average"] == st["full_group_fraction"]
        ok &= st["max_fraction"] >= st["average"]
    with capsys.disabled():
        report(10, "per-phi averages equal the whole-group fraction exactly",
               ok, time.perf_counter() - t0, 10.0)


def test_criterion_11_heights(capsys):
    t0 = time.perf_counter()
    ok = abs(radical_height(2, 3) - math.log(2) / 3) < 1e-12
    ok &= abs(weil_height((-2, 0, 0, 1)) - math.log(2) / 3) < 1e-12
    rng = random.Random(77)
    produced = 0
    while produced < 200:
        deg = rng.randint(2, 4)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        try:
            a = AlgebraicNumber(tuple(coeffs))
        except ValueError:
            continue
        n = rng.choice([2, 3])
        ok &= abs(weil_height(power_transform(a, n)) - n * weil_height(a)) < 1e-9
        produced += 1
    for k in range(1, 31):
        p = cyclotomic_polynomial(k)
        ok &= weil_height(p) < 1e-9
        ok &= is_root_of_unity(AlgebraicNumber(p))
    ok &= not is_root_of_unity(AlgebraicNumber((-1, -1, 1)))
    ok &= weil_height((-1, -1, 1)) > 1e-9
    with capsys.disabled():
        report(11, "height laws: radical, power, Kronecker",
               ok, time.perf_counter() - t0, 30.0)


def test_criterion_12_kummer(capsys):
    t0 = time.perf_counter()
    ok = rank1_failure(2, 2, 8) == (2, 1)
    rep = root_membership_oracle(2, 2, 8)
    ok &= rep.status == "true"
    v = [F(c) for c in rep.certificate["v"]]
    x = CyclotomicNumber(8, v + [F(0)] * (8 - len(v)))
    ok &= x * x == 2
    # full agreement grid
    from cyclolab.cyclotomic import euler_phi

    for a in (2, 3, 5, 6, -2):
        for d in (2, 4):
            for m in range(1, 25):
                if not (m % d == 0 or (m % 2 and (2 * m) % d == 0)):
                    continue
                if d * euler_phi(m) > 64:
                    continue
                for e in (1, 2, 4):
                    if d % e:
                        continue
                    want = has_nth_root_in_cyclotomic(a, e, m)
                    got = root_membership_oracle(a, e, m)
                    ok &= got.status == ("true" if want else "false")
    # empirical uniform bound for a = 2
    best = 0
    for m in range(2, 201):
        for d in (dd for dd in range(1, m + 1) if m % dd == 0):
            best = max(best, rank1_failure(2, d, m)[0])
    ok &= best == 2
    with capsys.disabled():
        report(12, "rank-1 failures agree with the lattice oracle; max c(2) = 2",
               ok, time.perf_counter() - t0, 120.0)


def test_criterion_13_rearrangement_identity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10**4):
        xs = rng.standard_normal(int(rng.integers(1, 9)))
        eta = float(rng.standard_normal())
        lhs, rhs = cosine_identity_sides(xs, eta)
        worst = max(worst, abs(lhs - rhs))
    with capsys.disabled():
        report(13, f"rearrangement identity holds to 1e-12 (max dev {worst:.2e})",
               worst < 1e-12, time.perf_counter() - t0, 5.0)
