import hashlib
import json
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclolab import kummer
from cyclolab.cyclotomic import CyclotomicNumber, zeta, euler_phi
from cyclolab.lattice import _gram, hnf
from cyclolab.kummer import (
    _nth_root_rational,
    _zeta_order_in_cyclotomic,
    KummerQuery,
    squarefree_part,
    conductor_of_sqrt,
    sqrt_in_cyclotomic,
    sqrt_as_cyclotomic,
    has_nth_root_in_cyclotomic,
    rank1_failure,
    tower_degrees,
    root_membership_oracle,
    multiplicatively_independent,
)

from _reference import dense_coeffs

F = Fraction


def ref_has_nth_root(a, e, m):
    """The Gauss-sum decision: build each twisted candidate sqrt(rho) * zeta
    exactly in Q(zeta_L) and test it for invariance under every Galois
    element fixing zeta_m."""
    a = F(a)
    if e == 1:
        return True
    mag, parity = abs(a), (0 if a > 0 else 1)
    rho = _nth_root_rational(mag, e)
    if rho is not None:
        return a > 0 or _zeta_order_in_cyclotomic(2 * (e & -e), m)
    if e % 2 == 0:
        rho = _nth_root_rational(mag, e // 2)
        if rho is not None and _nth_root_rational(rho, 2) is None:
            for tau in range(parity, 2 * e, 2):
                g = gcd(tau, 2 * e)
                t = (2 * e) // g
                if t <= 2:
                    if sqrt_in_cyclotomic(rho, m):
                        return True
                elif t == 4:
                    if sqrt_in_cyclotomic(-rho, m):
                        return True
                else:
                    L = lcm(m, t, conductor_of_sqrt(rho), 4)
                    x = sqrt_as_cyclotomic(rho, L) * zeta(L, (L // t) * (tau // g))
                    if all(x.galois_conjugate(s) == x
                           for s in range(1 + m, L, m) if gcd(s, L) == 1):
                        return True
    return False


def conductor_rule_grid():
    """Seeded sample of (a, e, m): both signs, radicands with conductors
    5, 8, 12, 24 and 28 (rational or not), m <= 24 odd and even, e in
    {2, 3, 4, 6} plus a few e = 8.  For e = 6, m has no prime factor above
    7: the Gauss-sum reference would otherwise work in orders past 1000."""
    grid = []
    for b in (F(2), F(3), F(5), F(6), F(7), F(1, 2), F(2, 3), F(5, 4), F(3, 25)):
        for e in (2, 3, 4, 6):
            if e == 2:
                radicands = {b, 4 * b, b**2}
            else:
                radicands = {b, b**e, b ** (e // 2), (F(9, 4) * b) ** (e // 2)}
            for a in radicands:
                for m in range(1, 25):
                    if e != 6 or all(m % p for p in (11, 13, 17, 19, 23)):
                        grid += [(a, e, m), (-a, e, m)]
    grid = random.Random(10).sample(grid, 2400)
    for b in (F(2), F(3), F(1, 2)):
        for m in (1, 2, 3, 4, 5, 8, 12, 16, 24):
            grid += [(b**4, 8, m), (-(b**4), 8, m)]
    return grid


class TestConductor:
    def test_squarefree_part(self):
        assert squarefree_part(12) == 3
        assert squarefree_part(-18) == -2
        assert squarefree_part(49) == 1

    def test_conductors(self):
        assert conductor_of_sqrt(F(2)) == 8
        assert conductor_of_sqrt(F(-1)) == 4
        assert conductor_of_sqrt(F(-3)) == 3
        assert conductor_of_sqrt(F(5)) == 5
        assert conductor_of_sqrt(F(3)) == 12
        assert conductor_of_sqrt(F(9, 4)) == 1

    def test_membership_examples(self):
        assert sqrt_in_cyclotomic(2, 8)
        assert not sqrt_in_cyclotomic(2, 12)
        assert sqrt_in_cyclotomic(-1, 4)

    def test_sqrt2_exact_witness(self):
        x = zeta(8) + zeta(8, 7)
        assert x * x == 2


class TestSqrtConstruction:
    @pytest.mark.parametrize("rho,order", [
        (F(2), 8), (F(3), 12), (F(5), 5), (F(21), 21), (F(6), 24),
        (F(3, 4), 12), (F(49), 1), (F(15), 60), (F(30), 120), (F(105), 105),
        (F(12), 24), (F(2, 9), 24),
    ])
    def test_square_and_positive(self, rho, order):
        s = sqrt_as_cyclotomic(rho, order)
        assert s * s == rho
        emb = s.embed()
        assert abs(emb.imag) < 1e-9 and emb.real > 0

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError):
            sqrt_as_cyclotomic(F(2), 12)


class TestRank1:
    def test_examples(self):
        assert rank1_failure(2, 2, 8) == (2, 1)
        assert rank1_failure(2, 3, 9) == (1, 3)
        assert rank1_failure(4, 2, 3) == (2, 1)

    def test_torsion_rejected(self):
        with pytest.raises(ValueError, match="torsion generator"):
            rank1_failure(1, 2, 8)
        with pytest.raises(ValueError, match="torsion generator"):
            rank1_failure(-1, 2, 8)

    def test_quartic_entanglements(self):
        # i*sqrt(2) is a 4th root of 4 inside Q(zeta_8)
        assert rank1_failure(4, 4, 8) == (4, 1)
        # (1+i)^4 = -4 inside Q(zeta_4)
        assert rank1_failure(-4, 4, 4) == (4, 1)
        # (1+i)^8 = 16
        assert rank1_failure(16, 8, 8) == (8, 1)
        # 2^(1/4) is never cyclotomic
        assert not has_nth_root_in_cyclotomic(2, 4, 840)

    def test_twisted_roots_frozen(self):
        # frozen from an oracle cross-check over e in {2,3,4,6,8}, m <= 16
        # (1+i) = sqrt2 * zeta_8 lives in Q(i): 8th root of 16 at m = 4
        assert has_nth_root_in_cyclotomic(16, 8, 4)
        assert not has_nth_root_in_cyclotomic(16, 8, 6)
        # sqrt2 * zeta_16 is an 8th root of -16, first present at m = 16
        assert has_nth_root_in_cyclotomic(-16, 8, 16)
        assert not has_nth_root_in_cyclotomic(-16, 8, 8)
        # (1+i)/2 is a 4th root of -1/4 inside Q(i)
        assert has_nth_root_in_cyclotomic(F(-1, 4), 4, 4)
        assert not has_nth_root_in_cyclotomic(F(-1, 4), 4, 2)
        # 2*sqrt2 is a 4th root of 64, needs the conductor 8
        assert has_nth_root_in_cyclotomic(64, 4, 8)
        assert not has_nth_root_in_cyclotomic(64, 4, 4)
        # 2i is a 6th root of -64
        assert has_nth_root_in_cyclotomic(-64, 6, 4)
        assert not has_nth_root_in_cyclotomic(-64, 6, 2)
        # i*sqrt3 = 1 + 2*zeta_3 is a 6th root of -27 already in Q(zeta_3)
        assert has_nth_root_in_cyclotomic(-27, 6, 3)
        assert not has_nth_root_in_cyclotomic(-27, 6, 5)
        # odd radicals of non-powers never appear
        assert not has_nth_root_in_cyclotomic(2, 3, 9)
        assert has_nth_root_in_cyclotomic(8, 3, 1)

    def test_divisibility_in_d(self):
        for a in (2, 3, 5, 6, -2, 12):
            for m in (8, 12, 16, 24):
                cs = {}
                for d in (1, 2, 4, 8):
                    if not (m % d == 0):
                        continue
                    c, deg = rank1_failure(a, d, m) if a not in (1, -1) else (1, d)
                    assert c * deg == d
                    cs[d] = c
                for d1 in cs:
                    for d2 in cs:
                        if d2 % d1 == 0:
                            assert cs[d2] % cs[d1] == 0

    def test_empirical_bound_a2(self):
        best = 0
        for m in range(2, 201):
            for d in (d for d in range(1, m + 1) if m % d == 0):
                best = max(best, rank1_failure(2, d, m)[0])
        assert best == 2

    def test_query_invariant(self):
        with pytest.raises(ValueError):
            KummerQuery(F(2), 4, 6)  # mu_4 not inside Q(zeta_6)


class TestConductorRule:
    def test_matches_gauss_sum_reference(self):
        grid = conductor_rule_grid()
        answers = [ref_has_nth_root(a, e, m) for a, e, m in grid]
        assert len(grid) >= 2000 and sum(answers) >= 500
        mismatches = [(a, e, m) for (a, e, m), want in zip(grid, answers)
                      if has_nth_root_in_cyclotomic(a, e, m) != want]
        assert mismatches == []

    def test_bounded_work_on_big_primes(self):
        for (a, d, m), want in ((((10**18 + 3) ** 3, 6, 6), (3, 2)),
                                ((1009**3, 12, 24), (3, 4))):
            start = time.perf_counter()
            assert rank1_failure(a, d, m) == want
            assert time.perf_counter() - start < 1.0

    def test_no_cyclotomic_arithmetic(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("cyclotomic arithmetic in a Kummer decision")

        monkeypatch.setattr(kummer, "sqrt_as_cyclotomic", forbidden)
        monkeypatch.setattr(CyclotomicNumber, "galois_conjugate", forbidden)
        monkeypatch.setattr(CyclotomicNumber, "__mul__", forbidden)
        for a in (2, -2, 3, -3, 5, 6, -7, F(1, 2), F(-2, 3), 16, -27, 64, F(-1, 4), 1009**3):
            for m in range(1, 25):
                for d in (d for d in range(1, m + 1) if m % d == 0):
                    c, deg = rank1_failure(a, d, m)
                    assert c * deg == d

    def test_factors_rho_at_most_once(self, monkeypatch):
        calls = []
        real = kummer.factorize
        monkeypatch.setattr(kummer, "factorize", lambda n: calls.append(n) or real(n))
        # 4th roots of -4 are sqrt(2) * zeta_8^odd: neither zeta_8^odd nor its
        # square zeta_4^odd lies in Q(zeta_3), so no order qualifies
        assert has_nth_root_in_cyclotomic(-4, 4, 3) is False
        assert calls == []
        # 4th roots of 4: orders 1 and 2 inside Q(zeta_3), order 4 twisted
        assert has_nth_root_in_cyclotomic(4, 4, 3) is False
        assert calls == [2]
        assert has_nth_root_in_cyclotomic(4, 4, 8) is True
        assert calls == [2, 2]


class TestTower:
    def test_odd_regime(self):
        assert tower_degrees([2, 3], [3, 3], 9) == ([1, 1], [3, 3])

    def test_rank_one(self):
        assert tower_degrees([2], [2], 8) == ([2], [1])

    def test_coprime_conductors(self):
        assert tower_degrees([2, 5], [2, 2], 40) == ([2, 2], [1, 1])

    def test_entangled_refused(self):
        # sqrt(21) lies in Q(zeta_21) although sqrt(3) and sqrt(7) do not
        with pytest.raises(ValueError, match="entangled"):
            tower_degrees([3, 7], [2, 2], 21)

    def test_fourth_roots_lift_to_conductor_8(self):
        # a 4 | d level's 2-layers live over lcm(conductor, 8): 40 meets the
        # conductor 12 of sqrt(3) in 4, but is coprime to the 13 of sqrt(13)
        with pytest.raises(ValueError, match="entangled case unsupported"):
            tower_degrees([5, 3], [4, 2], 8)
        assert tower_degrees([5, 13], [4, 2], 8) == ([1, 1], [4, 2])

    def test_dependent_rejected(self):
        with pytest.raises(ValueError, match="independent"):
            tower_degrees([2, 4], [2, 2], 8)

    def test_independence_checker(self):
        assert multiplicatively_independent([F(2), F(3)])
        assert not multiplicatively_independent([F(2), F(8)])
        assert multiplicatively_independent([F(2), F(9, 2)])

    def test_independence_with_denominators(self):
        assert not multiplicatively_independent([F(2, 3), F(9, 4)])
        assert not multiplicatively_independent([F(12), F(18), F(2, 3)])
        assert not multiplicatively_independent([F(6), F(2), F(3)])
        assert multiplicatively_independent([F(2), F(3), F(5, 7)])


def oracle_grid():
    """The queries of the benchmark's oracle pools: ten radicands, m <= 24,
    e <= 4 with e * phi(m) <= 64, and e <= 2 where phi(m) >= 16."""
    radicands = ("2", "3", "5", "-2", "-3", "1/2", "-3/4", "9", "-4", "8")
    return [(F(a), e, m) for m in range(1, 25)
            for e in range(1, 3 if euler_phi(m) >= 16 else 5) if e * euler_phi(m) <= 64
            for a in radicands]


# a seeded sample of the grid plus tail cases at m = 19 and 23 (e * phi(m)
# >= 20); the digest covers status, certificate and detail of every report
ORACLE_PIN_CASES = random.Random(16).sample(oracle_grid(), 40) + [
    (F(2), 2, 19), (F(9), 2, 19), (F(-3), 1, 23), (F(-4), 2, 23), (F(9), 2, 23)]
ORACLE_PIN_DIGEST = "878538e26d154307c8298455510c4546e79aeb673a40a3a0257ef69e27412ffd"


def oracle_pin_digest(reverse=False):
    """The digest over the reports of ORACLE_PIN_CASES, in their order
    whichever order they are computed in."""
    cases = ORACLE_PIN_CASES[::-1] if reverse else ORACLE_PIN_CASES
    reports = []
    for a, e, m in cases:
        rep = root_membership_oracle(a, e, m)
        reports.append([str(a), e, m, rep.status, rep.certificate, rep.detail])
    if reverse:
        reports.reverse()
    blob = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest(), reports


class TestOrders:
    """The root order e, the Kummer degree d and the field order m are
    positive integers at every entry point that takes them."""

    @pytest.mark.parametrize("entry,args", [
        ("sqrt_in_cyclotomic", (2, 0)), ("sqrt_in_cyclotomic", (2, -8)),
        ("has_nth_root_in_cyclotomic", (2, 0, 8)), ("has_nth_root_in_cyclotomic", (2, -1, 8)),
        ("has_nth_root_in_cyclotomic", (2, 2, 0)), ("has_nth_root_in_cyclotomic", (2, 2, -8)),
        ("has_nth_root_in_cyclotomic", (2, 1, 0)),
        ("root_membership_oracle", (2, 0, 8)), ("root_membership_oracle", (2, -1, 8)),
        ("root_membership_oracle", (2, 2, 0)), ("root_membership_oracle", (2, 2, -8)),
        ("KummerQuery", (2, 0, 8)), ("KummerQuery", (2, 2, 0)), ("rank1_failure", (2, -2, 8)),
    ])
    def test_nonpositive_refused(self, entry, args):
        with pytest.raises(ValueError, match="must be positive"):
            getattr(kummer, entry)(*args)

    @pytest.mark.parametrize("entry,args", [
        ("sqrt_in_cyclotomic", (2, 8.0)),
        ("has_nth_root_in_cyclotomic", (2, 2.0, 8)), ("has_nth_root_in_cyclotomic", (2, 2, 8.0)),
        ("root_membership_oracle", (2, 2.0, 8)), ("root_membership_oracle", (2, 2, 8.0)),
        ("KummerQuery", (2, 2.0, 8)), ("KummerQuery", (2, 2, 8.0)),
        ("rank1_failure", (2, 2.0, 8)), ("tower_degrees", ([2], [2.0], 8)),
    ])
    def test_float_refused(self, entry, args):
        with pytest.raises(TypeError):
            getattr(kummer, entry)(*args)

    def test_integer_types_accepted(self):
        import numpy as np

        assert sqrt_in_cyclotomic(2, np.int32(8))
        assert has_nth_root_in_cyclotomic(2, np.int64(2), np.int32(8))
        assert has_nth_root_in_cyclotomic(3, True, 5)
        assert root_membership_oracle(2, np.int64(2), np.int32(8)) == root_membership_oracle(2, 2, 8)
        q = KummerQuery(2, np.int64(2), True)
        assert q == KummerQuery(2, 2, 1) and type(q.d) is int and type(q.m) is int


ORACLE_CACHES = ("_zeta_block", "_zeta_powers", "_zeta_floats", "_unit_phases")


def oracle_cache_sizes():
    return tuple(getattr(kummer, name).cache_info().currsize for name in ORACLE_CACHES)


@settings(max_examples=300, deadline=None)
@given(st.integers(-300, 300), st.integers(-300, 300).filter(bool), st.integers(1, 60))
@example(0, 1, 1)
@example(0, -7, 1)
@example(100, 1, 1)
@example(-101, 1, 1)
@example(1, 100, 1)
@example(1, -101, 1)
@example(101, 101, 2)
@example(200, 2, 1)
@example(202, 2, 1)
@example(-3, 303, 1)
def test_box_test_in_integers(x, nb, k):
    # the oracle's integer box test reads -x/nb in lowest terms as the
    # Fraction does, also when x and nb share the factor k
    x, nb = k * x, k * nb
    c = Fraction(-x, nb)
    assert kummer._past_box([x], nb) == (max(abs(c.numerator), c.denominator) > 100)


class TestOracle:
    def test_reports_pinned(self):
        # LLL on another basis of the same lattice may return other vectors,
        # so the reports themselves are pinned, not only the statuses
        got, reports = oracle_pin_digest()
        assert {r[3] for r in reports} == {"true", "false"}
        tails = {(r[2], r[3]) for r in reports if r[1] * euler_phi(r[2]) >= 20}
        assert {(19, "true"), (19, "false"), (23, "true"), (23, "false")} <= tails
        assert got == ORACLE_PIN_DIGEST

    def test_near_miss_inconclusive(self, monkeypatch):
        # a candidate whose exact e-th power misses a at every scale: the
        # oracle says inconclusive, never true or false
        class OffByOne(CyclotomicNumber):
            def __pow__(self, e):
                return CyclotomicNumber(self.order, dense_coeffs(self)) ** e + 1

        monkeypatch.setattr(kummer, "CyclotomicNumber", OffByOne)
        rep = root_membership_oracle(2, 2, 8)
        assert rep.status == "inconclusive" and rep.certificate is None
        assert rep.detail == {"reason": "near-miss relation failed exact verification"}

    def test_reports_independent_of_cache_order(self):
        # the reduced zeta blocks are kept per process: a cold cache filled
        # in reverse order, then read warm, gives the same reports
        kummer._zeta_block.cache_clear()
        kummer._zeta_powers.cache_clear()
        assert oracle_pin_digest(reverse=True)[0] == ORACLE_PIN_DIGEST
        assert kummer._zeta_block.cache_info().currsize > 0
        hits = kummer._zeta_block.cache_info().hits
        assert oracle_pin_digest()[0] == ORACLE_PIN_DIGEST
        assert kummer._zeta_block.cache_info().hits > hits

    @pytest.mark.parametrize("a,e,m", [(2, 2, 5), (-2, 3, 9), (3, 4, 12), (5, 2, 19)])
    def test_lattice_identity(self, a, e, m, monkeypatch, oracle_lattice):
        # every beta lattice LLL sees is the oracle's lattice at its scale,
        # and carries its block's Gram data as the prefix; the zeta block is
        # reduced once per (m, scale) in a process: once per scale on the
        # first call, never on a later call at that m
        kummer._zeta_block.cache_clear()
        inputs, prefixes = [], []
        real = kummer.lll_reduce

        def stub(rows, *prefix):
            inputs.append(rows)
            prefixes.append(prefix)
            return real(rows, *prefix)

        monkeypatch.setattr(kummer, "lll_reduce", stub)
        phi = euler_phi(m)

        def beta(a, tau):
            return lambda mp: mp.root(abs(mp.mpf(a)), e) * mp.e ** (1j * mp.pi * tau / e)

        def run(a):
            inputs.clear()
            prefixes.clear()
            assert root_membership_oracle(a, e, m).status == "false"  # every (tau, scale) runs
            taus = range(0 if a > 0 else 1, 2 * e, 2)
            blocks = [rows for rows in inputs if len(rows) == phi]
            lattices = [(rows, prefix) for rows, prefix in zip(inputs, prefixes)
                        if len(rows) == phi + 1]
            assert len(blocks) + len(lattices) == len(inputs)
            assert len(lattices) == len(taus) * len(kummer.ORACLE_SCALES)
            want = [(oracle_lattice(m, beta(a, tau), scale), k)
                    for tau in taus for k, scale in enumerate(kummer.ORACLE_SCALES)]
            for (rows, prefix), (ref, k) in zip(lattices, want):
                assert hnf(rows) == hnf(ref)
                block, gram = kummer._zeta_block(m, k)
                assert rows[:phi] == list(block) and prefix == (gram,)
                d, lam = _gram(block)
                assert gram == (tuple(d), tuple(map(tuple, lam)))
            return blocks

        blocks = run(a)
        assert len(blocks) == len(kummer.ORACLE_SCALES)
        for rows, scale in zip(blocks, kummer.ORACLE_SCALES):
            assert hnf(rows) == hnf(oracle_lattice(m, beta(a, 0), scale)[:phi])
        assert run(-a) == []  # same m, another radicand: its beta lattices only

    def test_cached_rows_are_tuples(self):
        for k in range(len(kummer.ORACLE_SCALES)):
            block, (d, lam) = kummer._zeta_block(12, k)
            assert type(block) is tuple and len(block) == euler_phi(12)
            assert all(type(row) is tuple for row in (*block, d, lam, *lam))
        assert type(kummer._zeta_powers(12)) is tuple
        assert kummer._zeta_floats(12) == tuple(map(complex, kummer._zeta_powers(12)))

    def test_unit_phases(self):
        # the kept phases are the oracle's former inline expression, bit
        # for bit, for every e the cap admits
        import mpmath as mp

        with mp.workdps(kummer._ORACLE_DPS):
            for e in range(1, kummer.ORACLE_CAP + 1):
                phases = kummer._unit_phases(e)
                assert len(phases) == 2 * e
                for tau, z in enumerate(phases):
                    w = mp.e ** (1j * mp.pi * tau / e)
                    assert (z.real, z.imag) == (w.real, w.imag)

    @pytest.mark.parametrize("e,m", [(8, 101), (2, 240), (0, 8), (-1, 8), (2, 0), (2, -8)])
    def test_refused_input_leaves_cache(self, e, m):
        root_membership_oracle(2, 2, 8)
        before = oracle_cache_sizes()
        with pytest.raises(ValueError):
            root_membership_oracle(2, e, m)
        assert oracle_cache_sizes() == before

    def test_sqrt2_certificate(self):
        rep = root_membership_oracle(2, 2, 8)
        assert rep.status == "true"
        v = [Fraction(c) for c in rep.certificate["v"]]
        x = sum((v[i] * zeta(8, i) for i in range(len(v))), zeta(8, 0) * 0)
        assert x * x == 2

    def test_negative(self):
        assert root_membership_oracle(2, 2, 5).status == "false"

    def test_rational_root(self):
        rep = root_membership_oracle(9, 2, 3)
        assert rep.status == "true"

    def test_size_cap(self):
        with pytest.raises(ValueError, match=r"e \* phi\(m\) = 800 exceeds the oracle cap 64"):
            root_membership_oracle(2, 8, 101)
        # phi(m) >= sqrt(m/2), so every m with phi(m) <= 64 is at most 8192:
        # the oracle's cache keys are at most 127 moduli times the scales
        small = [m for m in range(1, 8193) if euler_phi(m) <= 64]
        assert len(small) == 127 and max(small) == 240
        # e <= e * phi(m) <= 64: the unit phases are kept for at most 64 e
        assert {e for e in range(1, 129) for m in small
                if e * euler_phi(m) <= kummer.ORACLE_CAP} == set(range(1, 65))
        before = oracle_cache_sizes()
        with pytest.raises(ValueError, match=r"e \* phi\(m\) = 65 exceeds the oracle cap 64"):
            root_membership_oracle(2, 65, 1)
        assert oracle_cache_sizes() == before

    def test_agreement_sample(self):
        # the full grid runs in the acceptance suite; spot-check here
        for a, d, m in ((2, 2, 8), (2, 2, 12), (3, 2, 12), (6, 2, 24),
                        (-2, 2, 8), (-2, 2, 4), (5, 2, 5), (2, 4, 8)):
            c, _ = rank1_failure(a, d, m)
            for e in (1, 2, 4):
                if d % e:
                    continue
                want = has_nth_root_in_cyclotomic(a, e, m)
                got = root_membership_oracle(a, e, m)
                assert got.status == ("true" if want else "false")


class TestBigIntegers:
    """Exact roots at sizes where a float root is wrong or overflows."""

    def test_big_perfect_cube(self):
        assert rank1_failure((10**20 + 7) ** 3, 3, 3) == (3, 1)

    def test_radicand_beyond_float_range(self):
        assert rank1_failure(10**400, 2, 8) == (2, 1)

    def test_big_perfect_square(self):
        assert rank1_failure((10**20 + 7) ** 2, 2, 4) == (2, 1)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: squarefree_part(0), "zero has no squarefree part", id="squarefree-0"),
    pytest.param(lambda: sqrt_in_cyclotomic(0, 8), "zero radicand", id="sqrt-in-0"),
    pytest.param(lambda: sqrt_as_cyclotomic(-2, 8), "positive rational", id="sqrt-as-negative"),
    pytest.param(lambda: has_nth_root_in_cyclotomic(0, 2, 8), "zero has no root data",
                 id="nth-root-0"),
    pytest.param(lambda: multiplicatively_independent([1, 2]), "positive rationals != 1",
                 id="independent-one"),
    pytest.param(lambda: tower_degrees([2], [2, 3], 8), "one denominator per generator",
                 id="tower-lengths"),
    pytest.param(lambda: root_membership_oracle(0, 2, 8), "zero has no root data",
                 id="oracle-0"),
])
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
