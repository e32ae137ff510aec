import math
import random
import time
from decimal import Decimal
from itertools import islice
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclolab import cli, cyclotomic, equidist, flatsums, heights, kummer, radical
from cyclolab._arith import (
    as_complex,
    as_float,
    as_fraction,
    divisors,
    euler_phi,
    factorize,
    floor_sum,
    iroot,
    poly_deriv,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_sub,
    poly_trim,
    prime_root_of_unity,
    primes,
)
from cyclolab.kummer import squarefree_part

from _reference import radical_minpoly

F = Fraction

# two 80-bit primes: their product is out of reach of the rho step budget
P80 = 604462909807314587365499
Q80 = 1208925819614629174707179


class TestIntegers:
    @pytest.mark.parametrize("L", [1, 2, 3, 8, 840, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23])
    def test_prime_root_of_unity(self, L):
        p, w = prime_root_of_unity(L)
        assert p > 1 << 61 and (p - 1) % L == 0 and factorize(p) == {p: 1}
        assert pow(w, L, p) == 1
        assert all(pow(w, L // q, p) != 1 for q in factorize(L))
        p2, _ = prime_root_of_unity(L, p)
        assert p2 > p and (p2 - 1) % L == 0 and factorize(p2) == {p2: 1}

    def test_primes_match_a_plain_sieve(self):
        # the first 5,000 primes (up to 48,611): 168 listed, the rest probed
        n = 48612
        sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
        for i in range(2, math.isqrt(n) + 1):
            if sieve[i]:
                sieve[i * i::i] = bytes(len(range(i * i, n, i)))
        want = [i for i in range(n) if sieve[i]]
        assert len(want) == 5000
        assert list(islice(primes(), 5000)) == want

    def test_iroot_small(self):
        assert [iroot(n, 2) for n in range(10)] == [0, 1, 1, 1, 2, 2, 2, 2, 2, 3]
        assert iroot(26, 3) == 2 and iroot(27, 3) == 3
        assert iroot(5, 7) == 1 and iroot(10**20, 1) == 10**20
        with pytest.raises(ValueError):
            iroot(-8, 3)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**600), st.integers(min_value=1, max_value=7),
           st.sampled_from([-1, 0, 1]))
    def test_iroot_near_perfect_powers(self, x, k, delta):
        n = x**k + delta
        assume(n >= 0)
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k
        if delta == 0:
            assert r == x

    def test_iroot_vs_brute_force_past_bit_length(self):
        # k up to bits(n) + 3: from k = bits(n) on the root is 1
        rng = random.Random(5)
        cases = [(n, k) for n in range(600) for k in range(1, n.bit_length() + 4)]
        for _ in range(200):
            n = rng.randrange(2, 2 ** rng.randint(2, 300))
            bits = n.bit_length()
            cases += [(n, k) for k in range(max(1, bits - 8), bits + 4)]
        for n, k in cases:
            r = 0
            while (r + 1) ** k <= n:
                r += 1
            assert iroot(n, k) == r, (n, k)

    def test_factorize(self):
        assert factorize(1) == {}
        assert factorize(-360) == {2: 3, 3: 2, 5: 1}
        assert factorize(1009**2 * 1013) == {1009: 2, 1013: 1}
        assert factorize((10**20 + 7) ** 2 * 3) == {3: 1, 67: 2, 166909: 2, 8942221889969: 2}
        assert factorize(2**89 - 1) == {2**89 - 1: 1}
        with pytest.raises(ValueError):
            factorize(0)

    def test_rho_splits_semiprime_fast(self):
        t0 = time.perf_counter()
        assert squarefree_part(67108879 * 67108913) == 67108879 * 67108913
        assert time.perf_counter() - t0 < 1.0

    def test_factorization_budget_refuses(self):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="step budget"):
            factorize(P80 * Q80)
        assert time.perf_counter() - t0 < 10.0

    def test_divisors_and_phi(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(-9) == [1, 3, 9]
        assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
        with pytest.raises(ValueError, match="must be positive"):
            euler_phi(0)
        with pytest.raises(TypeError):  # with the entry of 6 cached
            euler_phi(6.0)

    @pytest.mark.parametrize("sa", [-1, 0, 1])
    @pytest.mark.parametrize("sb", [-1, 0, 1])
    def test_floor_sum_vs_direct(self, sa, sb):
        # every sign of slope and offset, against the sum term by term
        rng = random.Random(f"floor-sum-{sa}-{sb}")
        for _ in range(300):
            n, m = rng.randint(0, 40), rng.randint(1, 60)
            a, b = sa * rng.randint(0, 200), sb * rng.randint(0, 200)
            assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n)), (n, m, a, b)

    def test_floor_sum_large(self):
        # O(log m) steps at 10^30-size arguments, against the closed form
        # for the multiples of a/m: sum floor(a*i/m) = ((a-1)(m-1) + gcd - 1)/2
        # over i < m for a, m >= 1
        m, a = 10**30 + 57, 10**29 + 3
        g = math.gcd(a, m)
        assert floor_sum(m, m, a, 0) == ((a - 1) * (m - 1) + g - 1) // 2
        assert floor_sum(m, m, -a, 0) == -floor_sum(m, m, a, 0) - (m - 1) + (g - 1)

    def test_floor_sum_refuses(self):
        with pytest.raises(ValueError):
            floor_sum(-1, 5, 1, 1)
        with pytest.raises(ValueError):
            floor_sum(3, 0, 1, 1)


class TestPolynomials:
    def test_trim_sub_mul(self):
        assert poly_trim([F(1), F(0), F(0)]) == [F(1)]
        assert poly_trim([F(0)]) == []
        assert poly_sub([F(1), F(2)], [F(1), F(2)]) == []
        assert poly_sub([F(1)], [F(0), F(0), F(3)]) == [F(1), F(0), F(-3)]
        assert poly_mul([F(1), F(1)], [F(-1), F(1)]) == [F(-1), F(0), F(1)]
        assert poly_mul([], [F(1)]) == []

    def test_divmod_identity(self):
        a = [F(3), F(-1, 2), F(0), F(5), F(2, 3)]
        b = [F(1), F(0), F(7, 4)]
        q, r = poly_divmod(a, b)
        assert len(r) < len(b)
        assert poly_sub(a, poly_mul(q, b)) == r
        assert poly_divmod([F(1)], b) == ([], [F(1)])
        with pytest.raises(ZeroDivisionError):
            poly_divmod(a, [])

    def test_deriv(self):
        assert poly_deriv([F(3), F(2), F(0), F(5, 2)]) == [F(2), F(0), F(15, 2)]
        assert poly_deriv([7, -1, 4]) == [-1, 8]
        assert poly_deriv([7]) == []
        assert poly_deriv([]) == []

    def test_gcd_monic(self):
        f = poly_mul([F(-2), F(1)], [F(3), F(0), F(1)])
        g = poly_mul([F(-2), F(1)], [F(5), F(1)])
        assert poly_gcd(f, g) == [F(-2), F(1)]
        assert poly_gcd([F(0), F(2)], []) == [F(0), F(1)]
        assert poly_gcd([], []) == []


# Every library entry point that takes a caller's exact value, as a function
# of that value: rationals go through `as_fraction`, exponents and radical
# denominators through `operator.index`.
X = cyclotomic.zeta(5)
CTX = radical.RadicalContext([2], [2])
EXACT_ENTRY_POINTS = {
    "as_fraction": as_fraction,
    "CyclotomicNumber": lambda v: cyclotomic.CyclotomicNumber(2, [v, 0]),
    "from_rational": cyclotomic.CyclotomicNumber.from_rational,
    "rational": cyclotomic.rational,
    "x_plus_v": lambda v: X + v,
    "v_plus_x": lambda v: v + X,
    "x_minus_v": lambda v: X - v,
    "v_minus_x": lambda v: v - X,
    "x_times_v": lambda v: X * v,
    "x_over_v": lambda v: X / v,
    "SparseExpSum_coefficient": lambda v: flatsums.exact_sum(1, [(0, v)]),
    "SparseExpSum_mu": lambda v: flatsums.exact_sum(1, [(0, 1)], mu=v),
    "SparseExpSum_exponent": lambda v: flatsums.exact_sum(1, [(v, 1)]),
    "weil_height": lambda v: heights.weil_height([v, 1]),
    "mahler_measure": lambda v: heights.mahler_measure([v, 1]),
    "height_and_measure": lambda v: heights.height_and_measure([v, 1]),
    "AlgebraicNumber": lambda v: heights.AlgebraicNumber((v, 1)),
    "poly_roots": lambda v: heights.poly_roots([v, 1]),
    "resultant": lambda v: heights.resultant([v, 1], [1, 1]),
    "radical_height": lambda v: heights.radical_height(v, 2),
    "radical_minpoly": lambda v: radical_minpoly(v, 2),
    "conductor_of_sqrt": kummer.conductor_of_sqrt,
    "sqrt_in_cyclotomic": lambda v: kummer.sqrt_in_cyclotomic(v, 8),
    "sqrt_as_cyclotomic": lambda v: kummer.sqrt_as_cyclotomic(v, 8),
    "has_nth_root_in_cyclotomic": lambda v: kummer.has_nth_root_in_cyclotomic(v, 2, 8),
    "KummerQuery": lambda v: kummer.KummerQuery(v, 2, 8),
    "rank1_failure": lambda v: kummer.rank1_failure(v, 2, 8),
    "multiplicatively_independent": lambda v: kummer.multiplicatively_independent([v]),
    "tower_degrees": lambda v: kummer.tower_degrees([v], [2], 8),
    "root_membership_oracle": lambda v: kummer.root_membership_oracle(v, 2, 8),
    "RadicalContext": lambda v: radical.RadicalContext([v], [2]),
    "RadicalContext_denominator": lambda v: radical.RadicalContext([2], [v]),
    "RadicalSum": lambda v: radical.RadicalSum(CTX, [(v, (0,))]),
    "RadicalSum_exponent": lambda v: radical.RadicalSum(CTX, [(1, (v,))]),
    "GaloisElement_rotation": lambda v: radical.GaloisElement(1, (v,)),
    "exponent_relation_basis": lambda v: radical.exponent_relation_basis([[v]], 4),
}


class TestExactGate:
    @pytest.mark.parametrize("value", [0.5, "1/2", Decimal("0.5"), 0.5 + 0j],
                             ids=["float", "str", "Decimal", "complex"])
    @pytest.mark.parametrize("entry", sorted(EXACT_ENTRY_POINTS))
    def test_refuses_inexact_values(self, entry, value):
        with pytest.raises(TypeError):
            EXACT_ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("value", [0.5, "1/2", Decimal("0.5")])
    def test_equality_with_inexact_is_false(self, value):
        assert not (X == value) and X != value
        assert not (cyclotomic.rational(1, 2) == value)

    @pytest.mark.parametrize("entry", sorted(EXACT_ENTRY_POINTS))
    def test_accepts_numpy_integers(self, entry):
        EXACT_ENTRY_POINTS[entry](np.int64(2))

    def test_numpy_integer_values(self):
        q = as_fraction(np.int64(-6))
        assert q == -6 and type(q.numerator) is int and type(q.denominator) is int
        assert as_fraction(True) == 1 and as_fraction(F(1, 3)) == F(1, 3)
        assert cyclotomic.CyclotomicNumber(2, [np.int32(3), 0]) == 3
        # an order, exponent or count may be a numpy integer or a bool
        x = cyclotomic.zeta(np.int64(4), True)
        assert x == cyclotomic.zeta(4).lift(np.int32(8)) and type(x.order) is int
        assert euler_phi(np.int64(6)) == 2 and euler_phi(True) == 1
        assert cyclotomic.rational(1, np.int16(3)).order == 3
        assert X + np.int64(2) == X + 2 and X == X + np.int64(0)
        assert kummer.rank1_failure(np.int64(4), 2, 4) == kummer.rank1_failure(4, 2, 4)
        assert heights.weil_height(np.array([-2, 0, 1])) == heights.weil_height([-2, 0, 1])


def _arc_partner(v, x):
    """x as the other end of an arc with v: a Fraction pairs only with a
    Fraction (a turn arc), any other real with a float (a radian arc)."""
    return F(x) if isinstance(v, F) else x


# Every library entry point that takes a caller's numeric value, as a
# function of that value, and the name its refusal of NaN or an infinity
# gives: reals go through `as_float`, complex coefficients through
# `as_complex`.  Text is read only by the parsers and the CLI.
_SQRT2 = radical.RadicalSum(CTX, [(F(1, 2), (0,)), (F(1, 2), (1,))])
REAL_ENTRY_POINTS = {
    "as_float": (lambda v: as_float(v, "x"), "x"),
    "Arc_center": (lambda v: equidist.Arc(v, _arc_partner(v, 0.25)), "arc center"),
    "Arc_halfwidth": (lambda v: equidist.Arc(_arc_partner(v, 0.5), v), "arc halfwidth"),
    "numeric_sum_mu": (lambda v: flatsums.numeric_sum(2, [(0, 1)], v), "mu"),
    "flat_search_mu": (lambda v: flatsums.flat_search([0, 1], 3, v, restarts=1), "mu"),
    "strictness_threshold": (
        lambda v: equidist.strictness_window([(7, [1, 1]), (11, [1, 1])], v), "threshold"),
    "d_gamma_eps": (lambda v: radical.d_gamma_eps(_SQRT2, v), "eps"),
    "sigma_search_eps": (
        lambda v: radical.sigma_search(_SQRT2, equidist.ArcBox.parse("0:4"), v), "eps"),
    "marginal_orbit_stats_eps": (lambda v: radical.marginal_orbit_stats(_SQRT2, v), "eps"),
    "cosine_identity_eta": (lambda v: radical.cosine_identity_sides([1.0, 2.0], v), "eta"),
}
COMPLEX_ENTRY_POINTS = {
    "as_complex": (lambda v: as_complex(v, "z"), "z"),
    "numeric_sum_coefficient": (
        lambda v: flatsums.numeric_sum(2, [(0, 1), (1, v)]), "a coefficient"),
}
NONFINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
NONFINITE_COMPLEX = {"nan": complex(math.nan, 0), "nanj": complex(0, math.nan),
                     "-inf": complex(-math.inf, 1), "infj": complex(1, math.inf)}
# exact values past the double range: complex() raised OverflowError on them
OVERFLOWING = {"10**400": 10**400, "-10**400": -10**400, "F(10**400,3)": F(10**400, 3)}


class TestNumericGate:
    @pytest.mark.parametrize("value", ["0.5", Decimal("0.5"), 0.5 + 0j],
                             ids=["str", "Decimal", "complex"])
    @pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
    def test_real_refuses_text(self, entry, value):
        with pytest.raises(TypeError):
            REAL_ENTRY_POINTS[entry][0](value)

    @pytest.mark.parametrize("value", ["1j", Decimal("0.5")], ids=["str", "Decimal"])
    @pytest.mark.parametrize("entry", sorted(COMPLEX_ENTRY_POINTS))
    def test_complex_refuses_text(self, entry, value):
        with pytest.raises(TypeError):
            COMPLEX_ENTRY_POINTS[entry][0](value)

    @pytest.mark.parametrize("value", sorted(NONFINITE))
    @pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
    def test_real_refuses_nonfinite(self, entry, value):
        call, what = REAL_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{what} must be finite$"):
            call(NONFINITE[value])

    @pytest.mark.parametrize("value", sorted(NONFINITE_COMPLEX))
    @pytest.mark.parametrize("entry", sorted(COMPLEX_ENTRY_POINTS))
    def test_complex_refuses_nonfinite(self, entry, value):
        call, what = COMPLEX_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{what} must be finite$"):
            call(NONFINITE_COMPLEX[value])

    @pytest.mark.parametrize("value", sorted(OVERFLOWING))
    @pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
    def test_real_refuses_overflow(self, entry, value):
        call, what = REAL_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{what} must be finite$"):
            call(OVERFLOWING[value])

    @pytest.mark.parametrize("value", sorted(OVERFLOWING))
    @pytest.mark.parametrize("entry", sorted(COMPLEX_ENTRY_POINTS))
    def test_complex_refuses_overflow(self, entry, value):
        call, what = COMPLEX_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{what} must be finite$"):
            call(OVERFLOWING[value])

    @pytest.mark.parametrize("value", [1, 0.5, F(1, 2), np.float64(0.5), np.int64(1), True],
                             ids=["int", "float", "Fraction", "float64", "int64", "bool"])
    def test_accepts_reals(self, value):
        for entry, _ in REAL_ENTRY_POINTS.values():
            entry(value)
        for entry, _ in COMPLEX_ENTRY_POINTS.values():
            entry(value)
        assert type(as_float(value, "x")) is float and as_float(value, "x") == float(value)

    def test_accepts_complex(self):
        for value in (0.5j, np.complex128(1 - 2j)):
            assert as_complex(value, "z") == complex(value)
            f = flatsums.numeric_sum(2, [(0, 1), (1, value)])
            assert type(f.terms[1][1]) is complex

    def test_text_sums_refused(self):
        # each of these built a flat sum, an arc or a search from text
        with pytest.raises(TypeError):
            flatsums.numeric_sum(2, [(0, "1"), (1, "1j")], "2")
        with pytest.raises(TypeError):
            flatsums.numeric_sum(2, [(0, 1), (1, 1j)], "2")
        with pytest.raises(TypeError):
            equidist.Arc("0.5", "0.25")
        with pytest.raises(TypeError):
            equidist.Arc(Decimal("0.5"), 0.25)
        with pytest.raises(TypeError):
            flatsums.flat_search([0, 1], 3, "1")
        with pytest.raises(TypeError):  # accepted, and compared as a Decimal, before
            equidist.strictness_window([(7, [1, 1]), (11, [1, 1])], threshold=Decimal("3"))


def _orbit_bins(bins):
    return cli.HANDLERS["orbit"](cli._parse(["orbit", "--sum", "1 * 2^(1/3)", "--bins", str(bins)]))


def _one_radical(d, D=1):
    ctx = radical.RadicalContext([2], [d], D=D, failures=[1])
    return radical.RadicalSum(ctx, [(1, (1,))])


def _folded(k):
    ctx = radical.RadicalContext([2], [2])
    return radical.normalize_terms(radical.RadicalSum(ctx, [(1, (1,)), (1, (k,))]))


def _arc_walk(width):
    # the walk's cost is 2 * (2 * (1009 // w) + 1): the x in [-1009/w,
    # 1009/w] of the narrowest arc, times the one tested arc + 1
    box = equidist.ArcBox([equidist.Arc(Fraction(0), Fraction(1, width)),
                           equidist.Arc(0.0, 2.0), equidist.Arc(0.0, math.pi)])
    return equidist.arc_count(equidist.RootTupleOrbit(1009, (1, 7, 100)), box)


_TURN = equidist.ArcBox([equidist.Arc(Fraction(0), Fraction(1, 4))])
_FOLD = radical.FOLD_BITS


@pytest.mark.parametrize("name, cap, at, past", [
    # cap name, (module, constant, the value the table sets: None keeps
    # it), a call whose counted cost is the cap, one whose cost passes it
    pytest.param("bins cap", (cli, "BINS_CAP", None),
                 lambda: _orbit_bins(10**4), lambda: _orbit_bins(10**4 + 1), id="bins"),
    pytest.param("orbit cap", (radical, "ORBIT_CAP", None),
                 lambda: radical.orbit_moduli(_one_radical(10**6)),
                 lambda: radical.orbit_moduli(_one_radical(10**6 + 1)), id="orbit"),
    pytest.param("orbit cap", (radical, "ORBIT_CAP", None),  # 100 units of Z/101
                 lambda: radical.marginal_orbit_stats(_one_radical(10**4, D=101), 0.5),
                 lambda: radical.marginal_orbit_stats(_one_radical(10**4 + 1, D=101), 0.5),
                 id="units-times-orbit"),
    pytest.param("fold cap", (radical, "FOLD_BITS", None),  # 2^q costs 2q bits
                 lambda: _folded(1 + _FOLD), lambda: _folded(3 + _FOLD), id="fold"),
    pytest.param("arc modulus cap", (equidist, "ARC_M_CAP", None),
                 lambda: equidist.arc_count(equidist.RootTupleOrbit(10**9, (1,)), _TURN),
                 lambda: equidist.arc_count(equidist.RootTupleOrbit(10**9 + 1, (1,)), _TURN),
                 id="arc-modulus"),
    pytest.param("degree cap", (heights, "DEGREE_CAP", None),
                 lambda: heights.poly_roots([1] + [0] * 63 + [1]),
                 lambda: heights.poly_roots([1] + [0] * 64 + [1]), id="degree-roots"),
    pytest.param("degree cap", (heights, "DEGREE_CAP", None),
                 lambda: heights.height_and_measure([1] + [0] * 63 + [1]),
                 lambda: heights.height_and_measure([1] + [0] * 64 + [1]), id="degree-height"),
    pytest.param("degree cap", (heights, "DEGREE_CAP", None),
                 lambda: heights.parse_minpoly("x^64+1"),
                 lambda: heights.parse_minpoly("x^65+0x^2+1"), id="degree-parse"),
    pytest.param("degree cap", (heights, "DEGREE_CAP", None),  # x^64 + 1 = Phi_128
                 lambda: heights.AlgebraicNumber((1,) + (0,) * 63 + (1,)),
                 lambda: heights.AlgebraicNumber((1,) + (0,) * 64 + (1,)), id="degree-algebraic"),
    pytest.param("subset cap", (flatsums, "SUBSET_CAP", None),
                 lambda: flatsums.validate_definition(
                     flatsums.exact_sum(3, [(i, 1) for i in range(20)])),
                 lambda: flatsums.validate_definition(
                     flatsums.exact_sum(3, [(i, 1) for i in range(21)])), id="subset"),
    pytest.param("oracle cap", (kummer, "ORACLE_CAP", None),  # phi(17) = 16
                 lambda: kummer.root_membership_oracle(2, 4, 17),
                 lambda: kummer.root_membership_oracle(2, 1, 67), id="oracle"),
    pytest.param("unit matrix cap", (flatsums, "UNIT_MATRIX_CAP", None),
                 lambda: flatsums.is_flat(flatsums.numeric_sum(5 * 10**5, [(0, 1), (1, 1)])),
                 lambda: flatsums.is_flat(flatsums.numeric_sum(5 * 10**5 + 1, [(0, 1), (1, 1)])),
                 id="unit-matrix"),
    pytest.param("search work cap", (flatsums, "SEARCH_WORK_CAP", 2 * 3000 * 5 * 2),
                 lambda: flatsums.flat_search([0, 1], 5, restarts=2),
                 lambda: flatsums.flat_search([0, 1], 5, restarts=3), id="search-work"),
    pytest.param("survey row cap", (flatsums, "SURVEY_ROW_CAP", None),
                 lambda: flatsums.sn_survey(1, 10**4),
                 lambda: flatsums.sn_survey(1, 10**4 + 1), id="survey-row"),
    pytest.param("arc walk cap", (equidist, "ARC_WALK_CAP", 2 * (2 * (1009 // 8) + 1)),
                 lambda: _arc_walk(8), lambda: _arc_walk(7), id="arc-walk"),
])
def test_cap_boundary(monkeypatch, name, cap, at, past):
    """Every cap accepts a cost equal to it and refuses one past it, with
    the message of `_arith.check_cap`, which names the cap and its value."""
    module, constant, value = cap
    if value is not None:
        monkeypatch.setattr(module, constant, value)
    at()
    with pytest.raises(ValueError, match=f" exceeds the {name} {getattr(module, constant)}$"):
        past()
