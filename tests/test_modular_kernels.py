"""The modular and integer kernels against the exact routes they replaced
(kept in `_reference.py`): sparse residues in `validate_definition`, the
group-ring autocorrelation, the mod-P squarefree certificate, integer
Newton sums in `power_transform` and the bounded rational-root probe."""
import random
import time
from fractions import Fraction

import pytest

from cyclolab import flatsums, heights
from cyclolab._arith import poly_coprime_mod, poly_mul, prime_root_of_unity, primes
from cyclolab.cyclotomic import CyclotomicNumber, rational, zeta
from cyclolab.flatsums import chirp, exact_sum, grouped_autocorrelation, is_flat, validate_definition
from cyclolab.heights import (
    SQUAREFREE_PRIME, AlgebraicNumber, _primitive_int, _squarefree_part, power_transform)

from _reference import (
    dense_validate_definition, fraction_power_transform, gcd_squarefree_part, object_autocorrelation)

ORDERS_840 = (1, 2, 3, 4, 5, 6, 7, 8, 12, 14, 15, 21, 24, 28, 35, 40, 56, 105, 120, 168, 280,
              420, 840)
P = SQUAREFREE_PRIME


def _coefficient(rng):
    """A rational times a short sum of roots of unity of one order | 840."""
    D = rng.choice(ORDERS_840)
    x = CyclotomicNumber.zero(D)
    for _ in range(rng.randint(1, 3)):
        x = x + Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 12)) * zeta(
            D, rng.randrange(D))
    return x


def _exact_sum(rng):
    """N <= 8 coefficients of mixed orders; about half the sums get a
    vanishing subset: minus the sum of a subset, or 1 + zeta_3 + zeta_3^2
    or sum_j zeta_5^j, scaled, one term each, each lifted to its own order."""
    coeffs = [_coefficient(rng) for _ in range(rng.randint(1, 8))]
    kind = rng.randrange(6)
    if kind == 0 and len(coeffs) >= 2:
        subset = rng.sample(range(len(coeffs) - 1), rng.randint(1, len(coeffs) - 1))
        coeffs[-1] = -sum((coeffs[i] for i in subset), CyclotomicNumber.zero(1))
    elif kind in (1, 2):
        q = 2 * kind + 1
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        coeffs = (coeffs + [c * zeta(q, j).lift(q * rng.choice((1, 4, 7))) for j in range(q)])[-8:]
        rng.shuffle(coeffs)
    exps = rng.sample(range(-40, 40), len(coeffs))
    return exact_sum(rng.randint(1, 30), list(zip(exps, coeffs)),
                     Fraction(rng.randint(1, 9), rng.randint(1, 4)))


def test_validate_definition_vs_dense_reference():
    rng = random.Random(32)
    vanishing = 0
    for _ in range(400):
        f = _exact_sum(rng)
        want = dense_validate_definition(f)
        assert validate_definition(f) == want, f
        vanishing += want.failing_subset is not None
    assert 100 <= vanishing <= 300


def test_validate_definition_skips_a_prime_dividing_a_denominator():
    # 1/p, p the first prime validate_definition tries at L = 120, makes it
    # move on to the next prime; the report is the dense route's
    L = 120
    p, w = prime_root_of_unity(L, 1 << 61)
    odd = Fraction(1, p) * zeta(L, 7)
    assert odd.residue(p, w) is None and odd.residue(*prime_root_of_unity(L, p)) is not None
    sqrt2 = [zeta(8) + zeta(8, 7), -zeta(24, 3) - zeta(24, 21)]  # at orders 8 and 24
    for extra in ([], [-Fraction(1, p) * zeta(L, 7)], sqrt2):
        f = exact_sum(7, list(enumerate([odd, zeta(3), rational(2), *extra])))
        assert validate_definition(f) == dense_validate_definition(f)
    assert validate_definition(f).failing_subset == (3, 4)


@pytest.mark.parametrize("D", [1, 3, 8, 60, 105, 840])
def test_residue_is_a_ring_map(D):
    rng = random.Random(D)
    p, w = prime_root_of_unity(D, 1 << 61)
    for _ in range(20):
        x, y = (sum((Fraction(rng.randint(-9, 9), rng.randint(1, 5)) * zeta(D, rng.randrange(D))
                     for _ in range(rng.randint(0, 4))), CyclotomicNumber.zero(D))
                for _ in range(2))
        rx, ry = x.residue(p, w), y.residue(p, w)
        assert (x + y).residue(p, w) == (rx + ry) % p
        assert (x * y).residue(p, w) == rx * ry % p
        # the value, not the representative: the reduced form maps alike
        assert CyclotomicNumber(D, list(x.canonical()) + [0] * (D - len(x.canonical()))
                                ).residue(p, w) == rx


# ------------------------------------------------------------ autocorrelation


ORDERS_120 = (1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24)  # the orders <= 24 dividing 120


def _mixed_coefficient(rng):
    """A coefficient of an order in `ORDERS_120`, so that every A(rho) and
    Phi of `is_flat` stays at an order dividing 120: zero (of that order or
    the rational 0) about one time in eight, else up to three terms
    q * zeta_o^k with denominators up to 6."""
    o = rng.choice(ORDERS_120)
    if rng.random() < 0.125:
        return rng.choice((0, CyclotomicNumber.zero(o)))
    x = CyclotomicNumber.zero(o)
    for _ in range(rng.randint(1, 3)):
        x = x + Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 6)) * zeta(
            o, rng.randrange(o))
    return x


def _autocorrelation_corpus():
    """3,230 seeded exact sums: d in 1-30, N in 0-7, exponents in
    [-2d - 3, 2d + 3] (negative ones, and several sharing a residue mod d),
    mixed coefficient orders; most one-term sums are a scaled root of unity
    at the level of its squared modulus (flat), and the chirps of orders
    1-30 close the corpus (flat for odd d, not for even d)."""
    rng = random.Random(35)
    for _ in range(3200):
        d, n = rng.randint(1, 30), rng.randint(0, 7)
        exps = rng.sample(range(-2 * d - 3, 2 * d + 4), n)
        if n == 1 and rng.random() < 0.7:
            q, o = Fraction(rng.randint(1, 5), rng.randint(1, 4)), rng.randint(1, 30)
            yield exact_sum(d, [(exps[0], q * zeta(o, rng.randrange(o)))], q * q)
            continue
        mu = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        yield exact_sum(d, [(b, _mixed_coefficient(rng)) for b in exps], mu)
    yield from (chirp(d) for d in range(1, 31))


def _form(x):
    return x.order, x._num, x._den


def test_grouped_autocorrelation_vs_object_reference(monkeypatch):
    sums = list(_autocorrelation_corpus())
    got_flat = [is_flat(f) for f in sums]
    monkeypatch.setattr(flatsums, "grouped_autocorrelation", object_autocorrelation)
    want_flat = [is_flat(f) for f in sums]
    shared = flat = 0
    for f, got_rep, want_rep in zip(sums, got_flat, want_flat):
        got, want = grouped_autocorrelation(f).values, object_autocorrelation(f).values
        assert list(got) == list(want), f
        assert [_form(x) for x in got.values()] == [_form(x) for x in want.values()], f
        assert (got_rep.flat, got_rep.witness) == (want_rep.flat, want_rep.witness), f
        shared += len({b % f.d for b in f.exponents}) < f.n_terms
        flat += got_rep.flat
    assert len(sums) >= 3000 and shared >= 1000 and 200 <= flat <= 1000
    assert not is_flat(chirp(30)).flat and is_flat(chirp(29)).flat


def test_exact_autocorrelation_multiplies_no_cyclotomic_numbers(monkeypatch):
    calls = []

    def spy(self, other):
        calls.append(other)
        return mul(self, other)
    mul = CyclotomicNumber.__mul__
    monkeypatch.setattr(CyclotomicNumber, "__mul__", spy)
    monkeypatch.setattr(CyclotomicNumber, "__rmul__", spy)
    f = exact_sum(12, [(0, Fraction(1, 3) * zeta(8)), (5, zeta(3) - 2), (-7, 3)])
    assert zeta(3) * zeta(3) == zeta(3, 2) and calls  # the spy sees a product
    calls.clear()
    for g in (f, chirp(63)):
        grouped_autocorrelation(g)
    assert not calls


# ------------------------------------------------------------- squarefree part


def _random_poly(rng):
    """A primitive integer polynomial of degree 1-12: a product of random
    linear and small factors, some repeated."""
    while True:
        poly = [rng.randint(1, 6)]
        for _ in range(rng.randint(1, 4)):
            factor = [rng.randint(-9, 9) for _ in range(rng.choice((1, 1, 2, 3)))]
            factor.append(rng.randint(1, 5))
            for _ in range(1 + (rng.random() < 0.35) + (rng.random() < 0.1)):
                poly = poly_mul(poly, factor)
        try:
            ints = _primitive_int(poly)
        except ValueError:  # a constant
            continue
        if 2 <= len(ints) <= 13:
            return ints


def test_squarefree_part_vs_gcd_reference():
    rng = random.Random(33)
    repeated = 0
    for _ in range(400):
        f = _random_poly(rng)
        want = gcd_squarefree_part(f)
        got = _squarefree_part(f)
        assert got == want and all(type(c) is int for c in got), f
        repeated += len(want) < len(f)
    assert 80 <= repeated <= 320


@pytest.fixture
def gcd_calls(monkeypatch):
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return heights_poly_gcd(a, b)
    heights_poly_gcd = heights.poly_gcd
    monkeypatch.setattr(heights, "poly_gcd", spy)
    return calls


@pytest.mark.parametrize("f, want", [
    # (x - 5)(x - 5 - P): squarefree, but (x - 5)^2 modulo P
    (poly_mul([-5, 1], [-5 - P, 1]), None),
    # (P x + 1)^2 (x - 3): the image mod P is the constant -3 and f' vanishes
    # mod P, so the images are coprime; only the exact gcd sees the square
    (poly_mul(poly_mul([1, P], [1, P]), [-3, 1]), poly_mul([1, P], [-3, 1])),
    (poly_mul([1, P], [-3, 1]), None),
])
def test_degenerate_prime_takes_the_exact_fallback(gcd_calls, f, want):
    f = [int(c) for c in f]
    assert _squarefree_part(f) == (f if want is None else [int(c) for c in want])
    assert _squarefree_part(f) == gcd_squarefree_part(f)
    assert gcd_calls


def test_generic_input_takes_the_certificate(gcd_calls):
    for f in ([-2, 0, 1], [1, -3, 1], [7, 0, 0, 0, 0, 3], [2, 0, 0, 1]):
        assert _squarefree_part(f) == f
    assert not gcd_calls
    assert _squarefree_part([4, 0, 4, 0, 1]) == [2, 0, 1] and gcd_calls  # (x^2 + 2)^2


def test_poly_coprime_mod():
    assert poly_coprime_mod([1, 1], [2, 1], 5)  # x + 1, x + 2
    assert not poly_coprime_mod([2, 3, 1], [1, 1], 5)  # (x + 1)(x + 2), x + 1
    assert not poly_coprime_mod([1, 2, 1], [2, 2], 7)  # (x + 1)^2 and its derivative
    assert not poly_coprime_mod([-1, 0, 1], [0, 2], 2)  # x^2 - 1 = (x + 1)^2 mod 2
    assert poly_coprime_mod([5], [0], 7) and not poly_coprime_mod([7], [14], 7)
    assert not poly_coprime_mod([], [], 3) and not poly_coprime_mod([1, 1], [0], 3)


# ------------------------------------------------------------- power transform


def _eisenstein(rng):
    """An irreducible polynomial of degree 2-6, Eisenstein at q in {2, 3, 5}."""
    q = rng.choice((2, 3, 5))
    deg = rng.randint(2, 6)
    lc = rng.choice([c for c in range(1, 8) if c % q])
    low = [q * rng.randint(-3, 3) for _ in range(deg)]
    low[0] = q * rng.choice([c for c in range(-4, 5) if c % q])
    return AlgebraicNumber(tuple(low + [lc]), rng.randrange(deg))


def test_power_transform_vs_fraction_reference():
    rng = random.Random(34)
    ns = [s * k for k in range(1, 7) for s in (1, -1)]
    alphas = [_eisenstein(rng) for _ in range(40)]
    alphas += [AlgebraicNumber((-2, 0, 1), 1), AlgebraicNumber((-3, 0, 0, 0, 0, 0, 1), 2),
               AlgebraicNumber((1, 1, 1, 1, 1), 3)]  # powers of lower degree
    lower = 0
    for a in alphas:
        for n in ns:
            got, want = power_transform(a, n), fraction_power_transform(a, n)
            assert (got.minpoly, got.root_index) == (want.minpoly, want.root_index), (a, n)
            lower += got.degree < a.degree
    assert lower >= 20
    assert power_transform(AlgebraicNumber((-2, 0, 1)), 2).minpoly == (-2, 1)  # sqrt 2 squared


# ------------------------------------------------------- rational-root probe


@pytest.mark.parametrize("top", [3000, 6000])
def test_primorial_probe_is_bounded(top):
    # x^2 - N, N the product of the primes below `top`: x^2 - N is
    # inseparable mod every prime below `top`, so the probe tries ~top/ln(top)
    # primes before it scans one; x^2 - N^2 has the rational root N
    N = 1
    for p in primes():
        if p >= top:
            break
        N *= p
    t0 = time.perf_counter()
    assert AlgebraicNumber((-N, 0, 1)).degree == 2
    with pytest.raises(ValueError, match="rational root"):
        AlgebraicNumber((-N * N, 0, 1))
    assert time.perf_counter() - t0 < 0.5
