"""The modular and integer kernels against the exact routes they replaced
(kept in `_reference.py`): sparse residues in `validate_definition`, the
group-ring autocorrelation, the sparse normal form of the zero and equality
tests, the one-pass marginal grid, the integer-only constructors, the
mod-P squarefree certificate, integer Newton sums in `power_transform` and
the bounded rational-root probe with its carried Hensel inverse."""
import itertools
import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclolab import cyclotomic, flatsums, heights, radical
from cyclolab._arith import (
    as_fraction, factorize, poly_coprime_mod, poly_deriv, poly_mul, prime_root_of_unity, primes)
from cyclolab.cyclotomic import CyclotomicNumber, _normal_form, _over_lcm, rational, zeta
from cyclolab.flatsums import (
    chirp, exact_sum, grouped_autocorrelation, is_flat, known_member_witness, validate_definition)
from cyclolab.heights import (
    SQUAREFREE_PRIME, AlgebraicNumber, _hensel_lift, _horner_mod, _primitive_int,
    _squarefree_part, power_transform)
from cyclolab.radical import (
    GaloisElement, RadicalContext, RadicalSum, _in_band, _unit_orbit_values, _zhat_unit,
    apply_galois, marginal_orbit_stats, normalize_terms)

from _reference import (
    dense_is_zero, dense_validate_definition, fraction_power_transform, gcd_squarefree_part,
    object_autocorrelation, per_step_hensel_lift, per_unit_orbit_values)

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
    at the level of its squared modulus (flat); then the chirps of orders
    1-30 (flat for odd d, not for even d), the 24 twisted flat witnesses
    and the chirps of orders 45 and 63."""
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
    yield from _twisted_witnesses()
    yield from (chirp(d) for d in (45, 63))


def _twisted_witnesses():
    """The admissible flat witnesses of 2-4 terms on mu_1 and mu_2, each
    coefficient times zeta_24^twist, as the benchmark's `reduce` pool
    builds them: mixed orders 24 and lcm(8, 24)."""
    for n in (2, 3, 4):
        for d in (1, 2):
            f = known_member_witness(n, d)
            for twist in (0, 1, 5, 11):
                rot = zeta(24, twist)
                yield exact_sum(f.d, [(b, a * rot) for b, a in f.terms], f.mu)


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


def _lifts(f, bound=None):
    """(got, want) of every root of f mod the probe's prime, lifted past
    the probe's bound (or the given one) by `_hensel_lift` and by the
    per-step reference."""
    df = poly_deriv(f)
    a = f[-1]
    bound = bound or 2 * (abs(a) + max(abs(c) for c in f[:-1]))
    p = next(p for p in primes() if a % p and poly_coprime_mod(f, df, p))
    for r in range(p):
        if not _horner_mod(f, r, p):
            yield _hensel_lift(f, df, r, p, bound), per_step_hensel_lift(f, df, r, p, bound)


def test_hensel_lift_vs_per_step_reference():
    rng = random.Random(39)
    lifted = steps = 0
    for _ in range(300):
        poly = [rng.randint(1, 6)]
        for _ in range(rng.randint(1, 3)):
            factor = ([rng.randint(-30, 30), rng.randint(1, 6)] if rng.random() < 0.6
                      else [rng.randint(-9, 9) for _ in range(rng.randint(2, 3))] + [1])
            poly = poly_mul(poly, factor)
        if not 2 <= len(poly) <= 7:
            continue
        f = _squarefree_part(_primitive_int(poly))
        for bound in (None, 10**40):
            for (r, m), want in _lifts(f, bound):
                assert (r, m) == want and not _horner_mod(f, r, m), f
                lifted += 1
                steps += m > 10**40
    assert lifted >= 300 and steps >= 100


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
    # the lifts with the carried inverse are the per-step reference's
    found = 0
    for f in ([-N, 0, 1], [-N * N, 0, 1]):
        for (r, m), want in _lifts(f):
            assert (r, m) == want and not _horner_mod(f, r, m) and m > 2 * N
            found += 1
    assert found >= 2  # +-N mod p at least


# ------------------------------------------------- normal form over Q(zeta_D)


NF_ORDERS = tuple(range(1, 61)) + (84, 105, 120, 168, 210, 420)


def _element(rng, D):
    """Up to 8 terms q * zeta_D^j, or about one time in five a 30%-dense
    vector; denominators up to 6."""
    if rng.random() < 0.2:
        return CyclotomicNumber(D, [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                    if rng.random() < 0.3 else 0 for _ in range(D)])
    x = CyclotomicNumber.zero(D)
    for _ in range(rng.randint(0, 8)):
        x = x + Fraction(rng.randint(-9, 9), rng.randint(1, 6)) * zeta(D, rng.randrange(D))
    return x


def _hidden_zero(rng, D):
    """A sum of c * zeta_D^j * (1 + zeta_p + ... + zeta_p^(p-1)) over the
    primes p | D, one to two terms each, added without reduction: zero in
    value, nonzero in its term map (the rational 0 at D = 1)."""
    z = CyclotomicNumber.zero(D)
    for p in factorize(D):
        for _ in range(rng.randint(1, 2)):
            c, j = Fraction(rng.randint(1, 9), rng.randint(1, 4)), rng.randrange(D)
            z = z + sum((c * zeta(D, j + k * D // p) for k in range(p)), CyclotomicNumber.zero(D))
    return z


def test_normal_form_vs_dense_zero_test():
    rng = random.Random(37)
    hidden = zero = 0
    for D in NF_ORDERS:
        kept = {j for j in range(D)
                if all(j % p**e < (p - 1) * p ** (e - 1) for p, e in factorize(D).items())}
        assert len(kept) == cyclotomic.euler_phi(D)  # the Zumbroich basis
        for _ in range(10):
            x, w, h = _element(rng, D), _element(rng, D), _hidden_zero(rng, D)
            y = x + h  # x in another representative
            assert h.is_zero() and dense_is_zero(h) and h == 0 and 0 == h
            for v in (x, w, y, x - y, y - x, x - w, w + h, h - w):
                assert v.is_zero() == dense_is_zero(v), (D, v)
                zero += v.is_zero()
            assert x == y and y == x and not (x != y)
            assert (x == w) == dense_is_zero(x - w) == (w == x)
            assert (y == w) == dense_is_zero(y - w)
            nx, ny = _normal_form(D, x._num), _normal_form(D, y._num)
            assert set(nx) <= kept and set(ny) <= kept
            assert {j: n * y._den for j, n in nx.items()} == {j: n * x._den for j, n in ny.items()}
            hidden += bool(h._num)
        assert _normal_form(D, {0: 5}) == {0: 5}  # a rational is its own form
    assert hidden >= 10 * (len(NF_ORDERS) - 1) and zero >= 10 * len(NF_ORDERS)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(NF_ORDERS[1:]), st.data())
def test_random_hidden_zeros_vanish(D, data):
    """Any integer combination of the p-th root sums zeta^j sum_k zeta^(kD/p),
    p | D, is zero; built densely, so no sum reduces it first."""
    ps = sorted(factorize(D))
    v = [0] * D
    for p, j, c in data.draw(st.lists(st.tuples(st.sampled_from(ps), st.integers(0, D - 1),
                                                st.integers(-10**30, 10**30)), max_size=6)):
        for k in range(p):
            v[(j + k * D // p) % D] += c
    den = data.draw(st.integers(1, 10**6))
    z = CyclotomicNumber(D, [Fraction(c, den) for c in v])
    x = CyclotomicNumber(D, data.draw(st.lists(st.integers(-3, 3), min_size=D, max_size=D)))
    assert z.is_zero() and z == 0 and dense_is_zero(z)
    assert _normal_form(D, z._num) == {}
    assert x + z == x and (x + z).is_zero() == x.is_zero() == dense_is_zero(x)


def test_zero_and_equality_make_no_division(monkeypatch):
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return divmod_(a, b)
    divmod_ = cyclotomic.poly_divmod
    monkeypatch.setattr(cyclotomic, "poly_divmod", spy)
    x = zeta(420, 7) + Fraction(1, 3) * zeta(420, 200)
    y = x + zeta(420, 11) + zeta(420, 151) + zeta(420, 291)  # + zeta^11 (1 + zeta_3 + zeta_3^2)
    x.canonical()
    assert calls  # the spy sees the dense route
    calls.clear()
    monkeypatch.setattr(CyclotomicNumber, "canonical", lambda self: pytest.fail("canonical"))
    assert x == y and y == x and not x.is_zero() and (x - y).is_zero()
    assert x != 0 and x != zeta(420, 7) and rational(3, 420) == 3 and zeta(5) != zeta(7)
    assert is_flat(chirp(63)).flat and not is_flat(chirp(30)).flat
    f = exact_sum(5, [(0, zeta(3)), (1, zeta(3, 2)), (2, 1), (3, zeta(4))])
    assert validate_definition(f).failing_subset == (0, 1, 2)
    ctx = RadicalContext([Fraction(2)], [2], D=3)
    hidden = RadicalSum(ctx, [(zeta(3) + zeta(3, 2) + 1, (1,)), (zeta(3), (0,))])
    assert normalize_terms(hidden).n_terms == 1
    assert not calls


# --------------------------------------------------------- marginal grid


def _radical_sum(rng):
    """A radical sum of 0-3 terms over 1-2 generators with denominators
    1-6, D in 1-12; coefficients of orders that divide D_work or do not
    (those outside Q(zeta_D_work)), rational ones among them."""
    b = rng.randint(1, 2)
    gens = rng.sample([Fraction(2), Fraction(3), Fraction(5), Fraction(7, 2)], b)
    ctx = RadicalContext(gens, [rng.randint(1, 6) for _ in range(b)], rng.randint(1, 12))
    terms = []
    for _ in range(rng.choice((0, 1, 2, 2, 2, 3))):
        o = rng.choice((1, ctx.D, ctx.D_work, 7, 11, 13))
        c = sum((Fraction(rng.randint(-5, 5), rng.randint(1, 4)) * zeta(o, rng.randrange(o))
                 for _ in range(rng.randint(1, 3))), CyclotomicNumber.zero(1))
        terms.append((c, tuple(rng.randint(-3, 3) for _ in range(b))))
    return RadicalSum(ctx, terms)


def _rewritten(x):
    """x with every coefficient written at 4 times its order and a zero term
    of order 4 added: the same value, a larger lcm of coefficient orders."""
    zero_term = (CyclotomicNumber.zero(4), (0,) * x.context.rank)
    return RadicalSum(x.context, [(a.lift(4 * a.order), k) for a, k in x.terms] + [zero_term])


def _nonzero_terms(x):
    return {k: a for a, k in x.terms if not a.is_zero()}


def test_unit_orbit_values_vs_per_unit_route():
    rng = random.Random(36)
    outside_work = two_terms = 0
    # zeta_5 over D_work = 6: the unit 2 of Z/3 lifts to 5 mod 6, and 5,
    # which divides zeta_5's order, acts on it as 1
    outside = RadicalSum(RadicalContext([Fraction(2)], [2], D=3), [(zeta(5), (1,))])
    # zeta_7 over D_work = 21: written at order 28, 2 acts on it as 2 does
    inside = RadicalSum(RadicalContext([Fraction(2)], [7], D=3),
                        [(zeta(7), (0,)), (Fraction(1, 2), (1,))])
    for x in itertools.chain((_radical_sum(rng) for _ in range(300)), [outside, inside]):
        eps = rng.choice((0.1, 0.5, 1.0))
        units, want = per_unit_orbit_values(x)
        got_units, got = _unit_orbit_values(x)
        assert got_units == units and got.shape == want.shape
        assert np.array_equal(got, want), x  # bit for bit
        hsize = x.context.orbit_size()
        rows = [{"t": t, "fraction": Fraction(int(np.count_nonzero(_in_band(eps)(abs(row) ** 2))),
                                              hsize)} for t, row in zip(units, want)]
        assert marginal_orbit_stats(x, eps)["rows"] == rows
        ctx = x.context
        outside_work += any(ctx.D_work % a.order for a, _ in x.terms)
        two_terms += x.n_terms == 2
        # phi_t is one automorphism of Q^ab: however a coefficient is
        # written, inside Q(zeta_D_work) or not, its image is the same
        y = _rewritten(x)
        r0 = (0,) * ctx.rank
        for t in units:
            sigma = GaloisElement(t, r0)
            assert (_nonzero_terms(apply_galois(sigma, x))
                    == _nonzero_terms(apply_galois(sigma, y))), (x, t)
        assert marginal_orbit_stats(y, eps)["rows"] == rows
    assert outside_work >= 30 and two_terms >= 60


def test_galois_action_ignores_a_zero_term():
    # the unit 2 of Z/3 lifts to 5 mod D_work = 6; 5 divides zeta_5's order,
    # so phi_2 fixes zeta_5, with or without a zero term of order 11
    ctx = RadicalContext([Fraction(2)], [2], D=3)
    sigma = GaloisElement(2, (0,))
    alone = RadicalSum(ctx, [(zeta(5), (1,))])
    joined = RadicalSum(ctx, [(zeta(5), (1,)), (CyclotomicNumber.zero(11), (0,))])
    for x in (alone, joined):
        assert _nonzero_terms(apply_galois(sigma, x)) == {(1,): zeta(5)}
    assert apply_galois(sigma, alone).evaluate() == apply_galois(sigma, joined).evaluate()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**4), st.integers(1, 60))
def test_zhat_unit_agrees_across_multiples(u, L, k):
    w = _zhat_unit(u, L)
    assert 0 <= w < L and math.gcd(w, L) == 1
    assert w == _zhat_unit(u, k * L) % L
    if math.gcd(u, L) == 1:
        assert w == u % L
    for p, e in factorize(L).items():  # the component at p: u if p does not divide u, else 1
        assert (w - (u if u % p else 1)) % p**e == 0


def test_marginal_stats_apply_no_galois_element(monkeypatch):
    x = RadicalSum(RadicalContext([Fraction(2)], [2], D=5),
                   [(Fraction(1, 2), (0,)), (zeta(5) * Fraction(1, 2), (1,))])
    want = marginal_orbit_stats(x, 0.1)
    monkeypatch.setattr(radical, "apply_galois", lambda *a: pytest.fail("apply_galois"))
    assert marginal_orbit_stats(x, 0.1) == want


# -------------------------------------------------------------- constructors


@pytest.mark.parametrize("bad", [0.5, Decimal("0.5"), "1/2"], ids=["float", "Decimal", "str"])
def test_constructors_refuse_inexact_coefficients(bad):
    with pytest.raises(TypeError):
        CyclotomicNumber(3, [1, bad, 0])
    with pytest.raises(TypeError):
        CyclotomicNumber(3, (c for c in [0, 0, bad]))
    with pytest.raises(TypeError):  # before the length is checked
        CyclotomicNumber(3, [bad])
    with pytest.raises(TypeError):
        _primitive_int([1, bad, 1])
    with pytest.raises(TypeError):
        _primitive_int([bad])


def test_constructors_refuse_wrong_length_and_constants():
    for coeffs in ([1, 2], [1, 2, 3, 4], iter([1]), []):
        with pytest.raises(ValueError, match="length"):
            CyclotomicNumber(3, coeffs)
    with pytest.raises(ValueError, match="positive"):
        CyclotomicNumber(0, [])
    for poly in ([5], [0, 0], [], [Fraction(3, 2), 0]):
        with pytest.raises(ValueError, match="positive degree"):
            _primitive_int(poly)


def _mixed_entry(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    if kind == 2:
        return np.int64(rng.randint(-9, 9))
    if kind == 3:
        return rng.random() < 0.5
    return rng.randint(-10**20, 10**20)


def test_constructors_match_the_fraction_path():
    rng = random.Random(38)
    for _ in range(300):
        D = rng.randint(1, 30)
        v = [_mixed_entry(rng) for _ in range(D)]
        want = _over_lcm({j: as_fraction(c) for j, c in enumerate(v) if c})
        for x in (CyclotomicNumber(D, v), CyclotomicNumber(D, (c for c in v))):
            assert (x._num, x._den) == want
            assert all(type(n) is int for n in x._num.values()) and type(x._den) is int
        try:
            want = _primitive_int([as_fraction(c) for c in v])
        except ValueError:
            with pytest.raises(ValueError):
                _primitive_int(v)
            continue
        got = _primitive_int(v)
        assert got == want and all(type(c) is int for c in got)
        assert _primitive_int(c for c in v) == want
