import cmath
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from cyclolab._arith import poly_divmod
from cyclolab.cyclotomic import CyclotomicNumber, cyclotomic_polynomial, zeta, rational

from _reference import abs_squared, dense_coeffs


def random_cyclo(rng, D_max=24, coeff_bound=10):
    D = rng.randint(1, D_max)
    coeffs = [
        Fraction(rng.randint(-coeff_bound, coeff_bound), rng.randint(1, coeff_bound))
        for _ in range(D)
    ]
    return CyclotomicNumber(D, coeffs)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # product over divisors reconstructs z^n - 1
    for n in (6, 10, 12):
        prod = [1]
        for e in range(1, n + 1):
            if n % e == 0:
                phi = cyclotomic_polynomial(e)
                new = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        new[i + j] += a * b
                prod = new
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_basic_identities():
    assert (rational(1) + zeta(3) + zeta(3, 2)).is_zero()
    assert zeta(6) * zeta(6, 5) == 1
    x = zeta(8) + zeta(8, 7)
    assert x * x == 2


def test_galois_conjugation_examples():
    assert zeta(5).galois_conjugate(-1) == zeta(5, 4)
    assert rational(2, 7).galois_conjugate(3) == 2
    x = zeta(8) + zeta(8, 7)
    assert x.galois_conjugate(3) == -x
    with pytest.raises(ValueError, match="not a Galois element"):
        zeta(6).galois_conjugate(2)


def test_abs_squared_examples():
    for x, want in ((zeta(9, 4), 1), (rational(1) + zeta(4), 2), (CyclotomicNumber.zero(5), 0)):
        assert x * x.conjugate() == want


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        CyclotomicNumber.zero(3).inverse()
    # a nonzero vector that reduces to zero mod Phi_3 is still zero
    with pytest.raises(ZeroDivisionError):
        (rational(1, 3) + zeta(3) + zeta(3, 2)).inverse()


def test_division_and_negative_powers():
    rng = random.Random(23)
    for _ in range(100):
        x = random_cyclo(rng, D_max=12, coeff_bound=6)
        y = random_cyclo(rng, D_max=12, coeff_bound=6)
        if x.is_zero() or y.is_zero():
            continue
        q = x / y  # by a cyclotomic, across orders
        assert q * y == x and q == x * y.inverse()
        assert 2 / y == 2 * y.inverse() and Fraction(1, 3) / y * y == Fraction(1, 3)
        n = rng.randint(1, 4)
        assert y ** -n == (y ** n).inverse() and y ** -n * y ** n == 1
    assert zeta(5) ** -1 == zeta(5, 4) and zeta(5) ** 0 == 1


def test_zero_divisor_raises():
    x = zeta(5) + 2
    zero = rational(1, 3) + zeta(3) + zeta(3, 2)  # zero, in a nonzero vector
    for divide in (lambda: x / CyclotomicNumber.zero(5), lambda: x / zero,
                   lambda: x / 0, lambda: x / Fraction(0), lambda: 1 / zero,
                   lambda: Fraction(2, 3) / CyclotomicNumber.zero(4),
                   lambda: zero ** -1, lambda: CyclotomicNumber.zero(7) ** -3):
        with pytest.raises(ZeroDivisionError):
            divide()


def test_ring_laws_random():
    rng = random.Random(101)
    for _ in range(500):
        x = random_cyclo(rng)
        y = random_cyclo(rng)
        z = random_cyclo(rng, D_max=12)
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        if not x.is_zero():
            assert x * x.inverse() == 1


def test_conjugation_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(200):
        x = random_cyclo(rng, D_max=16, coeff_bound=6)
        y = random_cyclo(rng, D_max=16, coeff_bound=6)
        D = (x + y).order
        ts = [t for t in range(1, D + 1) if __import__("math").gcd(t, D) == 1]
        t = rng.choice(ts)
        lhs = (x * y).lift(D).galois_conjugate(t)
        rhs = x.lift(D).galois_conjugate(t) * y.lift(D).galois_conjugate(t)
        assert lhs == rhs


def test_embedding_consistency():
    import cmath

    rng = random.Random(11)
    for _ in range(100):
        x = random_cyclo(rng, D_max=20, coeff_bound=8)
        direct = sum(
            float(c) * cmath.exp(2j * cmath.pi * j / x.order)
            for j, c in enumerate(dense_coeffs(x))
        )
        assert abs(x.embed() - direct) < 1e-10
        assert abs(abs_squared(x).embed() - abs(x.embed()) ** 2) < 1e-9


def test_lift_preserves_arithmetic():
    x = zeta(3) + 2
    y = x.lift(12)
    assert x == y
    assert x * x == y * y
    assert zeta(3) == zeta(6, 2) == zeta(12, 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.data())
def test_serialization_round_trip(D, data):
    coeffs = [
        Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 9)))
        for _ in range(D)
    ]
    x = CyclotomicNumber(D, coeffs)
    assert CyclotomicNumber.parse(x.to_text()) == x
    # round trip is exact, not just equal modulo Phi
    assert dense_coeffs(CyclotomicNumber.parse(x.to_text())) == dense_coeffs(x)


def test_parse_is_sparse():
    # terms are read one by one into their exponent's slot, so a short
    # text at a large order builds nothing as long as the order
    t0 = time.perf_counter()
    x = CyclotomicNumber.parse("1*z^1 + 1 @ 2147483647")
    assert time.perf_counter() - t0 < 1.0
    assert x.to_text() == "1 + 1*z^1 @ 2147483647"
    # merged, in ascending exponent order, as the dense constructor has it
    y = CyclotomicNumber.parse("1/2*z^8 + 2 + 1/2*z^3 + 1/3*z^1 + -1/3*z^6 @ 5")
    assert list(y._num) == list(CyclotomicNumber(5, [2, 0, 0, 1, 0])._num) == [0, 3]
    assert (y._num, y._den) == ({0: 2, 3: 1}, 1)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        CyclotomicNumber.parse("1 + z^2")  # missing order marker
    for text in ("1/2 @ -3", "1/2 @ 0", "...", "1/0 @ 4", "z^x @ 4", "1 @ two"):
        with pytest.raises(ValueError, match=r"c0 \+ c1\*z\^1 \+ \.\.\. @ D"):
            CyclotomicNumber.parse(text)


# ---------------------------------------------------------------------------
# Test-only dense reference: a value is (order, tuple of order Fractions),
# with the tuple-based operations a CyclotomicNumber had before it stored
# only its nonzero terms.


def ref_lift(x, order):
    D, v = x
    out = [Fraction(0)] * order
    for j, c in enumerate(v):
        if c:
            out[j * (order // D)] = c
    return order, tuple(out)


def ref_add(x, y):
    D = lcm(x[0], y[0])
    return D, tuple(p + q for p, q in zip(ref_lift(x, D)[1], ref_lift(y, D)[1]))


def ref_mul(x, y):
    D = lcm(x[0], y[0])
    out = [Fraction(0)] * D
    a = [(i, c) for i, c in enumerate(ref_lift(x, D)[1]) if c]
    b = [(j, c) for j, c in enumerate(ref_lift(y, D)[1]) if c]
    for i, p in a:
        for j, q in b:
            out[(i + j) % D] += p * q
    return D, tuple(out)


def ref_scale(x, q):
    return x[0], tuple(c * q for c in x[1])


def ref_galois(x, t):
    D, v = x
    out = [Fraction(0)] * D
    for j, c in enumerate(v):
        if c:
            out[(j * t) % D] += c
    return D, tuple(out)


def ref_canonical(x):
    D, v = x
    phi = cyclotomic_polynomial(D)
    rem = poly_divmod(list(v), phi)[1]
    return tuple(rem) + (Fraction(0),) * (len(phi) - 1 - len(rem))


def ref_embed(x):
    D, v = x
    total = 0j
    for j, c in enumerate(v):
        if c:
            total += float(c) * cmath.exp(2j * cmath.pi * j / D)
    return total


def ref_text(x):
    D, v = x
    parts = [str(c) if j == 0 else f"{c}*z^{j}" for j, c in enumerate(v) if c != 0]
    return " + ".join(parts or ["0"]) + f" @ {D}"


DENSE_ORDERS = (1, 8, 24, 43, 120, 210)


def random_rational(rng, bound):
    """Numerators up to +-bound over small or large denominators."""
    return Fraction(rng.randint(-bound, bound), rng.choice((rng.randint(1, 7), 2**64 + 13)))


def random_pair(rng, D, bound=9):
    """A CyclotomicNumber and its dense reference from the same terms.

    Most values are sums of c*zeta_D^j added in random exponent order (so
    the term map is filled out of order, with repeats); the rest go through
    the dense constructor."""
    if rng.random() < 0.25:
        v = [random_rational(rng, bound) if rng.random() < 0.5 else 0 for _ in range(D)]
        return CyclotomicNumber(D, v), (D, tuple(Fraction(c) for c in v))
    x = CyclotomicNumber.zero(D)
    v = [Fraction(0)] * D
    for _ in range(rng.randint(0, 7)):
        j, c = rng.randrange(-D, 2 * D), random_rational(rng, bound)
        x = x + c * zeta(D, j)
        v[j % D] += c
    return x, (D, tuple(v))


def dense(D, terms):
    v = [Fraction(0)] * D
    for j, c in terms.items():
        v[j % D] += c
    return D, tuple(v)


def assert_normal(x):
    """Nonzero numerators at exponents in [0, order), one positive
    denominator, and no factor common to it and every numerator."""
    num, den = x._num, x._den
    assert den > 0 and all(num.values()) and all(0 <= j < x.order for j in num)
    assert gcd(den, *num.values()) == 1


def assert_same(x, ref):
    assert_normal(x)
    assert x.order == ref[0]
    assert dense_coeffs(x) == ref[1]
    assert x.canonical() == ref_canonical(ref)
    assert x.to_text() == ref_text(ref)
    assert x.embed() == ref_embed(ref)  # bit-identical, not approximate


def test_term_map_matches_dense_reference():
    rng = random.Random(43)
    for _ in range(100):
        D = rng.choice(DENSE_ORDERS)  # mixed orders, common order at most 840
        E = rng.choice([E for E in DENSE_ORDERS if lcm(D, E) <= 840])
        x, rx = random_pair(rng, D, rng.choice((9, 2**200)))
        y, ry = random_pair(rng, E, rng.choice((9, 2**200)))
        assert_same(x, rx)
        assert_same(x + y, ref_add(rx, ry))
        assert_same(x - y, ref_add(rx, ref_scale(ry, -1)))
        assert_same(x * y, ref_mul(rx, ry))
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert_same(x * q, ref_scale(rx, q))
        assert_same(q * x, ref_scale(rx, q))
        M = D * rng.choice((1, 2, 3, 5))
        assert_same(x.lift(M), ref_lift(rx, M))
        t = rng.choice([t for t in range(-D, D + 1) if gcd(t, D) == 1])
        assert_same(x.galois_conjugate(t), ref_galois(rx, t % D))


def test_term_map_edge_cases():
    for D in DENSE_ORDERS:
        x = sum((Fraction(j + 1, 3) * zeta(D, 3 * j) for j in range(D)), CyclotomicNumber.zero(D))
        assert (x - x).to_text() == f"0 @ {D}"
        assert dense_coeffs(x - x) == (Fraction(0),) * D
        assert (x * 0).to_text() == f"0 @ {D}"
        assert dense_coeffs(0 * x) == (Fraction(0),) * D
        assert (x + (-x)).embed() == 0j
        assert CyclotomicNumber(D, [0] * D).to_text() == f"0 @ {D}"
        # the z^1 terms of (z + 1)(z - 1) cancel and are dropped, not kept as zeros
        y, w = zeta(D) + 1, zeta(D) - 1
        ry, rw = dense(D, {1: 1, 0: 1}), dense(D, {1: 1, 0: -1})
        assert_same(y * w, ref_mul(ry, rw))
        assert_same(y + w, ref_add(ry, rw))


def test_dense_products():
    """Dense products at D = 120, 210, 420 against the dense reference: small
    and +-2^200 numerators, mixed denominators, all-negative operands and a
    negative leading slot."""
    rng = random.Random(420)
    for D in (120, 210, 420):
        for density in (0.08, 0.45) if D > 120 else (0.08, 0.45, 1.0):
            bound = rng.choice((9, 2**200))
            v = [random_rational(rng, bound) if rng.random() < density else Fraction(0)
                 for _ in range(D)]
            w = [random_rational(rng, bound) if rng.random() < density else Fraction(0)
                 for _ in range(D)]
            v[-1] = -abs(v[-1]) or Fraction(-1)  # a negative leading slot
            negative = [-abs(c) for c in w]  # every coefficient <= 0
            for a, b in ((v, w), (v, negative), (negative, w)):
                x, y = CyclotomicNumber(D, a), CyclotomicNumber(D, b)
                assert_same(x * y, ref_mul((D, tuple(a)), (D, tuple(b))))
    # every coefficient at the top of its bit length
    top = [2**62 - 1] * 15 + [0] * 15
    for a, b in ((top, top), (top, [-c for c in top])):
        assert_same(CyclotomicNumber(30, a) * CyclotomicNumber(30, b),
                    ref_mul((30, tuple(map(Fraction, a))), (30, tuple(map(Fraction, b)))))


INT = "cannot be interpreted as an integer"


@pytest.mark.parametrize("call, exc, match", [
    pytest.param(lambda: cyclotomic_polynomial(0), ValueError, "order must be positive",
                 id="phi-order-0"),
    pytest.param(lambda: CyclotomicNumber(0, []), ValueError, "order must be positive",
                 id="order-0"),
    pytest.param(lambda: CyclotomicNumber(3, [1, 2]), ValueError, "length equal to the order",
                 id="short-vector"),
    pytest.param(lambda: CyclotomicNumber.from_rational(1, 0), ValueError,
                 "order must be positive", id="from-rational-order-0"),
    pytest.param(lambda: CyclotomicNumber.root_of_unity(0), ValueError,
                 "order must be positive", id="root-of-unity-order-0"),
    pytest.param(lambda: zeta(4).lift(6), ValueError, "multiple of the order", id="lift"),
    pytest.param(lambda: zeta(4).lift(0), ValueError, "order must be positive", id="lift-order-0"),
    pytest.param(lambda: CyclotomicNumber.parse("1 @ 0"), ValueError, "order must be positive",
                 id="parse-order-0"),
    # an order or exponent is an integer (operator.index): a float is refused
    pytest.param(lambda: (cyclotomic_polynomial(4), cyclotomic_polynomial(4.0)), TypeError, INT,
                 id="phi-order-float"),  # with the entry of 4 cached
    pytest.param(lambda: CyclotomicNumber(2.0, [1, 1]), TypeError, INT, id="order-float"),
    pytest.param(lambda: rational(1, 3.0), TypeError, INT, id="from-rational-order-float"),
    pytest.param(lambda: zeta(4.0), TypeError, INT, id="root-of-unity-order-float"),
    pytest.param(lambda: zeta(4, 1.0), TypeError, INT, id="root-of-unity-k-float"),
    pytest.param(lambda: zeta(4).lift(8.0), TypeError, INT, id="lift-float"),
    pytest.param(lambda: setattr(zeta(4), "order", 5), AttributeError, "immutable",
                 id="setattr"),
    pytest.param(lambda: zeta(3) ** 1.5, TypeError, "unsupported operand", id="float-power"),
])
def test_refusals(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
