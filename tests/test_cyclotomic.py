import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclolab.cyclotomic import CyclotomicNumber, cyclotomic_polynomial, zeta, rational


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
    assert zeta(9, 4).abs_squared() == 1
    assert (rational(1) + zeta(4)).abs_squared() == 2
    assert CyclotomicNumber.zero(5).abs_squared() == 0


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        CyclotomicNumber.zero(3).inverse()
    # a nonzero vector that reduces to zero mod Phi_3 is still zero
    with pytest.raises(ZeroDivisionError):
        (rational(1, 3) + zeta(3) + zeta(3, 2)).inverse()


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
            for j, c in enumerate(x.coeffs)
        )
        assert abs(x.embed() - direct) < 1e-10
        assert abs(x.abs_squared().embed() - abs(x.embed()) ** 2) < 1e-9


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
    assert CyclotomicNumber.parse(x.to_text()).coeffs == x.coeffs


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        CyclotomicNumber.parse("1 + z^2")  # missing order marker
    for text in ("1/2 @ -3", "1/2 @ 0", "...", "1/0 @ 4", "z^x @ 4", "1 @ two"):
        with pytest.raises(ValueError, match=r"c0 \+ c1\*z\^1 \+ \.\.\. @ D"):
            CyclotomicNumber.parse(text)
