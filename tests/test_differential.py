"""The exact kernels against independent implementations (sympy)."""
import random
from fractions import Fraction

import pytest

from cyclolab._arith import factorize, iroot
from cyclolab.cyclotomic import CyclotomicNumber, cyclotomic_polynomial
from cyclolab.heights import resultant
from cyclolab.kummer import squarefree_part


def test_cyclotomic_polynomial_vs_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 301):
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(cyclotomic_polynomial(n)) == [int(c) for c in want], n


def test_iroot_vs_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randrange(2 ** rng.randint(1, 2000))
        k = rng.randint(1, 12)
        assert iroot(n, k) == sympy.integer_nthroot(n, k)[0], (n, k)


def test_factorize_and_squarefree_part_vs_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4)

    def mid_prime():
        return sympy.nextprime(rng.randint(10**5, 10**9))

    cases = [rng.randint(1, 10 ** rng.randint(1, 24)) for _ in range(300)]
    # products of mid-size primes reach the Pollard-Brent stage
    cases += [mid_prime() * mid_prime() * rng.choice([1, 4, 12, 10**6 + 3]) for _ in range(40)]
    for n in cases:
        fs = sympy.factorint(n)
        assert factorize(n) == dict(sorted(fs.items())), n
        s = -1 if rng.random() < 0.5 else 1
        want = s
        for p, e in fs.items():
            want *= p ** (e % 2)
        assert squarefree_part(s * n) == want, n


def test_resultant_vs_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.subresultants_qq_zz import sylvester

    x = sympy.Symbol("x")
    rng = random.Random(5)
    for _ in range(150):
        f = [rng.randint(-6, 6) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 5)]
        g = [rng.randint(-6, 6) for _ in range(rng.randint(1, 6))] + [rng.choice([-3, 1, 2])]
        fx, gx = sympy.Poly(f[::-1], x).as_expr(), sympy.Poly(g[::-1], x).as_expr()
        got = resultant(f, g)
        # the definition: the determinant of the Sylvester matrix
        assert got == Fraction(int(sylvester(fx, gx, x, 1).det())), (f, g)
        # sympy.resultant (1.14) flips the sign when deg f < deg g and
        # deg f * deg g is odd, so it is consulted with deg f >= deg g only
        if len(f) >= len(g):
            assert got == Fraction(int(sympy.resultant(fx, gx, x))), (f, g)


@pytest.mark.parametrize("D", [24, 120])
def test_inverse_times_self_is_one(D):
    rng = random.Random(D)
    for _ in range(3):
        x = CyclotomicNumber(D, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                 if rng.random() < 0.4 else 0 for _ in range(D)])
        if x.is_zero():
            continue
        assert x * x.inverse() == 1
