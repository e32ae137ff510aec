"""The exact kernels against independent implementations: sympy, or a
second algorithm written here."""
import random
from fractions import Fraction
from math import gcd

import pytest

from cyclolab._arith import euler_phi, factorize, iroot
from cyclolab.cyclotomic import CyclotomicNumber, as_cyclotomic, cyclotomic_polynomial, rational, zeta
from cyclolab.flatsums import exact_sum, validate_definition
from cyclolab.heights import resultant
from cyclolab.kummer import ORACLE_SCALES, squarefree_part
from cyclolab.lattice import LLL_DELTA, hnf, lll_reduce


# beyond n <= 300: the first orders with a coefficient of size 3 (385), 4
# (1365) and 5 (1785), prime powers (1024, 1331) and mixed orders
LARGE_ORDERS = (385, 1024, 1155, 1250, 1331, 1365, 1785, 1995, 2000, 2002, 2310)


def test_cyclotomic_polynomial_vs_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in [*range(1, 301), *LARGE_ORDERS]:
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(cyclotomic_polynomial(n)) == [int(c) for c in want], n


@pytest.mark.parametrize("D", [24, 120, 210, 840])
def test_canonical_vs_sympy(D):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(D, x), x, domain="QQ")
    rng = random.Random(D)
    for _ in range(3):
        v = [Fraction(0)] * D
        for _ in range(rng.randint(1, D)):
            v[rng.randrange(D)] += Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        rem = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in v[::-1]],
                         x, domain="QQ").rem(phi).all_coeffs()[::-1]
        want = [Fraction(int(c.p), int(c.q)) for c in rem]
        want += [Fraction(0)] * (len(phi.all_coeffs()) - 1 - len(want))
        got = CyclotomicNumber(D, v).canonical()
        assert all(type(c) is Fraction for c in got)
        assert list(got) == want, D


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


def _is_lll_reduced(basis):
    """Size reduction |mu_ij| <= 1/2 and the Lovasz condition, exactly."""
    n = len(basis)
    star, B = [], []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i, b in enumerate(basis):
        v = [Fraction(x) for x in b]
        for j in range(i):
            mu[i][j] = sum(x * y for x, y in zip(b, star[j])) / B[j]
            v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
        star.append(v)
        B.append(sum(x * x for x in v))
    return (all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(n) for j in range(i))
            and all(B[k] >= (LLL_DELTA - mu[k][k - 1] ** 2) * B[k - 1] for k in range(1, n)))


@pytest.mark.parametrize("m", [5, 7, 8, 12])
def test_lll_reduce_vs_sympy(m, monkeypatch, oracle_lattice):
    pytest.importorskip("sympy")
    from sympy import QQ, ZZ
    from sympy.external.pythonmpq import PythonMPQ
    from sympy.polys.matrices import DomainMatrix

    # sympy 1.14's pure-Python rationals have no __floor__, so its LLL
    # rounds mu through a float and loses exactness at the oracle's scales
    monkeypatch.setattr(PythonMPQ, "__floor__",
                        lambda q: q.numerator // q.denominator, raising=False)
    for beta in (lambda mp: mp.sqrt(2), lambda mp: 1j * mp.cbrt(3)):
        for scale in ORACLE_SCALES:
            rows = oracle_lattice(m, beta, scale)
            ours = lll_reduce(rows)[0]
            theirs = DomainMatrix([[ZZ(x) for x in r] for r in rows],
                                  (len(rows), len(rows[0])), ZZ).lll(delta=QQ(3, 4))
            theirs = [[int(x) for x in r] for r in theirs.to_list()]
            assert hnf(ours) == hnf(theirs) == hnf(rows), (m, scale)
            assert _is_lll_reduced(ours) and _is_lll_reduced(theirs), (m, scale)


@pytest.mark.parametrize("D", [24, 120])
def test_inverse_times_self_is_one(D):
    rng = random.Random(D)
    for _ in range(3):
        x = CyclotomicNumber(D, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                 if rng.random() < 0.4 else 0 for _ in range(D)])
        if x.is_zero():
            continue
        assert x * x.inverse() == 1


def norm_product_inverse(x):
    """x^-1 = prod_(t != 1) sigma_t(x) / N(x) over t in (Z/D)*, with
    N(x) = x * prod_(t != 1) sigma_t(x) rational; every partial product is
    put back in canonical form, and so is the result."""
    D = x.order
    pad = [0] * (D - euler_phi(D))

    def canon(y):
        return CyclotomicNumber(D, list(y.canonical()) + pad)

    p = CyclotomicNumber.one(D)
    for t in range(2, D):
        if gcd(t, D) == 1:
            p = canon(p * x.galois_conjugate(t))
    norm = (p * x).canonical()
    assert not any(norm[1:]), "the norm is rational"
    if not norm[0]:
        raise ZeroDivisionError("zero has no inverse")
    return p * (1 / norm[0])


def _operand(rng, D, density=None):
    """An element with 4 nonzero terms, or with each coefficient nonzero
    at the given probability."""
    js = (rng.sample(range(D), min(4, D)) if density is None
          else [j for j in range(D) if rng.random() < density])
    v = [0] * D
    for j in js:
        v[j] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    return CyclotomicNumber(D, v)


@pytest.mark.parametrize("D, sparse, dense", [
    (1, 6, 0), (2, 6, 0), (8, 6, 3), (24, 6, 3), (43, 4, 2), (120, 3, 1), (210, 2, 0)])
def test_inverse_vs_norm_product(D, sparse, dense):
    rng = random.Random(f"inverse:{D}")
    xs = [_operand(rng, D) for _ in range(sparse)]
    xs += [_operand(rng, D, 0.3) for _ in range(dense)]
    if D <= 2:  # rationals, so the norm can be negative
        xs += [CyclotomicNumber.from_rational(Fraction(-3, 7), D),
               CyclotomicNumber.from_rational(Fraction(-5), D)]
    for x in xs:
        if not x.is_zero():
            assert x.inverse().to_text() == norm_product_inverse(x).to_text(), x


@pytest.mark.parametrize("x", [
    1 + zeta(3) + zeta(3, 2),
    (1 + zeta(3) + zeta(3, 2)).lift(24),
    1 + zeta(2),
    sum((zeta(43, k) for k in range(43)), CyclotomicNumber.zero(43)),
])
def test_inverse_of_hidden_zero_raises(x):
    # nonzero numerators that reduce to zero mod Phi_D
    assert x._num
    with pytest.raises(ZeroDivisionError):
        x.inverse()
    with pytest.raises(ZeroDivisionError):
        norm_product_inverse(x)


def _first_zero_subset(coeffs):
    """The reference for `validate_definition`'s subset check: the exact sum
    of every subset, built by doubling, scanned in ascending mask order."""
    sums = [0 * coeffs[0]] if coeffs else [0]
    for c in coeffs:
        sums += [s + c for s in sums]
    for mask in range(1, len(sums)):
        if sums[mask] == 0:
            return tuple(i for i in range(len(coeffs)) if mask >> i & 1)
    return None


def test_validate_definition_vs_subset_scan():
    # draws from a small pool repeat residues and pair opposites, so most
    # sets have zero subsets, at varied positions across both halves
    pool = [rational(1), rational(-1), rational(2), Fraction(1, 2), zeta(3), -zeta(3),
            zeta(3, 2), zeta(4), -zeta(4), zeta(6), zeta(8) + zeta(8, 7), -zeta(8, 3)]
    rng = random.Random(7)
    zero_found = 0
    for trial in range(120):
        n = rng.randint(1, 14 if trial % 10 == 0 else 10)
        coeffs = [rng.choice(pool) for _ in range(n)]
        if trial % 3 == 0:  # mostly distinct values, one opposite pair
            coeffs = [Fraction(rng.randint(1, 50), rng.randint(1, 9)) * zeta(12, rng.randrange(12))
                      for _ in range(n)]
            if n >= 2:
                i, j = sorted(rng.sample(range(n), 2))
                coeffs[j] = -coeffs[i]
        want = _first_zero_subset([as_cyclotomic(c) for c in coeffs])
        got = validate_definition(exact_sum(1, list(enumerate(coeffs))))
        assert got.failing_subset == want, coeffs
        assert got.subset_sums_nonzero == (want is None)
        zero_found += want is not None
    assert 40 <= zero_found <= 110


_RNG20 = random.Random(20)


@pytest.mark.parametrize("ints", [
    [1, -1] * 10,  # 184,756 zero-sum subsets, the empty one included
    [2**i for i in range(19)] + [-(2**18 + 1)],  # the only zero: {0, 18, 19}
    [_RNG20.choice([-1, 1]) * _RNG20.randint(1, 60) for _ in range(20)],
    [_RNG20.randint(1, 10**6) for _ in range(20)],  # no zero subset
])
def test_validate_definition_vs_subset_scan_n20(ints):
    got = validate_definition(exact_sum(1, [(i, rational(c)) for i, c in enumerate(ints)]))
    assert got.failing_subset == _first_zero_subset(ints)
