import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclolab._arith import (
    divisors,
    euler_phi,
    factorize,
    iroot,
    poly_deriv,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_sub,
    poly_trim,
    prime_root_of_unity,
)
from cyclolab.kummer import squarefree_part

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
        with pytest.raises(ValueError):
            euler_phi(0)


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
