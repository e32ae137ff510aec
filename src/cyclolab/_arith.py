"""Exact integer and Q[x] primitives, the one home of each for every module.

Exact input: every layer takes a caller's rational through `as_fraction`,
which refuses a float (0.1 would read as 3602879701896397/36028797018963968),
a complex, a Decimal or text (the parsers' business) with TypeError.
Numeric input goes through `as_float` and `as_complex`, the one finiteness
rule: text or a Decimal raises TypeError, NaN or an infinity ValueError.

Sizes: `positive` is the one gate of an order, modulus, count or root order.

Integers: the primes, divisors, Euler's phi, factorization, the floor
k-th root and floor sums, all in integer arithmetic.  Polynomials in Q[x]
are ascending coefficient lists of Fractions; a trimmed list has a nonzero
last entry, so the zero polynomial is [] and a trimmed p has degree
len(p) - 1.  The algorithms are the textbook ones (Cohen, A Course in
Computational Algebraic Number Theory, chapters 1 and 3); the one F_p[x]
test, `poly_coprime_mod`, lets a Q[x] decision be certified modulo a prime
first (von zur Gathen and Gerhard, Modern Computer Algebra, chapter 6).

Work: `check_cap` is the one refusal of work whose cost, counted from the
inputs before any of it runs, exceeds a cap.
"""
from __future__ import annotations

from cmath import isfinite
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt
from numbers import Complex, Rational, Real
from operator import index

_ZERO = Fraction(0)


def as_fraction(x) -> Fraction:
    """x as a Fraction when it is a numbers.Rational (int, bool, Fraction,
    numpy integer); TypeError otherwise."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, Rational):  # numpy integers: keep no numpy scalar inside
        return Fraction(int(x.numerator), int(x.denominator))
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def as_float(x, what: str) -> float:
    """float(x) for a numbers.Real, refused as `as_complex` refuses."""
    if not isinstance(x, Real):
        raise TypeError(f"expected a real number, got {type(x).__name__}")
    return as_complex(x, what).real


def as_complex(x, what: str) -> complex:
    """complex(x) for a numbers.Complex; TypeError otherwise (text, a
    Decimal), ValueError "<what> must be finite" for NaN, an infinity or an
    int or Fraction past the double range."""
    if not isinstance(x, Complex):
        raise TypeError(f"expected a complex number, got {type(x).__name__}")
    with suppress(OverflowError):  # an int or Fraction past the double range
        if isfinite(x := complex(x)):
            return x
    raise ValueError(f"{what} must be finite")


def positive(n, what: str) -> int:
    """n as an int (`operator.index`: a float or text raises TypeError),
    refused with ValueError "<what> must be positive" below 1."""
    n = index(n)
    if n < 1:
        raise ValueError(f"{what} must be positive")
    return n


def check_cap(what: str, cost: int, cap_name: str, cap: int) -> None:
    """ValueError "<what> = <cost> exceeds the <cap_name> <cap>" when
    cost > cap: the caller counts the cost from its inputs and calls this
    before any of the work."""
    if cost > cap:
        raise ValueError(f"{what} = {cost} exceeds the {cap_name} {cap}")


# ------------------------------------------------------------------ integers


def iroot(n: int, k: int) -> int:
    """Floor of the real k-th root of n >= 0: math.isqrt for k = 2, 1 for
    k >= bits(n) (then n < 2^k), integer Newton from above otherwise; no
    float at any size."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return isqrt(n)
    if k >= n.bit_length():  # 1 <= root < 2: Newton would form x^(k-1) first
        return 1
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) exceeds the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, isqrt(p) + 1))]
# Miller-Rabin over these bases is a proof of primality below 3.3e24
# (Sorenson and Webster 2017); above, a composite passing all 13 is unknown
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
RHO_BUDGET = 1 << 20  # Pollard-Brent steps per factorization


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 41 over the fixed bases."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes():
    """The primes in ascending order, without end: `_SMALL_PRIMES`, then
    the odd n > 1000 that `_is_prime` accepts."""
    yield from _SMALL_PRIMES
    yield from filter(_is_prime, count(1001, 2))


@lru_cache(maxsize=None)
def prime_root_of_unity(L: int, above: int = 1 << 61) -> tuple[int, int]:
    """(p, w): the least prime p > above with p = 1 (mod L), and w of
    multiplicative order exactly L mod p.  Phi_L splits into linear
    factors mod p, so zeta_L -> w maps Z[zeta_L] to F_p as a ring
    homomorphism.  `above` must be at least 41."""
    p = above // L * L + 1
    while p <= above or not p & 1 or not _is_prime(p):
        p += L
    qs = list(factorize(L))
    for g in range(2, p):
        w = pow(g, (p - 1) // L, p)
        if all(pow(w, L // q, p) != 1 for q in qs):
            return p, w
    raise AssertionError("unreachable: (Z/p)* is cyclic of order divisible by L")


def _rho(n: int, budget: int) -> tuple[int, int]:
    """(proper factor, steps used) of a composite n by Pollard rho with
    Brent's cycle search and batched gcds (Brent 1980, BIT 20); raises
    ValueError rather than take more than `budget` steps."""
    steps = 0
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > budget:
                raise ValueError("factorization exceeds the step budget")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, steps
    raise AssertionError("unreachable: n is composite")


def factorize(n: int) -> dict[int, int]:
    """{p: e} with |n| = prod p^e, primes ascending.

    Trial division by the primes below 1000, then Miller-Rabin, perfect
    powers and Pollard-Brent rho on what is left.  Rho gets RHO_BUDGET
    steps in all, enough for any factor below about 10^11; past it the
    factorization is refused with ValueError.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("zero has no factorization")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # what is left is 1, a prime, or free of prime factors below 1000, so
    # below 1000^2 it is prime
    pending = [n] if n > 1 else []
    budget = RHO_BUDGET
    while pending:
        m = pending.pop()
        if m < 1000 * 1000 or _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        for k in range(2, m.bit_length() // 9 + 1):
            r = iroot(m, k)
            if r**k == m:
                pending += [r] * k
                break
        else:
            d, used = _rho(m, budget)
            budget -= used
            pending += [d, m // d]
    return dict(sorted(out.items()))


def divisors(n: int) -> list[int]:
    """The positive divisors of n != 0, ascending."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b)/m) for n >= 0, m >= 1 and integers a,
    b of any sign, in O(log m) steps: split off the whole parts of a/m and
    b/m, then count the lattice points under the line with the roles of a
    and m swapped, as in Euclid (the AtCoder Library's floor_sum;
    Graham-Knuth-Patashnik, Concrete Mathematics, section 3.5)."""
    if n < 0 or m < 1:
        raise ValueError("floor_sum needs n >= 0 and m >= 1")
    total = 0
    while True:
        q, a = divmod(a, m)
        total += n * (n - 1) // 2 * q
        q, b = divmod(b, m)
        total += n * q
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


@lru_cache(maxsize=None, typed=True)  # typed: 6.0 must not hit the entry of 6
def euler_phi(n: int) -> int:
    """Euler's totient of n >= 1."""
    out = n = positive(n, "the argument of Euler's phi")
    for p in factorize(n):
        out -= out // p
    return out


# ---------------------------------------------------------------- Q[x]


def poly_trim(p: list) -> list:
    """Drop trailing zero coefficients of p in place; return p."""
    while p and not p[-1]:
        p.pop()
    return p


def poly_sub(a: list, b: list) -> list:
    out = list(a) + [_ZERO] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return poly_trim(out)


def poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def poly_deriv(p: list) -> list:
    """The formal derivative of p, as an untrimmed list."""
    return [i * c for i, c in enumerate(p)][1:]


def poly_divmod(a: list, b: list) -> tuple[list, list]:
    """(q, r) with a = q*b + r and deg r < deg b, both trimmed; b must be
    trimmed and nonzero.  One pass from the top, skipping zero terms.  A
    monic b divides by nothing, so integer a gives integer q and r."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = poly_trim(list(a))
    n = len(b) - 1
    if len(r) <= n:
        return [], r
    monic = b[-1] == 1
    lc = Fraction(b[-1])
    low = [(j, y) for j, y in enumerate(b[:n]) if y]
    q = [0 if monic else _ZERO] * (len(r) - n)
    for k in range(len(r) - n - 1, -1, -1):
        c = r[k + n]
        if c:
            c = q[k] = c if monic else c / lc
            for j, y in low:
                r[k + j] -= c * y
    return q, poly_trim(r[:n])


def poly_gcd(a: list, b: list) -> list:
    """Monic gcd in Q[x]; [] when both are zero."""
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return a
    lc = Fraction(a[-1])  # int input stays exact
    return [c / lc for c in a]


# ---------------------------------------------------------------- F_p[x]


def poly_coprime_mod(a: list[int], b: list[int], p: int) -> bool:
    """Whether the images of the integer polynomials a and b in F_p[x], p
    prime, are coprime: Euclid over F_p ends in a nonzero constant.  Two
    zero images are not coprime; a zero and a nonzero constant are."""
    a = poly_trim([c % p for c in a])
    b = poly_trim([c % p for c in b])
    while b:
        n = len(b) - 1
        inv = pow(b[-1], -1, p)
        for k in range(len(a) - 1, n - 1, -1):  # a mod b, from the top
            c = a[k] * inv % p
            if c:
                for j in range(n):
                    a[k - n + j] = (a[k - n + j] - c * b[j]) % p
        a, b = b, poly_trim(a[:n])
    return len(a) == 1
