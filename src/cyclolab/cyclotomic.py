"""Exact arithmetic in cyclotomic fields Q(zeta_D).

A value is stored as the map j -> n_j of its nonzero integer numerators
over the power basis zeta_D^0 .. zeta_D^(D-1) and one positive
denominator d, normalized so that gcd(d, n_j for all j) = 1; its
coefficient at zeta_D^j is n_j / d.  A root of unity or a Gauss sum
costs only its terms, and sums, products and Galois conjugates run on
integers.  Zero and equality tests read the sparse normal form over the
Zumbroich basis (Bosma, "Canonical bases for cyclotomic fields", AAECC 1,
1990; Breuer, AAECC 8, 1997), an integer rewrite with no division; only
`canonical` (inversion, the benchmark digests) reduces a dense vector
modulo the monic D-th cyclotomic polynomial.
The complex embedding is fixed once and for all: zeta_D -> exp(2*pi*i/D).
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import index

# euler_phi stays importable from here (tests and bench/make_reference.py use it)
from ._arith import (  # noqa: F401
    as_fraction, euler_phi, factorize, poly_divmod, poly_mul, poly_sub, poly_trim, positive)

__all__ = [
    "CyclotomicNumber",
    "cyclotomic_polynomial",
    "zeta",
    "rational",
]

_ZERO = Fraction(0)


@lru_cache(maxsize=None, typed=True)  # typed: 4.0 must not hit the entry of 4
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree.

    With p the largest prime factor of n and m = n/p, Phi_n(x) = Phi_m(x^p)
    when p | m and Phi_n(x) = Phi_m(x^p) / Phi_m(x) otherwise (Washington,
    Introduction to Cyclotomic Fields, ch. 2); the division is exact.
    """
    n = positive(n, "order")
    if n == 1:
        return (-1, 1)
    p = max(factorize(n))
    m = n // p
    phi_m = cyclotomic_polynomial(m)
    spread = [0] * (p * (len(phi_m) - 1) + 1)
    spread[::p] = phi_m
    if m % p == 0:
        return tuple(spread)
    q, r = poly_divmod(spread, phi_m)
    if r:
        raise ArithmeticError("division is not exact")
    return tuple(int(c) for c in q)


def _init(x: "CyclotomicNumber", order: int, num: dict, den: int) -> None:
    object.__setattr__(x, "order", order)
    object.__setattr__(x, "_num", num)
    object.__setattr__(x, "_den", den)


def _wrap(order: int, num: dict, den: int) -> "CyclotomicNumber":
    """A CyclotomicNumber holding num / den as is; the caller guarantees the
    normal form (nonzero numerators, den > 0, gcd(den, *num) = 1)."""
    x = object.__new__(CyclotomicNumber)
    _init(x, order, num, den)
    return x


def _reduced(order: int, num: dict, den: int) -> "CyclotomicNumber":
    """num / den with nonzero numerators and den > 0, over gcd(den, *num)."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {j: n // g for j, n in num.items()}
            den //= g
    return _wrap(order, num, den)


@lru_cache(maxsize=1024)
def _basis_rewrites(order: int) -> tuple[tuple[int, int, int, int], ...]:
    """(p, p^e, (p - 1) * p^(e-1), order / p) for each p^e exactly dividing
    order, primes ascending: the data of `_normal_form`'s rule."""
    return tuple((p, p**e, (p - 1) * p ** (e - 1), order // p)
                 for p, e in factorize(order).items())


def _normal_form(order: int, num: dict) -> dict:
    """The integer numerators j -> n_j (exponents in [0, order)) over the
    Zumbroich basis of Q(zeta_order), nonzero entries only.

    Q(zeta_D) is the tensor product of the Q(zeta_(p^e)), p^e || D, and
    for a prime p | D the p-th roots of unity sum to 0, so
    zeta^j = -sum_(k = 1..p-1) zeta^(j + k D/p).  For each p^e in turn,
    every zeta^j with (j mod p^e) >= (p - 1) p^(e-1) is rewritten so.  The
    rewrite for p moves only the residue mod p^e, into the kept range, so
    the primes done before stay done.  What is left is unique: x = 0 iff
    it is empty."""
    for p, q, cut, step in _basis_rewrites(order):
        out: dict = {}
        for j, n in num.items():
            if j % q < cut:
                out[j] = out[j] + n if j in out else n
                continue
            for k in range(1, p):
                i = (j + k * step) % order
                out[i] = out[i] - n if i in out else -n
        num = out
    return {j: n for j, n in num.items() if n}


def _convolve(an: dict, bn: dict, D: int, out: dict) -> dict:
    """Add the product of the integer group-ring vectors an and bn of
    Z[C_D] (exponents in [0, D)) into out and return it; out may keep
    zero entries."""
    for i, ca in an.items():
        for j, cb in bn.items():
            k = i + j
            if k >= D:
                k -= D
            p = ca * cb
            out[k] = out[k] + p if k in out else p
    return out


def _over_lcm(terms: dict) -> tuple[dict, int]:
    """(num, den) of a map j -> nonzero int or reduced Fraction, over the
    lcm of its denominators; no numerator then shares a factor with all of
    den."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {j: c.numerator * (den // c.denominator) for j, c in terms.items()}, den


class CyclotomicNumber:
    """An element of Q(zeta_D): the map j -> n_j of its nonzero integer
    numerators over the power basis zeta_D^0 .. zeta_D^(D-1) and one
    denominator d > 0 with gcd(d, all n_j) = 1, so the coefficient at
    zeta_D^j is n_j / d."""

    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, coeffs):
        order = positive(order, "order")
        terms, j = {}, -1
        for j, c in enumerate(coeffs):  # one pass; an int stays an int
            if type(c) is not int and type(c) is not Fraction:
                c = as_fraction(c)
            if c:
                terms[j] = c
        if j + 1 != order:
            raise ValueError("coefficient vector must have length equal to the order")
        _init(self, order, *_over_lcm(terms))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("CyclotomicNumber is immutable")

    # ------------------------------------------------------------ builders
    @classmethod
    def zero(cls, order: int = 1) -> "CyclotomicNumber":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CyclotomicNumber":
        return cls.from_rational(1, order)

    @classmethod
    def from_rational(cls, q, order: int = 1) -> "CyclotomicNumber":
        q = as_fraction(q)
        return _wrap(positive(order, "order"), {0: q.numerator} if q else {}, q.denominator)

    @classmethod
    def root_of_unity(cls, order: int, k: int = 1) -> "CyclotomicNumber":
        order = positive(order, "order")
        return _wrap(order, {index(k) % order: 1}, 1)

    # ------------------------------------------------------------ helpers
    def lift(self, order: int) -> "CyclotomicNumber":
        """Canonical lift to Q(zeta_order); requires self.order | order."""
        order = positive(order, "order")
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError("can only lift to a multiple of the order")
        step = order // self.order
        return _wrap(order, {j * step: n for j, n in self._num.items()}, self._den)

    def _pair(self, other):
        other = as_cyclotomic(other)
        if other.order == self.order:
            return self, other
        D = lcm(self.order, other.order)
        return self.lift(D), other.lift(D)

    # ---------------------------------------------------------- arithmetic
    def __add__(self, other):
        try:
            a, b = self._pair(other)
        except TypeError:
            return NotImplemented
        num, bn, den = a._num, b._num, a._den
        if den == b._den:
            num = dict(num)
        else:
            den = lcm(den, b._den)
            sa, sb = den // a._den, den // b._den
            num = {j: n * sa for j, n in num.items()} if sa != 1 else dict(num)
            bn = {j: n * sb for j, n in bn.items()} if sb != 1 else bn
        for j, n in bn.items():
            s = num.get(j)
            if s is None:
                num[j] = n
            elif s + n:
                num[j] = s + n
            else:
                del num[j]
        return _reduced(a.order, num, den)

    __radd__ = __add__

    def __neg__(self):
        return _wrap(self.order, {j: -n for j, n in self._num.items()}, self._den)

    def __sub__(self, other):
        return self + -as_cyclotomic(other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return _wrap(self.order, {}, 1)
            # gcd(den, *num) = 1, so p * n_j share with den exactly gcd(den, p)
            g = gcd(self._den, other.numerator)
            p = other.numerator // g
            num = {j: n * p for j, n in self._num.items()}
            if other.denominator == 1:
                return _wrap(self.order, num, self._den // g)
            return _reduced(self.order, num, self._den // g * other.denominator)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._pair(other)
        out = _convolve(a._num, b._num, a.order, {})
        return _reduced(a.order, {k: c for k, c in out.items() if c}, a._den * b._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / as_fraction(other))  # ZeroDivisionError on 0
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicNumber.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # ---------------------------------------------------------- reduction
    def canonical(self) -> tuple[Fraction, ...]:
        """Representative of degree < phi(order), reduced mod Phi_order: a
        dense vector, read by `inverse` and the benchmark digests; the zero
        and equality tests use the sparse `_normal_form` instead."""
        phi = cyclotomic_polynomial(self.order)
        v = [0] * self.order
        for j, n in self._num.items():
            v[j] = n
        rem = poly_divmod(v, phi)[1]  # Phi is monic: an integer remainder
        den = self._den
        return tuple(Fraction(n, den) for n in rem) + (_ZERO,) * (len(phi) - 1 - len(rem))

    def is_zero(self) -> bool:
        """Exact: the numerators' normal form over the Zumbroich basis is
        empty; no dense vector, no division."""
        return not _normal_form(self.order, self._num)

    def __eq__(self, other):
        """Exact equality across orders: the difference at the common order
        `is_zero`."""
        try:
            a, b = self._pair(other)
        except TypeError:  # x == 0.5 is False, not an error
            return NotImplemented
        return (a - b).is_zero()

    __hash__ = None  # semantic equality across orders; not hashable

    # ------------------------------------------------------------- galois
    def galois_conjugate(self, t: int) -> "CyclotomicNumber":
        """Apply zeta_D -> zeta_D^t; t must be coprime to the order."""
        D = self.order
        if gcd(t, D) != 1:
            raise ValueError("not a Galois element")
        t %= D
        return _wrap(D, {j * t % D: n for j, n in self._num.items()}, self._den)

    def conjugate(self) -> "CyclotomicNumber":
        return self.galois_conjugate(-1)

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse via extended Euclid against Phi_order."""
        D = self.order
        g = poly_trim(list(self.canonical()))
        if not g:
            raise ZeroDivisionError("division by zero")
        # extended Euclid in Q[z]: u*g + v*phi = 1 (phi irreducible, g != 0)
        r0, r1 = cyclotomic_polynomial(D), g
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
        # r0 = gcd (a nonzero constant since Phi is irreducible and g != 0)
        const = r0[0]
        return _wrap(D, *_over_lcm({j: c / const for j, c in enumerate(s0) if c}))

    # ------------------------------------------------------------- residue
    def residue(self, p: int, w: int) -> int | None:
        """The image d^-1 * sum n_j w^j mod p of the normal form under
        zeta_D -> w, where w has order D modulo the prime p; None when p
        divides d, which (gcd(d, all n_j) = 1) is exactly when p divides the
        denominator of some coefficient."""
        if not self._den % p:
            return None
        return sum(n * pow(w, j, p) for j, n in self._num.items()) * pow(self._den, -1, p) % p

    # ---------------------------------------------------------- embedding
    def embed(self) -> complex:
        """Complex value under the fixed embedding zeta_D -> e^(2*pi*i/D).

        n / d is the correctly rounded float of the coefficient, the same
        float as that of its reduced fraction."""
        D, den = self.order, self._den
        total = 0j
        for j, n in sorted(self._num.items()):  # ascending j fixes the float sum
            total += n / den * cmath.exp(2j * cmath.pi * j / D)
        return total

    # -------------------------------------------------------- text format
    def to_text(self) -> str:
        """Serialize as "c0 + c1*z^1 + ... @ D" with rationals "p/q"."""
        den = self._den
        parts = [str(Fraction(n, den)) if j == 0 else f"{Fraction(n, den)}*z^{j}"
                 for j, n in sorted(self._num.items())]
        return " + ".join(parts or ["0"]) + f" @ {self.order}"

    @classmethod
    def parse(cls, text: str) -> "CyclotomicNumber":
        """Read the to_text format; ValueError on any other text."""
        body, at, order_s = text.rpartition("@")
        try:
            if not at or not order_s.strip():
                raise ValueError("missing order marker '@ D'")
            order = positive(int(order_s), "order")
            terms = {}  # exponent mod order -> coefficient
            for term in body.split(" + "):
                term = term.strip()
                if not term:
                    continue
                if "*z^" in term:
                    c_s, _, k_s = term.partition("*z^")
                    j, c = int(k_s) % order, Fraction(c_s)
                elif term.startswith("z^"):
                    j, c = int(term[2:]) % order, 1
                else:
                    j, c = 0, Fraction(term)
                terms[j] = terms.get(j, 0) + c
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(
                f"cannot read {text!r} as \"c0 + c1*z^1 + ... @ D\": {exc}"
            ) from None
        # ascending exponents, as the dense constructor lists them
        return _wrap(order, *_over_lcm({j: terms[j] for j in sorted(terms) if terms[j]}))

    def __repr__(self):
        return f"CyclotomicNumber({self.to_text()!r})"


def zeta(order: int, k: int = 1) -> CyclotomicNumber:
    """Shorthand for the root of unity zeta_order^k."""
    return CyclotomicNumber.root_of_unity(order, k)


def rational(q, order: int = 1) -> CyclotomicNumber:
    """Shorthand for a rational number as a cyclotomic value."""
    return CyclotomicNumber.from_rational(q, order)


def as_cyclotomic(x) -> CyclotomicNumber:
    """x itself when it is a CyclotomicNumber, else the exact rational x in
    Q(zeta_1); TypeError on anything else, as `as_fraction`."""
    return x if isinstance(x, CyclotomicNumber) else CyclotomicNumber.from_rational(x)
