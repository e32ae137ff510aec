"""Weil heights and Mahler measures of algebraic numbers given by primitive
integer minimal polynomials, with the power and root transformation laws.

Minimal-polynomial input (ascending exact rationals, taken through
`_arith.as_fraction`, so a float coefficient is a TypeError) is read only
here, and so is its text form "x^3-2" (`parse_minpoly`): `_primitive_int`
refuses a zero or constant polynomial, `DEGREE_CAP` is read before any
dense list, squarefree test or root probe, and
`weil_height` and `mahler_measure` refuse a repeated factor, whose multiple
roots float root-finding cannot separate (M((x-2)^3) would read 8.00004);
`height_and_measure` gives both from one root pass.

The exact steps run on integers.  `_squarefree_part` is certified modulo
`SQUAREFREE_PRIME` and falls back to the gcd over Q only when that prime is
degenerate; the rational-root probe picks a small prime at which f stays
squarefree, by the same F_p test, and Hensel-lifts its roots;
`power_transform` runs Newton's identities on the algebraic integers
lc * alpha_i.  numpy is imported by `poly_roots`, the one numeric step, so
building an `AlgebraicNumber` or its power transform's polynomial loads
none."""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import index

from ._arith import (
    as_fraction, check_cap, euler_phi, poly_coprime_mod, poly_deriv, poly_divmod, poly_gcd,
    poly_trim, positive, primes)

__all__ = [
    "AlgebraicNumber",
    "weil_height",
    "mahler_measure",
    "height_and_measure",
    "power_transform",
    "is_root_of_unity",
    "radical_height",
    "poly_roots",
    "parse_minpoly",
]

DEGREE_CAP = 64
POLISH_ITERS = 6  # Newton steps per root in `poly_roots`
SQUAREFREE_PRIME = (1 << 61) - 1  # the prime of `_squarefree_part`'s certificate


_TERM_RE = re.compile(r"[+-]?[^+-]+")
_MONOMIAL_RE = re.compile(r"(\d*)(?:(x)(?:\^(\d+))?)?")


def parse_minpoly(text: str) -> tuple[int, ...]:
    """Read "x^3-2" style integer polynomials: ascending coefficients with
    the leading zero coefficients trimmed, so "0x^3+x-1" has degree 1.  The
    degree is held to `DEGREE_CAP` before the list is built."""
    text = text.replace(" ", "")
    terms = _TERM_RE.findall(text)
    monomials = [_MONOMIAL_RE.fullmatch(t.lstrip("+-")) for t in terms]
    if not terms or "".join(terms) != text or not all(monomials):
        raise ValueError(f'cannot read {text!r} as an integer polynomial such as "x^3-2"')
    coeffs: dict[int, int] = {}
    for term, m in zip(terms, monomials):
        c_s, x, k_s = m.groups()
        k = int(k_s or 1) if x else 0
        coeffs[k] = coeffs.get(k, 0) + (-1 if term[0] == "-" else 1) * int(c_s or 1)
    degree = max((k for k, c in coeffs.items() if c), default=-1)
    check_cap("the degree", degree, "degree cap", DEGREE_CAP)
    return tuple(coeffs.get(i, 0) for i in range(degree + 1))


# ------------------------------------------------------- poly helpers (Q[x])


def _primitive_int(p) -> list[int]:
    """Clear denominators, divide by the content, make the lead positive; a
    zero or constant polynomial is refused, then a degree past `DEGREE_CAP`.
    An int coefficient stays an int; any other goes through `as_fraction`."""
    p = poly_trim([x if type(x) is int else as_fraction(x) for x in p])
    if len(p) < 2:
        raise ValueError("polynomial must have positive degree")
    check_cap("the degree", len(p) - 1, "degree cap", DEGREE_CAP)
    den = math.lcm(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)  # lead made positive
    return [c // g for c in ints]


def resultant(f, g) -> Fraction:
    """Res(f, g) over Q via the classical Euclidean recursion."""
    f = poly_trim([as_fraction(x) for x in f])
    g = poly_trim([as_fraction(x) for x in g])
    m, n = len(f) - 1, len(g) - 1
    if m < 0 or n < 0:
        return Fraction(0)
    if n == 0:
        return g[0] ** m
    if m == 0:
        return f[0] ** n
    r = poly_divmod(f, g)[1]
    if not r:
        return Fraction(0)
    return (-1) ** (m * n) * g[-1] ** (m - len(r) + 1) * resultant(g, r)


def poly_roots(coeffs) -> list[complex]:
    """All complex roots of an integer polynomial, Newton-polished.

    Companion-matrix start (numpy), then Newton iteration with exact
    coefficients evaluated in double precision.  Deterministic sort by
    (real, imag).  Degree is capped at 64, and a primitive coefficient
    that does not convert to a double (|c| >= ~1.8e308) is refused, both
    before numpy is imported.
    """
    ints = _primitive_int(coeffs)
    try:
        floats = [float(c) for c in ints]
    except OverflowError:
        raise ValueError("a coefficient exceeds the double limit of ~1.8e308 "
                         "of the numeric root finder") from None
    import numpy as np
    roots = np.roots(floats[::-1])
    dp = poly_deriv(ints)

    def horner(cs, z):
        acc = 0j
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    polished = []
    fujiwara = 1.0 + max(abs(c) / abs(ints[-1]) for c in ints[:-1])
    for r in roots:
        z = complex(r)
        for _ in range(POLISH_ITERS):
            d = horner(dp, z)
            if d == 0:
                break
            step = horner(ints, z) / d
            if abs(step) > 1.0:  # keep Newton from jumping between roots
                step /= abs(step)
            z -= step
            if abs(step) < 1e-16 * max(1.0, abs(z)):
                break
        if abs(z) > fujiwara + 1e-6:
            z = complex(r)  # polish escaped the root-radius bound; keep start
        polished.append(z)
    polished.sort(key=lambda z: (round(z.real, 10), round(z.imag, 10)))
    return polished


# ---------------------------------------------------------- algebraic numbers


def _horner_mod(cs: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


def _squarefree_part(ints: list[int]) -> list[int]:
    """The primitive f / gcd(f, f') of a primitive nonconstant integer
    polynomial f (ints, or Fractions with denominator 1), as ints; it is f
    itself exactly when f is squarefree.

    With P = `SQUAREFREE_PRIME`: if P does not divide lc(f) and the images
    of f and f' in F_P[x] are coprime, then gcd(f, f') = 1 over Q, since a
    nonconstant primitive common divisor g in Z[x] (Gauss) has lc(g) | lc(f),
    so its image keeps its degree and divides both images.  Otherwise P is
    degenerate for f and the exact gcd over Q decides.
    """
    f = [int(c) for c in ints]
    df = poly_deriv(f)
    if f[-1] % SQUAREFREE_PRIME and poly_coprime_mod(f, df, SQUAREFREE_PRIME):
        return f
    g = poly_gcd(f, df)
    return _primitive_int(poly_divmod(f, g)[0]) if len(g) > 1 else f


def _hensel_lift(f: list[int], df: list[int], r: int, p: int, bound: int) -> tuple[int, int]:
    """(r, m): the simple root r of f mod the prime p lifted to the root of
    f mod m = p^(2^k), the first such power above bound; df is f'.

    Each Newton step squares m.  r' = r - f(r) * inv needs inv = 1/f'(r)
    only mod the old m, since f(r) = 0 there; that inverse is carried
    along, inv <- inv * (2 - f'(r') * inv) mod the new m, instead of
    being recomputed by a modular inversion at every step."""
    m, inv = p, pow(_horner_mod(df, r, p), -1, p)
    while m <= bound:
        m *= m
        r = (r - _horner_mod(f, r, m) * inv) % m
        if m <= bound:
            inv = inv * (2 - _horner_mod(df, r, m) * inv) % m
    return r, m


def _squarefree_rational_roots(f: list[int]) -> list[Fraction]:
    """The rational roots of a squarefree nonconstant integer polynomial f.

    With a the leading coefficient, take the least prime p not dividing a
    at which f stays squarefree (f and f' coprime in F_p[x], so every root
    of f mod p is simple); f is squarefree, so only the primes dividing
    a * disc(f) fail, and each candidate costs one reduction of f mod p.
    The residues are then scanned once, on the reduced coefficients.  A
    rational root s/t has t | a, so it is a p-adic integer and its residue
    is one of those roots, which `_hensel_lift` pins mod p^k.  With B the
    Cauchy bound, |a * s/t| <= |a| * B; once p^k > 2|a|B, a * s/t is the
    symmetric residue of a times the lift, and an exact integer Horner
    evaluation decides the candidate.
    """
    if f[0] == 0:  # f is squarefree, so x divides it once
        return [Fraction(0)] + (_squarefree_rational_roots(f[1:]) if len(f) > 2 else [])
    df = poly_deriv(f)
    a = f[-1]
    bound = 2 * (abs(a) + max(abs(c) for c in f[:-1]))
    p = next(p for p in primes() if a % p and poly_coprime_mod(f, df, p))
    fp = [c % p for c in f]
    roots = [r for r in range(p) if not _horner_mod(fp, r, p)]
    found = []
    for r in roots:
        r, m = _hensel_lift(f, df, r, p, bound)
        n = a * r % m
        root = Fraction(n - m if 2 * n > m else n, a)
        s, t = root.numerator, root.denominator
        acc, tp = 0, 1
        for c in reversed(f):  # sum f_i s^i t^(deg - i) = t^deg f(s/t)
            acc, tp = acc * s + c * tp, tp * t
        if not acc:
            found.append(root)
    return found


@dataclass(frozen=True)
class AlgebraicNumber:
    """A root of a primitive irreducible integer polynomial.

    `root_index` selects one complex root under the deterministic ordering
    of `poly_roots`.  Irreducibility is an input contract; cheap probes
    (rational roots, repeated factors) catch the easy violations, which
    include every reducible quadratic and cubic.  A degree above
    `DEGREE_CAP`, where no root can be taken, is refused before them.
    """

    minpoly: tuple[int, ...]
    root_index: int = 0

    def __post_init__(self):
        ints = _primitive_int(self.minpoly)
        deg = len(ints) - 1
        object.__setattr__(self, "minpoly", tuple(ints))
        object.__setattr__(self, "root_index", index(self.root_index))
        if not (0 <= self.root_index < deg):
            raise ValueError("root index out of range")
        # cheap irreducibility probes; full factorization is out of scope
        if deg > 1:
            f = _squarefree_part(list(ints))
            if _squarefree_rational_roots(f):
                raise ValueError("polynomial has a rational root, not irreducible")
            if len(f) < len(ints):
                raise ValueError("polynomial has a repeated factor, not irreducible")

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def root(self) -> complex:
        return poly_roots(list(self.minpoly))[self.root_index]


def height_and_measure(alpha) -> tuple[float, float]:
    """(weil_height, mahler_measure) of an `AlgebraicNumber` (squarefree by
    construction) or a squarefree polynomial, from one `poly_roots` call:
    with a = |root| > 1 in root order, h = (log |lc| + sum log a)/deg and
    M = |lc| * prod a, each accumulated in that order."""
    if isinstance(alpha, AlgebraicNumber):
        ints = list(alpha.minpoly)
    else:
        ints = _primitive_int(alpha)
        if len(_squarefree_part(ints)) < len(ints):
            raise ValueError("polynomial has a repeated factor")
    rts = poly_roots(ints)
    lc = abs(ints[-1])
    h, m = math.log(lc), float(lc)
    for r in rts:
        a = abs(r)
        if a > 1.0:
            h += math.log(a)
            m *= a
    return h / (len(ints) - 1), m


def mahler_measure(alpha) -> float:
    """|lc| * prod over roots of max(1, |root|)."""
    return height_and_measure(alpha)[1]


def weil_height(alpha) -> float:
    """(1/deg) * (log |lc| + sum over roots of log max(1, |root|))."""
    return height_and_measure(alpha)[0]


def power_transform(alpha: AlgebraicNumber, n: int) -> AlgebraicNumber:
    """Defining polynomial of alpha^n from Newton power sums, in integers.

    With lc the leading coefficient, the beta_i = lc * alpha_i are algebraic
    integers, roots of the monic x^deg + sum R_i x^(deg-i) with
    R_i = lc^(i-1) * p_(deg-i).  Newton's identities give their power sums
    S_j = lc^j s_j, all integers; S_k, S_2k, ..., S_deg*k (k = |n|) are the
    power sums of the beta_i^k, and the same identities run backwards give
    the elementary symmetric functions B_j = lc^(kj) b_j of the beta_i^k,
    integers too, so the division of the Newton numerator j * B_j by j is
    exact.  Row j scaled by lc^(k(deg-j)) is lc^(k deg) b_j, so
    `_primitive_int` gives the primitive multiple of prod (x - alpha_i^k),
    which is then made squarefree.
    For n < 0 the coefficients of the |n| result are reversed (alpha must
    be nonzero, which holds since the minimal polynomial is irreducible of
    positive degree with nonzero constant term).
    """
    if n == 0:
        raise ValueError("n must be a nonzero integer")
    p = list(alpha.minpoly)
    if n < 0 and p[0] == 0:
        raise ValueError("cannot invert zero")
    k = abs(n)
    deg = len(p) - 1
    lc = p[-1]
    R = [1] + [lc ** (i - 1) * p[deg - i] for i in range(1, deg + 1)]
    S = [deg]  # S[j] = sum of beta_i^j
    for j in range(1, deg * k + 1):
        S.append(-sum(R[i] * S[j - i] for i in range(1, min(j, deg + 1)))
                 - (j * R[j] if j <= deg else 0))
    T = S[::k]  # T[j] = sum of (beta_i^k)^j
    B = [1]  # B[j]: coefficient of x^(deg-j) in prod (x - beta_i^k)
    for j in range(1, deg + 1):
        B.append(-(T[j] + sum(B[i] * T[j - i] for i in range(1, j))) // j)
    ints = _squarefree_part(_primitive_int([B[j] * lc ** (k * (deg - j))
                                            for j in range(deg, -1, -1)]))
    if n < 0:
        ints = _primitive_int(ints[::-1])
    target = alpha.root() ** n
    rts = poly_roots(ints)
    idx = min(range(len(rts)), key=lambda i: abs(rts[i] - target))
    return AlgebraicNumber(tuple(ints), idx)


def is_root_of_unity(alpha: AlgebraicNumber) -> bool:
    """Exact torsion test: does the minimal polynomial divide x^k - 1 for
    some k with phi(k) <= deg?  (phi(k) >= sqrt(k/2) bounds the scan.)"""
    minpoly = list(alpha.minpoly)
    if minpoly[-1] != 1:  # Gauss's lemma: a primitive divisor of x^k - 1 is monic
        return False
    deg = len(minpoly) - 1
    kmax = 2 * deg * deg + 2
    for k in range(1, kmax + 1):
        if euler_phi(k) > deg:
            continue
        xk = [-1] + [0] * (k - 1) + [1]
        if not poly_divmod(xk, minpoly)[1]:
            return True
    return False


def radical_height(a, n: int) -> float:
    """h(a^(1/n)) = h(a)/n for positive rational a: log max(num, den) / n."""
    a = as_fraction(a)
    if a <= 0:
        raise ValueError("radicand must be a positive rational")
    return math.log(max(a.numerator, a.denominator)) / positive(n, "root order")
