"""Kummer failure constants for rational generators over cyclotomic fields.

The failure c of a query (a, d, m) is the largest e | d such that a has an
e-th root inside Q(zeta_m); the degree of Q(zeta_m, a^(1/d)) over Q(zeta_m)
is then d/c.

Root existence is decided exactly.  Any e-th root of a rational that lies
in some cyclotomic field must have the shape (rho or sqrt(rho)) * (root of
unity) with rho a positive rational: odd-order real radicals of
non-powers generate non-abelian fields, and a positive real 4th root of a
non-square does too, which collapses everything beyond a single square
root layer.  Square roots of rationals are located by the conductor
criterion, and so are twisted candidates sqrt(rho) * z: either z lies in
Q(zeta_m), or Q(zeta_m)(z) is the quadratic extension Q(zeta_lcm(m, t))
whose nontrivial automorphism sends z to -z, or not even z^2 lies in
Q(zeta_m).  The decision is integer arithmetic on conductors;
`sqrt_as_cyclotomic` builds the exact witness sqrt(rho) from Gauss sums.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from ._arith import as_fraction, check_cap, divisors, euler_phi, factorize, iroot, positive
from .cyclotomic import CyclotomicNumber, zeta
from .lattice import hnf, lll_reduce

__all__ = [
    "KummerQuery",
    "squarefree_part",
    "conductor_of_sqrt",
    "sqrt_in_cyclotomic",
    "has_nth_root_in_cyclotomic",
    "rank1_failure",
    "tower_degrees",
    "root_membership_oracle",
    "OracleReport",
    "multiplicatively_independent",
]

ORACLE_SCALES = (10**25, 10**40)  # lattice scales of `root_membership_oracle`
ORACLE_CAP = 64  # largest e * phi(m) of `root_membership_oracle`
_ORACLE_DPS = max(len(str(s)) for s in ORACLE_SCALES) + 25  # its working digits


# ----------------------------------------------------------- integer helpers


def squarefree_part(n: int) -> int:
    """The squarefree s with n = s * t^2; the sign of n rides on s."""
    if n == 0:
        raise ValueError("zero has no squarefree part")
    s = -1 if n < 0 else 1
    for p, e in factorize(n).items():
        if e % 2:
            s *= p
    return s


def _nth_root_rational(a: Fraction, n: int) -> Fraction | None:
    """The positive rational n-th root of a > 0, or None."""
    if n == 1:
        return a
    num, den = a.numerator, a.denominator
    p, q = iroot(num, n), iroot(den, n)
    if p**n != num or q**n != den:
        return None
    return Fraction(p, q)


# -------------------------------------------------------- conductor criterion


def conductor_of_sqrt(a: Fraction) -> int:
    """Conductor of Q(sqrt(a)) for rational a != 0 (1 if sqrt(a) is rational).

    With s the squarefree part of numerator*denominator: |s| if s = 1 mod 4,
    else 4|s|.
    """
    a = as_fraction(a)
    s = squarefree_part(a.numerator * a.denominator)
    if s == 1:
        return 1
    return abs(s) if s % 4 == 1 else 4 * abs(s)


def sqrt_in_cyclotomic(a, m: int) -> bool:
    """Exact test sqrt(a) in Q(zeta_m) via the conductor criterion."""
    a = as_fraction(a)
    if a == 0:
        raise ValueError("zero radicand")
    m = positive(m, "field order m")
    return m % conductor_of_sqrt(a) == 0


def _zeta_order_in_cyclotomic(t: int, m: int) -> bool:
    """Is a primitive t-th root of unity contained in Q(zeta_m)?"""
    return m % t == 0 or (m % 2 == 1 and (2 * m) % t == 0)


# ------------------------------------------- exact sqrt as cyclotomic number


def _gauss_sum(p: int) -> CyclotomicNumber:
    """Quadratic Gauss sum sum_t zeta_p^(t^2) for an odd prime p; equals
    sqrt(p) when p = 1 mod 4 and i*sqrt(p) when p = 3 mod 4."""
    counts = [0] * p
    for t in range(p):
        counts[t * t % p] += 1
    return CyclotomicNumber(p, counts)


def sqrt_as_cyclotomic(rho: Fraction, order: int) -> CyclotomicNumber:
    """The positive square root of a positive rational, exactly, inside
    Q(zeta_order); raises if the conductor does not divide the order."""
    rho = as_fraction(rho)
    if rho <= 0:
        raise ValueError("need a positive rational")
    cond = conductor_of_sqrt(rho)
    if order % cond != 0:
        raise ValueError("order is not a multiple of the conductor")
    n = rho.numerator * rho.denominator
    s = squarefree_part(n)
    t2 = _nth_root_rational(Fraction(n, s), 2)
    result = CyclotomicNumber.from_rational(Fraction(t2, rho.denominator), 1)
    k_imag = 0
    for p in factorize(s):
        if p == 2:
            result = result * (zeta(8) + zeta(8, 7))
        else:
            result = result * _gauss_sum(p)
            if p % 4 == 3:
                k_imag += 1
    if k_imag % 2 == 1:
        result = result * zeta(4)  # s = 3 mod 4 or even, so 4 | conductor
    if order % result.order != 0:
        raise AssertionError("construction left the target field")
    result = result.lift(order)
    # verify the construction: square equals rho, embedding is positive
    if not (result * result == rho):
        raise AssertionError("square root construction failed")
    if result.embed().real < 0:
        result = -result
    return result


# --------------------------------------------------------- e-th root existence


def has_nth_root_in_cyclotomic(a, e: int, m: int) -> bool:
    """Exact decision: does the rational a have an e-th root in Q(zeta_m)?

    All e-th roots of a are |a|^(1/e) * zeta_(2e)^tau with tau even for
    a > 0 and odd for a < 0.  Membership forces |a|^(1/e) to be rational or
    the square root of a rational; the twisted case is decided by conductors
    alone (see the module docstring).
    """
    a = as_fraction(a)
    if a == 0:
        raise ValueError("zero has no root data")
    e = positive(e, "root order")
    m = positive(m, "field order m")
    if e == 1:
        return True
    mag = abs(a)
    parity = 0 if a > 0 else 1

    rho = _nth_root_rational(mag, e)
    if rho is not None:
        if a > 0:
            return True  # the rational root rho itself
        # roots are rho * zeta_(2e)^odd; the smallest twist order is 2^(v2(e)+1),
        # twice the 2-part e & -e of e
        return _zeta_order_in_cyclotomic(2 * (e & -e), m)

    if e % 2 == 0:
        rho = _nth_root_rational(mag, e // 2)
        if rho is not None and _nth_root_rational(rho, 2) is None:
            # candidates sqrt(rho) * z with z = zeta_(2e)^tau of order t
            orders = {2 * e // gcd(tau, 2 * e) for tau in range(parity, 2 * e, 2)}
            outside = [t for t in orders if not _zeta_order_in_cyclotomic(t, m)]
            inside = len(outside) < len(orders)
            # for z outside Q(zeta_m) with z^2 inside, Q(zeta_lcm(m, t)) / Q(zeta_m)
            # negates z, so it must hold sqrt(rho) and negate it too
            twisted = [t for t in outside if _zeta_order_in_cyclotomic(t // gcd(t, 2), m)]
            if not (inside or twisted):
                return False
            cond = conductor_of_sqrt(rho)  # the only factorization of rho
            if m % cond == 0:
                return inside
            return any(lcm(m, t) % cond == 0 for t in twisted)
    return False


# --------------------------------------------------------------- failure c


@dataclass(frozen=True)
class KummerQuery:
    a: Fraction
    d: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        if self.a == 0 or self.a == 1 or self.a == -1:
            raise ValueError("torsion generator")
        object.__setattr__(self, "d", positive(self.d, "Kummer degree d"))
        object.__setattr__(self, "m", positive(self.m, "field order m"))
        if not _zeta_order_in_cyclotomic(self.d, self.m):
            raise ValueError("need the d-th roots of unity inside Q(zeta_m)")


def rank1_failure(a, d: int, m: int) -> tuple[int, int]:
    """(c, degree) for one generator: c = largest e | d with an e-th root of
    a in Q(zeta_m); degree = d/c = [Q(zeta_m, a^(1/d)) : Q(zeta_m)]."""
    q = KummerQuery(a, d, m)
    for e in reversed(divisors(q.d)):
        if has_nth_root_in_cyclotomic(q.a, e, q.m):
            return e, q.d // e
    raise AssertionError("unreachable: e = 1 always admits a root")


# --------------------------------------------------- multi-generator towers


def multiplicatively_independent(gens) -> bool:
    """Full-rank test of the integer prime-exponent matrix."""
    gens = [as_fraction(g) for g in gens]
    if any(g <= 0 or g == 1 for g in gens):
        raise ValueError("generators must be positive rationals != 1")
    fs = [(factorize(g.numerator), factorize(g.denominator)) for g in gens]
    primes = sorted({p for fs_n, fs_d in fs for p in (*fs_n, *fs_d)})
    rows = [[fs_n.get(p, 0) - fs_d.get(p, 0) for p in primes] for fs_n, fs_d in fs]
    return len(hnf(rows)) == len(gens)


def tower_degrees(generators, d: list[int], m: int) -> tuple[list[int], list[int]]:
    """Per-level failures (c_1, ..., c_b) and group shape [d_l/c_l].

    Restricted regime only: either every d_l is odd, or the sqrt-relevant
    conductors of the generators with even d_l are pairwise coprime.  In
    both regimes the 2-layers cannot entangle across generators, so each
    level's failure equals its rank-1 value.  Anything else is refused.
    """
    gens = [as_fraction(g) for g in generators]
    if len(gens) != len(d):
        raise ValueError("one denominator per generator")
    if not multiplicatively_independent(gens):
        raise ValueError("generators are not multiplicatively independent")
    all_odd = all(dl % 2 == 1 for dl in d)
    if not all_odd:
        conds = []
        for g, dl in zip(gens, d):
            if dl % 2 == 0:
                f = conductor_of_sqrt(g)
                if dl % 4 == 0:
                    f = lcm(f, 8)  # deeper 2-layers live over conductor 8
                conds.append(f)
        if any(gcd(f1, f2) != 1 for f1, f2 in itertools.combinations(conds, 2)):
            raise ValueError("entangled case unsupported")
    levels = [rank1_failure(g, dl, m) for g, dl in zip(gens, d)]
    return [c for c, _ in levels], [degree for _, degree in levels]


# ------------------------------------------------------------------- oracle


@dataclass(frozen=True)
class OracleReport:
    status: str  # "true" | "false" | "inconclusive"
    certificate: dict | None
    detail: dict


@lru_cache(maxsize=None)
def _zeta_powers(m: int) -> tuple:
    """zeta_m^i for i < phi(m), at the oracle's working precision."""
    import mpmath as mp

    with mp.workdps(_ORACLE_DPS):
        return tuple(mp.e ** (2j * mp.pi * i / m) for i in range(euler_phi(m)))


@lru_cache(maxsize=None)
def _zeta_block(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The phi(m) zeta rows of the oracle's lattice at ORACLE_SCALES[k],
    LLL-reduced.  Block k > 0 starts from U times its raw rows, U the
    identity part of block k - 1 (see `root_membership_oracle`)."""
    import mpmath as mp

    phi = euler_phi(m)
    U = ([list(r[:phi]) for r in _zeta_block(m, k - 1)] if k else
         [[1 if j == i else 0 for j in range(phi)] for i in range(phi)])
    with mp.workdps(_ORACLE_DPS):
        S = mp.mpf(ORACLE_SCALES[k])
        pts = [(int(mp.nint(S * z.real)), int(mp.nint(S * z.imag))) for z in _zeta_powers(m)]
    return tuple(map(tuple, lll_reduce(
        [u + [0, sum(c * x for c, (x, _) in zip(u, pts)),
              sum(c * y for c, (_, y) in zip(u, pts))] for u in U])))


def root_membership_oracle(a, e: int, m: int) -> OracleReport:
    """Independent membership oracle by integer-relation detection.

    For each e-th root candidate beta = |a|^(1/e) * zeta_(2e)^tau, look for
    a rational vector v with sum_i v_i zeta_m^i = beta via LLL on a scaled
    lattice, then verify (sum v_i zeta_m^i)^e = a exactly in the
    cyclotomic module.  A verified answer is exact; a near-miss relation
    that fails exact verification at every scale yields "inconclusive".

    At each scale S the lattice has one row per power zeta_m^i (i <
    phi(m)): the identity part, a 0 in the beta column, then S times the
    real and imaginary parts, rounded; a last row holds beta.  The phi(m)
    zeta rows depend only on m and the scale, so each scale's block is
    LLL-reduced once per process per (m, scale), when first needed, and
    kept (`_zeta_block`); every tau reduces only that block plus its beta
    row.  The inputs are checked before the cache is read, and e * phi(m)
    <= ORACLE_CAP admits 127 moduli, so at most 254 blocks are ever kept.  The
    reduced block's identity part is the unimodular transform U it
    applied, so the next scale's block starts from U times its raw zeta
    rows: the same lattice, already close to reduced (the gradual
    precision of van Hoeij and Novocin, "Gradual sub-lattice reduction and
    a new complexity for factoring polynomials", LATIN 2010).
    """
    import mpmath as mp

    a = as_fraction(a)
    if a == 0:
        raise ValueError("zero has no root data")
    e = positive(e, "root order")
    m = positive(m, "field order m")
    phi = euler_phi(m)
    check_cap("e * phi(m)", e * phi, "oracle cap", ORACLE_CAP)
    parity = 0 if a > 0 else 1
    near_miss = False
    zs = _zeta_powers(m)
    with mp.workdps(_ORACLE_DPS):
        mag = mp.root(abs(mp.mpf(a.numerator)) / mp.mpf(a.denominator), e)
        for tau in range(parity, 2 * e, 2):
            beta = mag * mp.e ** (1j * mp.pi * tau / e)
            for k, scale in enumerate(ORACLE_SCALES):
                S = mp.mpf(scale)
                reduced = lll_reduce(list(_zeta_block(m, k)) + [
                    [0] * phi + [1, int(mp.nint(S * beta.real)), int(mp.nint(S * beta.imag))]])
                reduced.sort(key=lambda r: max(abs(x) for x in r))
                for vec in reduced:
                    nb = vec[phi]
                    if nb == 0:
                        continue
                    v = [Fraction(-vec[i], nb) for i in range(phi)]
                    # spurious balanced LLL vectors carry entries that grow
                    # with the scale (~ scale^(2/(phi+3))); genuine relations
                    # have desk-sized rational coefficients
                    if any(max(abs(c.numerator), c.denominator) > 100 for c in v):
                        continue
                    approx = sum(complex(c) * complex(zs[i]) for i, c in enumerate(v))
                    if abs(approx - complex(beta)) > 1e-10:
                        continue
                    x = CyclotomicNumber(m, v + [Fraction(0)] * (m - phi))
                    if x**e == a:
                        cert = {"tau": tau, "v": [str(c) for c in v]}
                        return OracleReport("true", cert, {"scale": scale})
                    if scale == ORACLE_SCALES[-1]:
                        # unexplained candidate at the retry scale too
                        near_miss = True
                    break
    if near_miss:
        return OracleReport("inconclusive", None,
                            {"reason": "near-miss relation failed exact verification"})
    return OracleReport("false", None, {})
