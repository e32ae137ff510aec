"""Test references: small definitions that only the tests read.

Each checks a library result by an independent route (a membership test by
back substitution, a covolume by HNF, a sum evaluated term by term, ...),
so it lives with the tests rather than in `src/`.
"""
from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, prod
from typing import Sequence

import numpy as np

from cyclolab._arith import (
    as_fraction, poly_deriv, poly_divmod, poly_gcd, prime_root_of_unity)
from cyclolab.cyclotomic import CyclotomicNumber, zeta
from cyclolab.equidist import _BLOCK, ArcBox
from cyclolab.flatsums import (
    AutocorrelationProfile, SparseExpSum, ValidityReport, _gradient, _penalty, _unit_matrix)
from cyclolab.heights import AlgebraicNumber, _horner_mod, _primitive_int, poly_roots
from cyclolab.lattice import hnf
from cyclolab.radical import GaloisElement, RadicalContext, RadicalSum, _orbit_values, apply_galois


# ----------------------------------------------------------------- cyclotomic


def abs_squared(x: CyclotomicNumber) -> CyclotomicNumber:
    """x * conj(x); fixed by conjugation, nonnegative real under embedding."""
    return x * x.conjugate()


def dense_coeffs(x: CyclotomicNumber) -> tuple[Fraction, ...]:
    """The dense coefficient vector of x, of length x.order, over the power
    basis zeta^0 .. zeta^(order - 1)."""
    v = [Fraction(0)] * x.order
    for j, n in x._num.items():
        v[j] = Fraction(n, x._den)
    return tuple(v)


def dense_is_zero(x: CyclotomicNumber) -> bool:
    """The zero test by the dense route: the coefficient vector reduced
    modulo Phi_order (`canonical`) has no nonzero entry."""
    return not any(x.canonical())


# ------------------------------------------------------------------- flatsums


def to_numeric(f: SparseExpSum) -> SparseExpSum:
    if f.mode == "numeric":
        return f
    return SparseExpSum(
        f.d,
        tuple((b, a.embed()) for b, a in f.terms),
        float(f.mu),
        mode="numeric",
    )


def evaluate_exact(f: SparseExpSum, l: int) -> CyclotomicNumber:
    """f(zeta_d^l) as an exact cyclotomic number."""
    total = CyclotomicNumber.zero(f.d)
    for b, a in f.terms:
        total = total + a * zeta(f.d, (l * b) % f.d)
    return total


def object_autocorrelation(f: SparseExpSum) -> AutocorrelationProfile:
    """`grouped_autocorrelation` of an exact sum by cyclotomic-number
    arithmetic: one product a_i * conj(a_j) and one sum per ordered pair,
    in pair order, from the rational 0."""
    vals: dict = {}
    zero = CyclotomicNumber.zero(1)
    conj = [(bj, aj.conjugate()) for bj, aj in f.terms]
    for bi, ai in f.terms:
        for bj, cj in conj:
            rho = (bi - bj) % f.d
            vals[rho] = vals.get(rho, zero) + ai * cj
    return AutocorrelationProfile(f.d, vals, f.mode)


def dense_validate_definition(f: SparseExpSum) -> ValidityReport:
    """`validate_definition` by the dense route: every coefficient expanded
    to its coefficient vector, reduced fractions mapped one by one into
    F_p, and every one of the 2^N masks scanned in ascending order."""
    coeffs = [a for _, a in f.terms]
    n = len(coeffs)
    L = math.lcm(*(a.order for a in coeffs))
    p = 1 << 61
    while True:
        p, w = prime_root_of_unity(L, p)
        if all(c.denominator % p for a in coeffs for c in dense_coeffs(a)):
            break
    res = [sum(c.numerator * pow(c.denominator, -1, p) * pow(w, j * (L // a.order), p)
               for j, c in enumerate(dense_coeffs(a)) if c) % p for a in coeffs]
    failing = None
    for mask in range(1, 1 << n):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        if sum(res[i] for i in subset) % p == 0 and sum(
                (coeffs[i] for i in subset), CyclotomicNumber.zero(1)).is_zero():
            failing = subset
            break
    return ValidityReport(0 in f.exponents, gcd(f.d, *f.exponents) == 1, failing is None, failing)


def flat_search_gradient_check(b: Sequence[int], d: int, mu: float = 1.0,
                               points: int = 100, seed: int = 1,
                               h: float = 1e-5) -> float:
    """Max relative error of the analytic gradient against central finite
    differences of the search objective, over random coefficient points.

    `_penalty` and `_gradient` read flatsums' module global `np`, which only
    `flat_search` binds, so a caller binds it first."""
    N = len(b)
    V = _unit_matrix(b, d)
    VH = V.conj().T
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(points):
        a = rng.standard_normal(N) + 1j * rng.standard_normal(N)

        def total_at(vec):
            F, B, _ = _penalty(vec, V, mu)
            return F + B

        g = _gradient(a, VH, _penalty(a, V, mu)[2])
        analytic = np.concatenate([2 * g.real, 2 * g.imag])
        numeric = np.empty(2 * N)
        for i in range(N):
            for part, off in ((1.0, 0), (1j, N)):
                delta = np.zeros(N, dtype=complex)
                delta[i] = part * h
                numeric[i + off] = (total_at(a + delta) - total_at(a - delta)) / (2 * h)
        rel = np.linalg.norm(numeric - analytic) / max(np.linalg.norm(analytic), 1e-30)
        worst = max(worst, float(rel))
    return worst


# -------------------------------------------------------------------- lattice


def hnf_det(basis: list[list[int]]) -> int:
    """Determinant (covolume) of a full-rank lattice given by any basis."""
    h = hnf(basis)
    if len(h) != (len(h[0]) if h else 0):
        raise ValueError("basis is not full rank")
    return prod(row[i] for i, row in enumerate(h))


def in_lattice(basis_hnf: list[list[int]], vec: list[int]) -> bool:
    """Membership test against a row-HNF basis via back substitution."""
    v = list(vec)
    for r in basis_hnf:
        pc = next((i for i, a in enumerate(r) if a != 0), None)
        if pc is not None:
            q, rem = divmod(v[pc], r[pc])
            if rem:
                return False
            v = [a - q * b for a, b in zip(v, r)]
    return not any(v)


# ------------------------------------------------------------------- equidist


def _arc_count_chunk(m: int, k: tuple[int, ...], box: ArcBox, lo: int, hi: int) -> int:
    """Count of r in [lo, hi) whose point ((r*k_j mod m)/m turns)_j lies in
    the box, by a walk over every residue in blocks of `_BLOCK`.  Behind a
    sentinel (-1, -1), a residue x = r*(k_j mod m) mod m is in arc j iff x
    is at most the end of the last interval of `members(m)` starting at or
    below it (`np.searchsorted`); r*(k_j mod m) <= m^2 fits int64 for
    m <= ARC_M_CAP.  The residue-walk check of both `arc_count` paths."""
    spans = [np.array([(-1, -1)] + arc.members(m), dtype=np.int64).T for arc in box.arcs]
    count = 0
    for start in range(lo, hi, _BLOCK):
        r = np.arange(start, min(start + _BLOCK, hi), dtype=np.int64)
        inside = np.ones(len(r), dtype=bool)
        for kj, (starts, ends) in zip(k, spans):
            x = r * (kj % m) % m
            inside &= x <= ends[np.searchsorted(starts, x, side="right") - 1]
        count += int(np.count_nonzero(inside))
    return count


# -------------------------------------------------------------------- radical


def per_unit_orbit_values(x: RadicalSum) -> tuple[list[int], np.ndarray]:
    """`_unit_orbit_values` by the per-unit route: for each unit t of Z/D,
    phi_t(x) built as a RadicalSum by `apply_galois((t, 0), x)`, its orbit
    values by `_orbit_values`, one row per unit."""
    ctx = x.context
    units = [t for t in range(1, ctx.D + 1) if gcd(t, ctx.D) == 1]
    r0 = (0,) * ctx.rank
    return units, np.array([_orbit_values(apply_galois(GaloisElement(t, r0), x))
                            for t in units])


def compose(sigma: GaloisElement, tau: GaloisElement, context: RadicalContext) -> GaloisElement:
    """sigma o tau in the semidirect structure: (s, r)(t, q) has cyclotomic
    part s*t and rotations r_l + s*q_l mod (d_l/c_l)."""
    s = context.lift_t(sigma.t)
    t = context.lift_t(tau.t)
    r = tuple(
        (rl + s * ql) % nl
        for rl, ql, nl in zip(sigma.r, tau.r, context.group)
    )
    return GaloisElement((s * t) % context.D_work, r)


# -------------------------------------------------------------------- heights


def gcd_squarefree_part(ints: list) -> list[int]:
    """The primitive f / gcd(f, f') by the gcd over Q alone."""
    g = poly_gcd(ints, poly_deriv(ints))
    return _primitive_int(poly_divmod(ints, g)[0]) if len(g) > 1 else [int(c) for c in ints]


def fraction_power_transform(alpha: AlgebraicNumber, n: int) -> AlgebraicNumber:
    """`power_transform` by Newton's identities over Fraction on the roots
    alpha_i themselves, squarefree part by `gcd_squarefree_part`; the same
    root selection."""
    p = list(alpha.minpoly)
    k = abs(n)
    deg = len(p) - 1
    r = [Fraction(c, p[-1]) for c in reversed(p)]  # r[i]: coefficient of x^(deg-i)
    s = [Fraction(deg)]  # s[j] = sum of alpha_i^j
    for j in range(1, deg * k + 1):
        s.append(-sum(r[i] * s[j - i] for i in range(1, min(j, deg + 1)))
                 - (j * r[j] if j <= deg else 0))
    t = s[::k]  # t[j] = sum of (alpha_i^k)^j
    b = [Fraction(1)]  # b[i]: coefficient of x^(deg-i) in prod (x - alpha_i^k)
    for j in range(1, deg + 1):
        b.append(-(t[j] + sum(b[i] * t[j - i] for i in range(1, j))) / j)
    ints = gcd_squarefree_part(_primitive_int(b[::-1]))
    if n < 0:
        ints = _primitive_int(ints[::-1])
    target = alpha.root() ** n
    rts = poly_roots(ints)
    idx = min(range(len(rts)), key=lambda i: abs(rts[i] - target))
    return AlgebraicNumber(tuple(ints), idx)


def per_step_hensel_lift(f: list[int], df: list[int], r: int, p: int,
                         bound: int) -> tuple[int, int]:
    """`_hensel_lift` with a fresh modular inversion of f'(r) at every
    Newton step, mod the squared modulus."""
    m = p
    while m <= bound:
        m *= m
        r = (r - _horner_mod(f, r, m) * pow(_horner_mod(df, r, m), -1, m)) % m
    return r, m


def radical_minpoly(a, n: int) -> tuple[int, ...]:
    """The cleared-denominator polynomial q*x^n - p for a = p/q."""
    a = as_fraction(a)
    return tuple([-a.numerator] + [0] * (n - 1) + [a.denominator])
