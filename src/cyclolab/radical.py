"""Formal radical sums sum_j a_j * prod_l alpha_l^(k_(j,l)/d_l) with an
explicit Kummer-Galois action, orbit modulus statistics, the cosine
expansion of conjugate moduli, division-point factorization and exponent
relation normalization.

Conventions: generators are positive rationals interpreted through the
positive real branch alpha^(1/d) > 0 of the fixed embedding; the acting
Kummer group H = prod_l Z/(d_l/c_l) rotates the l-th radical by
zeta_(d_l/c_l)^(r_l).  The cyclotomic part phi_t acts through coefficients
only and is enumerated separately (marginal statistics).  It is one
automorphism of Q^ab: the element of Zhat* whose component at a prime p
is u = `lift_t(t)` when p does not divide u, and 1 when it does, read at
each coefficient's own order (`_zhat_unit`), so the image of a
coefficient depends only on its value.

numpy is imported by the orbit and energy functions that use it, never by
a constructor: building a `RadicalContext` or `RadicalSum`, parsing one,
applying a Galois element or factoring out a division point loads none.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import TYPE_CHECKING

from ._arith import as_float, as_fraction, check_cap, euler_phi, positive
from .cyclotomic import CyclotomicNumber, as_cyclotomic, zeta
from .equidist import ArcBox
from .kummer import rank1_failure, multiplicatively_independent
from .lattice import relation_lattice_basis, shortest_relation

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RadicalContext",
    "RadicalSum",
    "GaloisElement",
    "Monomial",
    "apply_galois",
    "orbit_moduli",
    "cosine_expansion",
    "d_gamma_eps",
    "marginal_orbit_stats",
    "sigma_search",
    "normalize_terms",
    "factor_out_division_point",
    "exponent_relation_basis",
    "term_energy_profile",
    "cosine_identity_sides",
    "parse_radical_sum",
]

ORBIT_CAP = 10**6
BAND_SLACK = 1e-12
FOLD_BITS = 4096  # largest whole power `normalize_terms` folds into a coefficient


@dataclass(frozen=True)
class RadicalContext:
    """Generators, radical denominators, cyclotomic order and Kummer failures.

    Failures c_l default to the rank-1 values at cyclotomic level
    lcm(D, d_l); pass `failures` to pin them by hand (useful to explore the
    action when the true failure would collapse it).  The acting group is
    the product of the rank-1 groups; entanglement is not detected: [3, 7],
    [2, 2], D = 21 gets (2, 2) though sqrt(21) in Q(zeta_21) makes the true
    order 2 (`kummer.tower_degrees` refuses that input).
    """

    generators: tuple
    denominators: tuple
    D: int = 1
    failures: tuple | None = None
    # derived, so left out of equality and the repr: the orders d_l/c_l of
    # the cyclic Kummer factors, and lcm(D, group)
    group: tuple = field(init=False, repr=False, compare=False)
    D_work: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = tuple(as_fraction(g) for g in self.generators)
        dens = tuple(positive(d, "denominators") for d in self.denominators)
        if len(gens) != len(dens):
            raise ValueError("one denominator per generator")
        D = positive(self.D, "cyclotomic order")
        if gens and not multiplicatively_independent(gens):
            raise ValueError("generators must be multiplicatively independent")
        if self.failures is None:
            failures = tuple(rank1_failure(g, d, lcm(D, d))[0] for g, d in zip(gens, dens))
        else:
            failures = tuple(positive(c, "failures") for c in self.failures)
            if any(d % c for c, d in zip(failures, dens)):
                raise ValueError("failures must divide the denominators")
        group = tuple(d // c for d, c in zip(dens, failures))
        for name, value in (("generators", gens), ("denominators", dens), ("D", D),
                            ("failures", failures), ("group", group),
                            ("D_work", lcm(D, *group))):
            object.__setattr__(self, name, value)

    @property
    def rank(self) -> int:
        return len(self.generators)

    def orbit_size(self) -> int:
        return math.prod(self.group)

    def radical_value(self, kvec) -> float:
        """prod_l alpha_l^(k_l/d_l) on the positive real branch."""
        acc = 0.0
        for g, d, k in zip(self.generators, self.denominators, kvec):
            acc += k / d * math.log(g)
        return math.exp(acc)

    def kummer_elements(self):
        return itertools.product(*(range(n) for n in self.group))

    def lift_t(self, t: int) -> int:
        """The smallest positive lift of t mod D into (Z/D_work)*; refused
        unless t is a unit mod D."""
        if gcd(t, self.D) != 1:
            raise ValueError("not a Galois element")
        cand = t % self.D or self.D  # 0 only when D = 1
        while gcd(cand, self.D_work) != 1:
            cand += self.D
        return cand


def _zhat_unit(u: int, L: int) -> int:
    """The unit mod L of the element of Zhat* whose component at a prime p
    is u when p does not divide u, and 1 when it does (CRT); its readings
    at L and at any multiple of L agree."""
    rest = L  # L stripped of every prime dividing u
    while (g := gcd(rest, u)) > 1:
        rest //= g
    return (u + rest * ((1 - u) * pow(rest, -1, L // rest) % (L // rest))) % L


@dataclass(frozen=True)
class GaloisElement:
    """(t, r): cyclotomic part zeta -> zeta^t and Kummer rotations r."""

    t: int
    r: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "t", index(self.t))
        object.__setattr__(self, "r", tuple(map(index, self.r)))


@dataclass(frozen=True)
class Monomial:
    """A division point prod_l alpha_l^(e_l) with rational exponents e_l."""

    generators: tuple
    exponents: tuple  # Fractions

    def value(self) -> float:
        acc = 0.0
        for g, e in zip(self.generators, self.exponents):
            acc += float(e) * math.log(g)
        return math.exp(acc)

    def to_text(self) -> str:
        parts = [f"{g}^({e})" for g, e in zip(self.generators, self.exponents) if e]
        return " * ".join(parts) if parts else "1"


class RadicalSum:
    """sum_j a_j * prod_l alpha_l^(k_(j,l)/d_l); terms with equal exponent
    vectors are merged on construction."""

    __slots__ = ("context", "terms")

    def __init__(self, context: RadicalContext, terms):
        merged: dict[tuple, CyclotomicNumber] = {}  # in order of first appearance
        for coeff, kvec in terms:
            coeff = as_cyclotomic(coeff)
            kvec = tuple(map(index, kvec))
            if len(kvec) != context.rank:
                raise ValueError("exponent vector length must equal the rank")
            merged[kvec] = merged[kvec] + coeff if kvec in merged else coeff
        self.context = context
        self.terms = tuple((a, k) for k, a in merged.items())

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def term_values(self) -> np.ndarray:
        """Complex values z_j of the individual terms at the identity."""
        import numpy as np
        return np.array([
            a.embed() * self.context.radical_value(k) for a, k in self.terms
        ])

    def evaluate(self) -> complex:
        """The value at the identity, summed term by term in Python complex
        arithmetic."""
        ctx = self.context
        return sum((a.embed() * ctx.radical_value(k) for a, k in self.terms), 0j)

    def __repr__(self):
        ctx = self.context
        bits = []
        for a, k in self.terms:
            rad = " * ".join(
                f"{g}^({ki}/{d})"
                for g, d, ki in zip(ctx.generators, ctx.denominators, k)
                if ki
            )
            bits.append(f"({a.to_text()})" + (f" * {rad}" if rad else ""))
        return " + ".join(bits) if bits else "0"


# ------------------------------------------------------------ galois action


def _rotation_factor(context: RadicalContext, r, kvec) -> CyclotomicNumber:
    D = context.D_work
    e = 0
    for n_l, r_l, k_l in zip(context.group, r, kvec):
        e += (D // n_l) * (r_l % n_l) * k_l
    return zeta(D, e % D)


def apply_galois(sigma: GaloisElement, x: RadicalSum) -> RadicalSum:
    """sigma x: coefficients pick up phi_t and the root-of-unity factors
    zeta_(d_l/c_l)^(r_l * k_(j,l)); the radical monomials are unchanged."""
    ctx = x.context
    if len(sigma.r) != ctx.rank:
        raise ValueError("rotation vector length must equal the rank")
    t = ctx.lift_t(sigma.t)
    out = []
    for a, k in x.terms:
        out.append((_conjugated(ctx, a, t) * _rotation_factor(ctx, sigma.r, k), k))
    return RadicalSum(ctx, out)


def _conjugated(ctx: RadicalContext, a: CyclotomicNumber, t: int) -> CyclotomicNumber:
    """phi_t of a coefficient, t from `lift_t`: a lifted to Q(zeta_L),
    L = lcm(order, D_work), where its product with a rotation factor lies,
    and conjugated there by `_zhat_unit(t, L)`."""
    L = lcm(a.order, ctx.D_work)
    b = a.lift(L)
    return b.galois_conjugate(_zhat_unit(t, L)) if t != 1 else b


# ------------------------------------------------------------ orbit statistics


def _orbit_values(x: RadicalSum) -> np.ndarray:
    """sigma x for sigma ranging over the Kummer group H (t = 1), as complex
    values, in itertools.product order over the rotation tuples."""
    ctx = x.context
    size = ctx.orbit_size()
    check_cap("the orbit size", size, "orbit cap", ORBIT_CAP)
    import numpy as np
    zs = x.term_values()
    total = np.zeros(size, dtype=complex)
    for j, (_, kvec) in enumerate(x.terms):
        total += zs[j] * _rotation_phases(ctx, kvec)
    return total


def _rotation_phases(ctx: RadicalContext, kvec) -> np.ndarray:
    """The factor prod_l zeta_(n_l)^(r_l k_l) of a term with exponent
    vector kvec, for r over H in itertools.product order."""
    import numpy as np
    phase = np.ones(1, dtype=complex)
    for n_l, k_l in zip(ctx.group, kvec):
        col = np.exp(2j * np.pi * (np.arange(n_l) * k_l % n_l) / n_l)
        phase = np.multiply.outer(phase, col).ravel()
    return phase


def orbit_moduli(x: RadicalSum) -> list[float]:
    """Multiset {|sigma x|^2 : sigma in H}, sorted."""
    import numpy as np
    return sorted(float(v) for v in np.abs(_orbit_values(x)) ** 2)


def _in_band(eps: float):
    """The [1-eps, 1+eps] test of a squared modulus or an array of them,
    built before any orbit value: eps is read by `as_float`, refused below 0."""
    eps = as_float(eps, "eps")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return lambda v: (1 - eps - BAND_SLACK <= v) & (v <= 1 + eps + BAND_SLACK)


def d_gamma_eps(x: RadicalSum, eps: float) -> tuple[Fraction, bool]:
    """Fraction of the Kummer orbit with squared modulus in [1-eps, 1+eps],
    plus a concyclicity flag (all orbit moduli equal within 1e-10)."""
    in_band = _in_band(eps)
    import numpy as np
    vals = np.abs(_orbit_values(x)) ** 2
    count = int(np.count_nonzero(in_band(vals)))
    concyclic = bool(np.max(vals) - np.min(vals) < 1e-10)
    return Fraction(count, len(vals)), concyclic


def cosine_expansion(x: RadicalSum, sigma: GaloisElement) -> float:
    """|sigma x|^2 through term moduli, pairwise angles and rotation
    increments, without applying sigma:

        sum_j |z_j|^2 + sum_(i != j) |z_i||z_j| cos(B_(r,i,j)),
        B_(r,i,j) = angle(z_i -> z_j) + 2 pi sum_l r_l c_l (k_(j,l) - k_(i,l)) / d_l.

    Only the Kummer part of sigma participates (t = 1)."""
    ctx = x.context
    if len(sigma.r) != ctx.rank:
        raise ValueError("rotation vector length must equal the rank")
    if ctx.lift_t(sigma.t) != 1:
        raise ValueError("cosine expansion applies to Kummer elements (t = 1)")
    import numpy as np
    zs = x.term_values()
    mags = np.abs(zs)
    total = float(np.sum(mags**2))
    n = len(zs)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ang = cmath.phase(zs[j]) - cmath.phase(zs[i])
            rot = 0.0
            for r_l, c_l, d_l, (ki, kj) in zip(
                sigma.r, ctx.failures, ctx.denominators,
                zip(x.terms[i][1], x.terms[j][1]),
            ):
                rot += 2 * math.pi * r_l * c_l * (kj - ki) / d_l
            total += mags[i] * mags[j] * math.cos(ang + rot)
    return total


def _unit_orbit_values(x: RadicalSum) -> tuple[list[int], np.ndarray]:
    """The units t of Z/D in ascending order, and row by row the orbit
    values `_orbit_values(apply_galois((t, 0), x))`, bit for bit, built in
    one pass: each term's rotation phases and radical value once, and per
    unit each coefficient conjugated by `_conjugated` at the order of its
    product with the rotation factor, as `apply_galois` does, then summed
    term by term in the same order.  Refused (ValueError) when the units
    times the orbit times the terms exceed `ORBIT_CAP`."""
    import numpy as np
    ctx = x.context
    hsize = ctx.orbit_size()
    check_cap("units * orbit * max(1, terms)", euler_phi(ctx.D) * hsize * max(1, x.n_terms),
              "orbit cap", ORBIT_CAP)
    units = [t for t in range(1, ctx.D + 1) if gcd(t, ctx.D) == 1]
    terms = [(a, ctx.radical_value(k), _rotation_phases(ctx, k)) for a, k in x.terms]
    grid = np.zeros((len(units), hsize), dtype=complex)
    for row, t in zip(grid, map(ctx.lift_t, units)):
        for a, rad, phase in terms:
            row += _conjugated(ctx, a, t).embed() * rad * phase
    return units, grid


def marginal_orbit_stats(x: RadicalSum, eps: float) -> dict:
    """Per-phi band fractions over the Kummer orbit and their exact average.

    For each t in (Z/DZ)*, d(phi_t) is the fraction of the Kummer orbit of
    phi_t(x) inside the band, read from its orbit values (`_unit_orbit_values`)
    like `d_gamma_eps`.  Those membership bits, one per (t, r), also give
    the whole-group fraction, so the average of the rows must equal it
    exactly.
    """
    in_band = _in_band(eps)
    import numpy as np
    units, grid = _unit_orbit_values(x)
    hsize = grid.shape[1]
    bits = in_band(np.abs(grid) ** 2)
    rows = [{"t": t, "fraction": Fraction(int(np.count_nonzero(row)), hsize)}
            for t, row in zip(units, bits)]
    average = sum(row["fraction"] for row in rows) / len(units)
    full_fraction = Fraction(int(np.count_nonzero(bits)), bits.size)
    best = max(rows, key=lambda row: row["fraction"])
    return {
        "rows": rows,
        "max_t": best["t"],
        "max_fraction": best["fraction"],
        "average": average,
        "full_group_fraction": full_fraction,
        "identity_exact": average == full_fraction,
    }


def sigma_search(x: RadicalSum, box: ArcBox, eps: float) -> list[GaloisElement]:
    """All Kummer elements whose rotation tuple lies in the box and whose
    conjugate squared modulus lies in [1-eps, 1+eps].

    The l-th rotation angle of r is r_l / n_l turns, n_l = d_l/c_l: every r
    is tested at once by indexing a mask of `Arc.members(n_l)` with the
    residues r_l, laid out in itertools.product order like the orbit values.
    """
    in_band = _in_band(eps)
    ctx = x.context
    if len(box.arcs) != ctx.rank:
        raise ValueError("box dimension must equal the rank")
    import numpy as np
    ok = in_band(np.abs(_orbit_values(x)) ** 2)
    rot = np.indices(ctx.group, dtype=np.int64).reshape(ctx.rank, ctx.orbit_size())
    for arc, r_l, n_l in zip(box.arcs, rot, ctx.group):
        mask = np.zeros(n_l, dtype=bool)
        for lo, hi in arc.members(n_l):
            mask[lo:hi + 1] = True
        ok &= mask[r_l]
    return [GaloisElement(1, r) for r in itertools.compress(ctx.kummer_elements(), ok)]


# --------------------------------------------------------- term manipulation


def normalize_terms(x: RadicalSum) -> RadicalSum:
    """Fold relative whole powers into the coefficients, merge equal exponent
    vectors and drop zero coefficients; idempotent.

    Coordinate l keeps its common whole power b_l = d_l * floor(min_j k_(j,l)
    / d_l) in the exponents; each term's k_l - b_l = q d_l + r becomes b_l + r
    and its coefficient picks up alpha_l^q.  Two writings of one value then
    share an exponent vector and merge.  A folded power whose size bound
    q * bits(alpha_l), summed over l, passes FOLD_BITS is refused
    (ValueError) before it is built.
    """
    ctx, dens = x.context, x.context.denominators
    base = [d * (min((k[l] for _, k in x.terms), default=0) // d) for l, d in enumerate(dens)]
    folded = []
    for a, k in x.terms:
        qs = [(kl - b) // d for kl, b, d in zip(k, base, dens)]
        bits = sum(q * max(g.numerator.bit_length(), g.denominator.bit_length())
                   for q, g in zip(qs, ctx.generators))
        check_cap("the bits of a folded whole power", bits, "fold cap", FOLD_BITS)
        folded.append((a * math.prod(g ** q for g, q in zip(ctx.generators, qs)),
                       tuple(kl - q * d for kl, q, d in zip(k, qs, dens))))
    return RadicalSum(ctx, [(a, k) for a, k in RadicalSum(ctx, folded).terms
                            if not a.is_zero()])


def factor_out_division_point(x: RadicalSum) -> tuple[RadicalSum, Monomial]:
    """Write x = y * z with z a division point and y having, per coordinate,
    minimum exponent 0 and exponents coprime to the reduced denominator.

    Per coordinate t: subtract the minimum exponent, divide the shifted
    exponents and d_t by their gcd.  The term count is preserved, and
    x = y * z is checked exactly, exponent by exponent: k'/d' + min/d = k/d.
    """
    xn = normalize_terms(x)
    if xn.n_terms == 0:
        raise ValueError("cannot factor the zero sum")
    ctx = xn.context
    b = ctx.rank
    kmat = [list(k) for _, k in xn.terms]
    mins, new_dens, divisors = [], [], []
    for t in range(b):
        col = [row[t] for row in kmat]
        kmin = min(col)
        shifted = [k - kmin for k in col]
        g = gcd(ctx.denominators[t], *shifted)
        mins.append(kmin)
        divisors.append(g)
        new_dens.append(ctx.denominators[t] // g)
    new_ctx = RadicalContext(ctx.generators, new_dens, ctx.D)
    new_terms = [
        (a, tuple((k[t] - mins[t]) // divisors[t] for t in range(b)))
        for a, k in xn.terms
    ]
    y = RadicalSum(new_ctx, new_terms)
    z = Monomial(
        ctx.generators,
        tuple(Fraction(mins[t], ctx.denominators[t]) for t in range(b)),
    )
    if y.n_terms != xn.n_terms:
        raise AssertionError("factorization changed the term count")
    for (_, k), (_, k_y) in zip(xn.terms, y.terms):
        if any(Fraction(k_y[t], new_dens[t]) + z.exponents[t] != Fraction(k[t], ctx.denominators[t])
               for t in range(b)):
            raise AssertionError("division-point factorization changed an exponent")
    return y, z


def exponent_relation_basis(kmatrix, m: int) -> dict:
    """Per-column relation data for exponent columns modulo m.

    For each column l a maximal subset J_l is grown greedily: index j joins
    unless the relation lattice mod m of k_(j,l) and the earlier members of
    J_l has a nonzero vector of max-norm <= threshold, fixed at
    floor(sqrt(m)) (the finite-instance stand-in for "a relation") and
    reported as "threshold".  Otherwise j keeps the least max-norm one,
    found by `lattice.shortest_relation`:
    lambda * k_(j,l) + sum_mu lambda_mu k_(mu,l) = 0 (mod m) within the
    threshold, lambda != 0 since J_l alone has no such relation; a member
    of J_l gets (1, {j: -1}).  The combined data theta, Lambda, K satisfies
    theta * k_(j,l) = K_(j,l) (mod m).
    """
    kmatrix = [list(map(index, row)) for row in kmatrix]
    m = positive(m, "modulus")
    threshold = math.isqrt(m)
    nrows = len(kmatrix)
    ncols = len(kmatrix[0]) if nrows else 0
    columns = []
    all_lambdas = []
    for l in range(ncols):
        col = [kmatrix[j][l] for j in range(nrows)]
        J: list[int] = []
        per_j = []
        for j in range(nrows):
            entries = [col[mu] for mu in J] + [col[j]]
            rel = shortest_relation(relation_lattice_basis([(m, entries)]))
            if rel is not None and max(map(abs, rel)) <= threshold:
                lam, lam_mu = rel[-1], dict(zip(J, rel))
            else:
                J.append(j)
                lam, lam_mu = 1, {j: -1}
            per_j.append({"j": j, "lam": lam, "lam_mu": lam_mu})
            all_lambdas.append(abs(lam))
        columns.append({"column": l, "J": J, "relations": per_j})
    theta = math.prod(all_lambdas)
    Lambda = []  # Lambda[j][l] = dict mu -> -theta * lam_mu / lam
    K = [[0] * ncols for _ in range(nrows)]
    for j in range(nrows):
        Lrow = []
        for l in range(ncols):
            rel = columns[l]["relations"][j]
            lam, lam_mu = rel["lam"], rel["lam_mu"]
            lam_big = {mu: -theta * v // lam for mu, v in lam_mu.items()}
            Lrow.append(lam_big)
            K[j][l] = sum(lam_big[mu] * kmatrix[mu][l] for mu in lam_big)
        Lambda.append(Lrow)
    for j in range(nrows):
        for l in range(ncols):
            if (theta * kmatrix[j][l] - K[j][l]) % m:
                raise AssertionError("relation normalization failed")
    return {
        "m": m,
        "threshold": threshold,
        "columns": columns,
        "theta": theta,
        "Lambda": Lambda,
        "K": K,
    }


# ----------------------------------------------------------- energy profile


def cosine_identity_sides(xs, eta) -> tuple[float, float]:
    """Both sides of the cross-term rearrangement identity

        sum x_j^2 + eta sum_(i!=j) x_i x_j
          = -eta/2 sum_(i!=j) (x_i - x_j)^2 + (1 + eta(n-1)) sum x_j^2,

    each evaluated from numpy outer products of xs."""
    eta = as_float(eta, "eta")
    import numpy as np
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    sq = float(np.sum(xs**2))
    cross = float(np.sum(np.outer(xs, xs))) - sq
    lhs = sq + eta * cross
    diffs = np.subtract.outer(xs, xs) ** 2
    rhs = -eta / 2 * float(diffs.sum()) + (1 + eta * (n - 1)) * sq
    return lhs, rhs


def term_energy_profile(x: RadicalSum, eps: float) -> dict:
    """Term energies |z_j|^2, their total, the band fraction, and the
    rearrangement identity at eta = +-sin(gamma * eps) with
    gamma = max(1, n_terms), reported as "gamma"."""
    import numpy as np
    zs = x.term_values()
    energies = [float(abs(z)) ** 2 for z in zs]
    frac, concyclic = d_gamma_eps(x, eps)
    gamma = float(max(1, x.n_terms))
    mags = np.abs(zs)
    checks = {}
    for label, eta in (("eta_plus", math.sin(gamma * eps)),
                       ("eta_minus", -math.sin(gamma * eps))):
        lhs, rhs = cosine_identity_sides(mags, eta)
        checks[label] = {"eta": eta, "lhs": lhs, "rhs": rhs, "diff": abs(lhs - rhs)}
    return {
        "energies": energies,
        "total_energy": float(sum(energies)),
        "band_fraction": frac,
        "concyclic": concyclic,
        "gamma": gamma,
        "identity_checks": checks,
    }


# ------------------------------------------------------------------ parsing


def parse_radical_sum(text: str, D: int | None = None, failures=None) -> RadicalSum:
    """Parse "(1/2) * z8^1 * 2^(3/6) + ..." into a RadicalSum.

    Factors: a rational (optionally parenthesized), zN^k for a root of
    unity, or base^(p/q) for a radical of a positive rational base.  The
    context is inferred: generators in order of first appearance, each
    denominator the lcm of the exponent denominators seen for that base.
    """
    D = positive(1 if D is None else D, "cyclotomic order")
    # terms split at each + or - at parenthesis depth 0 that does not follow
    # ^; a - stays with the term it starts, and a sign cannot follow *
    raw_terms, start, depth, prev = [], 0, 0, ""
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch in "+-" and depth == 0 and prev != "^":
            if prev == "*":
                raise ValueError(f'a sign follows "*" in {text!r}: write a signed factor'
                                 ' in parentheses, such as "(-3)"')
            raw_terms.append(text[start:i])
            start = i + (ch == "+")
        if not ch.isspace():
            prev = ch
    raw_terms = [t.strip() for t in raw_terms + [text[start:]] if t.strip()]
    parsed = []
    dens: dict[Fraction, int] = {}  # generators in order of first appearance
    for term in raw_terms:
        coeff_rat = Fraction(-1 if term.startswith("-") else 1)
        zfactors: list[tuple[int, int]] = []
        radicals: list[tuple[Fraction, Fraction]] = []
        for factor in (f.strip() for f in term.removeprefix("-").split("*")):
            if not factor:
                raise ValueError(f"empty factor in the term {term!r}")
            if factor.startswith("(") and factor.endswith(")") and "^" not in factor:
                factor = factor[1:-1].strip()
            try:
                if factor.startswith("z"):
                    o_s, caret, k_s = factor[1:].partition("^")
                    zfactors.append((int(o_s), int(k_s) if caret else 1))
                elif "^(" in factor and factor.endswith(")"):
                    base_s, _, exp_s = factor.partition("^(")
                    base = Fraction(base_s.strip().strip("()"))
                    # keep the written denominator: 3/6 means k=3 over d=6
                    p_s, slash, q_s = exp_s[:-1].partition("/")
                    p, q = int(p_s), (positive(int(q_s), "radical denominators") if slash else 1)
                    if base <= 0:
                        raise ValueError("radical bases must be positive rationals")
                    radicals.append((base, (p, q)))
                else:
                    coeff_rat *= Fraction(factor)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"cannot read the factor {factor!r}: {exc}") from None
        for base, (_, q) in radicals:
            dens[base] = lcm(dens.get(base, 1), q)
        parsed.append((coeff_rat, zfactors, radicals))
    Dw = lcm(D, *(o for _, zf, _ in parsed for o, _ in zf))
    gens = list(dens)
    context = RadicalContext(gens, list(dens.values()), Dw, failures=failures)
    terms = []
    for coeff_rat, zfactors, radicals in parsed:
        coeff = CyclotomicNumber.from_rational(coeff_rat, 1)
        for o, k in zfactors:
            coeff = coeff * zeta(o, k)
        kvec = [0] * len(gens)
        for base, (p, q) in radicals:
            idx = gens.index(base)
            kvec[idx] += p * (dens[base] // q)
        terms.append((coeff, tuple(kvec)))
    return RadicalSum(context, terms)
