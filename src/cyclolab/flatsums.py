"""Sparse exponential sums on roots of unity: exact flatness via grouped
autocorrelation, admissibility checks, the Dirichlet exponent reduction,
numeric coefficient search and small-N membership surveys.

A sum f(z) = sum_j a_j z^(b_j) is "flat at level mu" on mu_d when
|f(zeta)|^2 = mu for every d-th root of unity zeta.  With mu = 1 this is
unimodularity; keeping mu rational lets quadratic-phase (chirp) sums, whose
squared modulus is d, be certified without irrational scaling.

The exact paths (flatness, admissibility, reduction, the N <= 2 survey) run
in integers and cyclotomic numbers; numpy is imported only by the numeric
ones (`is_flat` on a numeric sum, `flat_search`, `exponent_bound_scan` and
the N = 3 survey probes).  Exact flatness convolves the coefficients'
integer numerators in the group ring Z[C_L], L the lcm of their orders,
and builds one cyclotomic number per autocorrelation residue (see
`grouped_autocorrelation`).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import index
from typing import TYPE_CHECKING, Sequence

from ._arith import (
    as_complex, as_float, as_fraction, check_cap, positive, prime_root_of_unity)
from .cyclotomic import CyclotomicNumber, _convolve, _reduced, as_cyclotomic, zeta

if TYPE_CHECKING:
    import numpy as np  # bound at run time only by `flat_search`, for `_penalty` and `_gradient`

__all__ = [
    "SparseExpSum",
    "exact_sum",
    "numeric_sum",
    "chirp",
    "ValidityReport",
    "validate_definition",
    "AutocorrelationProfile",
    "grouped_autocorrelation",
    "FlatReport",
    "is_flat",
    "exponent_bound_scan",
    "dirichlet_approx",
    "ReductionCertificate",
    "reduce_instance",
    "flat_search",
    "sn_upper_bound",
    "sn_survey",
    "known_member_witness",
]

FLAT_TOL = 1e-9  # numeric flatness tolerance of `is_flat`
SEARCH_MAX_ITERS = 3000  # descent steps per `flat_search` restart
BARRIER_RADIUS = 0.05  # coefficients below this modulus are penalised
BARRIER_WEIGHT = 10.0
UNIT_MATRIX_CAP = 10**6  # largest d * N of `_unit_matrix` (16 MB of complex doubles)
# largest restarts * SEARCH_MAX_ITERS * d * N of one `flat_search`, and of the
# probes of one N = 3 `sn_survey` summed; a search at the cap took at most
# 1.0 s (at d * N = 1) on a 2-CPU x86-64 VM
SEARCH_WORK_CAP = 2 * 10**6
SURVEY_ROW_CAP = 10**4  # largest d_max of `sn_survey`
SUBSET_CAP = 20  # largest N of `validate_definition`'s subset check


@dataclass(frozen=True)
class SparseExpSum:
    """f(z) = sum_j a_j z^(b_j) with a squared-modulus target mu on mu_d.

    Exactly one of two modes: exact (cyclotomic coefficients) or numeric
    (complex coefficients and a real mu, read by `as_complex` and
    `as_float`: text raises TypeError, NaN or an infinity ValueError).
    Exponents are pairwise distinct integers.
    """

    d: int
    terms: tuple
    mu: object = Fraction(1)
    mode: str = field(default="exact")

    def __post_init__(self):
        object.__setattr__(self, "d", positive(self.d, "d"))
        bs = [b for b, _ in self.terms]
        if len(set(bs)) != len(bs):
            raise ValueError("exponents must be pairwise distinct")
        if self.mode not in ("exact", "numeric"):
            raise ValueError("mode must be 'exact' or 'numeric'")
        exact = self.mode == "exact"
        object.__setattr__(self, "terms", tuple(
            (index(b), as_cyclotomic(a) if exact else as_complex(a, "a coefficient"))
            for b, a in self.terms))
        object.__setattr__(self, "mu", as_fraction(self.mu) if exact else as_float(self.mu, "mu"))
        if exact and self.mu <= 0:
            raise ValueError("mu must be positive")

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(b for b, _ in self.terms)

    @property
    def n_terms(self) -> int:
        return len(self.terms)


def exact_sum(d: int, terms, mu=Fraction(1)) -> SparseExpSum:
    return SparseExpSum(d, tuple(terms), mu, mode="exact")


def numeric_sum(d: int, terms, mu=1.0) -> SparseExpSum:
    return SparseExpSum(d, tuple(terms), mu, mode="numeric")


def chirp(d: int) -> SparseExpSum:
    """Quadratic-phase sum sum_j zeta_d^(j^2) z^j with target mu = d.

    Flat for odd d: the grouped autocorrelation telescopes to a geometric
    sum that vanishes off 0.
    """
    return exact_sum(d, [(j, zeta(d, (j * j) % d)) for j in range(d)], d)


# --------------------------------------------------------------- validity


@dataclass(frozen=True)
class ValidityReport:
    has_zero_exponent: bool
    gcd_one: bool
    subset_sums_nonzero: bool
    failing_subset: tuple[int, ...] | None = None

    @property
    def all_ok(self) -> bool:
        return self.has_zero_exponent and self.gcd_one and self.subset_sums_nonzero


def validate_definition(f: SparseExpSum) -> ValidityReport:
    """Check the three admissibility conditions on an exact sum.

    (i) some exponent is 0, (ii) gcd(b_1, ..., b_N, d) = 1, (iii) every
    nonempty subset of coefficients has nonzero sum (exact).  N is capped
    at 20.

    zeta_L -> w (L the lcm of the coefficient orders, p = 1 mod L a prime
    above 2^61 dividing no coefficient denominator) maps every coefficient
    into F_p, each read from its sparse normal form by
    `CyclotomicNumber.residue`, so a subset with a nonzero residue cannot
    sum to 0; only residue-0 subsets get the exact check, in ascending mask
    order.  They are found by meeting in the middle: the 2^ceil(N/2)
    residues of the low half's subsets are filed by value, and each
    high-half subset, in ascending order, looks up the low masks that
    cancel it.  Ascending (high, low) is ascending mask order, so the first
    exact zero found is the one a scan of all 2^N masks finds first.
    """
    if f.mode != "exact":
        raise ValueError("validation requires exact coefficients")
    check_cap("N", f.n_terms, "subset cap", SUBSET_CAP)
    bs = f.exponents
    has_zero = 0 in bs
    gcd_one = gcd(f.d, *bs) == 1
    coeffs = [a for _, a in f.terms]
    n = len(coeffs)
    L = math.lcm(*(a.order for a in coeffs))
    p = 1 << 61
    while True:
        p, w = prime_root_of_unity(L, p)
        res = [a.residue(p, pow(w, L // a.order, p)) for a in coeffs]
        if None not in res:
            break

    def subset_residues(values):  # entry `mask` is the residue of that subset
        sums = [0]
        for v in values:
            sums += [(s + v) % p for s in sums]
        return sums

    h = (n + 1) // 2
    low: dict[int, list[int]] = {}
    for lo, s in enumerate(subset_residues(res[:h])):
        low.setdefault(s, []).append(lo)
    zero_masks = (hi << h | lo for hi, s in enumerate(subset_residues(res[h:]))
                  for lo in low.get(-s % p, ()))
    failing = None
    for mask in itertools.islice(zero_masks, 1, None):  # the first is the empty set
        subset = tuple(i for i in range(n) if mask >> i & 1)
        if sum((coeffs[i] for i in subset), CyclotomicNumber.zero(1)).is_zero():
            failing = subset
            break
    return ValidityReport(has_zero, gcd_one, failing is None, failing)


# ------------------------------------------------------- autocorrelation


@dataclass(frozen=True)
class AutocorrelationProfile:
    """A(rho) = sum over ordered pairs (i, j) with b_i - b_j = rho (mod d)
    of a_i * conj(a_j).  By the finite geometric-sum identity,
    |f(zeta_d^l)|^2 = sum_rho A(rho) zeta_d^(l*rho) for every l, so f is
    flat at level mu iff A is the delta mu * 1_{rho = 0}."""

    d: int
    values: dict
    mode: str


def grouped_autocorrelation(f: SparseExpSum) -> AutocorrelationProfile:
    """The profile A of f, keyed by rho in the order the ordered pairs
    (i, j), i outer and j inner, first reach it.

    An exact sum is computed in the integer group ring Z[C_L], L the lcm
    of the coefficient orders, with M the lcm of their denominators: each
    a_j = n_j / den_j is lifted once to exponents at order L and numerators
    over M, conj(a_j) negates its exponents mod L, and every pair adds its
    integer convolution into its A(rho), a vector over M^2.  Each A(rho)
    then becomes one CyclotomicNumber in normal form, of order
    lcm(ord a_i, ord a_j) over the pairs that reach rho, its exponents
    stepped down by L over that order.  That is the order, the
    representative and the value that summing the products
    a_i * conj(a_j) as cyclotomic numbers gives.  A numeric sum is summed
    pair by pair in complex doubles."""
    d = f.d
    if f.mode == "numeric":
        vals: dict = {}
        conj = [(bj, aj.conjugate()) for bj, aj in f.terms]
        for bi, ai in f.terms:
            for bj, cj in conj:
                rho = (bi - bj) % d
                vals[rho] = vals.get(rho, 0j) + ai * cj
        return AutocorrelationProfile(d, vals, f.mode)
    L = math.lcm(*(a.order for _, a in f.terms))
    M = math.lcm(*(a._den for _, a in f.terms))
    lifted = []
    for b, a in f.terms:
        step, scale = L // a.order, M // a._den
        lifted.append((b, a.order, {j * step: n * scale for j, n in a._num.items()}))
    conj = [(b, o, {-j % L: n for j, n in x.items()}) for b, o, x in lifted]
    acc: dict = {}  # rho -> [order, integer vector]
    pair_orders: dict = {}  # ord a_i -> [lcm(ord a_i, ord a_j) for each j]
    for bi, oi, xi in lifted:
        if oi not in pair_orders:
            pair_orders[oi] = [math.lcm(oi, oj) for _, oj, _ in conj]
        for (bj, _, yj), o in zip(conj, pair_orders[oi]):
            rho = (bi - bj) % d
            entry = acc.get(rho)
            if entry is None:
                entry = acc[rho] = [o, {}]
            elif entry[0] % o:
                entry[0] = math.lcm(entry[0], o)
            _convolve(xi, yj, L, entry[1])
    vals = {}
    for rho, (order, out) in acc.items():
        step = L // order
        vals[rho] = _reduced(order, {k // step: n for k, n in out.items() if n}, M * M)
    return AutocorrelationProfile(d, vals, f.mode)


@dataclass(frozen=True)
class FlatReport:
    flat: bool
    witness: object  # failing residue rho (exact) or worst l (numeric)
    max_deviation: float | None
    mode: str


def is_flat(f: SparseExpSum) -> FlatReport:
    """Decide |f|^2 = mu on mu_d.

    Exact mode is a yes/no decision through the autocorrelation profile;
    numeric mode evaluates |f(zeta_d^l)|^2 at every l and reports the max
    deviation against `FLAT_TOL`.
    """
    if f.mode == "exact":
        prof = grouped_autocorrelation(f)
        # off-peak failures first: they witness structural infeasibility
        for rho in sorted(prof.values):
            if rho == 0:
                continue
            if not prof.values[rho].is_zero():
                return FlatReport(False, rho, None, "exact")
        a0 = prof.values.get(0, CyclotomicNumber.zero(1))
        if not (a0 == f.mu):
            return FlatReport(False, 0, None, "exact")
        return FlatReport(True, None, None, "exact")
    import numpy as np
    vals = _unit_matrix(f.exponents, f.d) @ np.array([a for _, a in f.terms])
    dev = np.abs(np.abs(vals) ** 2 - f.mu)
    worst = int(np.argmax(dev))
    return FlatReport(bool(dev[worst] <= FLAT_TOL), worst, float(dev[worst]), "numeric")


# ------------------------------------------------ short-exponent bound scan


def exponent_bound_scan(M: int, d: int, trials: int, seed: int) -> dict:
    """Randomized counterexample search for the short-exponent bound.

    A flat M-term sum on mu_d with d >= M^2 must use some exponent of
    absolute value >= d/4.  The scan samples nonzero coefficients and
    distinct exponents with max |c| < d/4, then checks through the
    autocorrelation profile that the sum is not flat.  No counterexample is
    expected to exist.
    """
    trials = positive(trials, "trials")
    if M < 2:
        raise ValueError("need at least two terms")
    if d < M * M:
        raise ValueError("hypothesis violated: need d >= M^2")
    bound = (d - 1) // 4  # largest |c| with 4|c| < d
    if 2 * bound + 1 < M:
        # no admissible exponent set exists (e.g. M = 2, d = 4): the claim
        # holds vacuously
        return {
            "M": M,
            "d": d,
            "trials": 0,
            "counterexamples": [],
            "min_deviation": None,
            "vacuous": True,
        }
    import numpy as np

    def run_trial(t: int) -> tuple[float, dict | None]:
        rng = np.random.default_rng([seed, t])
        c = rng.choice(np.arange(-bound, bound + 1), size=M, replace=False)
        while True:
            u = rng.standard_normal(M) + 1j * rng.standard_normal(M)
            if np.min(np.abs(u)) > 0.1:
                break
        u = u / math.sqrt(float(np.sum(np.abs(u) ** 2)))  # A(0) = 1
        f = numeric_sum(d, list(zip(c.tolist(), u.tolist())), 1.0)
        prof = grouped_autocorrelation(f)
        offpeak = max(abs(v) for rho, v in prof.values.items() if rho != 0)
        dev = max(offpeak, abs(prof.values.get(0, 0) - 1.0))
        if dev < 1e-9:
            return dev, {"exponents": c.tolist(), "coefficients": u.tolist()}
        return dev, None

    results = [run_trial(t) for t in range(trials)]
    counterexamples = [r[1] for r in results if r[1] is not None]
    return {
        "M": M,
        "d": d,
        "trials": trials,
        "counterexamples": counterexamples,
        "min_deviation": min(r[0] for r in results) if results else None,
        "vacuous": False,
    }


# ------------------------------------------------------ Dirichlet reduction


def _nearest_int_half_to_zero(num: int, den: int) -> int:
    """Nearest integer to num/den, exact halves rounded toward zero."""
    q, r = divmod(num, den)
    if 2 * r < den:
        return q
    if 2 * r > den:
        return q + 1
    return q if q >= 0 else q + 1


def dirichlet_approx(b: Sequence[int], d: int) -> tuple[int, tuple[int, ...]]:
    """Smallest q >= 1 with |q*b_j/d - p_j| < 1/4 for all j.

    q = d always works (error 0), so the search ends by d; the
    simultaneous-approximation pigeonhole also puts q <= 4^len(b).  The
    b_j are integers (`operator.index`).
    """
    b = list(map(index, b))
    d = positive(d, "d")
    for q in range(1, d + 1):
        ps = []
        for bj in b:
            p = _nearest_int_half_to_zero(q * bj, d)
            if 4 * abs(q * bj - p * d) >= d:
                break
            ps.append(p)
        else:
            return q, tuple(ps)


class InternalInconsistencyError(AssertionError):
    """A certified reduction postcondition failed: implementation bug."""


@dataclass(frozen=True)
class ReductionCertificate:
    input_exponents: tuple[int, ...]
    input_d: int
    q: int
    q_prime: int
    e: int
    d_prime: int
    p: tuple[int, ...]
    c: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    reduced: SparseExpSum


def reduce_instance(f: SparseExpSum) -> ReductionCertificate:
    """Collapse a flat sum on mu_d to a flat sum on mu_(d/e) with short
    exponents, certifying every step.

    Approximate q*b_j/d by integers p_j (q minimal, error < 1/4), put
    e = gcd(q, d), q' = q/e, d' = d/e and c_j = q'*b_j - d'*p_j; grouping
    equal c values and summing their coefficients gives g with
    g(zeta_d'^l) = f(zeta_d^(q l)).  The certificate checks c_1 = 0,
    gcd(c_1, ..., c_M, d') = 1, max |c_k| < d'/4, flatness of g and that
    all nonempty subset sums of the grouped coefficients are nonzero;
    all of these are provable for admissible flat inputs, so a failure
    signals a bug rather than a bad input.
    """
    if f.mode != "exact":
        raise ValueError("reduction requires exact coefficients")
    validity = validate_definition(f)
    if not validity.all_ok:
        raise ValueError(f"input fails admissibility: {validity}")
    rep = is_flat(f)
    if not rep.flat:
        raise ValueError("input is not flat")
    b = list(f.exponents)
    N = len(b)
    q, p = dirichlet_approx(b, f.d)
    e = gcd(q, f.d)
    q_prime, d_prime = q // e, f.d // e
    cvals = [q_prime * bj - d_prime * pj for bj, pj in zip(b, p)]
    # group equal c values; the group of the zero exponent comes first
    by_c: dict[int, list[int]] = {}
    for j in sorted(range(N), key=lambda j: b[j] != 0):
        by_c.setdefault(cvals[j], []).append(j)
    c_list, groups = list(by_c), list(by_c.values())
    u = [sum((f.terms[j][1] for j in grp), CyclotomicNumber.zero(1)) for grp in groups]
    g = exact_sum(d_prime, list(zip(c_list, u)), f.mu)

    # certified postconditions
    if gcd(q_prime, d_prime) != 1:
        raise InternalInconsistencyError("q' and d' are not coprime")
    if c_list[0] != 0:
        raise InternalInconsistencyError("leading reduced exponent is not 0")
    g_validity = validate_definition(g)  # M <= N <= 20: f passed it
    if not g_validity.gcd_one:
        raise InternalInconsistencyError("reduced exponents share a factor with d'")
    if any(4 * abs(ck) >= d_prime for ck in c_list):
        raise InternalInconsistencyError("reduced exponent too large")
    if not is_flat(g).flat:
        raise InternalInconsistencyError("reduced sum is not flat")
    if not g_validity.subset_sums_nonzero:
        raise InternalInconsistencyError("a grouped subset sum vanished")
    return ReductionCertificate(
        tuple(b), f.d, q, q_prime, e, d_prime, tuple(p), tuple(c_list),
        tuple(tuple(grp) for grp in groups), g,
    )


# ------------------------------------------------------------- numeric search


def _unit_matrix(b: Sequence[int], d: int) -> np.ndarray:
    """V[l, j] = zeta_d^(l * b_j) as complex doubles: f(zeta_d^l) = (V @ a)[l].
    Refuses d * N above `UNIT_MATRIX_CAP` before it allocates anything."""
    check_cap("d * N", d * len(b), "unit matrix cap", UNIT_MATRIX_CAP)
    import numpy as np
    return np.exp(2j * np.pi * np.outer(np.arange(d), np.array(b)) / d)


def _penalty(a: np.ndarray, V: np.ndarray, mu: float):
    """Penalty objective F and barrier B at `a`, with the arrays that
    `_gradient` reuses.

    F(a) = sum_l (|f_l|^2 - mu)^2; the barrier pushes coefficients away
    from 0 so the search looks for witnesses with genuinely nonzero terms
    (a sum with a dropped term answers a different membership question).
    `np` is the module global that the calling search binds, so this inner
    loop runs no import statement.
    """
    fvals = V @ a
    err = np.abs(fvals) ** 2 - mu
    F = float(err @ err)
    mags = np.abs(a)
    t = BARRIER_RADIUS - mags
    active = t > 0
    B = BARRIER_WEIGHT * float(np.sum(t[active] ** 2))
    return F, B, (fvals, err, mags, t, active)


def _gradient(a: np.ndarray, VH: np.ndarray, state) -> np.ndarray:
    """Wirtinger gradient d/d(conj a) of F + B from the `state` that
    `_penalty(a, ...)` returned; `VH` is `V.conj().T`, computed once by the
    caller; like `_penalty`, it reads the module global `np`."""
    fvals, err, mags, t, active = state
    g = 2.0 * (VH @ (err * fvals))
    if np.any(active):
        safe = np.where(mags > 1e-300, mags, 1.0)
        g = g + np.where(active, -BARRIER_WEIGHT * t * a / safe, 0.0)
    return g


def flat_search(b: Sequence[int], d: int, mu: float = 1.0, restarts: int = 20,
                seed: int = 0) -> dict:
    """Gradient-descent search for complex coefficients making the sum flat.

    Full-batch descent with an adaptive step (double on success, halve on
    failure) and random restarts; deterministic for a fixed seed.  Like a
    backtracking line search, a rejected candidate needs only the objective,
    so the gradient is computed at each restart's starting point and at
    accepted points only.  The reported residual is the pure flatness
    penalty at the best point found; a restart whose penalty overflows (a
    huge mu) stops at its start, and when all do, the first one's point is
    reported, with residual inf, which no record can hold.
    Verdicts: residual < 1e-16 "numeric_member", a finite residual > 1e-6
    after all restarts "numeric_infeasible", otherwise "unresolved".  b is
    read by `operator.index` and mu by `as_float`; restarts below 1 and,
    before any work, d * N past `UNIT_MATRIX_CAP` or restarts *
    SEARCH_MAX_ITERS * d * N past `SEARCH_WORK_CAP` raise ValueError.
    """
    global np  # read by `_penalty` and `_gradient`
    b = list(map(index, b))
    if len(set(b)) != len(b):
        raise ValueError("exponents must be pairwise distinct")
    d = positive(d, "d")
    mu = as_float(mu, "mu")
    restarts = positive(restarts, "restarts")
    N = len(b)
    check_cap("d * N", d * N, "unit matrix cap", UNIT_MATRIX_CAP)
    check_cap("restarts * SEARCH_MAX_ITERS * d * N", restarts * SEARCH_MAX_ITERS * d * N,
              "search work cap", SEARCH_WORK_CAP)
    import numpy as np
    V = _unit_matrix(b, d)
    VH = V.conj().T
    best_total, best_a, best_F = math.inf, None, math.inf
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf penalty ends its restart
        for _ in range(restarts):
            a = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / math.sqrt(2.0)
            F, B, state = _penalty(a, V, mu)
            g = _gradient(a, VH, state)
            total = F + B
            step = 0.1
            for _ in range(SEARCH_MAX_ITERS):
                if total < 1e-26 or step < 1e-18 or total == math.inf:
                    break
                cand = a - step * g
                Fc, Bc, state = _penalty(cand, V, mu)
                if Fc + Bc < total:
                    a, F, B, total = cand, Fc, Bc, Fc + Bc
                    g = _gradient(a, VH, state)
                    step *= 2.0
                else:
                    step *= 0.5
            if best_a is None or total < best_total:  # an overflowed total stays inf
                best_total, best_a, best_F = total, a.copy(), F
    if best_F < 1e-16:
        verdict = "numeric_member"
    elif 1e-6 < best_F < math.inf:
        verdict = "numeric_infeasible"
    else:
        verdict = "unresolved"
    return {
        "exponents": list(b),
        "d": d,
        "mu": mu,
        "coefficients": best_a.tolist(),
        "residual": best_F,
        "verdict": verdict,
    }


# -------------------------------------------------------------- membership


def sn_upper_bound(N: int) -> int:
    """Upper bound for the admissible-flat-sum orders with N terms.

    4^N (N^2 - 1) for N >= 2; for N = 1 the set is exactly {1}.
    """
    N = positive(N, "N")
    if N == 1:
        return 1
    return 4**N * (N * N - 1)


def known_member_witness(N: int, d: int) -> SparseExpSum | None:
    """An exact flat admissible witness with N terms on mu_d, if we know one.

    d = 1 works for every N; d = 2 works for every N >= 2 via the
    unimodular pair (1/sqrt2, i/sqrt2), splitting a coefficient across
    exponents congruent mod 2 when N > 2.
    """
    N, d = positive(N, "N"), positive(d, "d")
    half_sqrt2 = (zeta(8) + zeta(8, 7)) * Fraction(1, 2)       # 1/sqrt(2)
    half_isqrt2 = (zeta(8) + zeta(8, 3)) * Fraction(1, 2)      # i/sqrt(2)
    if N == 1:
        if d == 1:
            return exact_sum(1, [(0, 1)])
        return None
    if d == 1:
        # coefficients 1/2, 1/4, ..., 1/2^(N-1), 1/2^(N-1): all subset sums
        # nonzero (binary expansions), total 1
        coeffs = [Fraction(1, 2**j) for j in range(1, N)] + [Fraction(1, 2 ** (N - 1))]
        return exact_sum(1, list(zip(range(N), coeffs)))
    if d == 2:
        if N == 2:
            return exact_sum(2, [(0, half_sqrt2), (1, half_isqrt2)])
        # split the exponent-0 coefficient over 0, 2, 4, ... (all even)
        parts = [Fraction(1, 2**j) for j in range(1, N - 1)]
        parts.append(Fraction(1, 2 ** (N - 2)))
        terms = [(1, half_isqrt2)]
        terms += [(2 * i, half_sqrt2 * w) for i, w in enumerate(parts)]
        return exact_sum(2, terms)
    return None


def _n3_patterns(d: int) -> list[tuple[int, int, int]]:
    """The exponent patterns (0, b2, b3) an N = 3 survey probes at order d:
    residues by |r|, pairs in index order, kept when gcd(b2, b3, d) = 1."""
    reps = sorted(range(-(d // 2) + (0 if d % 2 else 1), d // 2 + 1), key=abs)
    nonzero = [r for r in reps if r % d != 0]
    return [(0, b2, b3) for b2, b3 in itertools.combinations(nonzero, 2)
            if gcd(b2, b3, d) == 1]


def _survey_one_d(N: int, d: int, restarts: int, seed: int) -> dict:
    witness = known_member_witness(N, d)
    if witness is not None:
        rep = is_flat(witness)
        validity = validate_definition(witness)
        if not (rep.flat and validity.all_ok):
            raise InternalInconsistencyError("stored witness failed verification")
        return {
            "d": d,
            "status": "member",
            "evidence": {
                "witness_exponents": list(witness.exponents),
                "witness_coefficients": [a.to_text() for _, a in witness.terms],
                "mu": str(witness.mu),
                "verified_exact": True,
            },
        }
    if N == 1:
        return {
            "d": d,
            "status": "excluded",
            "evidence": {"reason": "gcd(0, d) = d > 1: no admissible exponent set"},
        }
    if d > sn_upper_bound(N):
        return {
            "d": d,
            "status": "excluded",
            "evidence": {"reason": "above_upper_bound", "bound": sn_upper_bound(N)},
        }
    if N == 2:
        # flatness forces A(b) = 0; with both coefficients nonzero that
        # needs 2b = 0 (mod d), and gcd(b, d) = 1 then forces d | 2
        feasible_b = [
            b for b in range(1, d) if gcd(b, d) == 1 and (2 * b) % d == 0
        ]
        if feasible_b:
            raise InternalInconsistencyError("unexpected feasible two-term residue")
        return {
            "d": d,
            "status": "excluded",
            "evidence": {
                "reason": "autocorrelation_infeasible",
                "detail": "every admissible exponent pair forces a1*conj(a2) = 0",
            },
        }
    # N == 3: numeric probes over exponent patterns modulo d
    import numpy as np
    probes = []
    for idx, pat in enumerate(_n3_patterns(d)):
        res = flat_search(list(pat), d, 1.0, restarts=restarts,
                          seed=[seed, d, idx])
        coeffs = np.array(res["coefficients"])
        min_subset = min(
            abs(sum(coeffs[i] for i in range(3) if mask >> i & 1))
            for mask in range(1, 8)
        )
        probes.append({
            "exponents": list(pat),
            "residual": res["residual"],
            "search_verdict": res["verdict"],
            "min_subset_sum": float(min_subset),
        })
    return {"d": d, "status": "unresolved", "evidence": {"patterns": probes}}


def sn_survey(N: int, d_max: int, restarts: int = 8, seed: int = 0) -> list[dict]:
    """Membership survey for orders d <= d_max of N-term admissible flat sums.

    Combines exact certificates (stored witnesses, re-verified), exact
    exclusion (no admissible patterns for N = 1, residue-class
    infeasibility for N = 2), the 4^N (N^2 - 1) upper bound, and numeric
    probes (N = 3, reported as unresolved evidence).  restarts must be at
    least 1, as for `flat_search`, even where no probe runs.  Before any
    row, d_max is held to `SURVEY_ROW_CAP` and, at N = 3, the probes'
    summed restarts * SEARCH_MAX_ITERS * d * N to `SEARCH_WORK_CAP`
    (ValueError past either).
    """
    N = positive(N, "N")
    if N > 3:  # a limit of what is implemented, not a work cap
        raise ValueError("survey too large")
    d_max, restarts = positive(d_max, "d_max"), positive(restarts, "restarts")
    check_cap("d_max", d_max, "survey row cap", SURVEY_ROW_CAP)
    if N == 3:  # orders 1 and 2 have witnesses, orders above the bound no probes
        work, d = 0, 2
        while work <= SEARCH_WORK_CAP and d < min(d_max, sn_upper_bound(3)):
            d += 1  # the sum only grows: stop counting once it is past the cap
            work += len(_n3_patterns(d)) * restarts * SEARCH_MAX_ITERS * d * N
        check_cap(f"the probes' restarts * SEARCH_MAX_ITERS * d * N summed over d <= {d}",
                  work, "search work cap", SEARCH_WORK_CAP)
    return [_survey_one_d(N, d, restarts, seed) for d in range(1, d_max + 1)]
