"""Root-of-unity tuple orbits on the torus: relation lattices, Weyl sums,
orbit periods and exact arc-box counting against the Haar bound.

A box of at most two arcs is counted on the orbit lattice in O(log m)
integer steps and loads no numpy; a box of three or more arcs walks, in
numpy blocks, only the residues that its narrowest arc admits.  A box is
read from text by `ArcBox.parse`."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import index
from typing import Sequence

from ._arith import as_float, check_cap, floor_sum, positive
from .lattice import hnf, relation_lattice_basis, shortest_relation

__all__ = [
    "RootTupleOrbit",
    "Arc",
    "ArcBox",
    "relation_lattice",
    "strictness_window",
    "orbit_period",
    "weyl_sum",
    "arc_count",
    "ArcCountReport",
    "ARC_M_CAP",
    "ARC_WALK_CAP",
]

TWO_PI = 2.0 * math.pi
# the walk of arc_count (3 or more arcs) forms r * (k_j mod m) in int64
# with r < m; arc_count refuses m above it at every dimension
ARC_M_CAP = 10**9
# largest preimages * (tested arcs + 1) of an arc_count walk; a walk at the
# cap took 1.0-1.3 s on one core of a 2-CPU Xeon VM
ARC_WALK_CAP = 10**8
# preimages per arc_count block, 128 KB per int64 array
_BLOCK = 1 << 14


@dataclass(frozen=True)
class RootTupleOrbit:
    """The orbit {(zeta_m^(s*k_1), ..., zeta_m^(s*k_M)) : s = 1..m}.

    m and the k_j are integers (`operator.index`): a float raises TypeError
    instead of being truncated."""

    m: int
    k: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", positive(self.m, "m"))
        object.__setattr__(self, "k", tuple(map(index, self.k)))

    @property
    def dim(self) -> int:
        return len(self.k)


def orbit_period(orbit: RootTupleOrbit) -> int:
    """Smallest r with r*k_j == 0 (mod m) for all j; equals the orbit size."""
    return math.lcm(*(orbit.m // gcd(orbit.m, kj) for kj in orbit.k))


def relation_lattice(m: int, k: Sequence[int]) -> list[list[int]]:
    """HNF basis of the character relations {n : n . k == 0 (mod m)}."""
    return relation_lattice_basis([(m, list(k))])


def weyl_sum(orbit: RootTupleOrbit, n: Sequence[int]) -> Fraction:
    """Normalized character sum |(1/m) sum_s zeta_m^(s * n.k)|, exactly.

    By the geometric-sum law this is 1 if m | n.k and 0 otherwise.
    """
    n = list(map(index, n))
    if len(n) != orbit.dim:
        raise ValueError("character length must match the orbit dimension")
    if not any(n):
        raise ValueError("trivial character")
    dot = sum(a * b for a, b in zip(n, orbit.k))
    return Fraction(1) if dot % orbit.m == 0 else Fraction(0)


def strictness_window(window: Sequence[tuple[int, Sequence[int]]],
                      threshold: float | None = None) -> dict:
    """Finite-window substitute for strictness of a tuple sequence.

    One lattice holds the relations common to the whole window; its least
    max-norm is exact (`shortest_relation`, ValueError past its node
    budget).  The verdict stays heuristic: strictness concerns infinite
    sequences, and a finite window can exhibit an obstruction but never
    certify its absence.  A given threshold goes through `as_float`.
    """
    window = [(index(m), list(map(index, k))) for m, k in window]
    if len(window) < 2:
        raise ValueError("window must contain at least 2 instances")
    threshold = (min(m for m, _ in window) / 2 if threshold is None
                 else as_float(threshold, "threshold"))
    rel = shortest_relation(relation_lattice_basis(window))
    norm = max(abs(a) for a in rel) if rel is not None else None
    obstructed = rel is not None and norm < threshold
    return {
        "verdict": "obstructed" if obstructed else "no obstruction in window",
        "relation": rel if obstructed else None,
        "shortest_norm": norm,
        "threshold": threshold,
        "window_size": len(window),
    }


class Arc:
    """A closed arc of the unit circle, anticlockwise from center - halfwidth
    to center + halfwidth.

    Turn arcs take Fraction center/halfwidth measured in turns (fractions of
    a full circle) and are decided in exact integer arithmetic at any
    denominator size; radian arcs take finite real numbers (`as_float`)
    and compare with a 1e-12 tolerance at the boundary.  A Fraction paired
    with any other number is neither, and raises TypeError.  `members`, the
    one membership rule, lists the points x/q turns inside as integer
    intervals.
    """

    __slots__ = ("exact", "center_turns", "half_turns", "center", "half")

    def __init__(self, center, halfwidth):
        exact = isinstance(center, Fraction)
        if exact != isinstance(halfwidth, Fraction):
            raise TypeError("arc center and halfwidth must both be Fractions (turns) or both not")
        if exact:
            self.exact = True
            self.center_turns = center % 1
            self.half_turns = halfwidth
            self.center = float(center) * TWO_PI
            self.half = float(halfwidth) * TWO_PI
        else:
            self.exact = False
            self.center = as_float(center, "arc center") % TWO_PI
            self.half = as_float(halfwidth, "arc halfwidth")
            self.center_turns = None
            self.half_turns = None
        if self.half < 0:
            raise ValueError("halfwidth must be nonnegative")

    def haar(self) -> float:
        """Normalized Haar measure: min(halfwidth/pi, 1)."""
        if self.exact:
            return float(min(2 * self.half_turns, Fraction(1)))
        return min(self.half / math.pi, 1.0)

    def _full(self) -> bool:
        if self.exact:
            return 2 * self.half_turns >= 1
        return 2 * self.half >= TWO_PI

    def _offset(self, x, q: int):
        """The radian angle of x/q turns above the arc's low end, before
        reduction mod 2 pi; nondecreasing in x."""
        return x * (TWO_PI / q) - (self.center - self.half)

    def members(self, q: int) -> list[tuple[int, int]]:
        """The x in [0, q) whose point x/q turns lies in the arc, as disjoint
        ascending closed intervals (lo, hi).

        A turn arc with start lo = center - halfwidth (mod 1) and width w
        holds x iff B >= A and (x - A) mod q <= B - A, A = ceil(lo*q) and
        B = floor((lo + w)*q).  A radian arc holds x iff d = `_offset`(x, q)
        mod 2 pi is <= 2*halfwidth + 1e-12 or >= 2 pi - 1e-12.  For a
        non-full arc and q < 2^50 (callers bound q by ARC_M_CAP or ORBIT_CAP)
        the offset lies in (-2 pi, 3 pi) and spans less than 2 pi: one cut,
        where it reaches 0 (if it starts below 0) or else 2 pi, leaves two
        pieces on which d is nondecreasing, and on each the members form a
        prefix and a suffix, found by bisection."""
        if self._full():
            return [(0, q - 1)]
        if self.exact:
            lo = (self.center_turns - self.half_turns) % 1
            a, b = math.ceil(lo * q), math.floor((lo + 2 * self.half_turns) * q)
            if b < a:
                return []
            if b - a >= q - 1:
                return [(0, q - 1)]
            wrapped = [(max(a, q) - q, b - q)] if b >= q else []
            return wrapped + ([(a, min(b, q - 1))] if a < q else [])
        low, high = 2 * self.half + 1e-12, TWO_PI - 1e-12
        wrap = 0.0 if self._offset(0, q) < 0 else TWO_PI
        cut = _first(lambda x: self._offset(x, q) >= wrap, 0, q)
        out: list[tuple[int, int]] = []
        for lo, hi in ((0, cut), (cut, q)):
            # members are [lo, end) and [start, hi)
            end = _first(lambda x: self._offset(x, q) % TWO_PI > low, lo, hi)
            start = _first(lambda x: self._offset(x, q) % TWO_PI >= high, lo, hi)
            for a, b in ((lo, hi - 1),) if start <= end else ((lo, end - 1), (start, hi - 1)):
                if a > b:
                    continue
                if out and out[-1][1] + 1 >= a:
                    out[-1] = (out[-1][0], b)
                else:
                    out.append((a, b))
        return out


def _first(pred, lo: int, hi: int) -> int:
    """The least x in [lo, hi) with pred(x), or hi; pred must be false and
    then true on [lo, hi)."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class ArcBox:
    """Product of per-coordinate closed arcs."""

    arcs: tuple[Arc, ...]

    def __init__(self, arcs):
        object.__setattr__(self, "arcs", tuple(arcs))

    @classmethod
    def parse(cls, text: str) -> ArcBox:
        """Read "x1:eps1,x2:eps2", radian centers and halfwidths, or turn
        arcs, whose center and halfwidth are both Fractions with a "t"
        suffix: "1/8t:1/16t"; ValueError naming the part on any other text."""
        arcs = []
        try:
            for part in text.split(","):
                c_s, _, e_s = (s.strip() for s in part.partition(":"))
                if c_s.endswith("t") and e_s.endswith("t"):
                    arcs.append(Arc(Fraction(c_s[:-1]), Fraction(e_s[:-1])))
                else:
                    arcs.append(Arc(float(c_s), float(e_s)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f'cannot read {part!r} as an arc "center:halfwidth": {exc}') from None
        return cls(arcs)

    def haar(self) -> float:
        h = 1.0
        for a in self.arcs:
            h *= a.haar()
        return h

    def uniform_eps(self) -> float | None:
        """The common half-width in radians, or None if they differ."""
        eps = {round(a.half, 15) for a in self.arcs}
        return self.arcs[0].half if len(eps) == 1 else None


@dataclass(frozen=True)
class ArcCountReport:
    count: int
    ratio: Fraction
    haar: float
    uniform_eps: float | None
    haar_lower_bound: float | None
    bound_satisfied: bool | None


def _preimages(g: int, spans: list[tuple[int, int]]) -> int:
    """g times the multiples of g in the intervals: the r in {1..m} with
    r*k mod m in them, for g = gcd(k, m); the one count of them."""
    return g * sum(hi // g - (lo - 1) // g for lo, hi in spans)


def _turn_histogram(m: int, k: int) -> tuple[list[int], list[float]]:
    """The 64-bin histogram over [0, 1] of the turns (r*k mod m)/m,
    r = 1..m, without listing them: bin b holds the residues in
    [c_b, c_(b+1)) for c_b = ceil(b*m/64), as `np.histogram` bins them, and
    `_preimages` counts them with g = gcd(k mod m, m); the edges b/64 are
    those of `np.linspace(0, 1, 65)`, bit for bit."""
    g = gcd(k % m, m)
    cuts = [-(-b * m // 64) for b in range(65)]  # c_b
    return ([_preimages(g, [(lo, hi - 1)]) for lo, hi in zip(cuts, cuts[1:])],
            [b / 64 for b in range(65)])


def _walk_count(orbit: RootTupleOrbit, box: ArcBox) -> int:
    """`arc_count`'s count for three or more arcs: a walk over the r that
    the narrowest arc admits.

    With g = gcd(k_i, m), n = m/g and u the inverse of k_i/g mod n, the r
    with r*k_i = g*q mod m are q*u mod n + j*n, j < g (r = 0 stands for
    r = m); arc i admits `_preimages` of them.  The arc admitting fewest is
    walked, each member interval [lo, hi] as the index t = g*q + j over
    [g*ceil(lo/g), g*(hi//g + 1)) in blocks of _BLOCK, and each r is tested
    on the other arcs that miss some point: x = r*(k_j mod m) mod m (formed
    below m^2 < 2^63) is in arc j iff it is at most the end of the last
    member interval starting at or below it, behind a sentinel (-1, -1).
    The cost, preimages * (tested arcs + 1), is checked against
    ARC_WALK_CAP before the walk (ValueError)."""
    m, k = orbit.m, orbit.k
    spans = [arc.members(m) for arc in box.arcs]
    gs = [gcd(kj, m) for kj in k]
    sizes = [_preimages(g, s) for g, s in zip(gs, spans)]
    i = min(range(len(k)), key=sizes.__getitem__)
    rest = [(kj % m, s) for j, (kj, s) in enumerate(zip(k, spans))
            if j != i and s != [(0, m - 1)]]
    check_cap("the walk's preimages * (tested arcs + 1)", sizes[i] * (len(rest) + 1),
              "arc walk cap", ARC_WALK_CAP)
    if not rest or not sizes[i]:
        return sizes[i]
    import numpy as np
    g, n = gs[i], m // gs[i]
    u = pow(k[i] % m // g, -1, n)
    tests = [(kj, *np.array([(-1, -1)] + s, dtype=np.int64).T) for kj, s in rest]
    count = 0
    for lo, hi in spans[i]:
        end = (hi // g + 1) * g
        for start in range(-(-lo // g) * g, end, _BLOCK):
            q, j = np.divmod(np.arange(start, min(start + _BLOCK, end), dtype=np.int64), g)
            r = q * u % n + j * n
            inside = np.ones(len(r), dtype=bool)
            for kj, starts, ends in tests:
                x = r * kj % m
                inside &= x <= ends[np.searchsorted(starts, x, side="right") - 1]
            count += int(np.count_nonzero(inside))
    return count


def _lattice_count(orbit: RootTupleOrbit, box: ArcBox) -> int:
    """`arc_count`'s count for a box of at most two arcs, in integers.

    The points r*k mod m, r = 1..m, are the points of the lattice
    L = Z*k + m*Z^M in [0, m)^M, each hit m/P times (P = orbit_period).
    In 1-D, L = gZ with g = gcd(k, m) = m/P.  In 2-D, L has the HNF rows
    (a, b) and (0, c), so its points are (a*s, b*s + c*t); in a product
    [A1, B1] x [A2, B2] of member intervals they number the sum, over the s
    with a*s in [A1, B1], of floor((B2 - b*s)/c) - floor((A2 - 1 - b*s)/c):
    two floor sums."""
    m, k = orbit.m, orbit.k
    if not k:
        return m
    spans = [arc.members(m) for arc in box.arcs]
    if len(k) == 1:
        return _preimages(gcd(k[0], m), spans[0])
    (a, b), (_, c) = hnf([list(k), [m, 0], [0, m]])
    points = 0
    for lo1, hi1 in spans[0]:
        s0 = -(-lo1 // a)
        n = hi1 // a - s0 + 1
        if n > 0:
            for lo2, hi2 in spans[1]:
                points += (floor_sum(n, c, -b, hi2 - b * s0)
                           - floor_sum(n, c, -b, lo2 - 1 - b * s0))
    return m // orbit_period(orbit) * points


def arc_count(orbit: RootTupleOrbit, box: ArcBox) -> ArcCountReport:
    """Count r in {1..m} whose orbit point lies in the box, exactly.

    A box of at most two arcs is counted on the orbit lattice
    (`_lattice_count`) in O(log m) integer steps, without numpy.  A box of
    three or more arcs walks the preimages of its narrowest arc in blocks
    (`_walk_count`), so memory does not grow with m, and refuses a walk
    past ARC_WALK_CAP.  Raises ValueError for m above ARC_M_CAP at every
    dimension.
    """
    if len(box.arcs) != orbit.dim:
        raise ValueError("box dimension must match the orbit dimension")
    check_cap("m", orbit.m, "arc modulus cap", ARC_M_CAP)
    count = _lattice_count(orbit, box) if orbit.dim <= 2 else _walk_count(orbit, box)
    ratio = Fraction(count, orbit.m)
    eps = box.uniform_eps()
    if eps is not None:
        bound = (1 - eps) * (eps / TWO_PI) ** orbit.dim
        satisfied = float(ratio) >= bound
    else:
        bound, satisfied = None, None
    return ArcCountReport(count, ratio, box.haar(), eps, bound, satisfied)
