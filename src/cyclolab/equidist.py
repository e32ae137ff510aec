"""Root-of-unity tuple orbits on the torus: relation lattices, Weyl sums,
orbit periods and exact arc-box counting against the Haar bound.

A box of at most two arcs is counted on the orbit lattice in O(log m)
integer steps and loads no numpy; a box of three or more arcs walks the m
residues in numpy blocks, on a thread pool when m is large."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import index
from typing import Sequence

from ._arith import as_float, floor_sum
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
]

TWO_PI = 2.0 * math.pi
# the block path of arc_count (3 or more arcs) forms r * (k_j mod m) in
# int64 with r <= m; arc_count refuses m above it at every dimension
ARC_M_CAP = 10**9
# least residues per arc_count pool thread.  Medians on 2 CPUs (41-61
# interleaved calls) of the interval walk on a radian 3-D box, serial/2
# threads: 2.9/3.5 ms at m = 100,003, 5.3/6.1 at 200,003, 7.4/8.3 at 300,007,
# 12.5/11.1 at 400,009, 14.7/13.1 at 500,009, 27.7/21.7 at 1,000,003
_CHUNK_MIN = 200_000
# residues per arc_count block, 128 KB per int64 array: serial medians at
# m = 500,009, radian/turn 3-D box, 13.5/13.4 ms; 2^12 16.7/17.1, 2^20 23.8/23.0
_BLOCK = 1 << 14


@dataclass(frozen=True)
class RootTupleOrbit:
    """The orbit {(zeta_m^(s*k_1), ..., zeta_m^(s*k_M)) : s = 1..m}.

    m and the k_j are integers (`operator.index`): a float raises TypeError
    instead of being truncated."""

    m: int
    k: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", index(self.m))
        if self.m < 1:
            raise ValueError("m must be positive")
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
    certify its absence.
    """
    window = [(index(m), list(map(index, k))) for m, k in window]
    if len(window) < 2:
        raise ValueError("window must contain at least 2 instances")
    if threshold is None:
        threshold = min(m for m, _ in window) / 2
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
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
    denominator size; radian arcs take real numbers (TypeError otherwise)
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
            self.center = as_float(center) % TWO_PI
            self.half = as_float(halfwidth)
            self.center_turns = None
            self.half_turns = None
            if not math.isfinite(self.center + self.half):
                raise ValueError("arc center and halfwidth must be finite")
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


def _arc_count_chunk(m: int, k: tuple[int, ...], box: ArcBox, lo: int, hi: int) -> int:
    """Count of r in [lo, hi) whose point ((r*k_j mod m)/m turns)_j lies in
    the box.  Behind a sentinel (-1, -1), a residue x = r*(k_j mod m) mod m
    is in arc j iff x is at most the end of the last interval of
    `members(m)` starting at or below it (`np.searchsorted`); r*(k_j mod m)
    <= m^2 fits int64 for m <= ARC_M_CAP.  The range is walked in blocks of
    _BLOCK residues, so its working memory does not grow with its length.
    `arc_count` uses it for boxes of three or more arcs; at any dimension it
    is the residue-walk check of the lattice count."""
    import numpy as np
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
        g = gcd(k[0], m)
        return g * sum(hi // g - (lo - 1) // g for lo, hi in spans[0])
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


def arc_count(orbit: RootTupleOrbit, box: ArcBox, threads: int = 1) -> ArcCountReport:
    """Count r in {1..m} whose orbit point lies in the box, exactly.

    A box of at most two arcs is counted on the orbit lattice
    (`_lattice_count`) in O(log m) integer steps, without numpy, and
    `threads` is not used.  A box of three or more arcs walks the residues:
    the count is a sum of independent block counts, so it does not depend
    on how they are split.  When {1..m} holds two or more ranges of
    _CHUNK_MIN residues, a pool of one thread per range counts up to
    `threads` equal ranges, and never more than the CPUs this process may
    run on; otherwise the calling thread counts them all.  Each worker
    walks its range in blocks of _BLOCK residues, so memory does not grow
    with m.  Raises ValueError for m above ARC_M_CAP at every dimension.
    """
    if len(box.arcs) != orbit.dim:
        raise ValueError("box dimension must match the orbit dimension")
    if orbit.m > ARC_M_CAP:
        raise ValueError(f"arc-count refuses m = {orbit.m} above {ARC_M_CAP}")
    m, k = orbit.m, orbit.k
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parts = min(threads, cpus or 1, m // _CHUNK_MIN)
    if orbit.dim <= 2:
        count = _lattice_count(orbit, box)
    elif parts > 1:
        from concurrent.futures import ThreadPoolExecutor

        cuts = [1 + i * m // parts for i in range(parts + 1)]
        with ThreadPoolExecutor(max_workers=parts) as ex:
            count = sum(ex.map(lambda lo, hi: _arc_count_chunk(m, k, box, lo, hi),
                               cuts, cuts[1:]))
    else:
        count = _arc_count_chunk(m, k, box, 1, m + 1)
    ratio = Fraction(count, m)
    eps = box.uniform_eps()
    if eps is not None:
        bound = (1 - eps) * (eps / TWO_PI) ** orbit.dim
        satisfied = float(ratio) >= bound
    else:
        bound, satisfied = None, None
    return ArcCountReport(count, ratio, box.haar(), eps, bound, satisfied)
