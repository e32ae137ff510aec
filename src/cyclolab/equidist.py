"""Root-of-unity tuple orbits on the torus: relation lattices, Weyl sums,
orbit periods and exact arc-box counting against the Haar bound."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import index
from typing import Sequence

from .lattice import (
    relation_lattice_basis,
    intersect_lattices,
    shortest_relation,
)

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
ARC_M_CAP = 10**9  # arc_count forms r * (k_j mod m) in int64 with r <= m
# least residues per arc_count pool thread.  Medians on 2 CPUs (41
# interleaved calls) at m = 200,003 on a radian 2-D box: serial 10.1-12.2 ms,
# 2 threads 8.5-11.7 ms, where a pool on unblocked chunks read 9.6-15.5 ms;
# below m = 200,000 the pool reads 0.80-1.19x of serial (BENCH_20.json)
_CHUNK_MIN = 100_000
# residues per arc_count block, 128 KB per int64 array: serial medians at
# m = 500,009, radian/exact box, 31.4/15.0 ms against 56.1/27.9 unblocked
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
    return relation_lattice_basis(m, list(k))


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

    Intersects the relation lattices over the window and reports a common
    small relation if one survives.  The verdict is heuristic: strictness is
    a property of infinite sequences, a finite window can only exhibit an
    obstruction, never certify its absence.
    """
    window = [(index(m), list(map(index, k))) for m, k in window]
    if len(window) < 2:
        raise ValueError("window must contain at least 2 instances")
    dims = {len(k) for _, k in window}
    if len(dims) != 1:
        raise ValueError("all tuples in the window must have the same length")
    if threshold is None:
        threshold = min(m for m, _ in window) / 2
    basis = relation_lattice_basis(window[0][0], window[0][1])
    for m, k in window[1:]:
        basis = intersect_lattices(basis, relation_lattice_basis(m, k))
    rel = shortest_relation(basis)
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
    denominator size; radian arcs take floats and compare with a 1e-12
    tolerance at the boundary.  `contains` is the one membership test.
    """

    __slots__ = ("exact", "center_turns", "half_turns", "center", "half")

    def __init__(self, center, halfwidth):
        if isinstance(center, Fraction) and isinstance(halfwidth, Fraction):
            self.exact = True
            self.center_turns = center % 1
            self.half_turns = halfwidth
            self.center = float(center) * TWO_PI
            self.half = float(halfwidth) * TWO_PI
        else:
            self.exact = False
            self.center = float(center) % TWO_PI
            self.half = float(halfwidth)
            self.center_turns = None
            self.half_turns = None
        if self.half < 0:
            raise ValueError("halfwidth must be nonnegative")

    def haar(self) -> float:
        """Normalized Haar measure: min(halfwidth/pi, 1)."""
        if self.exact:
            return float(min(2 * self.half_turns, Fraction(1)))
        return min(self.half / math.pi, 1.0)

    def contains(self, x, q: int):
        """Closed-arc membership of the point x/q turns, x an int or an int64
        array in [0, q).  Turn arc: with lo = center - halfwidth (mod 1) and
        w = 2*halfwidth, x/q is inside iff (x - A) mod q <= B - A for the
        exact ints A = ceil(lo*q), B = floor((lo + w)*q).  Radian arc: the
        angle x * (2 pi/q) within the 1e-12 boundary band."""
        if self.exact:
            w = 2 * self.half_turns
            if w >= 1:
                return True
            lo = (self.center_turns - self.half_turns) % 1
            a, b = math.ceil(lo * q), math.floor((lo + w) * q)
            return b >= a and (x - a) % q <= b - a
        if 2 * self.half >= TWO_PI:
            return True
        import numpy as np
        d = np.mod(x * (TWO_PI / q) - (self.center - self.half), TWO_PI)
        return (d <= 2 * self.half + 1e-12) | (d >= TWO_PI - 1e-12)

    def contains_turn(self, t: Fraction) -> bool:
        """Closed-arc membership of the point at `t` turns."""
        return bool(self.contains(t.numerator % t.denominator, t.denominator))


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
    the box: one int64 pass of `Arc.contains` per arc, any mix of turn and
    radian arcs; r*(k_j mod m) <= m^2 fits int64 for m <= ARC_M_CAP.  The
    range is walked in blocks of _BLOCK residues, so its working memory is a
    few block-long arrays however long the range is."""
    import numpy as np
    count = 0
    for start in range(lo, hi, _BLOCK):
        r = np.arange(start, min(start + _BLOCK, hi), dtype=np.int64)
        inside = np.ones(len(r), dtype=bool)
        for kj, arc in zip(k, box.arcs):
            inside &= arc.contains(r * (kj % m) % m, m)
        count += int(np.count_nonzero(inside))
    return count


def arc_count(orbit: RootTupleOrbit, box: ArcBox, threads: int = 1) -> ArcCountReport:
    """Count r in {1..m} whose orbit point lies in the box, exactly.

    The count is a sum of independent block counts, so it does not depend
    on how the residues are split.  When {1..m} holds two or more ranges of
    _CHUNK_MIN residues, a pool of `threads` threads counts up to `threads`
    equal ranges; otherwise the calling thread counts them all.  Each worker
    walks its range in blocks of _BLOCK residues, so memory does not grow
    with m.  Raises ValueError for m above ARC_M_CAP.
    """
    if len(box.arcs) != orbit.dim:
        raise ValueError("box dimension must match the orbit dimension")
    if orbit.m > ARC_M_CAP:
        raise ValueError(f"arc-count refuses m = {orbit.m} above {ARC_M_CAP}")
    m, k = orbit.m, orbit.k
    parts = min(threads, m // _CHUNK_MIN)
    if parts > 1:
        from concurrent.futures import ThreadPoolExecutor

        cuts = [1 + i * m // parts for i in range(parts + 1)]
        with ThreadPoolExecutor(max_workers=threads) as ex:
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
