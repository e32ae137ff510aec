import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cyclolab.equidist import (
    RootTupleOrbit,
    Arc,
    ArcBox,
    relation_lattice,
    strictness_window,
    orbit_period,
    weyl_sum,
    arc_count,
    ARC_M_CAP,
    ARC_WALK_CAP,
    _BLOCK,
)
from cyclolab.radical import RadicalContext, RadicalSum, _in_band, _orbit_values, sigma_search

from _reference import _arc_count_chunk, hnf_det, in_lattice

TWO_PI = 2 * math.pi


def ref_member(arc, x, q):
    """The point rule, the tests' reference for `Arc.members`: is the point
    x/q turns in the closed arc?  A turn arc is decided in exact Fractions;
    a radian arc reduces its offset (x * (2 pi/q) - (center - half)) mod 2 pi
    and compares it with the 1e-12 band at both ends."""
    if arc.exact:
        w = 2 * arc.half_turns
        return w >= 1 or (Fraction(x, q) - (arc.center_turns - arc.half_turns)) % 1 <= w
    if 2 * arc.half >= TWO_PI:
        return True
    d = (x * (TWO_PI / q) - (arc.center - arc.half)) % TWO_PI
    return d <= 2 * arc.half + 1e-12 or d >= TWO_PI - 1e-12


def ref_count(m, k, box, lo=1, hi=None):
    """Brute-force arc count over r in [lo, hi): the point rule per point."""
    hi = m + 1 if hi is None else hi
    return sum(
        all(ref_member(arc, (r * kj) % m, m) for kj, arc in zip(k, box.arcs))
        for r in range(lo, hi)
    )


def ref_sigma_search(x, box, eps):
    """Brute-force sigma_search: rotation r_l / (d_l/c_l) turns per coordinate."""
    ctx = x.context
    vals = abs(_orbit_values(x)) ** 2
    found = []
    for v, r in zip(vals, ctx.kummer_elements()):
        if _in_band(eps)(float(v)) and all(
            ref_member(arc, r_l, d_l // c_l)
            for arc, r_l, c_l, d_l in zip(box.arcs, r, ctx.failures, ctx.denominators)
        ):
            found.append(r)
    return found


def random_arc(rng, q, kind):
    """A turn or radian arc; about a third of them end on a point x/q."""
    on_point = rng.random() < 0.35
    if kind == "turn":
        if on_point:
            h = Fraction(rng.randrange(q), 2 * q)
            return Arc(Fraction(rng.randrange(q), q) + rng.choice([h, -h]), h)
        den = rng.choice([2, 7, 97, 1000, 10**13 + 37, 10**30, q])
        return Arc(Fraction(rng.randrange(-2 * den, 2 * den), den),
                   Fraction(rng.randrange(den), rng.choice([den, 2 * den, 3])))
    if on_point:
        return Arc(TWO_PI * rng.randrange(q) / q, math.pi * rng.randrange(q) / q)
    return Arc(rng.uniform(-7, 7), rng.uniform(0, 4))


def random_box(rng, qs, kind):
    if kind == "mixed":
        return ArcBox([random_arc(rng, q, rng.choice(["turn", "radian"])) for q in qs])
    return ArcBox([random_arc(rng, q, kind) for q in qs])


def primes_above(n, count):
    out = []
    p = n + 1
    while len(out) < count:
        if all(p % q for q in range(2, int(p**0.5) + 1)):
            out.append(p)
        p += 1
    return out


class TestIntegerInputs:
    """m, k and characters are integers: a float is refused, not truncated."""

    @pytest.mark.parametrize("bad", [2.5, 3.9, 12.0])
    def test_float_refused(self, bad):
        with pytest.raises(TypeError):
            RootTupleOrbit(bad, (1,))
        with pytest.raises(TypeError):
            RootTupleOrbit(12, (bad, 3))
        with pytest.raises(TypeError):
            weyl_sum(RootTupleOrbit(12, (2, 3)), [bad, 2])
        with pytest.raises(TypeError):
            strictness_window([(bad, [1, 1]), (11, [1, 1])])
        with pytest.raises(TypeError):
            strictness_window([(7, [1, bad]), (11, [1, 1])])

    def test_numpy_integers_accepted(self):
        orbit = RootTupleOrbit(np.int64(12), np.array([2, 3]))
        assert orbit == RootTupleOrbit(12, (2, 3))
        assert type(orbit.m) is int and all(type(a) is int for a in orbit.k)
        assert weyl_sum(orbit, np.array([3, 2])) == 1
        window = [(np.int32(7), np.array([1, 1])), (np.int64(11), [np.int8(1), 1])]
        assert strictness_window(window) == strictness_window([(7, [1, 1]), (11, [1, 1])])


class TestOrbitPeriod:
    def test_examples(self):
        assert orbit_period(RootTupleOrbit(12, (4, 6))) == 6
        assert orbit_period(RootTupleOrbit(7, (0, 0))) == 1
        assert orbit_period(RootTupleOrbit(10, (1,))) == 10

    def test_counts_distinct_points(self):
        rng = random.Random(1)
        for _ in range(40):
            m = rng.randint(1, 30)
            k = tuple(rng.randint(-10, 10) for _ in range(rng.randint(1, 3)))
            orbit = RootTupleOrbit(m, k)
            pts = {tuple((s * kj) % m for kj in k) for s in range(1, m + 1)}
            assert orbit_period(orbit) == len(pts)


class TestRelationLattice:
    def test_examples(self):
        b = relation_lattice(12, [2, 3])
        assert in_lattice(b, [3, 2])
        assert hnf_det(b) == 12
        assert relation_lattice(5, [1, 0]) == [[5, 0], [0, 1]]
        b1 = relation_lattice(1, [9, 9])
        assert in_lattice(b1, [1, 0]) and in_lattice(b1, [0, 1])


class TestWeyl:
    def test_examples(self):
        assert weyl_sum(RootTupleOrbit(12, (2, 3)), (3, 2)) == 1
        assert weyl_sum(RootTupleOrbit(7, (1, 3)), (1, 1)) == 0
        assert weyl_sum(RootTupleOrbit(10, (5,)), (2,)) == 1

    def test_trivial_character_rejected(self):
        with pytest.raises(ValueError, match="trivial character"):
            weyl_sum(RootTupleOrbit(5, (1,)), (0,))

    def test_agrees_with_lattice(self):
        rng = random.Random(8)
        for _ in range(30):
            m = rng.randint(1, 40)
            k = tuple(rng.randint(-9, 9) for _ in range(2))
            orbit = RootTupleOrbit(m, k)
            basis = relation_lattice(m, list(k))
            for n1 in range(-3, 4):
                for n2 in range(-3, 4):
                    if n1 == n2 == 0:
                        continue
                    val = weyl_sum(orbit, (n1, n2))
                    assert val in (0, 1)
                    assert (val == 1) == in_lattice(basis, [n1, n2])


class TestStrictness:
    def test_constant_diagonal_obstructed(self):
        r = strictness_window([(7, [1, 1]), (11, [1, 1]), (13, [1, 1])])
        assert r["verdict"] == "obstructed"
        assert r["relation"] in ([1, -1], [-1, 1])

    def test_sqrt_slope_unobstructed(self):
        window = [(p, [1, math.isqrt(p)]) for p in primes_above(100, 10)]
        assert strictness_window(window)["verdict"] == "no obstruction in window"

    def test_single_coordinate(self):
        r = strictness_window([(2, [1]), (3, [1]), (5, [1])])
        assert r["verdict"] == "no obstruction in window"

    def test_window_size_precondition(self):
        with pytest.raises(ValueError):
            strictness_window([(7, [1, 1])])

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_nonfinite_threshold_refused(self, threshold):
        with pytest.raises(ValueError, match="finite"):
            strictness_window([(7, [1, 1]), (11, [1, 1])], threshold=threshold)

    def test_exact_norm_beyond_lll_rows(self):
        # the LLL rows reach max-norm 6 only; the shortest relation has 5
        k = [112816, 120358, 179675, 104136, 73252, 212178]
        r = strictness_window([(322735, k), (322735, k)], threshold=6)
        assert r["verdict"] == "obstructed" and r["shortest_norm"] == 5
        assert sum(a * b for a, b in zip(r["relation"], k)) % 322735 == 0


class TestArcs:
    @pytest.mark.parametrize("center, half", [
        (math.nan, 0.5), (0.0, math.nan), (math.inf, 0.5), (-math.inf, 0.5),
        (0.0, math.inf), (0.0, -1.0),
    ])
    def test_refuses_nonfinite_or_negative(self, center, half):
        with pytest.raises(ValueError):
            Arc(center, half)

    @pytest.mark.parametrize("center, half", [
        (Fraction(1, 4), 0), (0, Fraction(1, 8)), (Fraction(1, 4), 0.1), (0.5, Fraction(0)),
    ])
    def test_mixed_pair_refused(self, center, half):
        # neither turns nor radians: Arc(Fraction(1, 4), 0) was a radian arc
        # at 0.25 rad, with no member x/8, against the turn arc holding 2/8
        with pytest.raises(TypeError, match="both"):
            Arc(center, half)
        assert Arc(Fraction(1, 4), Fraction(0)).members(8) == [(2, 2)]

    def test_haar_measure(self):
        assert Arc(0.0, math.pi / 4).haar() == pytest.approx(0.25)
        assert Arc(Fraction(0), Fraction(1, 2)).haar() == 1.0
        assert Arc(1.0, 10.0).haar() == 1.0
        box = ArcBox([Arc(0.0, math.pi / 4), Arc(0.0, math.pi / 2)])
        assert box.haar() == pytest.approx(0.125)

    def test_closed_endpoints_exact(self):
        arc = Arc(Fraction(0), Fraction(1, 8))  # [-1/8, 1/8] turns
        assert arc.members(8) == [(0, 1), (7, 7)]  # 1/8 and 7/8 turns are inside
        assert arc.members(7) == [(0, 0)]  # 1/7 and 6/7 turns are not
        assert ref_member(arc, 1, 8) and ref_member(arc, 7, 8)
        assert not ref_member(arc, 1, 7) and not ref_member(arc, 6, 7)

    def test_count_quarter(self):
        rep = arc_count(RootTupleOrbit(4, (1,)), ArcBox([Arc(0.0, math.pi / 4)]))
        assert rep.count == 1 and rep.ratio == Fraction(1, 4)

    def test_constant_orbit(self):
        rep = arc_count(RootTupleOrbit(6, (0,)), ArcBox([Arc(Fraction(0), Fraction(1, 100))]))
        assert rep.count == 6 and rep.ratio == 1

    def test_full_circle_counts_all(self):
        rng = random.Random(2)
        for _ in range(20):
            m = rng.randint(1, 50)
            M = rng.randint(1, 3)
            k = tuple(rng.randint(-9, 9) for _ in range(M))
            box = ArcBox([Arc(0.0, math.pi)] * M)
            assert arc_count(RootTupleOrbit(m, k), box).count == m

    def test_equal_spacing_discrepancy(self):
        for m in (100, 999, 10000):
            for eps in (0.1, 0.5, 1.0):
                rep = arc_count(RootTupleOrbit(m, (1,)), ArcBox([Arc(0.0, eps)]))
                assert abs(rep.count / m - eps / math.pi) <= 2 / m

    def test_period_invariance(self):
        # counting over one period times m/period equals the full count
        orbit = RootTupleOrbit(12, (4, 6))
        r = orbit_period(orbit)
        box = ArcBox([Arc(0.5, 1.0), Arc(1.0, 1.2)])
        full = arc_count(orbit, box).count
        sub = sum(
            1
            for s in range(1, r + 1)
            if all(
                ref_member(box.arcs[j], (s * orbit.k[j]) % 12, 12)
                for j in range(2)
            )
        )
        assert full == sub * (12 // r)

    def test_haar_bound_report(self):
        rep = arc_count(
            RootTupleOrbit(10007, (1, 100)), ArcBox([Arc(0.0, 0.5), Arc(0.0, 0.5)])
        )
        assert rep.uniform_eps == 0.5
        assert rep.bound_satisfied
        mixed = arc_count(
            RootTupleOrbit(101, (1, 10)), ArcBox([Arc(0.0, 0.5), Arc(0.0, 0.7)])
        )
        assert mixed.uniform_eps is None and mixed.bound_satisfied is None

    def test_memory_bounded(self):
        # blocks bound the working memory of the 3-D walk at any m and any
        # g = gcd(k_i, m) of the walked arc; tracemalloc sees numpy's buffers
        # (an int64 array of 2,000,003 residues alone is 16 MB, one of the
        # g = 5,000,000 preimages of x = 0 at k_1 = m/2 40 MB)
        import tracemalloc

        radian = ArcBox([Arc(0.0, 0.5), Arc(1.0, 0.5), Arc(2.0, 0.5)])
        turn = ArcBox([Arc(Fraction(0), Fraction(1, 8)), Arc(Fraction(1, 4), Fraction(1, 8)),
                       Arc(Fraction(1, 2), Fraction(1, 8))])
        # arc 1 holds x = 0 only, so it admits g residues, the fewest
        half = ArcBox([Arc(Fraction(0), Fraction(0)), Arc(0.0, 2.0), Arc(1.0, 2.0)])
        for orbit, box in ((RootTupleOrbit(2_000_003, (1, 1237, 77)), radian),
                           (RootTupleOrbit(2_000_003, (1, 1237, 77)), turn),
                           (RootTupleOrbit(10**7, (5 * 10**6, 2, 77)), half)):
            tracemalloc.start()
            try:
                arc_count(orbit, box)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, (orbit, box.arcs[0].exact, peak)

    def test_exact_vs_float_agree_generic(self):
        # generic arcs: both representations count identically
        orbit = RootTupleOrbit(997, (3,))
        exact = arc_count(orbit, ArcBox([Arc(Fraction(1, 7), Fraction(1, 9))]))
        approx = arc_count(
            orbit,
            ArcBox([Arc(2 * math.pi / 7, 2 * math.pi / 9)]),
        )
        assert exact.count == approx.count

    def test_m_above_cap_refused(self):
        box = ArcBox([Arc(Fraction(0), Fraction(1, 4))])
        with pytest.raises(ValueError, match=f"m = {10**10 + 19} exceeds the arc modulus cap"):
            arc_count(RootTupleOrbit(10**10 + 19, (10**10 + 16,)), box)

    def test_int64_exact_at_cap(self):
        # r * k_j reaches ~1e18 at m = ARC_M_CAP and must not wrap in int64
        m, k = ARC_M_CAP, (ARC_M_CAP - 3, 999_999_937)
        box = ArcBox([Arc(Fraction(1, 3), Fraction(2, 5)), Arc(0.5, 2.0)])
        assert _arc_count_chunk(m, k, box, m - 2000, m + 1) == ref_count(m, k, box, m - 2000)
        # the walk: arc 1 holds the points x in [m - 2000, m), whose
        # preimages under k_1 = 1 are r = x, and 0 (r = m); a unit u
        # permutes the r, so k*u counts the same, and its walk forms
        # q * (k_1*u)^-1 mod m and r * (k_j*u mod m) near 1e18
        walk = ArcBox([Arc(Fraction(-1000, m), Fraction(1000, m))] + list(box.arcs))
        expected = ref_count(m, (1, *k), walk, m - 2000)
        for u in (1, m - 3, 999_999_937):
            ku = tuple(kj * u % m for kj in (1, *k))
            assert arc_count(RootTupleOrbit(m, ku), walk).count == expected, u

    def test_walk_cap(self, monkeypatch):
        # the walk's cost, preimages * (tested arcs + 1), is refused past
        # ARC_WALK_CAP before any of it runs; full arcs are not tested
        m = 1009
        box = ArcBox([Arc(Fraction(0), Fraction(1, 8)), Arc(0.0, 2.0), Arc(0.0, math.pi)])
        orbit = RootTupleOrbit(m, (1, 7, 100))
        size = 2 * (m // 8) + 1  # the x in [-m/8, m/8]
        monkeypatch.setattr("cyclolab.equidist.ARC_WALK_CAP", 2 * size)
        assert arc_count(orbit, box).count == ref_count(m, orbit.k, box)
        monkeypatch.setattr("cyclolab.equidist.ARC_WALK_CAP", 2 * size - 1)
        with pytest.raises(ValueError, match=f"= {2 * size} exceeds the arc walk cap"):
            arc_count(orbit, box)
        assert ARC_WALK_CAP == 10**8  # README


class TestExactMembershipDifferential:
    """`arc_count` (both count paths), `sigma_search` and `Arc.members`
    against the point rule `ref_member` on seeded turn, mixed and radian
    boxes, with denominators up to 10^30 and endpoints on orbit points."""

    @pytest.mark.parametrize("kind", ["turn", "mixed", "radian"])
    def test_arc_count(self, kind):
        rng = random.Random(f"arc-{kind}")
        for _ in range(100):
            m = rng.randint(1, 300)
            k = tuple(rng.randint(-5000, 5000) for _ in range(rng.randint(1, 3)))
            box = random_box(rng, [m] * len(k), kind)
            rep = arc_count(RootTupleOrbit(m, k), box)
            assert rep.count == ref_count(m, k, box) == _arc_count_chunk(m, k, box, 1, m + 1)

    @pytest.mark.parametrize("kind", ["turn", "mixed", "radian"])
    def test_block_boundaries(self, kind):
        # 3-D boxes, which take the walk: whole counts at m = 2 * _BLOCK +- 1,
        # and reference ranges that start or end at, one before or one after
        # a multiple of _BLOCK
        rng = random.Random(f"block-{kind}")
        for m in (2 * _BLOCK - 1, 2 * _BLOCK + 1):
            k = (1, rng.randrange(2, m), rng.randrange(2, m))
            box = random_box(rng, [m, m, m], kind)
            prefix = [0]
            for r in range(1, m + 1):
                prefix.append(prefix[-1] + ref_count(m, k, box, r, r + 1))
            assert arc_count(RootTupleOrbit(m, k), box).count == prefix[m]
            edges = [e for j in (1, 2) for e in (j * _BLOCK - 1, j * _BLOCK, j * _BLOCK + 1)]
            edges = [1] + [e for e in edges if e <= m] + [m + 1]
            for lo in edges:
                for hi in edges:
                    if lo <= hi:
                        assert _arc_count_chunk(m, k, box, lo, hi) == prefix[hi - 1] - prefix[lo - 1]

    @pytest.mark.parametrize("block", [_BLOCK, 7])
    @pytest.mark.parametrize("kind", ["turn", "mixed", "radian"])
    def test_walk(self, kind, block, monkeypatch):
        # boxes of 3-4 arcs, some empty or full, at m <= 10^4, with k entries
        # 0, +-1, m and multiples of divisors of m, so that the walked arc's
        # g = gcd(k_i, m) is 1, above 1 and (with a 7-residue block) above
        # the block
        monkeypatch.setattr("cyclolab.equidist._BLOCK", block)
        rng = random.Random(f"walk-{kind}-{block}")
        kinds = ["turn", "radian"] if kind == "mixed" else [kind]
        for _ in range(30):
            m = rng.choice([rng.randint(1, 60), rng.randint(1, 10**4), 5040])
            divisors = [d for d in range(1, m + 1) if m % d == 0]
            k = tuple(rng.choice([0, 1, -1, m, rng.randint(-10**6, 10**6),
                                  rng.choice(divisors) * rng.randint(-9, 9), rng.choice(divisors)])
                      for _ in range(rng.randint(3, 4)))
            special = [Arc(0.0, math.pi), Arc(Fraction(1, 3), Fraction(1, 2)),
                       Arc(Fraction(1, 2 * m), Fraction(0))]  # full, full, empty
            box = ArcBox([rng.choice(special) if rng.random() < 0.15
                          else random_arc(rng, m, rng.choice(kinds)) for _ in k])
            assert arc_count(RootTupleOrbit(m, k), box).count == ref_count(m, k, box) == \
                _arc_count_chunk(m, k, box, 1, m + 1), (m, k)

    def test_walk_gcd_above_block(self):
        # arc 1 holds x = 0 only, so the walk takes the g = m/2 residues r
        # with r*k_1 = 0 mod m, over two blocks
        m = 2 * _BLOCK + 2
        wide = [Arc(1.0, 2.5), Arc(Fraction(1, 3), Fraction(2, 5)), Arc(0.0, 3.0)]
        for k in ((m // 2, 1, 77), (3 * m // 2, -5, 2 * _BLOCK - 1, m - 1)):
            box = ArcBox([Arc(Fraction(0), Fraction(0))] + wide[:len(k) - 1])
            assert arc_count(RootTupleOrbit(m, k), box).count == ref_count(m, k, box) == \
                _arc_count_chunk(m, k, box, 1, m + 1), k

    @pytest.mark.parametrize("kind", ["turn", "radian"])
    def test_members_are_contains(self, kind):
        # the member intervals list exactly the x that the point rule takes:
        # disjoint, ascending, not adjacent, at most four
        rng = random.Random(f"members-{kind}")
        for _ in range(300):
            q = rng.randint(1, 300)
            arc = random_arc(rng, q, kind)
            spans = arc.members(q)
            assert len(spans) <= 4
            assert all(a <= b for a, b in spans)
            assert all(b1 + 1 < a2 for (_, b1), (a2, _) in zip(spans, spans[1:]))
            inside = {x for a, b in spans for x in range(a, b + 1)}
            assert inside == {x for x in range(q) if ref_member(arc, x, q)}

    @pytest.mark.parametrize("kind", ["turn", "radian"])
    def test_contains_turn(self, kind):
        # the point at t turns, t anywhere in [-3, 3), is the point x/q of
        # t mod 1 in lowest terms: `members` at that q takes it iff the rule
        # does, for arcs drawn against a multiple of q
        rng = random.Random(f"turn-{kind}")
        for _ in range(500):
            q = rng.randint(1, 200)
            arc = random_arc(rng, q, kind)
            t = Fraction(rng.randrange(-3 * q, 3 * q), q) % 1
            x, q = t.numerator, t.denominator
            assert any(a <= x <= b for a, b in arc.members(q)) == ref_member(arc, x, q)

    @pytest.mark.parametrize("kind", ["turn", "mixed", "radian"])
    def test_sigma_search(self, kind):
        rng = random.Random(f"sigma-{kind}")
        for _ in range(60):
            dens = [rng.choice([2, 3, 4, 6, 8, 12, 30]) for _ in range(rng.randint(1, 2))]
            fails = [rng.choice([c for c in range(1, d + 1) if d % c == 0]) for d in dens]
            ctx = RadicalContext([Fraction(2), Fraction(3)][:len(dens)], dens,
                                 D=rng.choice([1, 3, 8]), failures=fails)
            x = RadicalSum(ctx, [(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                  tuple(rng.randrange(d) for d in dens))
                                 for _ in range(rng.randint(1, 3))])
            box = random_box(rng, ctx.group, kind)
            eps = rng.choice([0.5, 1.0, 3.0])
            assert [g.r for g in sigma_search(x, box, eps)] == ref_sigma_search(x, box, eps)


def box_edges(rng, m, dim):
    """Radian arcs with both ends on orbit points x/m, exactly or moved
    +-1e-12 or +-5e-13 off them."""
    arcs = []
    for _ in range(dim):
        lo, hi = (TWO_PI * rng.randrange(m) / m + rng.choice([0, 1e-12, -1e-12, 5e-13, -5e-13])
                  for _ in range(2))
        h = (hi - lo) % TWO_PI / 2
        arcs.append(Arc(lo + h, h))
    return ArcBox(arcs)


class TestLatticeCount:
    """The 1-D and 2-D lattice count and the residue walk against a brute
    walk of the point rule on boundary cases."""

    def check(self, m, k, box):
        assert arc_count(RootTupleOrbit(m, k), box).count == ref_count(m, k, box) == \
            _arc_count_chunk(m, k, box, 1, m + 1), (m, k)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_radian_ends_on_and_off_points(self, dim):
        # the rule evaluates the same float angle x * (2 pi/m) as `members`,
        # whose last bits decide points 1e-12 off an end
        rng = random.Random(f"lattice-edges-{dim}")
        for _ in range(300):
            m = rng.randint(1, 3000)
            self.check(m, tuple(rng.randint(-3000, 3000) for _ in range(dim)),
                       box_edges(rng, m, dim))

    def test_dimension_zero(self):
        for m in (1, 2, 17):
            rep = arc_count(RootTupleOrbit(m, ()), ArcBox([]))
            assert rep.count == m == _arc_count_chunk(m, (), ArcBox([]), 1, m + 1)

    def test_special_orbits(self):
        # k = 0 and k = m (every point at 0), negative k, m = 1, and full
        # and empty arcs (turn arcs with B < A)
        rng = random.Random("lattice-special")
        full = [Arc(Fraction(0), Fraction(1, 2)), Arc(Fraction(3, 7), Fraction(5, 8)),
                Arc(0.0, math.pi), Arc(1.0, 4.0)]
        for m in (1, 2, 3, 12, 97, 2 * _BLOCK - 1, 2 * _BLOCK + 1):
            empty = [Arc(Fraction(1, 2 * m), Fraction(0)),
                     Arc(Fraction(1, 2 * m), Fraction(1, 5 * m))]
            for k in ((0,), (m,), (-1,), (-m - 5,), (0, 0), (m, -m), (0, 5), (-1, -7),
                      (rng.randint(-10**6, -1), rng.randint(1, 10**6))):
                arcs = [rng.choice(full + empty + [random_arc(rng, m, kind)
                                                   for kind in ("turn", "radian")])
                        for _ in k]
                self.check(m, k, ArcBox(arcs))
            for e in empty:
                assert e.members(m) == []
                assert arc_count(RootTupleOrbit(m, (1,)), ArcBox([e])).count == 0
            assert arc_count(RootTupleOrbit(m, (3, 5)), ArcBox(full[:2])).count == m

    def test_near_cap_fast(self):
        # m = 999,999,937 in O(log m) steps; the pinned counts were taken by
        # a walk over all m residues
        import time

        orbit = RootTupleOrbit(999_999_937, (1, 1237))
        for box, count in (
                (ArcBox([Arc(0.0, 0.5), Arc(1.0, 0.5)]), 25_346_421),
                (ArcBox([Arc(Fraction(0), Fraction(1, 8)), Arc(Fraction(1, 4), Fraction(1, 8))]),
                 62_449_471)):
            t0 = time.perf_counter()
            assert arc_count(orbit, box).count == count
            assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("call, exc, match", [
    pytest.param(lambda: RootTupleOrbit(0, (1,)), ValueError, "m must be positive",
                 id="orbit-m-0"),
    pytest.param(lambda: weyl_sum(RootTupleOrbit(7, (1, 2)), (1,)), ValueError,
                 "character length must match", id="weyl-character"),
    pytest.param(lambda: arc_count(RootTupleOrbit(7, (1, 2)), ArcBox((Arc(0, 0.5),))),
                 ValueError, "box dimension must match", id="arc-box"),
    pytest.param(lambda: relation_lattice(0, (1, 2)), ValueError, "modulus must be positive",
                 id="relation-m-0"),
    # an order or a modulus is an integer (operator.index): a float is refused
    pytest.param(lambda: RootTupleOrbit(12.0, (1,)), TypeError,
                 "cannot be interpreted as an integer", id="orbit-m-float"),
    pytest.param(lambda: relation_lattice(7.0, (1, 2)), TypeError,
                 "cannot be interpreted as an integer", id="relation-m-float"),
])
def test_refusals(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
