import itertools
import math
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclolab import lattice
from cyclolab.kummer import ORACLE_SCALES
from cyclolab.lattice import (
    LLL_DELTA,
    hnf,
    kernel_of_matrix,
    relation_lattice_basis,
    lll_reduce,
    shortest_relation,
)

from _reference import hnf_det, in_lattice

# a 6-row relation lattice whose LLL rows have max-norm 6 and whose
# shortest relation has max-norm 5
K_MOD = 322735
K_ROW = [112816, 120358, 179675, 104136, 73252, 212178]


def _relations(window):
    """Membership in the window's relation lattice, straight from the
    congruences n . k == 0 (mod m)."""
    return lambda n: all(sum(a * b for a, b in zip(n, k)) % m == 0 for m, k in window)


def test_kernel_of_form():
    # the kernel of one column w: {x : x . w = 0}
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(1, 5)
        w = [rng.randint(-9, 9) for _ in range(n)]
        ker = kernel_of_matrix([[a] for a in w])
        expected_rank = n if not any(w) else n - 1
        assert len(ker) == expected_rank
        for v in ker:
            assert sum(a * b for a, b in zip(v, w)) == 0


def test_relation_lattice_examples():
    b = relation_lattice_basis([(12, [2, 3])])
    assert in_lattice(b, [3, 2])
    assert hnf_det(b) == 12
    assert relation_lattice_basis([(5, [1, 0])]) == [[5, 0], [0, 1]]
    b1 = relation_lattice_basis([(1, [4, 7])])
    assert in_lattice(b1, [1, 0]) and in_lattice(b1, [0, 1])
    assert relation_lattice_basis([(7, []), (11, [])]) == []


@pytest.mark.parametrize("window, message", [
    ([], "needs tuples"),
    ([(0, [1, 2])], "positive"),
    ([(7, [1, 1]), (-3, [1, 1])], "positive"),
    ([(7, [1, 1]), (11, [1])], "same length"),
])
def test_relation_lattice_refuses(window, message):
    with pytest.raises(ValueError, match=message):
        relation_lattice_basis(window)


def test_relation_lattice_window_brute_force():
    # n is in the window's lattice iff n . k_i == 0 (mod m_i) for every i,
    # on every n of a box; where it is small, the box [0, L)^M, L = lcm(m_i),
    # is a full period and gives the index L^M / count as well
    rng = random.Random(17)
    for _ in range(60):
        M = rng.randint(1, 3)
        window = [(rng.randint(1, 9), [rng.randint(-12, 12) for _ in range(M)])
                  for _ in range(rng.randint(1, 4))]
        basis = relation_lattice_basis(window)
        member = _relations(window)
        for n in itertools.product(range(-5, 6), repeat=M):
            assert in_lattice(basis, list(n)) == member(n), (window, n)
        L = math.lcm(*(m for m, _ in window))
        if L**M <= 20_000:
            count = sum(map(member, itertools.product(range(L), repeat=M)))
            assert hnf_det(basis) == L**M // count


def test_relation_lattice_brute_force():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randint(1, 10)
        M = rng.randint(1, 3)
        k = [rng.randint(-6, 6) for _ in range(M)]
        basis = relation_lattice_basis([(m, k)])
        count = 0
        idx = [0] * M

        def rec(pos, acc):
            nonlocal count
            if pos == M:
                if acc % m == 0:
                    count += 1
                return
            for v in range(m):
                rec(pos + 1, acc + v * k[pos])

        rec(0, 0)
        assert hnf_det(basis) == m**M // count
        # membership agrees with the direct congruence on random vectors
        for _ in range(10):
            n = [rng.randint(-8, 8) for _ in range(M)]
            direct = sum(a * b for a, b in zip(n, k)) % m == 0
            assert in_lattice(basis, n) == direct
        # m * e_i always present
        for i in range(M):
            assert in_lattice(basis, [m if j == i else 0 for j in range(M)])


def test_intersection():
    # a window's lattice is the intersection of its instances' lattices
    b1 = relation_lattice_basis([(7, [1, 1])])
    b2 = relation_lattice_basis([(11, [1, 1])])
    inter = relation_lattice_basis([(7, [1, 1]), (11, [1, 1])])
    assert in_lattice(inter, [1, -1])
    assert not in_lattice(inter, [1, 0])
    # intersection membership = membership in both
    rng = random.Random(9)
    for _ in range(50):
        v = [rng.randint(-20, 20) for _ in range(2)]
        assert in_lattice(inter, v) == (in_lattice(b1, v) and in_lattice(b2, v))


def test_lll_preserves_lattice_and_shortens():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 4)
        M = [[rng.randint(-40, 40) for _ in range(n)] for _ in range(n)]
        h = hnf(M)
        if len(h) != n:
            continue
        red = lll_reduce(M)
        assert hnf(red) == h
        norm = lambda v: sum(x * x for x in v)
        assert min(norm(v) for v in red) <= min(norm(v) for v in M)


def test_lll_first_vector_quality():
    # the first reduced vector obeys the LLL approximation bound against a
    # brute-force shortest vector
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 3)
        M = [[rng.randint(-15, 15) for _ in range(n)] for _ in range(n)]
        h = hnf(M)
        if len(h) != n:
            continue
        red = lll_reduce(M)
        # brute force shortest over small combinations of the reduced basis
        best = None
        rng2 = range(-4, 5)
        import itertools

        for coeffs in itertools.product(rng2, repeat=n):
            if not any(coeffs):
                continue
            v = [sum(c * red[i][j] for i, c in enumerate(coeffs)) for j in range(n)]
            norm = sum(x * x for x in v)
            if best is None or norm < best:
                best = norm
        first = sum(x * x for x in red[0])
        assert first <= 2 ** (n - 1) * best


def test_shortest_relation():
    inter = relation_lattice_basis([(7, [1, 1]), (11, [1, 1]), (13, [1, 1])])
    assert shortest_relation(inter) == [1, -1]
    assert shortest_relation([]) is None
    assert shortest_relation([[0, 0, 0]]) is None


def test_shortest_relation_beats_lll_rows():
    basis = relation_lattice_basis([(K_MOD, K_ROW), (K_MOD, K_ROW)])
    assert min(max(map(abs, v)) for v in lll_reduce(basis)) == 6
    rel = shortest_relation(basis)
    assert rel == [4, -2, 3, -4, 3, 5]
    assert in_lattice(basis, rel) and sum(a * b for a, b in zip(rel, K_ROW)) % K_MOD == 0


def _coefficients(rows, v):
    """The c with sum_j c_j * rows[j] = v, for square invertible rows, by
    Gauss-Jordan elimination on Fractions."""
    n = len(rows)
    a = [[Fraction(rows[j][i]) for j in range(n)] + [Fraction(v[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] / a[i][i] for i in range(n))


# lattices with two shortest relations that differ beyond their sign, neither
# an LLL row
TIES = [[(989, [831, 404, 488])], [(618, [113, 117, 219])], [(454, [48, 308, 213])],
        [(285, [270, 101, 75, 16])]]


def test_shortest_relation_brute_force():
    # against every relation in [-R, R]^M, R the returned max-norm: none is
    # shorter, and the tie rule picks the first LLL row of max-norm R, else
    # the least coefficient vector on the LLL basis, sign-normalized
    rng = random.Random(23)
    windows = [[(rng.randint(2, 40), [rng.randint(0, 39) for _ in range(M)])
                for _ in range(rng.randint(1, 2))]
               for M in (rng.randint(1, 4) for _ in range(150))]
    for window in TIES + windows:
        M = len(window[0][1])
        basis = relation_lattice_basis(window)
        red = lll_reduce(basis)
        rel = shortest_relation(basis)
        R = max(map(abs, rel))
        member = _relations(window)
        shortest = [n for n in itertools.product(range(-R, R + 1), repeat=M)
                    if any(n) and member(n)]
        assert min(max(map(abs, n)) for n in shortest) == R, (window, rel)
        rows = [v for v in red if max(map(abs, v)) == R]
        want = rows[0] if rows else min(
            (n for n in shortest if max(map(abs, n)) == R),
            key=lambda n: _coefficients(red, n))
        want = list(want) if next(a for a in want if a) > 0 else [-a for a in want]
        assert rel == want, (window, rel)


def _short_combinations(rows, r2):
    """Every nonzero c with |sum c_i rows_i|^2 <= r2, by a fixed-radius
    enumeration on Fraction Gram-Schmidt data (mu, |b*_i|^2)."""
    n = len(rows)
    star, mu = [], [[Fraction(0)] * n for _ in range(n)]
    for i, b in enumerate(rows):
        v = [Fraction(x) for x in b]
        for j, s in enumerate(star):
            mu[i][j] = sum(x * y for x, y in zip(b, s)) / sum(y * y for y in s)
            v = [x - mu[i][j] * y for x, y in zip(v, s)]
        star.append(v)
    B = [sum(x * x for x in s) for s in star]
    out = []

    def rec(i, c, used):
        if i < 0:
            if any(c):
                out.append(tuple(c))
            return
        center = -sum(c[j] * mu[j][i] for j in range(i + 1, n))
        reach = math.isqrt(math.floor((r2 - used) / B[i])) + 1
        for x in range(math.floor(center) - reach, math.ceil(center) + reach + 1):
            u = used + B[i] * (x - center) ** 2
            if u <= r2:
                rec(i - 1, c[:i] + [x] + c[i + 1:], u)

    rec(n - 1, [0] * n, Fraction(0))
    return out


def test_shortest_relation_matches_fraction_enumeration():
    # on lattices whose LLL rows miss the least max-norm R: no relation is
    # shorter, and of those of max-norm R the one with the least coefficient
    # vector on the LLL basis is returned, sign-normalized
    rng = random.Random(0)
    checked = 0
    while checked < 6:
        M, m = rng.randint(5, 6), rng.randint(2, 10**6)
        basis = relation_lattice_basis([(m, [rng.randrange(m) for _ in range(M)])])
        red, rel = lll_reduce(basis), shortest_relation(basis)
        R = max(map(abs, rel))
        if min(max(map(abs, v)) for v in red) == R:
            continue
        checked += 1
        vecs = [(c, [sum(x * y for x, y in zip(c, col)) for col in zip(*red)])
                for c in _short_combinations(red, M * R * R)]
        norm, _, want = min((max(map(abs, v)), c, v) for c, v in vecs)
        assert norm == R
        assert rel == (want if next(a for a in want if a) > 0 else [-a for a in want])


def test_shortest_relation_node_budget(monkeypatch):
    basis = relation_lattice_basis([(K_MOD, K_ROW)])
    monkeypatch.setattr(lattice, "ENUM_NODES", 5)
    with pytest.raises(ValueError, match="over 5 search nodes"):
        shortest_relation(basis)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.lists(st.integers(-9, 9), min_size=1, max_size=3))
def test_relation_lattice_membership_property(m, k):
    basis = relation_lattice_basis([(m, k)])
    for n in ([1] + [0] * (len(k) - 1), list(k), [m] * len(k)):
        direct = sum(a * b for a, b in zip(n, k)) % m == 0
        assert in_lattice(basis, n) == direct


def _matrices(max_rows):
    return st.integers(1, 5).flatmap(lambda c: st.lists(
        st.lists(st.integers(-20, 20), min_size=c, max_size=c),
        min_size=1, max_size=max_rows))


@settings(max_examples=80, deadline=None)
@given(_matrices(5), st.data())
def test_hnf_invariant_under_unimodular_row_operations(A, data):
    c = len(A[0])
    # a zero row and a duplicated row leave the lattice unchanged
    B = A + [[0] * c, list(A[data.draw(st.integers(0, len(A) - 1))])]
    n = len(B)
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
    for i, j, k in data.draw(st.lists(ops, max_size=12)):
        if i == j:
            B[i] = [-a for a in B[i]]
        else:
            B[i] = [a + k * b for a, b in zip(B[i], B[j])]
    B = data.draw(st.permutations(B))
    h = hnf(A)
    assert hnf(B) == h
    # the shape hnf promises: echelon, positive pivots, reduced above them
    pivots = [next(i for i, a in enumerate(r) if a) for r in h]
    assert pivots == sorted(set(pivots))
    for i, (r, pc) in enumerate(zip(h, pivots)):
        assert r[pc] > 0
        assert all(0 <= h[k][pc] < r[pc] for k in range(i))


@settings(max_examples=80, deadline=None)
@given(_matrices(6))
def test_kernel_of_matrix_annihilates(A):
    ker = kernel_of_matrix(A)
    assert len(ker) == len(A) - len(hnf(A))
    for x in ker:
        assert len(x) == len(A)
        assert all(sum(x[i] * A[i][j] for i in range(len(A))) == 0 for j in range(len(A[0])))


def _lll_reduce_fraction(basis):
    """Reference LLL on `Fraction` Gram-Schmidt data (mu, squared norms),
    updated incrementally by the textbook size-reduction and swap steps;
    `lll_reduce` must take the same decisions on integers."""
    b = [list(r) for r in basis if any(r)]
    n = len(b)
    if n <= 1:
        return b

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    # mu[i][j] = <b_i, b*_j> / B[j], B[i] = |b*_i|^2
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n
    for i in range(n):
        inner = [Fraction(0)] * i
        for j in range(i):
            s = Fraction(dot(b[i], b[j]))
            for t in range(j):
                s -= mu[j][t] * inner[t]
            inner[j] = s
            mu[i][j] = s / B[j]
        Bi = Fraction(dot(b[i], b[i]))
        for t in range(i):
            Bi -= mu[i][t] * inner[t]
        B[i] = Bi

    def size_reduce(k, j):
        r = round(mu[k][j])
        if r:
            b[k] = [x - r * y for x, y in zip(b[k], b[j])]
            mu[k][j] -= r
            for t in range(j):
                mu[k][t] -= r * mu[j][t]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        if B[k] >= (LLL_DELTA - mu[k][k - 1] ** 2) * B[k - 1]:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
        else:
            m_old = mu[k][k - 1]
            B_new = B[k] + m_old * m_old * B[k - 1]
            mu[k][k - 1] = m_old * B[k - 1] / B_new
            B[k] = B[k - 1] * B[k] / B_new
            B[k - 1] = B_new
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
            for i in range(k + 1, n):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m_old * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
    return b


@pytest.mark.parametrize("m", [5, 7, 8, 12, 16, 19])
def test_lll_reduce_matches_fraction_reference_on_oracle_lattices(m, oracle_lattice):
    for beta in (lambda mp: mp.sqrt(2), lambda mp: 1j * mp.cbrt(3)):
        for scale in ORACLE_SCALES:
            rows = oracle_lattice(m, beta, scale)
            assert lll_reduce(rows) == _lll_reduce_fraction(rows), (m, scale)


@st.composite
def _full_rank(draw):
    r = draw(st.integers(1, 6))
    c = draw(st.integers(r, 8))
    entry = st.integers(-10**30, 10**30)
    M = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    assume(len(hnf(M)) == r)
    return M


@settings(max_examples=150, deadline=None)
@given(_full_rank())
def test_lll_reduce_matches_fraction_reference(M):
    assert lll_reduce(M) == _lll_reduce_fraction(M)


def test_lll_reduce_ties():
    # mu = 1/2 and mu = 3/2 at the first size reduction: round() gives 0 and 2
    assert lll_reduce([[2, 0], [1, 1]]) == [[1, 1], [1, -1]]
    assert lll_reduce([[2, 0], [3, 1]]) == [[-1, 1], [1, 1]]
    # mu = 1/2, |b*_1|^2 = 2 = (3/4 - 1/4) * |b_0|^2: Lovasz holds, no swap
    assert lll_reduce([[2, 0, 0], [1, 1, 1]]) == [[2, 0, 0], [1, 1, 1]]


@pytest.mark.parametrize("rows", [
    [[1, 2], [2, 4]],
    [[1, 0, 0], [0, 1, 0], [1, 1, 0]],
    [[3, 1, 4], [0, 0, 0], [6, 2, 8]],
])
def test_lll_reduce_rejects_dependent_rows(rows):
    with pytest.raises(ValueError, match="rows are linearly dependent"):
        lll_reduce(rows)


def test_lll_reduce_drops_zero_rows():
    assert lll_reduce([[0, 0], [3, 4], [0, 0]]) == [[3, 4]]
    assert lll_reduce([[0, 0, 0], [1, 1, 0], [0, 0, 0], [1, 0, 0]]) == [[1, 0, 0], [0, 1, 0]]
