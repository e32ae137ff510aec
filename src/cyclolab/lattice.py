"""Exact integer-lattice utilities: HNF, kernels, relation lattices, LLL and
the shortest relation.

Everything here works on plain Python integers (arbitrary precision) and
lists of lists; no numpy and no floats.  Row convention: a lattice is the
set of integer combinations of the basis rows.  `_echelon` is the one
integer elimination: `hnf`, the kernel and, through `hnf`, kummer's rank
test are built on it.  `_gram` is the one Gram-Schmidt, shared by
`lll_reduce` and `shortest_relation`.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import index

from ._arith import positive

LLL_DELTA = Fraction(3, 4)  # Lovasz constant of `lll_reduce`
ENUM_NODES = 20_000  # `shortest_relation` refuses past this many search nodes


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """(H, U) with U unimodular and U*A = H in row echelon form, zero rows last.

    The package's one integer elimination (Cohen, *A Course in Computational
    Algebraic Number Theory*, 2.4): column by column, the nonzero entries at
    or below the current row are folded into a single pivot by 2x2
    unimodular xgcd steps, applied to A and to the identity alongside.
    """
    m = len(rows)
    H = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    row = 0
    for col in range(len(H[0]) if H else 0):
        if row >= m:
            break
        nz = [i for i in range(row, m) if H[i][col] != 0]
        if not nz:
            continue
        H[row], H[nz[0]] = H[nz[0]], H[row]
        U[row], U[nz[0]] = U[nz[0]], U[row]
        for i in nz[1:]:
            g, u, v = xgcd(H[row][col], H[i][col])
            a_c, b_c = H[row][col] // g, H[i][col] // g
            for M in (H, U):
                M[row], M[i] = (
                    [u * x + v * y for x, y in zip(M[row], M[i])],
                    [-b_c * x + a_c * y for x, y in zip(M[row], M[i])],
                )
        row += 1
    return H, U


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by `rows`.

    Returns the nonzero rows, echelon shape, positive pivots, entries above
    each pivot reduced into [0, pivot).
    """
    out: list[list[int]] = []
    pivots = []
    for r in _echelon(rows)[0]:
        pc = next((i for i, a in enumerate(r) if a != 0), None)
        if pc is None:
            break
        out.append(r if r[pc] > 0 else [-a for a in r])
        pivots.append(pc)
    # back-reduce entries above pivots
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            pc = pivots[j]
            q = out[i][pc] // out[j][pc]
            if q:
                out[i] = [a - q * b for a, b in zip(out[i], out[j])]
    return out


def kernel_of_matrix(rows: list[list[int]]) -> list[list[int]]:
    """Basis of {x : x . A = 0} for the row-matrix A (x are row vectors)."""
    H, U = _echelon(rows)
    return [u for h, u in zip(H, U) if not any(h)]


def relation_lattice_basis(window: list[tuple[int, list[int]]]) -> list[list[int]]:
    """HNF basis of {n in Z^M : n . k == 0 (mod m) for every (m, k) of the
    window}; it always contains lcm(m) * Z^M.

    One kernel: stack the M rows (k_1[j], ..., k_W[j]) over the W rows
    m_i * e_i.  An x = (n, t) with x . A = 0 has n . k_i = -t_i * m_i for
    every i, so the projection of the kernel onto n is the lattice.  Each
    m and k_i[j] is read as an integer (`positive`, `operator.index`)."""
    window = [(positive(m, "modulus"), list(map(index, k))) for m, k in window]
    dims = {len(k) for _, k in window}
    if len(dims) != 1:
        raise ValueError("the window needs tuples, all of the same length")
    M = dims.pop()
    rows = [[k[j] for _, k in window] for j in range(M)]
    rows += [[m if i == t else 0 for t in range(len(window))] for i, (m, _) in enumerate(window)]
    return hnf([x[:M] for x in kernel_of_matrix(rows)])


def _gram(b: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """The integral Gram-Schmidt data (d, lam) of the rows b, as defined in
    `lll_reduce`: d[i] = d_i for i = 0..n and lam[i][j] = lambda_ij for
    j < i.  Raises ValueError when the rows are linearly dependent."""
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * i for i in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = u
            elif u == 0:
                raise ValueError("rows are linearly dependent")
            else:
                d[i + 1] = u
    return d, lam


def lll_reduce(basis: list[list[int]]) -> list[list[int]]:
    """Exact integral LLL reduction, rows in, rows out (zero rows dropped).

    Integral LLL (Cohen, *A Course in Computational Algebraic Number
    Theory*, Alg. 2.6.7; de Weger 1987).  With b*_i the Gram-Schmidt
    vectors and mu_ij = <b_i, b*_j> / |b*_j|^2, it keeps two kinds of
    integers:

    - the sub-determinants d_i = |b*_0|^2 * ... * |b*_(i-1)|^2, the Gram
      determinant of the first i rows (d_0 = 1);
    - the scaled coefficients lambda_ij = d_(j+1) * mu_ij for j < i.

    Every update of them is an exact integer division, so no fraction is
    ever formed.  The Lovasz test reads q*(d_(k+1)*d_(k-1) + lambda^2) >=
    p*d_k^2 with p/q = LLL_DELTA.  The size-reduction multiplier is
    round(lambda_kj / d_(j+1)) with exact halves rounded to even, as
    Python's `round` rounds a `Fraction`.  So every swap and reduction is
    the one the textbook algorithm takes on the rationals mu_ij and
    |b*_i|^2.  Raises ValueError when the nonzero rows are linearly
    dependent (some d_i is 0).
    """
    b = [list(r) for r in basis if any(r)]
    n = len(b)
    if n <= 1:
        return b
    p, q = LLL_DELTA.numerator, LLL_DELTA.denominator
    d, lam = _gram(b)

    def size_reduce(k, j):
        r, rem = divmod(lam[k][j], d[j + 1])
        if 2 * rem > d[j + 1]:
            r += 1
        elif 2 * rem == d[j + 1]:
            r += r & 1
        if r:
            b[k] = [x - r * y for x, y in zip(b[k], b[j])]
            lam[k][:j] = [x - r * y for x, y in zip(lam[k], lam[j])]
            lam[k][j] -= r * d[j + 1]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        lk = lam[k][k - 1]
        if q * (d[k + 1] * d[k - 1] + lk * lk) >= p * d[k] * d[k]:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
        else:
            d_old, d_next = d[k], d[k + 1]
            d_new = (d_next * d[k - 1] + lk * lk) // d_old
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            for row in lam[k + 1:]:
                t = row[k]
                row[k] = u = (d_next * row[k - 1] - lk * t) // d_old
                row[k - 1] = (d_new * t + lk * u) // d_next
            d[k] = d_new
            k = max(k - 1, 1)
    return b


def shortest_relation(basis: list[list[int]]) -> list[int] | None:
    """A nonzero lattice vector of least max-norm, exactly; None for the
    zero lattice.

    Every v = sum c_i b_i (b_i the LLL rows) of max-norm at most R has
    |v|^2 <= M * R^2, so a depth-first enumeration over c_(n-1), ..., c_0
    finds them all (Fincke-Pohst 1985, Schnorr-Euchner 1994), R falling to
    the best max-norm found so far.  Each bound is an integer comparison
    on the data of `_gram`: |v|^2 = sum_i T_i^2 / (d_i * d_(i+1)) with
    T_i = d_(i+1) * c_i + sum_(j>i) lambda_ji * c_j.  Ties go to the first
    LLL row, then to the least (c_0, ..., c_(n-1)); the first nonzero entry
    is made positive.  Raises ValueError past ENUM_NODES search nodes.
    """
    red = lll_reduce(basis)
    if not red:
        return None
    n, M = len(red), len(red[0])
    d, lam = _gram(red)
    row = min(red, key=lambda v: max(map(abs, v)))
    best = (max(map(abs, row)), (), row)  # max-norm, coefficients, vector
    bound = best[0] - 1  # the greatest max-norm still sought
    # |v|^2 scaled by L, so that each level weighs T_i^2 by an integer
    L = lcm(*(d[i] * d[i + 1] for i in range(n)))
    weight = [L // (d[i] * d[i + 1]) for i in range(n)]
    c = [0] * n
    nodes = 0

    def search(i, used):
        nonlocal best, bound, nodes
        if i < 0:
            v = [sum(x * y for x, y in zip(c, col)) for col in zip(*red)]
            key = (max(map(abs, v)), tuple(c))
            if any(c) and key < best[:2]:  # () sorts first: ties keep the LLL row
                best, bound = (*key, v), key[0]
            return
        s = sum(lam[j][i] * c[j] for j in range(i + 1, n))
        mid = (d[i + 1] - 2 * s) // (2 * d[i + 1])  # nearest integer to -s / d_(i+1)
        # |T_i| grows away from mid, and the radius only shrinks
        for x, step in ((mid, 1), (mid - 1, -1)):
            while (u := used + weight[i] * (d[i + 1] * x + s) ** 2) <= M * bound * bound * L:
                nodes += 1
                if nodes > ENUM_NODES:
                    raise ValueError(f"shortest relation needs over {ENUM_NODES} search nodes")
                c[i] = x
                search(i - 1, u)
                x += step
        c[i] = 0

    search(n - 1, 0)
    v = best[2]
    return [-a for a in v] if next(a for a in v if a) < 0 else list(v)
