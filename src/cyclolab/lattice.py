"""Exact integer-lattice utilities: HNF, kernels, intersections, LLL.

Everything here works on plain Python integers (arbitrary precision) and
lists of lists; no numpy.  Row convention: a lattice is the set of integer
combinations of the basis rows.  `_echelon` is the one integer elimination:
`hnf`, both kernels and, through `hnf`, kummer's rank test are built on it.
"""
from __future__ import annotations

from fractions import Fraction
import itertools

LLL_DELTA = Fraction(3, 4)  # Lovasz constant of `lll_reduce`
ENUM_COEFF = 3  # `shortest_relation` tries coefficients in [-3, 3]


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


def hnf_det(basis: list[list[int]]) -> int:
    """Determinant (covolume) of a full-rank lattice given by any basis."""
    h = hnf(basis)
    n = len(h[0]) if h else 0
    if len(h) != n:
        raise ValueError("basis is not full rank")
    det = 1
    for i, row in enumerate(h):
        det *= row[i]
    return abs(det)


def kernel_of_form(w: list[int]) -> list[list[int]]:
    """Basis of the rank n-1 lattice {x in Z^n : sum x_i w_i = 0}, w != 0."""
    return kernel_of_matrix([[a] for a in w])


def kernel_of_matrix(rows: list[list[int]]) -> list[list[int]]:
    """Basis of {x : x . A = 0} for the row-matrix A (x are row vectors)."""
    H, U = _echelon(rows)
    return [u for h, u in zip(H, U) if not any(h)]


def relation_lattice_basis(m: int, k: list[int]) -> list[list[int]]:
    """HNF basis of {n in Z^M : n . k == 0 (mod m)}; always contains m*Z^M."""
    if m < 1:
        raise ValueError("modulus must be positive")
    M = len(k)
    if M == 0:
        return []
    ker = kernel_of_form(list(k) + [m])
    proj = [row[:M] for row in ker]
    return hnf(proj)


def in_lattice(basis_hnf: list[list[int]], vec: list[int]) -> bool:
    """Membership test against a row-HNF basis via back substitution."""
    v = list(vec)
    pivots = []
    for r in basis_hnf:
        pc = next((i for i, a in enumerate(r) if a != 0), None)
        pivots.append(pc)
    for r, pc in zip(basis_hnf, pivots):
        if pc is None:
            continue
        if v[pc] % r[pc] != 0:
            return False
        q = v[pc] // r[pc]
        v = [a - q * b for a, b in zip(v, r)]
    return all(a == 0 for a in v)


def intersect_lattices(b1: list[list[int]], b2: list[list[int]]) -> list[list[int]]:
    """HNF basis of L1 n L2 where Li is spanned by the rows of bi."""
    if not b1 or not b2:
        return []
    stacked = [list(r) for r in b1] + [[-a for a in r] for r in b2]
    ker = kernel_of_matrix(stacked)
    n1 = len(b1)
    M = len(b1[0])
    vecs = []
    for uv in ker:
        x = [0] * M
        for i in range(n1):
            for j in range(M):
                x[j] += uv[i] * b1[i][j]
        vecs.append(x)
    return hnf(vecs)


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

    # d[i + 1] is d_(i+1) above, lam[i][j] is lambda_ij
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
    """Heuristically shortest (max-norm) nonzero vector of the lattice.

    LLL first, then a small enumeration over combinations of the reduced
    basis.  Exact enough for the desk-scale verdicts used here.
    """
    red = lll_reduce(basis)
    if not red:
        return None
    best = None

    def maxnorm(v):
        return max(abs(a) for a in v)

    for v in red:
        if any(v) and (best is None or maxnorm(v) < maxnorm(best)):
            best = list(v)
    if len(red) <= 4:
        rng = range(-ENUM_COEFF, ENUM_COEFF + 1)
        for coeffs in itertools.product(rng, repeat=len(red)):
            if not any(coeffs):
                continue
            v = [0] * len(red[0])
            for c, row in zip(coeffs, red):
                if c:
                    for j in range(len(v)):
                        v[j] += c * row[j]
            if any(v) and maxnorm(v) < maxnorm(best):
                best = v
    if best is not None and next(a for a in best if a != 0) < 0:
        best = [-a for a in best]
    return best
