import math
import random
import time
from fractions import Fraction

import pytest

from cyclolab import heights
from cyclolab._arith import divisors, euler_phi, poly_divmod, poly_gcd, poly_mul, poly_trim
from cyclolab.cyclotomic import cyclotomic_polynomial
from cyclolab.heights import (
    _primitive_int,
    _squarefree_part,
    _squarefree_rational_roots,
    AlgebraicNumber,
    weil_height,
    mahler_measure,
    power_transform,
    is_root_of_unity,
    radical_height,
    poly_roots,
    resultant,
)

from _reference import radical_minpoly


def random_irreducible(rng, deg_max=4):
    while True:
        deg = rng.randint(2, deg_max)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        try:
            return AlgebraicNumber(tuple(coeffs))
        except ValueError:
            continue


def ref_power_transform(alpha, n):
    """Test-only reference: the defining polynomial of alpha^n by resultant
    elimination, Res_y(p(y), x - y^n) at deg(p)+1 integer points and exact
    Lagrange interpolation, then the same squarefree, primitive, reversal
    and root-selection steps as `power_transform`."""
    if n == 0:
        raise ValueError("n must be a nonzero integer")
    p = list(alpha.minpoly)
    if n < 0 and p[0] == 0:
        raise ValueError("cannot invert zero")
    k = abs(n)
    deg = len(p) - 1
    xs = []
    v = 0
    while len(xs) < deg + 1:
        xs.append(v)
        v = -v + (1 if v <= 0 else 0)  # 0, 1, -1, 2, -2, ...
    vals = []
    for x0 in xs:
        gy = [Fraction(x0)] + [Fraction(0)] * (k - 1) + [Fraction(-1)]
        vals.append(resultant([Fraction(c) for c in p], gy))
    q = [Fraction(0)] * (deg + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = poly_mul(basis, [Fraction(-xj), Fraction(1)])
            denom *= Fraction(xi - xj)
        scale = vals[i] / denom
        for t, c in enumerate(basis):
            q[t] += scale * c
    poly_trim(q)
    dq = poly_trim([i * c for i, c in enumerate(q)][1:])
    sf = poly_divmod(q, poly_gcd(q, dq))[0]
    ints = _primitive_int(sf)
    if n < 0:
        ints = list(reversed(ints))
        if ints[-1] < 0:
            ints = [-c for c in ints]
    target = alpha.root() ** n
    rts = poly_roots(ints)
    idx = min(range(len(rts)), key=lambda i: abs(rts[i] - target))
    return AlgebraicNumber(tuple(ints), idx)


def _outcome(fn, *args):
    try:
        b = fn(*args)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)
    return b.minpoly, b.root_index


class TestWeilHeight:
    def test_integers_and_fractions(self):
        assert weil_height((-2, 1)) == pytest.approx(math.log(2), abs=1e-12)
        assert weil_height((-1, 3)) == pytest.approx(math.log(3), abs=1e-12)

    def test_golden_ratio(self):
        phi = (1 + math.sqrt(5)) / 2
        assert weil_height((-1, -1, 1)) == pytest.approx(0.5 * math.log(phi), abs=1e-10)

    def test_nonnegative(self):
        rng = random.Random(3)
        for _ in range(100):
            deg = rng.randint(1, 5)
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
            assert weil_height(tuple(coeffs)) >= -1e-12

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            weil_height((0,))

    def test_repeated_factor_refused(self):
        with pytest.raises(ValueError, match="repeated factor"):
            mahler_measure((-8, 12, -6, 1))  # (x - 2)^3
        with pytest.raises(ValueError, match="repeated factor"):
            weil_height((1, 2, 3, 2, 1))  # (x^2 + x + 1)^2

    def test_algebraic_number_skips_squarefree_check(self, monkeypatch):
        # an AlgebraicNumber is squarefree by construction
        alpha = AlgebraicNumber((-2, 0, 0, 1))
        monkeypatch.setattr(heights, "_squarefree_part", None)
        assert weil_height(alpha) == pytest.approx(math.log(2) / 3, abs=1e-12)
        assert abs(alpha.root() ** 3 - 2) < 1e-12

    def test_root_index_irrelevant(self):
        p = (-1, -1, 1)
        assert weil_height(AlgebraicNumber(p, 0)) == weil_height(AlgebraicNumber(p, 1))


class TestPowerTransform:
    def test_cube_root_cubed(self):
        a = AlgebraicNumber((-2, 0, 0, 1))
        b = power_transform(a, 3)
        assert b.minpoly == (-2, 1)
        assert weil_height(b) == pytest.approx(3 * weil_height(a), abs=1e-12)

    def test_identity_power(self):
        a = AlgebraicNumber((-1, -1, 1))
        assert weil_height(power_transform(a, 1)) == pytest.approx(weil_height(a), abs=1e-12)

    def test_golden_square(self):
        a = AlgebraicNumber((-1, -1, 1))
        b = power_transform(a, 2)
        assert b.minpoly == (1, -3, 1)
        assert weil_height(b) == pytest.approx(2 * weil_height(a), abs=1e-10)

    def test_negative_power(self):
        a = AlgebraicNumber((-1, -1, 1))
        b = power_transform(a, -2)
        assert weil_height(b) == pytest.approx(2 * weil_height(a), abs=1e-9)

    def test_power_law_random(self):
        rng = random.Random(7)
        for _ in range(200):
            a = random_irreducible(rng)
            for n in (2, 3):
                b = power_transform(a, n)
                assert abs(weil_height(b) - n * weil_height(a)) < 1e-9

    def test_root_tracks_value(self):
        rng = random.Random(9)
        for _ in range(30):
            a = random_irreducible(rng, deg_max=3)
            b = power_transform(a, 2)
            assert abs(b.root() - a.root() ** 2) < 1e-6

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            power_transform(AlgebraicNumber((-2, 1)), 0)

    def test_matches_resultant_reference(self):
        """Newton power sums against resultant elimination: the same
        (minpoly, root_index) or the same exception type on 536 seeded
        cases of degree 2-8.  Random polynomials cover the generic case;
        x^d - a and Phi_m make alpha^n of lower degree, so the squarefree
        step and the root selection among repeated values are exercised."""
        rng = random.Random(2024)
        ns = (2, -2, 3, -3, 4, 5, -5, 7)
        alphas = []
        while len(alphas) < 50:
            deg = rng.randint(2, 8)
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
            try:
                alphas.append(AlgebraicNumber(tuple(coeffs)))
            except ValueError:
                continue
        for deg in range(2, 9):
            a = rng.choice((2, 3, 5, 6, 7))
            alphas.append(AlgebraicNumber(tuple([-a] + [0] * (deg - 1) + [1]),
                                          rng.randrange(deg)))
        alphas += [AlgebraicNumber(cyclotomic_polynomial(m), rng.randrange(euler_phi(m)))
                   for m in (3, 5, 8, 9, 12, 15, 16, 20, 24, 30)]
        assert len(alphas) * len(ns) >= 500
        for a in alphas:
            for n in ns:
                assert _outcome(power_transform, a, n) == _outcome(ref_power_transform, a, n), (
                    a, n)


class TestRootsOfUnity:
    def test_cyclotomic_true(self):
        for k in (1, 2, 3, 7, 12, 30):
            assert is_root_of_unity(AlgebraicNumber(cyclotomic_polynomial(k)))

    def test_non_torsion(self):
        assert not is_root_of_unity(AlgebraicNumber((-2, 1)))
        assert not is_root_of_unity(AlgebraicNumber((-1, -1, 1)))
        # non-monic: roots of modulus 1 or not, never roots of unity
        assert not is_root_of_unity(AlgebraicNumber((5, 6, 5)))
        assert not is_root_of_unity(AlgebraicNumber((1, 0, 0, 0, 2)))
        assert weil_height((-1, -1, 1)) > 1e-3

    def test_kronecker_equivalence(self):
        # every order whose Phi_k fits DEGREE_CAP = 64: phi(k) >= sqrt(k/2)
        # puts them all below 2 * 64^2
        orders = [k for k in range(1, 2 * 64 * 64 + 1) if euler_phi(k) <= 64]
        assert len(orders) == 127
        for k in orders:
            p = cyclotomic_polynomial(k)
            assert weil_height(p) < 1e-9
            assert is_root_of_unity(AlgebraicNumber(p))

    def test_products_of_cyclotomics_are_not_minimal_polynomials(self):
        # outside AlgebraicNumber's contract (irreducible), yet accepted by
        # its cheap probes; torsion compares with one Phi_k, so both answer
        # False (Phi_3 * Phi_4 read True before, by dividing x^12 - 1)
        for m, n in ((3, 4), (5, 7)):
            p = poly_mul(list(cyclotomic_polynomial(m)), list(cyclotomic_polynomial(n)))
            assert not is_root_of_unity(AlgebraicNumber(tuple(int(c) for c in p)))


class TestRadicalHeight:
    def test_examples(self):
        assert radical_height(2, 3) == pytest.approx(math.log(2) / 3, abs=1e-15)
        assert radical_height(1, 7) == 0
        assert radical_height(Fraction(6, 5), 2) == pytest.approx(math.log(6) / 2, abs=1e-15)

    def test_cross_check_with_minpoly(self):
        for a, n in ((Fraction(2), 3), (Fraction(6, 5), 2), (Fraction(3), 2)):
            poly = radical_minpoly(a, n)
            assert weil_height(poly) == pytest.approx(radical_height(a, n), abs=1e-10)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            radical_height(-2, 2)
        with pytest.raises(ValueError):
            radical_height(2, 0)
        with pytest.raises(TypeError):  # a root order is an integer
            radical_height(2, 2.0)


class TestPolyTools:
    def test_roots_accuracy(self):
        # (x-1)(x-2)(x-3) = -6 + 11x - 6x^2 + x^3
        rts = poly_roots((-6, 11, -6, 1))
        assert [round(r.real) for r in rts] == [1, 2, 3]
        assert all(abs(r.imag) < 1e-12 for r in rts)

    @pytest.mark.parametrize("starts, want", [
        # the derivative 2x is 0 at the start 0: polishing stops there
        ([0.0, 1.5], [0j, complex(math.sqrt(2))]),
        # from 50 each step is clamped to length 1, so six steps end near 44,
        # past the Fujiwara bound 3: the start is kept
        ([50.0, -1.5], [complex(-math.sqrt(2)), 50 + 0j]),
    ], ids=["zero-derivative", "clamped-escape"])
    def test_polish_safeguards(self, monkeypatch, starts, want):
        import numpy as np
        monkeypatch.setattr(np, "roots", lambda coeffs: np.array(starts, dtype=complex))
        rts = poly_roots((-2, 0, 1))  # x^2 - 2
        assert rts == pytest.approx(want, abs=1e-15)

    def test_resultant_shares_root(self):
        # x^2 - 1 and x - 1 share a root
        assert resultant([Fraction(-1), Fraction(0), Fraction(1)],
                         [Fraction(-1), Fraction(1)]) == 0
        # x^2 + 1 and x - 1 do not
        assert resultant([Fraction(1), Fraction(0), Fraction(1)],
                         [Fraction(-1), Fraction(1)]) == 2

    def test_mahler_measure(self):
        assert mahler_measure((-2, 1)) == pytest.approx(2.0, abs=1e-12)
        assert mahler_measure(cyclotomic_polynomial(12)) == pytest.approx(1.0, abs=1e-10)

    def test_zero_and_constant_refused(self):
        for p in ((), (0,), (0, 0), (5,), (Fraction(1, 2), 0)):
            for f in (_primitive_int, poly_roots, weil_height, mahler_measure, AlgebraicNumber):
                with pytest.raises(ValueError, match="positive degree"):
                    f(p)

    def test_reducible_probes(self):
        for minpoly in (
            (-1, 0, 1),  # x^2 - 1
            (-4, 0, 1),  # x^2 - 4
            (2, 3, 1),  # (x+1)(x+2)
            (1, 2, 1),  # (x+1)^2: its squarefree part has the root -1
            (0, 0, 1),  # x^2
        ):
            with pytest.raises(ValueError, match="rational root"):
                AlgebraicNumber(minpoly)

    def test_big_irreducible_quadratic(self):
        # x^2 + pq with primes p, q near 10^18: the Hensel probe finds no
        # rational root without factoring p*q
        p, q = 10**18 + 3, 10**18 + 9
        t0 = time.perf_counter()
        alpha = AlgebraicNumber((p * q, 0, 1))
        assert time.perf_counter() - t0 < 0.05
        assert alpha.minpoly == (p * q, 0, 1) and alpha.degree == 2


def _rational_roots(ints):
    """The rational roots of a nonconstant integer polynomial, as
    `AlgebraicNumber` probes them."""
    return _squarefree_rational_roots(_squarefree_part(ints))


def ref_rational_roots(ints):
    """Test-only reference: every +-p/q with p | a_0 and q | a_n, evaluated
    in Fraction arithmetic; a root 0 is divided out first."""
    if ints[0] == 0:
        k = next(i for i, c in enumerate(ints) if c)
        return {Fraction(0)} | (ref_rational_roots(ints[k:]) if len(ints) > k + 1 else set())
    return {Fraction(s * p, q) for p in divisors(ints[0]) for q in divisors(ints[-1])
            for s in (1, -1)
            if sum(c * Fraction(s * p, q) ** i for i, c in enumerate(ints)) == 0}


class TestRationalRoots:
    def test_matches_divisor_reference(self):
        # products of random linear factors t*x - s (with repeats) and
        # random factors of degree 2-3, so some inputs are not squarefree
        rng = random.Random(5)
        found = 0
        for _ in range(300):
            poly = [rng.randint(1, 9)]
            for _ in range(rng.randint(0, 3)):
                factor = ([rng.randint(-12, 12), rng.randint(1, 6)] if rng.random() < 0.6
                          else [rng.randint(-9, 9) for _ in range(rng.randint(2, 3))]
                          + [rng.randint(1, 5)])
                poly = poly_mul(poly, factor)
                if rng.random() < 0.3:
                    poly = poly_mul(poly, factor)
            if len(poly) < 2:  # a constant: `_primitive_int` refuses it
                continue
            ints = _primitive_int(poly)
            want = ref_rational_roots(ints)
            assert set(_rational_roots(ints)) == want, ints
            found += bool(want)
        assert found > 100

    def test_zero_root_divided_out(self):
        # a root 0 is one root among the others, not the only answer
        for poly, want in (([0, -1, 1], {0, 1}),  # x^2 - x
                           ([0, 2, -3, 1], {0, 1, 2}),  # x(x-1)(x-2)
                           ([0, 0, -2, 1], {0, 2}),  # x^2 (x-2)
                           ([0, 1], {0})):
            assert set(_rational_roots(poly)) == want == ref_rational_roots(poly), poly

    def test_not_squarefree(self):
        # multiple roots stay multiple mod every prime: the probe must take
        # the squarefree part first or it finds no usable prime
        t0 = time.perf_counter()
        assert _rational_roots([4, 0, 4, 0, 1]) == []  # (x^2 + 2)^2
        cube = poly_mul(poly_mul([-1, 1], [-1, 1]), poly_mul([2, 1], poly_mul([2, 1], [2, 1])))
        assert set(_rational_roots(cube)) == {Fraction(1), Fraction(-2)}  # (x-1)^2 (x+2)^3
        assert time.perf_counter() - t0 < 1.0
        with pytest.raises(ValueError, match="rational root"):
            AlgebraicNumber(tuple(poly_mul(poly_mul([-1, 1], [-1, 1]), [2, 0, 1])))

    def test_repeated_factor_refused(self):
        # no rational root, but gcd(f, f') is nonconstant: not irreducible
        for poly in ((1, 2, 3, 2, 1), (4, 0, 4, 0, 1)):  # (x^2+x+1)^2, (x^2+2)^2
            assert _rational_roots(list(poly)) == []
            with pytest.raises(ValueError, match="repeated factor"):
                AlgebraicNumber(poly)
        assert AlgebraicNumber((1, 1, 1)).degree == 2  # the squarefree part constructs
        assert AlgebraicNumber((2, 0, 1)).degree == 2

    def test_power_of_big_linear_factor(self):
        # f' divides f exactly when f = (x - s)^n: the gcd is f' itself and
        # must stay exact, or s = 10^18 + 3 rounds to 10^18 and 10^200 overflows
        s = 10**18 + 3
        cube = [-(s**3), 3 * s**2, -3 * s, 1]
        assert _rational_roots(cube) == [Fraction(s)]
        with pytest.raises(ValueError, match="rational root"):
            AlgebraicNumber(tuple(cube))
        with pytest.raises(ValueError, match="rational root"):
            AlgebraicNumber((-(10**600), 3 * 10**400, -3 * 10**200, 1))

    def test_big_irreducible_cubic(self):
        # x^3 + pq is irreducible (Eisenstein at p); nothing is factored
        p, q = 10**18 + 3, 10**18 + 9
        t0 = time.perf_counter()
        alpha = AlgebraicNumber((p * q, 0, 0, 1))
        assert time.perf_counter() - t0 < 0.05
        assert alpha.minpoly == (p * q, 0, 0, 1) and alpha.degree == 3
        assert _rational_roots([-(p**3) * q**3, 0, 0, q**3]) == [Fraction(p)]


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: poly_roots([1] + [0] * 64 + [1]), "the degree = 65 exceeds the degree cap 64",
                 id="roots-degree-65"),
    pytest.param(lambda: radical_height(2, 0), "root order must be positive",
                 id="radical-height-n-0"),
    pytest.param(lambda: AlgebraicNumber((-2, 0, 1), root_index=2), "root index out of range",
                 id="root-index"),
    pytest.param(lambda: power_transform(AlgebraicNumber((0, 1)), -1), "cannot invert zero",
                 id="invert-zero"),
    # coefficients past the double range: 2 * 10^400, and the 836-digit
    # Lucas number L_4000 in the minimal polynomial of the golden ratio's
    # 4000th power
    pytest.param(lambda: weil_height(AlgebraicNumber((-2 * 10**400, 0, 1))), "double limit",
                 id="height-huge-coefficient"),
    pytest.param(lambda: power_transform(AlgebraicNumber((-1, -1, 1)), 4000), "double limit",
                 id="power-huge-coefficient"),
    pytest.param(lambda: poly_roots([1, 0, -(2**1024)]), "double limit", id="roots-2^1024"),
])
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_degree_past_the_cap_refused_before_the_probes():
    # the O(n^2) squarefree Euclid over F_p ran first, 0.24 s on this dense
    # degree-800 polynomial, though no root past the cap can be taken
    rng = random.Random(1)
    dense = tuple(rng.randint(-9, 9) for _ in range(800)) + (1,)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="the degree = 800 exceeds the degree cap 64"):
        AlgebraicNumber(dense)
    assert time.perf_counter() - t0 < 0.05


def test_root_index_is_an_integer():
    # read through operator.index: a float is refused at construction, an
    # integer type such as numpy's or bool is taken as its int
    import numpy as np

    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        AlgebraicNumber((-2, 0, 1), root_index=1.0)
    for i in (np.int64(1), True):
        alpha = AlgebraicNumber((-2, 0, 1), root_index=i)
        assert type(alpha.root_index) is int and alpha == AlgebraicNumber((-2, 0, 1), 1)
        assert power_transform(alpha, 2).minpoly == (-2, 1)
