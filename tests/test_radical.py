import cmath
import itertools
import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from cyclolab import radical
from cyclolab.cyclotomic import zeta
from cyclolab.equidist import Arc, ArcBox
from cyclolab.radical import (
    FOLD_BITS,
    RadicalContext,
    RadicalSum,
    GaloisElement,
    Monomial,
    apply_galois,
    orbit_moduli,
    cosine_expansion,
    d_gamma_eps,
    marginal_orbit_stats,
    sigma_search,
    normalize_terms,
    factor_out_division_point,
    exponent_relation_basis,
    term_energy_profile,
    cosine_identity_sides,
    parse_radical_sum,
)

from _reference import compose

F = Fraction


def small_context(rng):
    b = rng.randint(1, 2)
    gens = rng.sample([F(2), F(3), F(5), F(7, 2)], b)
    dens = [rng.choice([2, 3, 4, 6, 8, 12]) for _ in range(b)]
    D = rng.choice([1, 3, 4, 8, 12])
    return RadicalContext(gens, dens, D)


def random_sum(rng, ctx, nterms=2):
    terms = [
        (
            zeta(ctx.D, rng.randrange(ctx.D)) * F(rng.randint(1, 5), rng.randint(1, 4)),
            tuple(rng.randint(-4, 4) for _ in range(ctx.rank)),
        )
        for _ in range(nterms)
    ]
    return RadicalSum(ctx, terms)


class TestContext:
    def test_frozen_and_compared_by_fields(self):
        ctx = RadicalContext([F(2)], [2], D=8, failures=[1])
        same = RadicalContext([2], (2,), 8, (1,))
        assert ctx == same and hash(ctx) == hash(same)
        assert ctx.group == (2,) and ctx.D_work == 8
        # group and D_work are derived: equality does not read them
        object.__setattr__(same, "group", (1,))
        object.__setattr__(same, "D_work", 1)
        assert ctx == same
        assert ctx != RadicalContext([F(2)], [2], D=8)  # failures (2,)
        for name, value in (("D", 3), ("group", (1,)), ("generators", ())):
            with pytest.raises(AttributeError):
                setattr(ctx, name, value)

    def test_failures_computed(self):
        ctx = RadicalContext([F(2)], [2], D=8)
        assert ctx.failures == (2,) and ctx.group == (1,)
        ctx2 = RadicalContext([F(2)], [2], D=1)
        assert ctx2.failures == (1,) and ctx2.group == (2,)

    def test_user_failures(self):
        ctx = RadicalContext([F(2)], [2], D=8, failures=[1])
        assert ctx.group == (2,)

    def test_dependent_generators_rejected(self):
        with pytest.raises(ValueError, match="independent"):
            RadicalContext([F(2), F(4)], [2, 2], D=1)

    def test_merge_on_construction(self):
        ctx = RadicalContext([F(2)], [2], D=1)
        x = RadicalSum(ctx, [(F(1, 2), (1,)), (F(1, 3), (1,))])
        assert x.n_terms == 1 and x.terms[0][0] == F(5, 6)


class TestAction:
    def test_cube_root_rotation(self):
        ctx = RadicalContext([F(2)], [3], D=3)
        x = RadicalSum(ctx, [(1, (0,)), (1, (1,))])
        y = apply_galois(GaloisElement(1, (1,)), x)
        want = 1 + cmath.exp(2j * math.pi / 3) * 2 ** (1 / 3)
        assert abs(y.evaluate() - want) < 1e-12

    def test_identity(self):
        ctx = RadicalContext([F(2)], [3], D=3)
        x = RadicalSum(ctx, [(zeta(3), (2,))])
        y = apply_galois(GaloisElement(1, (0,)), x)
        assert abs(y.evaluate() - x.evaluate()) < 1e-14

    def test_combined_action(self):
        ctx = RadicalContext([F(2)], [2], D=8, failures=[1])
        x = RadicalSum(ctx, [(zeta(8), (1,))])
        y = apply_galois(GaloisElement(3, (1,)), x)
        want = -cmath.exp(2j * math.pi * 3 / 8) * math.sqrt(2)
        assert abs(y.evaluate() - want) < 1e-12

    def test_bad_t_rejected(self):
        ctx = RadicalContext([F(2)], [2], D=8, failures=[1])
        x = RadicalSum(ctx, [(1, (1,))])
        with pytest.raises(ValueError, match="Galois"):
            apply_galois(GaloisElement(2, (0,)), x)

    def test_composition_compatibility(self):
        rng = random.Random(5)
        done = 0
        while done < 200:
            ctx = small_context(rng)
            x = random_sum(rng, ctx, rng.randint(1, 3))
            units = [t for t in range(1, ctx.D + 1) if math.gcd(t, ctx.D) == 1]
            s = GaloisElement(rng.choice(units), tuple(rng.randrange(n) for n in ctx.group))
            t = GaloisElement(rng.choice(units), tuple(rng.randrange(n) for n in ctx.group))
            lhs = apply_galois(compose(s, t, ctx), x)
            rhs = apply_galois(s, apply_galois(t, x))
            assert all(
                (a1 - a2).is_zero() and k1 == k2
                for (a1, k1), (a2, k2) in zip(lhs.terms, rhs.terms)
            )
            done += 1


class TestOrbits:
    def test_pure_radical(self):
        ctx = RadicalContext([F(2)], [3], D=3)
        om = orbit_moduli(RadicalSum(ctx, [(1, (1,))]))
        assert len(om) == 3 and all(abs(v - 2 ** (2 / 3)) < 1e-12 for v in om)

    def test_trivial(self):
        assert orbit_moduli(RadicalSum(RadicalContext([], [], 1), [(1, ())])) == [1.0]

    def test_two_conjugates(self):
        ctx = RadicalContext([F(2)], [2], D=1)
        x = RadicalSum(ctx, [(F(1, 2), (0,)), (F(1, 2), (1,))])
        om = orbit_moduli(x)
        want = sorted([((1 + math.sqrt(2)) / 2) ** 2, ((1 - math.sqrt(2)) / 2) ** 2])
        assert np.allclose(om, want)

    def test_band_fraction(self):
        ctx = RadicalContext([F(2)], [2], D=1)
        x = RadicalSum(ctx, [(F(1, 2), (0,)), (F(1, 2), (1,))])
        frac, concyclic = d_gamma_eps(x, 0.5)
        assert frac == F(1, 2) and not concyclic

    def test_root_of_unity_concyclic(self):
        frac, concyclic = d_gamma_eps(
            RadicalSum(RadicalContext([], [], 5), [(zeta(5), ())]), 0.25
        )
        assert frac == 1 and concyclic

    def test_sqrt2_out_of_band(self):
        ctx = RadicalContext([F(2)], [2], D=1)
        frac, concyclic = d_gamma_eps(RadicalSum(ctx, [(1, (1,))]), 0.5)
        assert frac == 0 and concyclic

    def test_division_point_monomial_concyclic(self):
        # pure monomial with root-of-unity coefficient: band fraction 1 at eps
        # granted the modulus is 1... here modulus = 2^(2/3), so test the
        # concyclicity clause on a monomial with zero exponent instead
        ctx = RadicalContext([F(2)], [4], D=8)
        x = RadicalSum(ctx, [(zeta(8, 3), (0,))])
        for eps in (0.01, 0.5, 2.0):
            frac, concyclic = d_gamma_eps(x, eps)
            assert frac == 1 and concyclic


class TestCosineExpansion:
    def test_single_term(self):
        ctx = RadicalContext([F(2)], [3], D=3)
        x = RadicalSum(ctx, [(1, (1,))])
        assert abs(cosine_expansion(x, GaloisElement(1, (2,))) - 2 ** (2 / 3)) < 1e-12

    def test_hand_expansion(self):
        ctx = RadicalContext([F(2)], [2], D=1)
        x = RadicalSum(ctx, [(1, (0,)), (1, (1,))])
        got = cosine_expansion(x, GaloisElement(1, (1,)))
        assert abs(got - (3 - 2 * math.sqrt(2))) < 1e-12

    def test_matches_direct_random(self):
        rng = random.Random(17)
        worst = 0.0
        for _ in range(300):
            ctx = small_context(rng)
            x = random_sum(rng, ctx, 2)
            r = tuple(rng.randrange(n) for n in ctx.group)
            sig = GaloisElement(1, r)
            direct = abs(apply_galois(sig, x).evaluate()) ** 2
            worst = max(worst, abs(cosine_expansion(x, sig) - direct))
        assert worst < 1e-10


class TestMarginalStats:
    def test_two_by_two(self):
        ctx = RadicalContext([F(2)], [2], D=3)
        x = RadicalSum(ctx, [(zeta(3), (0,)), (1, (1,))])
        st = marginal_orbit_stats(x, 0.5)
        assert len(st["rows"]) == 2
        assert st["identity_exact"]
        assert st["max_fraction"] >= st["average"]

    def test_rational_coefficients_rows_equal(self):
        ctx = RadicalContext([F(2)], [2], D=5)
        x = RadicalSum(ctx, [(F(1, 2), (0,)), (F(1, 3), (1,))])
        st = marginal_orbit_stats(x, 0.5)
        fracs = {row["fraction"] for row in st["rows"]}
        assert len(fracs) == 1
        assert st["average"] == next(iter(fracs))

    def test_rows_depend_on_t(self, marginal_reference):
        # |1/2 + 1/2 z5 sqrt(2)|^2 over r = 0, 1 is 3/4 +- cos(2 pi t/5)/sqrt(2):
        # {0.97, 0.53} for t = 1, 4 and {0.18, 1.32} for t = 2, 3
        ctx = RadicalContext([F(2)], [2], D=5)
        x = RadicalSum(ctx, [(F(1, 2), (0,)), (zeta(5) * F(1, 2), (1,))])
        st = marginal_orbit_stats(x, 0.1)
        assert [row["fraction"] for row in st["rows"]] == [F(1, 2), 0, 0, F(1, 2)]
        assert st["average"] == st["full_group_fraction"] == F(1, 4)
        assert (st["max_t"], st["max_fraction"]) == (1, F(1, 2))
        assert st["rows"] == marginal_reference(x, 0.1)["rows"]

    def test_eq_identity_random(self, marginal_reference):
        rng = random.Random(23)
        for _ in range(30):
            ctx = small_context(rng)
            x = random_sum(rng, ctx, rng.randint(1, 2))
            eps = rng.choice([0.1, 0.5, 1.0])
            st = marginal_orbit_stats(x, eps)
            ref = marginal_reference(x, eps)
            assert st["rows"] == ref["rows"]
            assert st["full_group_fraction"] == ref["full_group_fraction"]
            assert st["identity_exact"]
            assert st["max_fraction"] >= st["average"]

    def test_work_cap(self):
        # 1030 units times a Kummer group of order 1024, one term
        ctx = RadicalContext([F(2)], [1024], D=1031, failures=[1])
        with pytest.raises(ValueError, match=r"= 1054720 exceeds the orbit cap 1000000"):
            marginal_orbit_stats(RadicalSum(ctx, [(1, (1,))]), 0.5)
        # refused before the units of a huge D are listed
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"= 400000000000 exceeds the orbit cap"):
            marginal_orbit_stats(RadicalSum(RadicalContext([], [], 10**12), [(1, ())]), 0.5)
        assert time.perf_counter() - t0 < 5.0
        # 1030 * 960 just fits
        ctx = RadicalContext([F(2)], [960], D=1031, failures=[1])
        st = marginal_orbit_stats(RadicalSum(ctx, [(zeta(1031, 5), (1,))]), 0.5)
        assert len(st["rows"]) == 1030 and st["identity_exact"]


class TestSigmaSearch:
    def test_full_box_root_of_unity(self):
        ctx = RadicalContext([F(2)], [2], D=7)
        x = RadicalSum(ctx, [(zeta(7), (0,))])
        box = ArcBox([Arc(F(0), F(1, 2))])
        assert len(sigma_search(x, box, 0.5)) == 2

    def test_sqrt2_never_in_band(self):
        ctx = RadicalContext([F(2)], [2], D=7)
        x = RadicalSum(ctx, [(1, (1,))])
        assert sigma_search(x, ArcBox([Arc(F(0), F(1, 2))]), 0.1) == []

    def test_wide_band_finds_both(self):
        ctx = RadicalContext([F(2)], [2], D=1)
        x = RadicalSum(ctx, [(F(1, 2), (0,)), (F(1, 2), (1,))])
        assert len(sigma_search(x, ArcBox([Arc(F(0), F(1, 2))]), 3.0)) == 2

    def test_arc_restricts_rotations(self):
        ctx = RadicalContext([F(2)], [4], D=1)  # group Z/4, angles k/4 turns
        x = RadicalSum(ctx, [(1, (0,))])
        narrow = ArcBox([Arc(F(1, 4), F(1, 8))])  # only rotation r=1
        found = sigma_search(x, narrow, 0.5)
        assert [g.r for g in found] == [(1,)]


class TestNormalization:
    def test_merge_and_drop(self):
        ctx = RadicalContext([F(2)], [2], D=1)
        x = RadicalSum(ctx, [(F(1, 2), (1,)), (F(-1, 2), (1,))])
        assert normalize_terms(x).n_terms == 0
        y = RadicalSum(ctx, [(F(1, 2), (1,)), (F(1, 3), (1,))])
        yn = normalize_terms(y)
        assert yn.n_terms == 1 and normalize_terms(yn).terms == yn.terms

    def test_whole_powers_fold_into_the_coefficient(self):
        ctx = RadicalContext([F(2), F(3)], [2, 3], D=1)
        # the common whole powers 2^0 and 3^(-3/3) stay in the exponents:
        # 2^(3/2) 3^(-1/3) = 2 * 2^(1/2) 3^(-1/3), i 2^(1/2) 3^(2/3) =
        # 3i * 2^(1/2) 3^(-1/3), and 1/2 = (3/2) 3^(-3/3)
        x = RadicalSum(ctx, [(1, (3, -1)), (zeta(4), (1, 2)), (F(1, 2), (0, 0))])
        xn = normalize_terms(x)
        assert xn.terms == ((2 + 3 * zeta(4), (1, -1)), (F(3, 2), (0, -3)))
        assert abs(xn.evaluate() - x.evaluate()) < 1e-14
        assert normalize_terms(xn).terms == xn.terms
        # a whole power apart, the same value: merged to the zero sum
        cancel = RadicalSum(ctx, [(2, (1, 0)), (-1, (3, 0)), (F(1, 3), (0, 4)), (-1, (0, 1))])
        assert normalize_terms(cancel).n_terms == 0

    def test_common_whole_power_is_not_folded(self):
        # one term, or terms sharing their whole powers, fold nothing: a
        # huge common power stays in the exponent and builds no integer
        ctx = RadicalContext([F(2)], [2], D=1)
        x = RadicalSum(ctx, [(1, (10**12 + 1,)), (3, (10**12,))])
        assert normalize_terms(x).terms == x.terms

    def test_huge_relative_power_refused(self):
        ctx = RadicalContext([F(2)], [2], D=1)
        # 2^q is bounded by q * bits(2) = 2q bits
        xn = normalize_terms(RadicalSum(ctx, [(1, (1,)), (1, (1 + FOLD_BITS,))]))
        assert xn.terms == ((1 + 2 ** (FOLD_BITS // 2), (1,)),)
        with pytest.raises(ValueError, match="folded whole power"):
            normalize_terms(RadicalSum(ctx, [(1, (1,)), (1, (3 + FOLD_BITS,))]))


class TestFactorOut:
    def test_sixth_roots(self):
        x = parse_radical_sum("1 * 2^(3/6) + 1 * 2^(5/6)")
        y, z = factor_out_division_point(x)
        assert y.context.denominators == (3,)
        assert [k for _, k in y.terms] == [(0,), (1,)]
        assert z.exponents == (F(1, 2),)

    def test_single_monomial(self):
        x = parse_radical_sum("1 * 2^(5/6)")
        y, z = factor_out_division_point(x)
        assert y.terms[0][1] == (0,) and z.exponents == (F(5, 6),)

    def test_all_zero_exponents(self):
        ctx = RadicalContext([F(2)], [6], D=1)
        x = RadicalSum(ctx, [(2, (0,)), (3, (0,))])
        y, z = factor_out_division_point(x)
        assert z.exponents == (F(0),)
        assert abs(y.evaluate() - 5) < 1e-14

    def test_zero_rejected(self):
        ctx = RadicalContext([F(2)], [2], D=1)
        x = RadicalSum(ctx, [(F(1), (1,)), (F(-1), (1,))])
        with pytest.raises(ValueError, match="zero"):
            factor_out_division_point(x)

    def test_reduced_gcd_one(self):
        rng = random.Random(31)
        for _ in range(50):
            ctx = small_context(rng)
            x = random_sum(rng, ctx, rng.randint(1, 3))
            if normalize_terms(x).n_terms == 0:
                continue
            y, z = factor_out_division_point(x)
            for t in range(y.context.rank):
                col = [k[t] for _, k in y.terms]
                g = y.context.denominators[t]
                for v in col:
                    g = math.gcd(g, v)
                assert g == 1
                assert min(col) == 0
            assert abs(x.evaluate() - y.evaluate() * z.value()) < 1e-10 * max(
                1, abs(x.evaluate())
            )


class TestExponentRelations:
    def test_dependent_column(self):
        res = exponent_relation_basis([[2], [4]], 8)
        assert res["columns"][0]["J"] == [0]
        rel = res["columns"][0]["relations"][1]
        total = rel["lam"] * 4 + sum(v * 2 for v in rel["lam_mu"].values())
        assert rel["lam"] != 0 and total % 8 == 0

    def test_zero_column(self):
        res = exponent_relation_basis([[0]], 7)
        assert res["columns"][0]["J"] == []
        assert res["columns"][0]["relations"][0]["lam"] == 1
        assert res["columns"][0]["relations"][0]["lam_mu"] == {}

    def test_unit_column(self):
        res = exponent_relation_basis([[1]], 7)
        assert res["columns"][0]["J"] == [0]

    def test_theta_congruence_random(self):
        rng = random.Random(13)
        for _ in range(100):
            m = rng.randint(2, 50)
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 3)
            K = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
            res = exponent_relation_basis(K, m)
            theta = res["theta"]
            for j in range(rows):
                for l in range(cols):
                    assert (theta * K[j][l] - res["K"][j][l]) % m == 0
            for l, column in enumerate(res["columns"]):
                for rel in column["relations"]:
                    lam, lam_mu = rel["lam"], rel["lam_mu"]
                    assert lam != 0
                    assert max([abs(lam), *map(abs, lam_mu.values())]) <= res["threshold"]
                    total = lam * K[rel["j"]][l] + sum(v * K[mu][l] for mu, v in lam_mu.items())
                    assert total % m == 0

    def test_brute_force(self):
        """J_l is greedy and each relation outside J_l has the least
        max-norm of any relation among j and the earlier members of J_l,
        against every vector of [-T, T]^(|J|+1)."""

        def least_norm(entries, m, T):
            norms = [max(map(abs, v)) for v in itertools.product(range(-T, T + 1),
                                                                  repeat=len(entries))
                     if any(v) and sum(a * k for a, k in zip(v, entries)) % m == 0]
            return min(norms, default=None)

        rng = random.Random(29)
        for _ in range(60):
            m = rng.randint(2, 30)
            rows, cols = rng.randint(1, 4), rng.randint(1, 2)
            K = [[rng.randint(-m, m) for _ in range(cols)] for _ in range(rows)]
            res = exponent_relation_basis(K, m)
            T = res["threshold"]
            assert T == math.isqrt(m)
            for l, column in enumerate(res["columns"]):
                J = column["J"]
                for rel in column["relations"]:
                    j = rel["j"]
                    before = [mu for mu in J if mu < j]
                    best = least_norm([K[mu][l] for mu in before] + [K[j][l]], m, T)
                    assert (j in J) == (best is None)
                    if j not in J:
                        assert sorted(rel["lam_mu"]) == before
                        norm = max([abs(rel["lam"]), *map(abs, rel["lam_mu"].values())])
                        assert norm == best


class TestEnergyProfile:
    def test_single(self):
        prof = term_energy_profile(
            RadicalSum(RadicalContext([], [], 9), [(zeta(9), ())]), 0.5
        )
        assert abs(prof["total_energy"] - 1.0) < 1e-12
        assert prof["gamma"] == 1.0

    def test_half_plus_half_sqrt2(self):
        ctx = RadicalContext([F(2)], [2], D=1)
        x = RadicalSum(ctx, [(F(1, 2), (0,)), (F(1, 2), (1,))])
        prof = term_energy_profile(x, 0.5)
        assert abs(prof["total_energy"] - 0.75) < 1e-12
        assert all(c["diff"] < 1e-12 for c in prof["identity_checks"].values())
        assert prof["gamma"] == 2.0
        assert prof["identity_checks"]["eta_plus"]["eta"] == math.sin(2.0 * 0.5)

    def test_identity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            xs = rng.standard_normal(int(rng.integers(1, 9)))
            eta = float(rng.standard_normal())
            lhs, rhs = cosine_identity_sides(xs, eta)
            assert abs(lhs - rhs) < 1e-12


# repr and context of every --sum string in bench/reference.json, README,
# the demos and the tests: the records and bench digests rest on these parses
PARSE_PINS = {
    "(1/2) * z4^1 + 3^(1/6)": (
        "(1/2*z^1 @ 4) + (1 @ 1) * 3^(1/6)",
        "RadicalContext(generators=(Fraction(3, 1),), denominators=(6,), D=4, failures=(2,))"),
    "(1/2) * z8^1 * 2^(3/6) + 3 * 5^(1/2) - 1/4": (
        "(1/2*z^1 @ 8) * 2^(3/6) + (3 @ 1) * 5^(1/2) + (-1/4 @ 1)",
        "RadicalContext(generators=(Fraction(2, 1), Fraction(5, 1)), denominators=(6, 2), D=8, failures=(2, 1))"),
    "(1/2) + (1/2) * 2^(1/2)": (
        "(1/2 @ 1) + (1/2 @ 1) * 2^(1/2)",
        "RadicalContext(generators=(Fraction(2, 1),), denominators=(2,), D=1, failures=(1,))"),
    "(1/3) + (2/3) * 3^(1/3)": (
        "(1/3 @ 1) + (2/3 @ 1) * 3^(1/3)",
        "RadicalContext(generators=(Fraction(3, 1),), denominators=(3,), D=1, failures=(1,))"),
    "(1/4) + z5^2 * 7^(1/5)": (
        "(1/4 @ 1) + (1*z^2 @ 5) * 7^(1/5)",
        "RadicalContext(generators=(Fraction(7, 1),), denominators=(5,), D=5, failures=(1,))"),
    "(2/3) * z3^1 + (1/3) * 5^(1/4)": (
        "(2/3*z^1 @ 3) + (1/3 @ 1) * 5^(1/4)",
        "RadicalContext(generators=(Fraction(5, 1),), denominators=(4,), D=3, failures=(1,))"),
    "1 * 2^(1/2) * 3^(1/2) + (1/2)": (
        "(1 @ 1) * 2^(1/2) * 3^(1/2) + (1/2 @ 1)",
        "RadicalContext(generators=(Fraction(2, 1), Fraction(3, 1)), denominators=(2, 2), D=1, failures=(1, 1))"),
    "1 * 2^(1/3)": (
        "(1 @ 1) * 2^(1/3)",
        "RadicalContext(generators=(Fraction(2, 1),), denominators=(3,), D=1, failures=(1,))"),
    "1 * 2^(1/4) + (1/2) * 3^(1/2)": (
        "(1 @ 1) * 2^(1/4) + (1/2 @ 1) * 3^(1/2)",
        "RadicalContext(generators=(Fraction(2, 1), Fraction(3, 1)), denominators=(4, 2), D=1, failures=(1, 1))"),
    "1 * 2^(1/6) + 1 * 2^(5/6)": (
        "(1 @ 1) * 2^(1/6) + (1 @ 1) * 2^(5/6)",
        "RadicalContext(generators=(Fraction(2, 1),), denominators=(6,), D=1, failures=(1,))"),
    "1 * 2^(2/6) + 1 * 2^(4/6)": (
        "(1 @ 1) * 2^(2/6) + (1 @ 1) * 2^(4/6)",
        "RadicalContext(generators=(Fraction(2, 1),), denominators=(6,), D=1, failures=(1,))"),
    "1 * 2^(3/6) + 1 * 2^(5/6)": (
        "(1 @ 1) * 2^(3/6) + (1 @ 1) * 2^(5/6)",
        "RadicalContext(generators=(Fraction(2, 1),), denominators=(6,), D=1, failures=(1,))"),
    "1 * 2^(5/6)": (
        "(1 @ 1) * 2^(5/6)",
        "RadicalContext(generators=(Fraction(2, 1),), denominators=(6,), D=1, failures=(1,))"),
    "1 * 3^(1/6) + 1 * 3^(5/6)": (
        "(1 @ 1) * 3^(1/6) + (1 @ 1) * 3^(5/6)",
        "RadicalContext(generators=(Fraction(3, 1),), denominators=(6,), D=1, failures=(1,))"),
    "1 * 3^(2/6) + 1 * 3^(4/6)": (
        "(1 @ 1) * 3^(2/6) + (1 @ 1) * 3^(4/6)",
        "RadicalContext(generators=(Fraction(3, 1),), denominators=(6,), D=1, failures=(1,))"),
    "1 * 3^(3/6) + 1 * 3^(5/6)": (
        "(1 @ 1) * 3^(3/6) + (1 @ 1) * 3^(5/6)",
        "RadicalContext(generators=(Fraction(3, 1),), denominators=(6,), D=1, failures=(1,))"),
    "1 * 5^(1/6) + 1 * 5^(5/6)": (
        "(1 @ 1) * 5^(1/6) + (1 @ 1) * 5^(5/6)",
        "RadicalContext(generators=(Fraction(5, 1),), denominators=(6,), D=1, failures=(1,))"),
    "1 * 5^(2/6) + 1 * 5^(4/6)": (
        "(1 @ 1) * 5^(2/6) + (1 @ 1) * 5^(4/6)",
        "RadicalContext(generators=(Fraction(5, 1),), denominators=(6,), D=1, failures=(1,))"),
    "1 * 5^(3/6) + 1 * 5^(5/6)": (
        "(1 @ 1) * 5^(3/6) + (1 @ 1) * 5^(5/6)",
        "RadicalContext(generators=(Fraction(5, 1),), denominators=(6,), D=1, failures=(1,))"),
    "1 + 2^(1/3) + 2^(2/3)": (
        "(1 @ 1) + (1 @ 1) * 2^(1/3) + (1 @ 1) * 2^(2/3)",
        "RadicalContext(generators=(Fraction(2, 1),), denominators=(3,), D=1, failures=(1,))"),
}


class TestParsing:
    def test_structure(self):
        x = parse_radical_sum("(1/2) * z8^1 * 2^(3/6) + 3 * 5^(1/2) - 1/4")
        assert x.context.generators == (F(2), F(5))
        assert x.context.denominators == (6, 2)
        want = 0.5 * cmath.exp(2j * math.pi / 8) * 2**0.5 + 3 * 5**0.5 - 0.25
        assert abs(x.evaluate() - want) < 1e-12

    @pytest.mark.parametrize("text", sorted(PARSE_PINS))
    def test_pinned_parses(self, text):
        x = parse_radical_sum(text)
        assert (repr(x), repr(x.context)) == PARSE_PINS[text]

    @pytest.mark.parametrize("text,value,context", [
        ("(1/2) * 2^(-1/2)", 0.5 / math.sqrt(2), ((F(2),), (2,), 1)),
        ("(-1/2) * 2^(1/2)", -0.5 * math.sqrt(2), ((F(2),), (2,), 1)),
        ("1 * z8^-1", cmath.exp(-2j * math.pi / 8), ((), (), 8)),
        ("2^(-1/2) - z8^-1 + (-3)", 2**-0.5 - cmath.exp(-2j * math.pi / 8) - 3,
         ((F(2),), (2,), 8)),
    ], ids=["radical-exponent", "coefficient", "zeta-exponent", "mixed"])
    def test_signs_inside_factors(self, text, value, context):
        x = parse_radical_sum(text)
        assert (x.context.generators, x.context.denominators, x.context.D) == context
        assert abs(x.evaluate() - value) < 1e-12

    @pytest.mark.parametrize("text,value,context", [
        ("z5", cmath.exp(2j * math.pi / 5), ((), (), 5)),
        ("2^(3)", 8.0, ((F(2),), (1,), 1)),
    ], ids=["zeta-without-power", "radical-without-denominator"])
    def test_short_forms(self, text, value, context):
        x = parse_radical_sum(text)
        assert (x.context.generators, x.context.denominators, x.context.D) == context
        assert abs(x.evaluate() - value) < 1e-12

    def test_monomial_text(self):
        mono = Monomial((F(2), F(3)), (F(1, 2), F(0)))
        assert mono.to_text() == "2^(1/2)"
        assert abs(mono.value() - math.sqrt(2)) < 1e-14


def _sqrt2_sum(D=1):
    return RadicalSum(RadicalContext([2], [2], D), [(1, (1,))])


INT = "cannot be interpreted as an integer"


@pytest.mark.parametrize("call, exc, match", [
    pytest.param(lambda: RadicalContext([2, 3], [2]), ValueError, "one denominator per generator",
                 id="context-lengths"),
    pytest.param(lambda: RadicalContext([2], [0]), ValueError, "denominators must be positive",
                 id="context-denominator-0"),
    pytest.param(lambda: RadicalContext([2], [2], D=0), ValueError,
                 "cyclotomic order must be positive", id="context-D-0"),
    pytest.param(lambda: RadicalContext([2], [2], failures=[3]), ValueError,
                 "failures must divide the denominators", id="context-failures"),
    pytest.param(lambda: RadicalContext([2], [2], failures=[0]), ValueError,
                 "failures must be positive", id="context-failures-0"),
    pytest.param(lambda: RadicalSum(RadicalContext([2], [2]), [(1, (1, 0))]), ValueError,
                 "exponent vector length must equal the rank", id="sum-rank"),
    pytest.param(lambda: apply_galois(GaloisElement(1, (0, 0)), _sqrt2_sum()), ValueError,
                 "rotation vector length must equal the rank", id="galois-rank"),
    pytest.param(lambda: orbit_moduli(RadicalSum(
        RadicalContext([2, 3], [1009, 1013], failures=[1, 1]), [(1, (1, 1))])), ValueError,
                 "the orbit size = 1022117 exceeds the orbit cap 1000000", id="orbit-cap"),
    pytest.param(lambda: cosine_expansion(_sqrt2_sum(5), GaloisElement(2, (0,))), ValueError,
                 "applies to Kummer elements", id="cosine-t-2"),
    pytest.param(lambda: cosine_expansion(RadicalSum(RadicalContext([2, 3], [2, 2]), [(1, (1, 1))]),
                                          GaloisElement(1, (1,))), ValueError,
                 "rotation vector length must equal the rank", id="cosine-rank-short"),
    pytest.param(lambda: cosine_expansion(_sqrt2_sum(), GaloisElement(1, (1, 1))), ValueError,
                 "rotation vector length must equal the rank", id="cosine-rank-long"),
    pytest.param(lambda: d_gamma_eps(_sqrt2_sum(), -0.5), ValueError,
                 "eps must be nonnegative", id="dgamma-eps-negative"),
    pytest.param(lambda: sigma_search(_sqrt2_sum(), ArcBox((Arc(0, 3.0),)), -0.5), ValueError,
                 "eps must be nonnegative", id="sigma-eps-negative"),
    pytest.param(lambda: d_gamma_eps(_sqrt2_sum(), Decimal("0.1")), TypeError,
                 "expected a real number", id="dgamma-eps-Decimal"),
    pytest.param(lambda: sigma_search(_sqrt2_sum(), ArcBox((Arc(0, 0.5), Arc(0, 0.5))), 0.5),
                 ValueError, "box dimension must equal the rank", id="sigma-box"),
    pytest.param(lambda: exponent_relation_basis([[1]], 0), ValueError,
                 "modulus must be positive", id="relations-m-0"),
    pytest.param(lambda: parse_radical_sum("1 * 2^(1/2)", D=0), ValueError,
                 "cyclotomic order must be positive", id="parse-D-0"),
    pytest.param(lambda: parse_radical_sum("2^(1/0)"), ValueError,
                 "radical denominators must be positive", id="parse-denominator-0"),
    pytest.param(lambda: parse_radical_sum("(-2)^(1/2)"), ValueError,
                 "radical bases must be positive", id="parse-negative-base"),
    # an order, denominator or modulus is an integer (operator.index): a
    # float is refused
    pytest.param(lambda: RadicalContext([2], [2.0]), TypeError, INT,
                 id="context-denominator-float"),
    pytest.param(lambda: RadicalContext([2], [2], D=3.0), TypeError, INT, id="context-D-float"),
    pytest.param(lambda: RadicalContext([2], [2], failures=[1.0]), TypeError, INT,
                 id="context-failures-float"),
    pytest.param(lambda: GaloisElement(2.0, (0,)), TypeError, INT, id="galois-t-float"),
    pytest.param(lambda: exponent_relation_basis([[1]], 4.0), TypeError, INT,
                 id="relations-m-float"),
    pytest.param(lambda: parse_radical_sum("1 * 2^(1/2)", D=3.0), TypeError, INT,
                 id="parse-D-float"),
])
def test_refusals(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


@pytest.mark.parametrize("eps, message", [(math.nan, "eps must be finite"),
                                          (-0.5, "eps must be nonnegative")],
                         ids=["nan", "negative"])
@pytest.mark.parametrize("call", [
    lambda eps: d_gamma_eps(_sqrt2_sum(), eps),
    lambda eps: sigma_search(_sqrt2_sum(), ArcBox((Arc(0, 3.0),)), eps),
    lambda eps: marginal_orbit_stats(_sqrt2_sum(5), eps),
], ids=["d_gamma_eps", "sigma_search", "marginal_orbit_stats"])
def test_eps_refused_before_the_orbit(monkeypatch, call, eps, message):
    # a NaN eps was refused only after the whole orbit had been computed
    def orbit(x):
        raise AssertionError("orbit values computed before eps was read")
    monkeypatch.setattr(radical, "_orbit_values", orbit)
    monkeypatch.setattr(radical, "_unit_orbit_values", orbit)
    with pytest.raises(ValueError, match=message):
        call(eps)
