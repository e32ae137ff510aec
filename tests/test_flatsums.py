import cmath
import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cyclolab import flatsums
from cyclolab.cyclotomic import CyclotomicNumber, zeta, rational
from cyclolab.flatsums import (
    exact_sum,
    numeric_sum,
    chirp,
    validate_definition,
    grouped_autocorrelation,
    is_flat,
    exponent_bound_scan,
    dirichlet_approx,
    reduce_instance,
    flat_search,
    sn_upper_bound,
    sn_survey,
    known_member_witness,
)

from _reference import abs_squared, evaluate_exact, flat_search_gradient_check, to_numeric

HALF_SQRT2 = (zeta(8) + zeta(8, 7)) * Fraction(1, 2)
HALF_ISQRT2 = (zeta(8) + zeta(8, 3)) * Fraction(1, 2)


def two_term_witness(d=2):
    return exact_sum(d, [(0, HALF_SQRT2), (1, HALF_ISQRT2)])


class TestValidate:
    def test_zero_exponent_gcd(self):
        rep = validate_definition(exact_sum(3, [(0, 5)]))
        assert rep.has_zero_exponent and not rep.gcd_one

    def test_unimodular_pair_passes(self):
        assert validate_definition(two_term_witness()).all_ok

    def test_vanishing_subset(self):
        rep = validate_definition(exact_sum(5, [(0, 1), (1, -1), (2, zeta(3))]))
        assert not rep.subset_sums_nonzero
        assert rep.failing_subset == (0, 1)

    def test_large_coefficients_vanishing_subset(self):
        # 10^30 (1 + z + z^2) + 1 is exactly 1 in Q(zeta_3); doubles lose it
        big = CyclotomicNumber(3, [10**30 + 1, 10**30, 10**30])
        rep = validate_definition(exact_sum(1, [(0, big), (1, rational(-1))]))
        assert not rep.subset_sums_nonzero and rep.failing_subset == (0, 1)

    def test_large_coefficients_nonvanishing(self):
        big = CyclotomicNumber(3, [10**30 + 1, 10**30, 10**30])
        assert validate_definition(exact_sum(1, [(0, big), (1, rational(-2))])).all_ok

    def test_coefficient_orders_beyond_int64(self):
        # lcm of the orders is ~6e19, so the residues leave int64
        orders = [61, 67, 71, 73, 79, 83, 89, 97, 101, 103]
        terms = [(i, zeta(q)) for i, q in enumerate(orders)]
        assert validate_definition(exact_sum(1, terms)).all_ok
        rep = validate_definition(exact_sum(1, terms + [(10, -zeta(67))]))
        assert rep.failing_subset == (1, 10)

    def test_too_many_terms(self):
        f = exact_sum(3, [(i, 1) for i in range(21)])
        with pytest.raises(ValueError, match="N = 21 exceeds the subset cap 20"):
            validate_definition(f)

    def test_duplicate_exponents_rejected(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            exact_sum(3, [(0, 1), (0, 2)])


class TestAutocorrelation:
    def test_pair(self):
        prof = grouped_autocorrelation(two_term_witness())
        assert prof.values[0] == 1
        assert prof.values[1].is_zero()

    def test_single_term(self):
        prof = grouped_autocorrelation(exact_sum(7, [(0, 1)]))
        assert prof.values[0] == 1 and set(prof.values) == {0}

    def test_chirp_delta(self):
        prof = grouped_autocorrelation(chirp(5))
        assert prof.values[0] == 5
        assert all(prof.values[r].is_zero() for r in prof.values if r)

    def test_conjugate_symmetry(self):
        rng = random.Random(2)
        for _ in range(20):
            d = rng.randint(2, 8)
            terms = [
                (b, zeta(12, rng.randrange(12)) * Fraction(rng.randint(1, 4), rng.randint(1, 4)))
                for b in rng.sample(range(-6, 7), rng.randint(1, 4))
            ]
            prof = grouped_autocorrelation(exact_sum(d, terms))
            for rho, v in prof.values.items():
                other = prof.values.get((-rho) % d, CyclotomicNumber.zero(1))
                assert other == v.conjugate()

    def test_dft_consistency(self):
        # sum_rho A(rho) zeta_d^(l rho) = |f(zeta_d^l)|^2 exactly
        rng = random.Random(4)
        for _ in range(15):
            d = rng.randint(2, 10)
            terms = [
                (b, zeta(8, rng.randrange(8)) * Fraction(rng.randint(1, 3), rng.randint(1, 3)))
                for b in rng.sample(range(-5, 6), rng.randint(1, 3))
            ]
            f = exact_sum(d, terms)
            prof = grouped_autocorrelation(f)
            for l in range(d):
                lhs = CyclotomicNumber.zero(d)
                for rho, v in prof.values.items():
                    lhs = lhs + v * zeta(d, (l * rho) % d)
                assert lhs == abs_squared(evaluate_exact(f, l))


class TestFlatness:
    def test_pair_flat(self):
        assert is_flat(two_term_witness()).flat

    def test_chirps_odd(self):
        for d in (3, 5, 7, 9):
            assert is_flat(chirp(d)).flat

    def test_chirp_even_not_flat(self):
        assert not is_flat(chirp(4)).flat

    def test_witness_residue(self):
        rep = is_flat(exact_sum(3, [(0, 1), (1, 1)]))
        assert not rep.flat and rep.witness == 1

    def test_numeric_agreement(self):
        rng = random.Random(6)
        cases = [two_term_witness(), chirp(5), chirp(7),
                 exact_sum(3, [(0, 1), (1, 1)]),
                 exact_sum(4, [(0, rational(1, 2)), (1, zeta(4))])]
        # randomized flat instances: a common root-of-unity phase and an
        # exponent translation preserve |f| on mu_d
        for _ in range(20):
            d = rng.choice([3, 5, 7, 9])
            phase = zeta(4 * d, rng.randrange(4 * d))
            shift = rng.randint(-2 * d, 2 * d)
            base = chirp(d)
            cases.append(exact_sum(
                d, [(b + shift, a * phase) for b, a in base.terms], base.mu
            ))
            # and randomized non-flat ones
            cases.append(exact_sum(
                d,
                [(b, zeta(d, rng.randrange(d)) * Fraction(rng.randint(1, 3), 2))
                 for b in rng.sample(range(-d, d), 2)],
            ))
        for f in cases:
            exact_rep = is_flat(f)
            numeric_rep = is_flat(to_numeric(f))
            assert exact_rep.flat == numeric_rep.flat
            if exact_rep.flat:
                assert numeric_rep.max_deviation < 1e-9


class TestExponentBoundScan:
    def test_no_counterexamples(self):
        for M, d in ((2, 4), (2, 9), (3, 9), (3, 16)):
            rep = exponent_bound_scan(M, d, trials=200, seed=0)
            assert rep["counterexamples"] == []

    def test_vacuous_case(self):
        # at (2, 4) no distinct exponents satisfy max|c| < 1
        rep = exponent_bound_scan(2, 4, trials=200, seed=0)
        assert rep["vacuous"] and rep["trials"] == 0

    def test_precondition(self):
        with pytest.raises(ValueError, match="hypothesis violated"):
            exponent_bound_scan(2, 3, 10, 0)

    def test_partition_independence(self):
        # each trial draws from its own (seed, trial) stream, so a run's
        # trials are a prefix of a longer run's with the same seed
        a = exponent_bound_scan(3, 9, 60, 1)
        b = exponent_bound_scan(3, 9, 60, 1)
        assert a == b
        longer = exponent_bound_scan(3, 9, 90, 1)
        assert longer["min_deviation"] <= a["min_deviation"]


class TestDirichlet:
    def test_examples(self):
        assert dirichlet_approx([0, 7], 10, 16) == (3, (0, 2))
        assert dirichlet_approx([0, 1], 2, 16) == (2, (0, 1))
        assert dirichlet_approx([0], 1, 4) == (1, (0,))

    def test_quality(self):
        rng = random.Random(12)
        for _ in range(50):
            N = rng.randint(1, 4)
            d = rng.randint(1, 30)
            b = rng.sample(range(-40, 41), N)
            q, p = dirichlet_approx(b, d, 4**N)
            assert 1 <= q <= 4**N
            for bj, pj in zip(b, p):
                assert 4 * abs(q * bj - pj * d) < d
            # smallest q: no earlier q admits an approximation
            for q2 in range(1, q):
                ok = all(
                    any(4 * abs(q2 * bj - pj * d) < d for pj in
                        (q2 * bj // d, q2 * bj // d + 1))
                    for bj in b
                )
                assert not ok


class TestReduction:
    def test_pair(self):
        cert = reduce_instance(two_term_witness())
        assert cert.q == 2 and cert.e == 2 and cert.d_prime == 1

    def test_identity(self):
        cert = reduce_instance(exact_sum(1, [(0, 1)]))
        assert cert.d_prime == 1

    def test_chirps(self):
        # chirp(9) is flat but inadmissible: zeta_9 + zeta_9^4 + zeta_9^7 = 0
        for d in (3, 5, 7, 11, 13):
            cert = reduce_instance(chirp(d))
            assert cert.c[0] == 0
            assert all(4 * abs(ck) < cert.d_prime for ck in cert.c)
            g = math.gcd(cert.d_prime, *cert.c)
            assert g == 1
            assert is_flat(cert.reduced).flat

    def test_chirp9_fails_admissibility(self):
        rep = validate_definition(chirp(9))
        assert not rep.subset_sums_nonzero
        assert rep.failing_subset == (1, 2, 4)
        with pytest.raises(ValueError, match="admissibility"):
            reduce_instance(chirp(9))

    def test_group_order(self):
        # terms at indices 0, 1, 2 carry exponents 2, 0, 1, all with c = 0:
        # the zero exponent's term leads its group, the rest keep index order
        w = known_member_witness(3, 2)
        cert = reduce_instance(exact_sum(2, w.terms[::-1], w.mu))
        assert cert.groups == ((1, 0, 2),)
        assert cert.c == (0,)

    def test_rejects_non_flat(self):
        with pytest.raises(ValueError, match="not flat"):
            reduce_instance(exact_sum(3, [(0, 1), (1, 2)]))

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError, match="admissibility"):
            reduce_instance(exact_sum(3, [(3, 1)]))


class TestFlatSearch:
    def test_member_pair(self):
        res = flat_search([0, 1], 2, 1.0, restarts=10, seed=0)
        assert res["residual"] < 1e-18
        assert res["verdict"] == "numeric_member"

    def test_infeasible_pair(self):
        res = flat_search([0, 1], 5, 1.0, restarts=50, seed=0)
        assert res["residual"] > 1e-6
        assert res["verdict"] == "numeric_infeasible"

    def test_trivial(self):
        res = flat_search([0], 1, 1.0, restarts=5, seed=0)
        assert res["residual"] < 1e-18

    def test_deterministic(self):
        a = flat_search([0, 1, 3], 7, restarts=5, seed=42)
        b = flat_search([0, 1, 3], 7, restarts=5, seed=42)
        assert a["residual"] == b["residual"]
        assert a["coefficients"] == b["coefficients"]

    @pytest.fixture
    def numpy_bound(self, monkeypatch):
        # `_penalty` and `_gradient` read flatsums' global `np`, which only
        # `flat_search` binds; the gradient check calls them directly
        monkeypatch.setattr(flatsums, "np", np, raising=False)

    def test_gradient_check(self, numpy_bound):
        assert flat_search_gradient_check([0, 1, 3], 7, points=100, seed=1) < 1e-6

    # sha256 of repr(flat_search(b, d, mu, restarts, seed)), taken before the
    # gradient was split from the objective: N = 1-4, members and infeasible
    # orders, the barrier active at most evaluations of the infeasible cases
    DIGESTS = {
        ((0,), 1, 1.0, 3, 0): "2ff26fcae82bdc4377b05d4de0a65b03033e3ff6dc9b88573c885b93367ed16f",
        ((0,), 3, 1.0, 3, 0): "cf85064b9a96366ea2c09f377a84549731b3b78d38902aa0c4e43f3c318a5e78",
        ((0, 1), 2, 1.0, 4, 0): "400ff1a2a096b8d3f4004253feae42f9d849f54c45a0ccdb8a57a20223f58511",
        ((0, 1), 5, 1.0, 4, 0): "fa0a5871a0b7174642b3d1d3f34227370047ea68ed582be9e199643b0064e0aa",
        ((0, 1), 3, 2.0, 3, 7): "1bfdd0e63f34ec737f519a42479318d1962872c9be7f0c45279e22421e3c84dc",
        ((0, 1, 3), 7, 1.0, 3, 42): "76279cae8d866cd257e6eba81b69dd9f5990c06e0ac173f39a1c7180ffcb2555",
        ((0, -1, 1), 3, 1.0, 3, 1): "3095288b8203159951ad186fe0b2d81296c0cc66902dc333d8887e0b672c6a49",
        ((0, 1, 2), 4, 1.0, 3, 2): "f47dd3e5863b607fd1980605263703a16760ad373a746ca53de0dc0ef7df8fc1",
        ((0, 1, 2), 2, 1.0, 3, 5): "e179ea2af9d1029b45e7636292441351cd8040ccf7b7ff9814286e460e5976fc",
        ((0, 1, 2, 5), 8, 1.0, 2, 1): "5f87dc13b6ba5e639be86e91ce8f225ff149ac87da7ac95eb7c9e1e6a2e9b312",
        ((0, 1, 3, 7), 12, 0.5, 2, 3): "6435b5b51efa53091558f720fd1be389fad0f6388f6b9342329f8e3fd7185362",
        ((0, 1, 2, 3), 1, 1.0, 2, 0): "47193a005bacb83b6dbb423bce9bd80bee5dbbfbe42b278b883912528a474070",
    }
    SURVEY_DIGEST = "003567832e7310dead15f4e4df99b2e8e3b791b68a0edb20388526ed81b870e7"

    def test_output_pinned(self, numpy_bound):
        def digest(obj):
            return hashlib.sha256(repr(obj).encode()).hexdigest()

        for (b, d, mu, restarts, seed), want in self.DIGESTS.items():
            assert digest(flat_search(list(b), d, mu, restarts=restarts, seed=seed)) == want, b
        assert digest(sn_survey(3, 4, restarts=2, seed=1)) == self.SURVEY_DIGEST
        assert flat_search_gradient_check([0, 1, 3], 7, points=20, seed=1) == 1.4765564862536426e-10

    @pytest.mark.parametrize("b, d, seed", [([0, 1], 5, 0), ([0, 1, 3], 7, 42),
                                            ([0, 1, 2], 4, 2), ([0, 1, 2, 5], 8, 1)])
    def test_gradient_only_at_accepted_points(self, monkeypatch, b, d, seed):
        # one restart: the gradient runs at the start and after each accepted
        # candidate, i.e. each penalty call that lowers the running minimum,
        # and always on the point and state of the penalty call just made
        events = []
        penalty, gradient = flatsums._penalty, flatsums._gradient

        def counted_penalty(a, V, mu):
            F, B, state = penalty(a, V, mu)
            events.append(("p", a, F + B, state))
            return F, B, state

        def counted_gradient(a, VH, state):
            _, a_last, _, state_last = events[-1]
            assert a is a_last and state is state_last
            events.append(("g", a, None, state))
            return gradient(a, VH, state)

        monkeypatch.setattr(flatsums, "_penalty", counted_penalty)
        monkeypatch.setattr(flatsums, "_gradient", counted_gradient)
        flat_search(b, d, restarts=1, seed=seed)
        totals = [total for kind, _, total, _ in events if kind == "p"]
        accepted = sum(t < min(totals[:i]) for i, t in enumerate(totals) if i)
        n_gradient = sum(kind == "g" for kind, *_ in events)
        assert n_gradient == 1 + accepted
        assert n_gradient < len(totals)

    @pytest.mark.parametrize("kwargs", [{"mu": math.nan}, {"mu": math.inf}, {"mu": -math.inf},
                                        {"restarts": 0}, {"restarts": -3}])
    def test_bad_mu_or_restarts_refused(self, kwargs):
        with pytest.raises(ValueError, match="finite|restarts"):
            flat_search([0, 1], 5, **{"mu": 1.0, "restarts": 2, **kwargs})

    @pytest.mark.filterwarnings("error")
    def test_overflowing_penalty_keeps_the_first_restart(self, monkeypatch):
        # at mu = 1e160 the penalty (|f|^2 - mu)^2 is inf at every point, so
        # no restart improves on another: the first one's point is reported,
        # with residual inf, and inf is no evidence of infeasibility; each
        # restart stops at its starting point, with no numpy warning
        first = flat_search([0, 1], 3, 1e160, restarts=1)
        calls = []
        penalty = flatsums._penalty
        monkeypatch.setattr(flatsums, "_penalty", lambda *a: calls.append(1) or penalty(*a))
        res = flat_search([0, 1], 3, 1e160, restarts=3)
        assert len(calls) == 3
        assert res["coefficients"] == first["coefficients"]
        assert all(map(cmath.isfinite, res["coefficients"]))
        assert res["residual"] == math.inf and res["verdict"] == "unresolved"

    @pytest.mark.parametrize("coeff, mu", [(math.nan, 1.0), (complex(1, math.inf), 1.0),
                                           (1, math.nan), (1, -math.inf)])
    def test_numeric_sum_refuses_nonfinite(self, coeff, mu):
        with pytest.raises(ValueError, match="finite"):
            numeric_sum(5, [(0, 1), (1, coeff)], mu)

    def test_unit_matrix_cap(self, monkeypatch):
        # 100x above the largest d * N in use: the N = 3 survey probes
        assert flatsums.UNIT_MATRIX_CAP >= 100 * 3 * sn_upper_bound(3)
        monkeypatch.setattr(flatsums, "UNIT_MATRIX_CAP", 10)
        assert flatsums._unit_matrix([0, 1], 5).shape == (5, 2)
        for call in (lambda: flatsums._unit_matrix([0, 1], 6),
                     lambda: flat_search([0, 1, 2], 4, restarts=1),
                     lambda: is_flat(numeric_sum(11, [(0, 1)]))):
            with pytest.raises(ValueError, match="unit matrix cap"):
                call()


    def test_search_work_cap(self, monkeypatch):
        # restarts * SEARCH_MAX_ITERS * d * N: at the cap the search runs, one
        # restart past it is refused before the unit matrix is built
        assert flatsums.SEARCH_WORK_CAP > 50 * flatsums.SEARCH_MAX_ITERS * 5 * 2  # README
        monkeypatch.setattr(flatsums, "SEARCH_WORK_CAP", 2 * flatsums.SEARCH_MAX_ITERS * 5 * 2)
        assert flat_search([0, 1], 5, restarts=2)["verdict"] == "numeric_infeasible"
        monkeypatch.setattr(flatsums, "_unit_matrix", None)
        with pytest.raises(ValueError, match=r"= 90000 exceeds the search work cap 60000"):
            flat_search([0, 1], 5, restarts=3)


class TestSurvey:
    def test_row_cap(self, monkeypatch):
        monkeypatch.setattr(flatsums, "SURVEY_ROW_CAP", 10)
        assert len(sn_survey(2, 10)) == 10
        monkeypatch.setattr(flatsums, "_survey_one_d", None)  # refused before any row
        with pytest.raises(ValueError, match="d_max = 11 exceeds the survey row cap 10"):
            sn_survey(2, 11)

    def test_n3_probe_work_cap(self, monkeypatch):
        # the pool's largest N = 3 survey: 1 pattern at d = 3 and 3 at d = 4,
        # 2 restarts each
        work = 2 * flatsums.SEARCH_MAX_ITERS * 3 * (1 * 3 + 3 * 4)
        monkeypatch.setattr(flatsums, "SEARCH_WORK_CAP", work)
        assert [r["status"] for r in sn_survey(3, 4, restarts=2)][2:] == ["unresolved"] * 2
        monkeypatch.setattr(flatsums, "SEARCH_WORK_CAP", work - 1)
        assert len(sn_survey(2, 4, restarts=10**9)) == 4  # no probes below N = 3
        monkeypatch.setattr(flatsums, "_survey_one_d", None)
        with pytest.raises(ValueError, match=rf"d <= 4 = {work} exceeds the search work cap"):
            sn_survey(3, 4, restarts=2)

    def test_upper_bounds(self):
        assert sn_upper_bound(1) == 1
        assert sn_upper_bound(2) == 48
        assert sn_upper_bound(3) == 512

    def test_n1(self):
        rows = sn_survey(1, 10)
        assert [r["d"] for r in rows if r["status"] == "member"] == [1]

    def test_n2(self):
        rows = sn_survey(2, 48)
        assert [r["d"] for r in rows if r["status"] == "member"] == [1, 2]
        for r in rows:
            if r["d"] >= 3:
                assert r["evidence"]["reason"] == "autocorrelation_infeasible"

    def test_n2_beyond_bound(self):
        row = sn_survey(2, 49)[-1]
        assert row["status"] == "excluded"
        assert row["evidence"]["reason"] == "above_upper_bound"

    def test_n3_small(self):
        rows = sn_survey(3, 3, restarts=3, seed=0)
        assert [r["d"] for r in rows if r["status"] == "member"] == [1, 2]
        assert rows[2]["status"] == "unresolved"
        probe = rows[2]["evidence"]["patterns"][0]
        assert {"exponents", "residual", "search_verdict", "min_subset_sum"} <= set(probe)

    def test_n3_pattern_order(self):
        # residues by |r|, pairs in index order, kept when gcd(b2, b3, d) = 1
        rows = sn_survey(3, 7, restarts=1)
        got = {r["d"]: [p["exponents"] for p in r["evidence"]["patterns"]]
               for r in rows if r["status"] == "unresolved"}
        assert got == {
            3: [[0, -1, 1]],
            4: [[0, -1, 1], [0, -1, 2], [0, 1, 2]],
            5: [[0, -1, 1], [0, -1, -2], [0, -1, 2], [0, 1, -2], [0, 1, 2], [0, -2, 2]],
            6: [[0, -1, 1], [0, -1, -2], [0, -1, 2], [0, -1, 3], [0, 1, -2], [0, 1, 2],
                [0, 1, 3], [0, -2, 3], [0, 2, 3]],
            7: [[0, -1, 1], [0, -1, -2], [0, -1, 2], [0, -1, -3], [0, -1, 3], [0, 1, -2],
                [0, 1, 2], [0, 1, -3], [0, 1, 3], [0, -2, 2], [0, -2, -3], [0, -2, 3],
                [0, 2, -3], [0, 2, 3], [0, -3, 3]],
        }

    def test_threads_deterministic(self):
        # rows are seeded per order d, so a survey is a prefix of a longer one
        a = sn_survey(3, 3, restarts=3, seed=0)
        assert a == sn_survey(3, 3, restarts=3, seed=0)
        assert sn_survey(3, 4, restarts=3, seed=0)[:3] == a

    def test_survey_too_large(self):
        with pytest.raises(ValueError, match="survey too large"):
            sn_survey(4, 5)

    def test_witnesses_verify(self):
        for N in (1, 2, 3):
            for d in (1, 2):
                w = known_member_witness(N, d)
                if w is None:
                    continue
                assert is_flat(w).flat
                assert validate_definition(w).all_ok


INT = "cannot be interpreted as an integer"


@pytest.mark.parametrize("call, exc, match", [
    pytest.param(lambda: exact_sum(0, [(0, 1)]), ValueError, "d must be positive", id="d-0"),
    pytest.param(lambda: flatsums.SparseExpSum(3, ((0, 1),), 1, mode="fuzzy"), ValueError,
                 "mode must be", id="mode"),
    pytest.param(lambda: exact_sum(3, [(0, 1)], mu=0), ValueError, "mu must be positive",
                 id="exact-mu-0"),
    pytest.param(lambda: validate_definition(numeric_sum(3, [(0, 1)])), ValueError,
                 "validation requires exact coefficients", id="validate-numeric"),
    pytest.param(lambda: reduce_instance(numeric_sum(3, [(0, 1)])), ValueError,
                 "reduction requires exact coefficients", id="reduce-numeric"),
    pytest.param(lambda: exponent_bound_scan(1, 9, 1, 0), ValueError, "at least two terms",
                 id="scan-one-term"),
    pytest.param(lambda: exponent_bound_scan(3, 9, 0, 0), ValueError, "trials must be positive",
                 id="scan-trials-0"),
    pytest.param(lambda: exponent_bound_scan(3, 9, 2.0, 0), TypeError, INT,
                 id="scan-trials-float"),
    pytest.param(lambda: dirichlet_approx([1], 0, 4), ValueError, "d must be positive",
                 id="dirichlet-d-0"),
    pytest.param(lambda: dirichlet_approx([1, 3], 7, 1), ValueError, "no admissible q",
                 id="dirichlet-Q-small"),
    pytest.param(lambda: flat_search([0, 0], 5), ValueError, "pairwise distinct",
                 id="search-repeat"),
    pytest.param(lambda: flat_search([0, 1], 0), ValueError, "d must be positive",
                 id="search-d-0"),
    pytest.param(lambda: sn_upper_bound(0), ValueError, "N must be positive", id="bound-N-0"),
    pytest.param(lambda: sn_survey(1, 0), ValueError, "d_max must be positive",
                 id="survey-dmax-0"),
    pytest.param(lambda: sn_survey(0, 3), ValueError, "N must be positive", id="survey-N-0"),
    pytest.param(lambda: known_member_witness(0, 1), ValueError, "N must be positive",
                 id="witness-N-0"),
    pytest.param(lambda: known_member_witness(1, 0), ValueError, "d must be positive",
                 id="witness-d-0"),
    pytest.param(lambda: sn_survey(1, 3, restarts=0), ValueError, "restarts must be positive",
                 id="survey-restarts-0"),
    # an order or a count is an integer (operator.index): a float is refused
    pytest.param(lambda: exact_sum(2.0, [(0, 1)]), TypeError, INT, id="d-float"),
    pytest.param(lambda: dirichlet_approx([0, 1], 5.0, 16), TypeError, INT,
                 id="dirichlet-d-float"),
    pytest.param(lambda: flat_search([0, 1], 3.0), TypeError, INT, id="search-d-float"),
    pytest.param(lambda: flat_search([0, 1], 3, restarts=2.0), TypeError, INT,
                 id="search-restarts-float"),
    pytest.param(lambda: sn_upper_bound(2.0), TypeError, INT, id="bound-N-float"),
    pytest.param(lambda: known_member_witness(3.0, 2), TypeError, INT, id="witness-N-float"),
    pytest.param(lambda: known_member_witness(3, 2.0), TypeError, INT, id="witness-d-float"),
    pytest.param(lambda: sn_survey(2.0, 3), TypeError, INT, id="survey-N-float"),
    pytest.param(lambda: sn_survey(1, 3.0), TypeError, INT, id="survey-dmax-float"),
    pytest.param(lambda: sn_survey(1, 3, restarts=2.0), TypeError, INT,
                 id="survey-restarts-float"),
])
def test_refusals(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
