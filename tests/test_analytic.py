import math
from fractions import Fraction

import numpy as np
import pytest

from crowdpac.analytic import (
    WalkSpec,
    boosted_majority_error,
    halfspace_disagreement,
    hoeffding_majority_bound,
    majority_error_exact,
    pair_disagreement,
    quicksort_expected_tests,
    quicksort_tests_variance,
    ruin_probability,
    run_verification,
    simulate_ruin,
)

from conftest import make_rng


class TestRuinProbability:
    def test_limit_three_sevenths(self):
        # deep-pocketed opponent: the closed form converges to (1-p)/p
        assert ruin_probability(WalkSpec(0.7, 1, 60)) == pytest.approx(3 / 7, abs=1e-9)

    def test_symmetric_single_round(self):
        assert ruin_probability(WalkSpec(0.5, 1, 1)) == pytest.approx(0.5)

    def test_single_round_favored(self):
        # one dollar each: ruined exactly when the first bet is lost
        assert ruin_probability(WalkSpec(0.7, 1, 1)) == pytest.approx(0.3)

    def test_monte_carlo_agreement(self):
        spec = WalkSpec(0.7, 1, 5)
        est = simulate_ruin(spec, 50_000, make_rng(40))
        assert abs(est - ruin_probability(spec)) <= 0.012

    def test_decreasing_in_win_probability(self):
        values = [ruin_probability(WalkSpec(p, 2, 10)) for p in (0.55, 0.6, 0.7, 0.8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_increasing_in_opponent_capital(self):
        # a richer opponent can only make ruin more likely
        values = [ruin_probability(WalkSpec(0.7, 2, n)) for n in (1, 2, 5, 20, 60)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_decreasing_in_own_capital(self):
        values = [ruin_probability(WalkSpec(0.7, i, 10)) for i in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_unfavored_walk(self):
        # against a rich opponent, a losing game is near-certain ruin
        assert ruin_probability(WalkSpec(0.3, 1, 60)) == pytest.approx(1.0, abs=1e-12)

    def test_no_overflow_for_long_walks(self):
        value = ruin_probability(WalkSpec(0.7, 1, 5000))
        assert value == pytest.approx(3 / 7, abs=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WalkSpec(0.0, 1, 1)
        with pytest.raises(ValueError):
            WalkSpec(0.5, 0, 1)
        with pytest.raises(ValueError):
            WalkSpec(0.5, 1, 0)


class TestMajorityErrorExact:
    def test_single_vote(self):
        assert majority_error_exact(1, 0.8) == pytest.approx(0.2)

    def test_five_votes(self):
        # P(Bin(5, 0.1) >= 3) = 0.00856
        assert majority_error_exact(5, 0.9) == pytest.approx(0.00856, rel=1e-9)

    def test_perfect_voters(self):
        for k in (1, 3, 11, 101):
            assert majority_error_exact(k, 1.0) == 0.0

    def test_large_k_matches_exact_rational_sum(self):
        # k1 reaches about 1200 at beta = 0.1; comb(k, j) then overflows a float
        for k, q in ((1189, Fraction(3, 5)), (89, Fraction(17, 20))):
            exact = sum(math.comb(k, j) * (1 - q) ** j * q ** (k - j) for j in range((k + 1) // 2, k + 1))
            assert majority_error_exact(k, float(q)) == pytest.approx(float(exact), rel=1e-9)

    def test_rejects_even_k(self):
        with pytest.raises(ValueError):
            majority_error_exact(4, 0.9)

    def test_rejects_weak_votes(self):
        with pytest.raises(ValueError):
            majority_error_exact(5, 0.5)


class TestHoeffdingBound:
    def test_single_vote_half_margin(self):
        assert hoeffding_majority_bound(1, 0.5) == pytest.approx(math.exp(-0.5))

    def test_monotone_decreasing_in_k(self):
        values = [hoeffding_majority_bound(k, 0.3) for k in range(1, 100)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_dominates_exact_error(self):
        for margin in (0.1, 0.2, 0.3, 0.4, 0.5):
            for k in range(1, 202, 2):
                assert hoeffding_majority_bound(k, margin) >= majority_error_exact(
                    k, 0.5 + margin
                )

    def test_rejects_bad_margin(self):
        with pytest.raises(ValueError):
            hoeffding_majority_bound(5, 0.6)


class TestBoostIdentity:
    @pytest.mark.parametrize("p", [0.1, 0.2, 0.3])
    def test_monte_carlo_matches_closed_form(self, p):
        rng = make_rng(41, int(p * 100))
        wrong = rng.random((3, 100_000)) < p
        empirical = np.mean(np.sum(wrong, axis=0) >= 2)
        assert abs(empirical - boosted_majority_error(p)) <= 0.01

    def test_closed_form_value(self):
        assert boosted_majority_error(0.2) == pytest.approx(0.104)


class TestHalfspaceDisagreement:
    def test_orthogonal_is_half(self):
        assert halfspace_disagreement([1.0, 0.0], [0.0, 2.0]) == pytest.approx(0.5, abs=1e-15)

    def test_antiparallel_is_one(self):
        u = make_rng(42).standard_normal(20)
        assert halfspace_disagreement(u, -0.3 * u) == 1.0

    def test_positive_multiple_is_zero(self):
        u = make_rng(43).standard_normal(20)
        assert halfspace_disagreement(u, 3.7 * u) == 0.0

    def test_one_dimension(self):
        assert halfspace_disagreement([2.0], [0.5]) == 0.0
        assert halfspace_disagreement([2.0], [-0.5]) == 1.0

    def test_thin_angle_keeps_its_digits(self):
        # acos(cos 1e-12) is 0 in double precision; atan2 keeps the angle
        angle = 1e-12
        value = halfspace_disagreement([1.0, 0.0], [math.cos(angle), math.sin(angle)])
        assert value == pytest.approx(angle / math.pi, rel=1e-9)

    def test_symmetric_and_scale_free(self):
        u, v = make_rng(44).standard_normal((2, 5))
        assert halfspace_disagreement(u, v) == pytest.approx(halfspace_disagreement(v, u), abs=1e-15)
        assert halfspace_disagreement(u, v) == pytest.approx(halfspace_disagreement(4 * u, 0.1 * v), abs=1e-15)

    def test_rejects_bad_pairs(self):
        for u, v in (([1.0, 0.0], [1.0]), ([0.0, 0.0], [1.0, 0.0]), ([[1.0]], [[1.0]])):
            with pytest.raises(ValueError):
                halfspace_disagreement(u, v)


class TestPairDisagreement:
    def test_coplanar_arcs(self):
        # in the plane, A_u and A_v are antipodal arcs of widths a and b from
        # the same side of w's boundary: they overlap on min(a, b) twice
        a, b = 0.3, 1.1
        w = np.array([1.0, 0.0])
        u, v = np.array([math.cos(a), math.sin(a)]), np.array([math.cos(b), math.sin(b)])
        assert pair_disagreement(w, u, v) == pytest.approx(a / math.pi, abs=1e-15)
        # on opposite sides the arcs do not meet while a + b <= pi
        v_other = np.array([math.cos(b), -math.sin(b)])
        assert pair_disagreement(w, u, v_other) == 0.0

    def test_equal_and_parallel_voters(self):
        w, u = make_rng(45).standard_normal((2, 6))
        p = halfspace_disagreement(w, u)
        assert pair_disagreement(w, u, u) == p
        assert pair_disagreement(w, u, 2.5 * u) == pytest.approx(p, abs=1e-15)
        assert pair_disagreement(w, 3.0 * w, u) == 0.0
        assert pair_disagreement(w, u, -u) == 0.0
        assert pair_disagreement(w, -w, u) == pytest.approx(p, abs=1e-15)

    def test_thin_pair_keeps_its_digits(self):
        # u and v 1e-9 from w on perpendicular sides meet on (a + b - hypot(a, b))/(2 pi)
        a, b = 1e-9, 2e-9
        w = np.array([1.0, 0.0, 0.0])
        u, v = np.array([1.0, math.tan(a), 0.0]), np.array([1.0, 0.0, math.tan(b)])
        expected = (a + b - math.hypot(a, b)) / (2 * math.pi)
        assert pair_disagreement(w, u, v) == pytest.approx(expected, rel=1e-6)

    def test_within_each_single_mass(self):
        rng = make_rng(46)
        for _ in range(200):
            w, u, v = rng.standard_normal((3, 4))
            both = pair_disagreement(w, u, v)
            assert 0.0 <= both <= min(halfspace_disagreement(w, u), halfspace_disagreement(w, v))


def test_quicksort_expected_tests_small_cases():
    # m = 3: a middle pivot costs 2 tests, an end pivot 3, so 8/3 on average
    assert [quicksort_expected_tests(m) for m in (0, 1, 2)] == [0.0, 0.0, 1.0]
    assert quicksort_expected_tests(3) == pytest.approx(8 / 3)
    with pytest.raises(ValueError):
        quicksort_expected_tests(-1)


def test_quicksort_tests_variance_matches_exact_law():
    # the test count's exact law from C_n = n - 1 + C_U + C'_(n-1-U), U uniform
    laws = [{0: 1.0}, {0: 1.0}]
    for n in range(2, 13):
        law = {}
        for u in range(n):
            for a, pa in laws[u].items():
                for b, pb in laws[n - 1 - u].items():
                    law[n - 1 + a + b] = law.get(n - 1 + a + b, 0.0) + pa * pb / n
        laws.append(law)
    for m, law in enumerate(laws):
        mean = sum(c * p for c, p in law.items())
        var = sum((c - mean) ** 2 * p for c, p in law.items())
        assert mean == pytest.approx(quicksort_expected_tests(m), abs=1e-9)
        assert quicksort_tests_variance(m) == pytest.approx(var, abs=1e-9)
    assert quicksort_tests_variance(3) == pytest.approx(2 / 9)
    with pytest.raises(ValueError):
        quicksort_tests_variance(-1)


def test_small_verification_grid_passes():
    results = run_verification(grid="small", seed=0)
    failed = [check.name for check in results if not check.passed]
    assert not failed, f"failed checks: {failed}"


def test_verification_rejects_unknown_grid():
    with pytest.raises(ValueError):
        run_verification(grid="huge")
