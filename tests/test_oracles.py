import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdpac.analytic import majority_error_exact
from crowdpac.compare_label import noisy_quicksort, threshold_search
from crowdpac.filtering import _INSIDE, _MISTAKE, SupportPair, _walk_verdicts
from crowdpac.oracles import (
    Adversary,
    CrowdConfig,
    PoolModel,
    first_majority_law,
    next_odd,
    vote_sizes,
)

from conftest import VOTE_ACCURACY, make_oracle, make_rng, model_oracle

X = np.array([0.7, 0.2])       # truth +1 under weights (1, 0)
X_LEFT = np.array([-0.3, 0.5])  # truth -1
PAIR = np.array([X_LEFT, X])   # in ascending key order


def ask_label(oracle, x, k) -> int:
    """One k-vote label question, asked as the threshold search probes."""
    threshold, probes = threshold_search(x[None], k, oracle)
    assert probes == 1
    return 1 if threshold == 1 else -1


def ask_comparison(oracle, k) -> int:
    """One k-vote comparison of X against X_LEFT, asked as noisy quicksort
    tests a row against its pivot: +1 when the sort keeps X on the right."""
    order, n_tests = noisy_quicksort(PAIR, k, oracle)
    assert n_tests == 1
    return 1 if order[0] == 0 else -1


def walk_votes(oracle, x, ref, n) -> np.ndarray:
    """n one-round filter walks of ``x`` against ``ref`` as the lone
    ``below`` support, with hypothesis label +1: each reads one comparison
    vote, and stops INSIDE exactly when that vote says x @ w* >= ref @ w*,
    else ends a MISTAKE.  True where the vote said so."""
    points = np.tile(np.asarray(x, dtype=float), (n, 1))
    codes, rounds = _walk_verdicts(points, SupportPair(below=ref, above=None), np.ones(n), 1, oracle)
    assert np.all(rounds == 1) and np.all((codes == _INSIDE) | (codes == _MISTAKE))
    return codes == _INSIDE


class TestSingleQueries:
    def test_noiseless_label_always_correct(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 11)
        assert oracle.majority_error(1, comparisons=False) == 0.0
        assert all(ask_label(oracle, X, 1) == 1 for _ in range(200))
        assert all(ask_label(oracle, X_LEFT, 1) == -1 for _ in range(200))

    def test_label_frequency(self):
        # Bernoulli(0.8) check at alpha = 0.3, comparisons apart at beta = 0.45
        oracle = make_oracle([1.0, 0.0], 0.3, 0.45, 12)
        hits = sum(ask_label(oracle, X, 1) == 1 for _ in range(100_000))
        assert abs(hits / 100_000 - 0.8) <= 0.004

    def test_comparison_frequency(self):
        # one comparison vote, as the filter walk reads it, is right with
        # probability 1/2 + beta = 0.85 whichever sign the walk waits for:
        # X is above X_LEFT, so the awaited "x >= ref" is true for X against
        # X_LEFT and false for X_LEFT against X
        oracle = make_oracle([1.0, 0.0], 0.2, 0.35, 13)
        for (x, ref), said in (((X, X_LEFT), 0.85), ((X_LEFT, X), 0.15)):
            hits = np.count_nonzero(walk_votes(oracle, x, ref, 100_000))
            assert abs(hits / 100_000 - said) <= 0.004, said

    def test_noiseless_comparison(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 14)
        assert all(ask_comparison(oracle, 1) == 1 for _ in range(100))
        assert np.all(walk_votes(oracle, X, X_LEFT, 100))
        assert not np.any(walk_votes(oracle, X_LEFT, X, 100))

    def test_each_call_charges_one(self):
        oracle = make_oracle([1.0, 0.0], 0.4, 0.4, 15)
        ask_label(oracle, X, 1)
        assert (oracle.ledger.label_queries, oracle.ledger.comparison_queries) == (1, 0)
        ask_comparison(oracle, 1)
        assert (oracle.ledger.label_queries, oracle.ledger.comparison_queries) == (1, 1)


class TestMajorityVotes:
    def test_vote_counting(self):
        # under every worker model the threshold search charges k label
        # votes per probe, noisy quicksort k comparison votes per test and
        # the one-sided filter walk one comparison per round it reads, and
        # empty inputs charge nothing
        questions = make_rng(19).standard_normal((40, 2))
        for model in VOTE_ACCURACY:
            oracle = model_oracle(model, 19)
            ordered = questions[np.argsort(questions @ oracle.ground_truth.weights)]
            support = SupportPair(below=None, above=questions[0])
            h_labels = np.where(questions[:, 0] > 0, 1, -1)
            expected = np.zeros(2, dtype=np.int64)
            for k in (1, 5, 5):
                _, probes = threshold_search(ordered, k, oracle)
                order, n_tests = noisy_quicksort(questions, k, oracle)
                _, rounds = _walk_verdicts(questions, support, h_labels, k, oracle)
                assert 1 <= probes <= math.floor(math.log2(40)) + 1, model
                assert sorted(order) == list(range(40)) and n_tests >= 39, model
                assert rounds.shape == (40,), model
                assert np.all((rounds % 2 == 1) & (rounds <= k)), model
                expected += (probes * k, n_tests * k + int(rounds.sum()))
            charged = (oracle.ledger.label_queries, oracle.ledger.comparison_queries)
            assert charged == tuple(expected), model

            empty = np.empty((0, 2))
            assert threshold_search(empty, 3, oracle) == (1, 0), model
            assert noisy_quicksort(empty, 3, oracle)[1] == 0, model
            codes, rounds = _walk_verdicts(empty, support, h_labels[:0], 3, oracle)
            assert codes.shape == rounds.shape == (0,), model
            assert (oracle.ledger.label_queries, oracle.ledger.comparison_queries) == charged
            with pytest.raises(ValueError):
                threshold_search(ordered, 4, oracle)
            with pytest.raises(ValueError):
                noisy_quicksort(questions, 4, oracle)

    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    @pytest.mark.parametrize("model", list(VOTE_ACCURACY))
    def test_matches_vote_by_vote_reference(self, model, k):
        # the error of one k-vote majority against the wrong share of
        # questions each voted by k Bernoulli(q) votes, for labels and for
        # comparisons, each at its own oracle's accuracy
        n = 20_000
        oracle = model_oracle(model, 28, k)
        for comparisons, q in zip((False, True), VOTE_ACCURACY[model][1:]):
            p = oracle.majority_error(k, comparisons)
            votes = make_rng(29, k, int(comparisons)).random((n, k)) < q
            reference_wrong = np.count_nonzero(2 * votes.sum(axis=1) < k) / n
            assert abs(p - reference_wrong) <= 4 * math.sqrt(p * (1 - p) / n), (comparisons, p)
        assert (oracle.ledger.label_queries, oracle.ledger.comparison_queries) == (0, 0)

    @pytest.mark.parametrize("pool", [None, PoolModel(0.9, 0.95, Adversary.RANDOM_FLIP)])
    def test_wrong_majorities_count_and_charge(self, pool):
        # the count of wrong k-vote majorities at each oracle's own accuracy:
        # 1/2 + alpha for the threshold search's labels and 1/2 + beta for
        # noisy quicksort's comparisons, or the pool's vote accuracy
        k = 3
        oracle = make_oracle([1.0, 0.0], 0.1, 0.3, 31, pool=pool)
        for comparisons, margin, n in ((False, 0.1, 40_000), (True, 0.3, 5_000)):
            q = 0.5 + margin if pool is None else pool.vote_accuracy
            p = majority_error_exact(k, q)
            if comparisons:
                wrong = sum(ask_comparison(oracle, k) == -1 for _ in range(n))
            else:
                wrong = sum(ask_label(oracle, X, k) == -1 for _ in range(n))
            assert abs(wrong - n * p) <= 4 * math.sqrt(n * p * (1 - p)), (comparisons, wrong)
        assert (oracle.ledger.label_queries, oracle.ledger.comparison_queries) == (40_000 * k, 5_000 * k)

    def test_even_k_rejected(self):
        oracle = make_oracle([1.0, 0.0], 0.4, 0.4, 20)
        with pytest.raises(ValueError):
            oracle.majority_error(4, comparisons=False)
        with pytest.raises(ValueError):
            oracle.majority_error(2, comparisons=True)

    def test_error_rate_matches_binomial_tail(self):
        # alpha = 0.4 -> per-vote correctness 0.9; k = 5
        oracle = make_oracle([1.0, 0.0], 0.4, 0.2, 23)
        assert oracle.majority_error(5, comparisons=False) == majority_error_exact(5, 0.9)

    def test_comparison_error_rate_matches_binomial_tail(self):
        oracle = make_oracle([1.0, 0.0], 0.2, 0.4, 24)
        assert oracle.majority_error(5, comparisons=True) == majority_error_exact(5, 0.9)

    def test_k_one_charges_one(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 21)
        assert ask_label(oracle, X, 1) == 1
        assert oracle.ledger.label_queries == 1
        assert ask_comparison(oracle, 1) == 1
        assert oracle.ledger.comparison_queries == 1

    def test_majority_charges_k(self):
        oracle = make_oracle([1.0, 0.0], 0.4, 0.4, 22)
        ask_label(oracle, X, 5)
        ask_comparison(oracle, 7)
        assert oracle.ledger.label_queries == 5
        assert oracle.ledger.comparison_queries == 7

    def test_batch_matches_scalar_semantics(self):
        # a noiseless crowd answers each question of a batch as it would
        # alone: a walk's comparison stops it INSIDE at round 1 when it waits
        # for its truth and never otherwise, so the walk ends a MISTAKE after
        # its 3 rounds, and a label at x @ w* = 0 is +1
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 25)
        walks = np.array([X, X_LEFT, X, X_LEFT])
        support = SupportPair(below=np.zeros(2), above=None)

        def walk(rows):
            return _walk_verdicts(walks[rows], support, np.ones(len(rows)), 3, oracle)

        codes, rounds = walk([0, 1, 2, 3])
        assert np.array_equal(codes, [_INSIDE, _MISTAKE, _INSIDE, _MISTAKE])
        assert np.array_equal(rounds, [1, 3, 1, 3])
        assert walk([0])[0][0] == _INSIDE and walk([1])[0][0] == _MISTAKE
        points = np.array([[-0.5, 0.0], [0.0, 1.0], [2.0, 1.0]])
        assert threshold_search(points, 3, oracle) == (2, 2)
        assert ask_label(oracle, points[1], 3) == 1
        assert (oracle.ledger.label_queries, oracle.ledger.comparison_queries) == (9, 8 + 1 + 3)

    @given(st.lists(st.sampled_from(["label", "compare", "maj3", "maj5c"]), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_ledger_exactness(self, ops):
        oracle = make_oracle([1.0, 0.0], 0.3, 0.3, 26)
        expect_labels = expect_comps = 0
        for op in ops:
            if op == "label":
                ask_label(oracle, X, 1)
                expect_labels += 1
            elif op == "compare":
                ask_comparison(oracle, 1)
                expect_comps += 1
            elif op == "maj3":
                ask_label(oracle, X, 3)
                expect_labels += 3
            else:
                ask_comparison(oracle, 5)
                expect_comps += 5
        assert oracle.ledger.label_queries == expect_labels
        assert oracle.ledger.comparison_queries == expect_comps


class TestFirstMajority:
    def test_law_limits(self):
        # against the sign, the first majority of it is the first passage of
        # a losing walk to +1: probability (1-q)/q in the long run, the
        # ruin closed form with a deep-pocketed opponent
        assert first_majority_law(0.7, 2001, False)[-1] == pytest.approx(3 / 7, abs=1e-12)
        assert first_majority_law(0.7, 2001, True)[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(first_majority_law(1.0, 5, True), [1.0, 1.0, 1.0])
        assert np.array_equal(first_majority_law(1.0, 5, False), [0.0, 0.0, 0.0])
        # round 1 is one vote; round 3 adds C_1 a^2 (1-a)
        assert np.allclose(first_majority_law(0.8, 3, True), [0.8, 0.8 + 0.8**2 * 0.2])

    @pytest.mark.parametrize("toward", [True, False])
    def test_matches_vote_by_vote_reference(self, toward):
        # the first majority of the awaited sign is the round at which a
        # walk against a lone INSIDE side stops: X against the ``below``
        # support X_LEFT with hypothesis label +1 waits for X >= X_LEFT,
        # the truth, and X_LEFT against X for X_LEFT >= X, which is not
        n, walk, q = 40_000, 9, 0.7
        # a label accuracy apart from q: the walk votes on comparisons
        oracle = make_oracle([1.0, 0.0], 0.45, 0.2, 34, int(toward))
        x, ref = (X, X_LEFT) if toward else (X_LEFT, X)
        support = SupportPair(below=ref, above=None)
        codes, walked = _walk_verdicts(np.tile(x, (n, 1)), support, np.ones(n), walk, oracle)
        rounds = np.where(codes == _INSIDE, walked, walk + 2)
        # +1 for a vote of the awaited sign
        votes = np.where(make_rng(35, int(toward)).random((n, walk)) < q, 1, -1) * (1 if toward else -1)
        hits = np.cumsum(votes, axis=1)[:, ::2] > 0
        reference = np.where(hits.any(axis=1), 2 * hits.argmax(axis=1) + 1, walk + 2)
        for t in range(1, walk + 3, 2):
            p = (np.count_nonzero(rounds == t) + np.count_nonzero(reference == t)) / (2 * n)
            se = math.sqrt(2 * p * (1 - p) / n)
            assert abs(np.count_nonzero(rounds == t) - np.count_nonzero(reference == t)) / n <= 4 * se, t
        assert np.all(codes[rounds > walk] == _MISTAKE) and np.all(walked[rounds > walk] == walk)
        charged = (oracle.ledger.label_queries, oracle.ledger.comparison_queries)
        assert charged == (0, int(walked.sum()))
        codes, walked = _walk_verdicts(np.empty((0, 2)), support, np.ones(0), walk, oracle)
        assert codes.shape == walked.shape == (0,)
        assert (oracle.ledger.label_queries, oracle.ledger.comparison_queries) == charged
        with pytest.raises(ValueError):
            _walk_verdicts(x[None], support, np.ones(1), 4, oracle)


class TestVoteSizes:
    def test_concrete_comparison_count(self):
        # ceil(ln(2*10^4/0.01) / (2*0.35^2)) = 60 -> next odd 61
        cfg = CrowdConfig(alpha=0.35, beta=0.35)
        k1, k2 = vote_sizes(100, 0.01, cfg)
        assert k1 == 61
        # ceil(ln(2*7/0.01) / (2*0.35^2)) = 30 -> next odd 31
        assert k2 == 31

    def test_both_odd(self):
        cfg = CrowdConfig(alpha=0.2, beta=0.15)
        for m in (1, 2, 17, 500):
            k1, k2 = vote_sizes(m, 0.05, cfg)
            assert k1 % 2 == 1 and k2 % 2 == 1

    def test_decreasing_in_margins(self):
        margins = [0.1, 0.2, 0.3, 0.4, 0.5]
        ks = [vote_sizes(200, 0.01, CrowdConfig(alpha=a, beta=a)) for a in margins]
        for (k1_lo, k2_lo), (k1_hi, k2_hi) in zip(ks[1:], ks[:-1]):
            assert k1_lo < k1_hi and k2_lo < k2_hi

    def test_nondecreasing_as_delta_shrinks(self):
        cfg = CrowdConfig(alpha=0.3, beta=0.3)
        deltas = [0.2, 0.1, 0.01, 0.001]
        ks = [vote_sizes(200, d, cfg) for d in deltas]
        for (k1_a, k2_a), (k1_b, k2_b) in zip(ks[:-1], ks[1:]):
            assert k1_b >= k1_a and k2_b >= k2_a

    def test_invalid_inputs(self):
        cfg = CrowdConfig(alpha=0.3, beta=0.3)
        with pytest.raises(ValueError):
            vote_sizes(0, 0.01, cfg)
        with pytest.raises(ValueError):
            vote_sizes(10, 1.0, cfg)

    def test_next_odd(self):
        assert next_odd(60) == 61
        assert next_odd(61) == 61


class TestPoolModel:
    def test_coverage_constraint_enforced(self):
        pool = PoolModel(reliable_fraction=0.8, reliable_accuracy=0.9)
        with pytest.raises(ValueError, match="alpha"):
            CrowdConfig(alpha=0.3, beta=0.2, pool=pool)  # 0.72 < 0.8

    def test_always_wrong_hits_floor(self):
        # a*p = 0.855 exactly equals 1/2 + alpha
        pool = PoolModel(0.9, 0.95, Adversary.ALWAYS_WRONG)
        oracle = make_oracle([1.0, 0.0], 0.355, 0.355, 30, pool=pool)
        for comparisons in (False, True):
            assert 1 - oracle.majority_error(1, comparisons) == pytest.approx(0.855, abs=1e-12)

    def test_random_flip_beats_floor(self):
        pool = PoolModel(0.9, 0.95, Adversary.RANDOM_FLIP)
        oracle = make_oracle([1.0, 0.0], 0.355, 0.355, 31, pool=pool)
        # effective correctness a*p + (1-a)/2 = 0.905
        for comparisons in (False, True):
            assert 1 - oracle.majority_error(1, comparisons) == pytest.approx(0.905, abs=1e-12)

    @pytest.mark.parametrize(
        "adversary, effective",
        [(Adversary.ALWAYS_WRONG, 0.855), (Adversary.RANDOM_FLIP, 0.905)],
    )
    def test_majority_error_matches_effective_accuracy(self, adversary, effective):
        # every vote comes from a freshly drawn worker, so a k-vote majority
        # errs like one over i.i.d. votes of accuracy a*p + (1-a)*(0 or 1/2)
        pool = PoolModel(0.9, 0.95, adversary)
        oracle = make_oracle([1.0, 0.0], 0.355, 0.355, 32, pool=pool)
        for comparisons in (False, True):
            exact = majority_error_exact(5, effective)
            assert oracle.majority_error(5, comparisons) == pytest.approx(exact, rel=1e-12)

    def test_pool_field_validation(self):
        with pytest.raises(ValueError):
            PoolModel(reliable_fraction=0.0, reliable_accuracy=0.9)
        with pytest.raises(ValueError):
            PoolModel(reliable_fraction=0.9, reliable_accuracy=0.5)


class TestCrowdConfig:
    @pytest.mark.parametrize("alpha", [0.0, 0.6, -0.1])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            CrowdConfig(alpha=alpha, beta=0.3)

    def test_beta_range(self):
        with pytest.raises(ValueError, match="beta"):
            CrowdConfig(alpha=0.3, beta=0.7)
