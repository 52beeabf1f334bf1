import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdpac.analytic import majority_error_exact
from crowdpac.oracles import (
    Adversary,
    CrowdConfig,
    PoolModel,
    first_majority_law,
    next_odd,
    vote_sizes,
)

from conftest import make_oracle, make_rng

X = np.array([0.7, 0.2])       # truth +1 under weights (1, 0)
X_LEFT = np.array([-0.3, 0.5])  # truth -1


class TestSingleQueries:
    def test_noiseless_label_always_correct(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 11)
        assert all(oracle.majority(X[None], 1)[0] == 1 for _ in range(200))
        assert all(oracle.majority(X_LEFT[None], 1)[0] == -1 for _ in range(200))

    def test_label_frequency(self):
        # Bernoulli(0.8) check at alpha = 0.3
        oracle = make_oracle([1.0, 0.0], 0.3, 0.3, 12)
        hits = np.count_nonzero(oracle.majority(np.tile(X, (100_000, 1)), 1) == 1)
        assert abs(hits / 100_000 - 0.8) <= 0.004

    def test_comparison_frequency(self):
        oracle = make_oracle([1.0, 0.0], 0.35, 0.35, 13)
        tags = oracle.majority(np.tile(X, (100_000, 1)), 1, reference=X_LEFT)
        hits = np.count_nonzero(tags == 1)
        assert abs(hits / 100_000 - 0.85) <= 0.004

    def test_noiseless_comparison(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 14)
        assert all(oracle.majority(X[None], 1, reference=X_LEFT)[0] == 1 for _ in range(100))

    def test_each_call_charges_one(self):
        oracle = make_oracle([1.0, 0.0], 0.4, 0.4, 15)
        oracle.majority(X[None], 1)
        assert (oracle.ledger.label_queries, oracle.ledger.comparison_queries) == (1, 0)
        oracle.majority(X[None], 1, reference=X_LEFT)
        assert (oracle.ledger.label_queries, oracle.ledger.comparison_queries) == (1, 1)


WORKER_MODELS = {
    "iid": None,
    "always_wrong": PoolModel(0.9, 0.95, Adversary.ALWAYS_WRONG),
    "random_flip": PoolModel(0.9, 0.95, Adversary.RANDOM_FLIP),
}

# (pool, per-vote accuracy) at alpha = beta = 0.2: the pools' floor
# 0.8 * 0.9 = 0.72 covers 1/2 + 0.2; random_flip adds 0.2 / 2
VOTE_ACCURACY = {
    "iid": (None, 0.7),
    "always_wrong": (PoolModel(0.8, 0.9, Adversary.ALWAYS_WRONG), 0.72),
    "random_flip": (PoolModel(0.8, 0.9, Adversary.RANDOM_FLIP), 0.82),
}


class TestMajorityVotes:
    def test_vote_counting(self):
        # under every worker model and for labels, comparisons against one
        # row and comparisons against one row per question, majority gives
        # one tag per question and charges n*k; first_majority charges nothing
        questions = make_rng(19).standard_normal((40, 2))
        per_row = make_rng(19, 1).standard_normal((40, 2))
        for model, pool in WORKER_MODELS.items():
            for reference in (None, X_LEFT, per_row):
                kind = "label" if reference is None else f"comparison to {reference.shape}"
                case = f"{model}, {kind}"
                voter = make_oracle([1.0, -0.5], 0.35, 0.35, 19, pool=pool)
                lister = make_oracle([1.0, -0.5], 0.35, 0.35, 19, pool=pool)
                sizes = (1, 5, 5)
                for k in sizes:
                    tags = voter.majority(questions, k, reference=reference)
                    rounds = lister.first_majority(questions, 1, k, reference=reference)
                    assert tags.shape == rounds.shape == (40,), case
                    assert np.all(np.isin(tags, (-1, 1))), case
                charged = (voter.ledger.label_queries, voter.ledger.comparison_queries)
                votes = 40 * sum(sizes)
                assert charged == ((votes, 0) if reference is None else (0, votes)), case
                listed_charge = (lister.ledger.label_queries, lister.ledger.comparison_queries)
                assert listed_charge == (0, 0), case

                empty = np.empty((0, 2))
                no_rows = reference[:0] if reference is per_row else reference
                assert voter.majority(empty, 3, reference=no_rows).shape == (0,), case
                assert lister.first_majority(empty, 1, 3, reference=no_rows).shape == (0,), case
                assert (voter.ledger.label_queries, voter.ledger.comparison_queries) == charged
                with pytest.raises(ValueError):
                    voter.majority(questions, 4, reference=reference)

    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    @pytest.mark.parametrize("model", list(VOTE_ACCURACY))
    def test_matches_vote_by_vote_reference(self, model, k):
        # the batch's wrong share against k Bernoulli(q) votes per question,
        # for labels and both reference shapes; wrong tags spread over the
        # batch as they do over independent questions
        pool, q = VOTE_ACCURACY[model]
        n = 20_000
        questions = make_rng(28, k).standard_normal((n, 2))
        per_row = make_rng(28, k, 1).standard_normal((n, 2))
        for reference in (None, X_LEFT, per_row):
            oracle = make_oracle([1.0, -0.5], 0.2, 0.2, 28, k, pool=pool)
            truths = oracle.ground_truth.predict(
                questions if reference is None else questions - reference
            )
            tags = oracle.majority(questions, k, reference=reference)
            wrong = np.count_nonzero(tags != truths) / n
            votes = make_rng(29, k).random((n, k)) < q
            reference_wrong = np.count_nonzero(2 * votes.sum(axis=1) < k) / n
            pooled = (wrong + reference_wrong) / 2
            se = math.sqrt(2 * pooled * (1 - pooled) / n)
            assert abs(wrong - reference_wrong) <= 4 * se, (reference, wrong, reference_wrong)
            halves = [np.count_nonzero(half) / (n // 2) for half in np.split(tags != truths, 2)]
            assert abs(halves[0] - halves[1]) <= 4 * math.sqrt(4 * pooled * (1 - pooled) / n)
            charged = (oracle.ledger.label_queries, oracle.ledger.comparison_queries)
            assert charged == ((n * k, 0) if reference is None else (0, n * k))

    @pytest.mark.parametrize("pool", [None, PoolModel(0.9, 0.95, Adversary.RANDOM_FLIP)])
    def test_wrong_majorities_count_and_charge(self, pool):
        # the count alone, at each oracle's own accuracy: 1/2 + alpha for
        # labels and 1/2 + beta for comparisons, or the pool's vote accuracy
        n, k = 100_000, 3
        oracle = make_oracle([1.0, 0.0], 0.1, 0.3, 31, pool=pool)
        for comparisons, margin in ((False, 0.1), (True, 0.3)):
            q = 0.5 + margin if pool is None else pool.vote_accuracy
            p = majority_error_exact(k, q)
            wrong = oracle.wrong_majorities(n, k, comparisons)
            assert abs(wrong - n * p) <= 4 * math.sqrt(n * p * (1 - p)), (comparisons, wrong)
        assert (oracle.ledger.label_queries, oracle.ledger.comparison_queries) == (n * k, n * k)
        with pytest.raises(ValueError):
            oracle.wrong_majorities(n, 2, True)

    def test_reference_shape_checked(self):
        # a reference is one row of the questions' width or exactly one row
        # per question; any other shape raises before anything is charged
        oracle = make_oracle([1.0, 0.0], 0.35, 0.35, 27)
        questions = make_rng(27).standard_normal((5, 2))
        bad = [np.zeros(shape) for shape in ((4, 2), (6, 2), (1, 2), (5, 3), (3,), (1, 5, 2))]
        for reference in bad:
            with pytest.raises(ValueError):
                oracle.majority(questions, 3, reference=reference)
            with pytest.raises(ValueError):
                oracle.first_majority(questions, 1, 3, reference=reference)
        assert oracle.ledger.comparison_queries == 0

    def test_even_k_rejected(self):
        oracle = make_oracle([1.0, 0.0], 0.4, 0.4, 20)
        with pytest.raises(ValueError):
            oracle.majority(X[None], 4)
        with pytest.raises(ValueError):
            oracle.majority(X[None], 2, reference=X_LEFT)

    def test_k_one_charges_one(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 21)
        assert oracle.majority(X[None], 1)[0] == 1
        assert oracle.ledger.label_queries == 1
        assert oracle.majority(X[None], 1, reference=X_LEFT)[0] == 1
        assert oracle.ledger.comparison_queries == 1

    def test_majority_charges_k(self):
        oracle = make_oracle([1.0, 0.0], 0.4, 0.4, 22)
        oracle.majority(X[None], 5)
        oracle.majority(X[None], 7, reference=X_LEFT)
        assert oracle.ledger.label_queries == 5
        assert oracle.ledger.comparison_queries == 7

    def test_error_rate_matches_binomial_tail(self):
        # alpha = 0.4 -> per-vote correctness 0.9; k = 5
        oracle = make_oracle([1.0, 0.0], 0.4, 0.4, 23)
        wrong = np.count_nonzero(oracle.majority(np.tile(X, (10_000, 1)), 5) != 1)
        exact = majority_error_exact(5, 0.9)
        se = math.sqrt(exact * (1 - exact) / 10_000)
        assert abs(wrong / 10_000 - exact) <= 3 * se

    def test_comparison_error_rate_matches_binomial_tail(self):
        oracle = make_oracle([1.0, 0.0], 0.4, 0.4, 24)
        tags = oracle.majority(np.tile(X, (10_000, 1)), 5, reference=X_LEFT)
        wrong = np.count_nonzero(tags != 1)
        exact = majority_error_exact(5, 0.9)
        se = math.sqrt(exact * (1 - exact) / 10_000)
        assert abs(wrong / 10_000 - exact) <= 3 * se

    def test_batch_matches_scalar_semantics(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 25)
        points = np.array([[0.5, 0.0], [-0.5, 0.0], [2.0, 1.0]])
        tags = oracle.majority(points, 3, reference=np.array([0.0, 0.0]))
        assert np.array_equal(tags, [1, -1, 1])
        assert oracle.ledger.comparison_queries == 9
        # one reference row per question: row i is compared with row i only
        tags = oracle.majority(points, 3, reference=points[::-1])
        assert np.array_equal(tags, [-1, 1, 1])  # the middle pair ties
        assert oracle.ledger.comparison_queries == 18

    @given(st.lists(st.sampled_from(["label", "compare", "maj3", "maj5c"]), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_ledger_exactness(self, ops):
        oracle = make_oracle([1.0, 0.0], 0.3, 0.3, 26)
        expect_labels = expect_comps = 0
        for op in ops:
            if op == "label":
                oracle.majority(X[None], 1)
                expect_labels += 1
            elif op == "compare":
                oracle.majority(X[None], 1, reference=X_LEFT)
                expect_comps += 1
            elif op == "maj3":
                oracle.majority(X[None], 3)
                expect_labels += 3
            else:
                oracle.majority(X[None], 5, reference=X_LEFT)
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
        n, walk, q = 40_000, 9, 0.7
        oracle = make_oracle([1.0, 0.0], 0.2, 0.2, 34, int(toward))
        sign = 1 if toward else -1  # X's true label is +1
        rounds = oracle.first_majority(np.tile(X, (n, 1)), sign, walk)
        votes = np.where(make_rng(35, int(toward)).random((n, walk)) < q, 1, -1) * sign
        hits = np.cumsum(votes, axis=1)[:, ::2] > 0
        reference = np.where(hits.any(axis=1), 2 * hits.argmax(axis=1) + 1, walk + 2)
        for t in range(1, walk + 3, 2):
            p = (np.count_nonzero(rounds == t) + np.count_nonzero(reference == t)) / (2 * n)
            se = math.sqrt(2 * p * (1 - p) / n)
            assert abs(np.count_nonzero(rounds == t) - np.count_nonzero(reference == t)) / n <= 4 * se, t
        assert (oracle.ledger.label_queries, oracle.ledger.comparison_queries) == (0, 0)
        with pytest.raises(ValueError):
            oracle.first_majority(X[None], sign, 4)


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
        n = 100_000
        hits = np.count_nonzero(oracle.majority(np.tile(X, (n, 1)), 1) == 1)
        sigma = math.sqrt(0.855 * 0.145 / n)
        assert hits / n >= 0.855 - 3 * sigma

    def test_random_flip_beats_floor(self):
        pool = PoolModel(0.9, 0.95, Adversary.RANDOM_FLIP)
        oracle = make_oracle([1.0, 0.0], 0.355, 0.355, 31, pool=pool)
        n = 50_000
        hits = np.count_nonzero(oracle.majority(np.tile(X, (n, 1)), 1) == 1)
        # effective correctness a*p + (1-a)/2 = 0.905
        assert hits / n >= 0.88

    @pytest.mark.parametrize(
        "adversary, effective",
        [(Adversary.ALWAYS_WRONG, 0.855), (Adversary.RANDOM_FLIP, 0.905)],
    )
    def test_majority_error_matches_effective_accuracy(self, adversary, effective):
        # every vote comes from a freshly drawn worker, so a k-vote majority
        # errs like one over i.i.d. votes of accuracy a*p + (1-a)*(0 or 1/2)
        pool = PoolModel(0.9, 0.95, adversary)
        oracle = make_oracle([1.0, 0.0], 0.355, 0.355, 32, pool=pool)
        n, k = 40_000, 5
        exact = majority_error_exact(k, effective)
        se = math.sqrt(exact * (1 - exact) / n)
        for reference in (None, X_LEFT):
            wrong = np.count_nonzero(oracle.majority(np.tile(X, (n, 1)), k, reference=reference) != 1)
            assert abs(wrong / n - exact) <= 3 * se, reference

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
