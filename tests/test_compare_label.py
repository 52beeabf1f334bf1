import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdpac import compare_label
from crowdpac.analytic import quicksort_expected_tests
from crowdpac.compare_label import (
    SortedLabeledSet,
    compare_and_label,
    noisy_quicksort,
    threshold_search,
)
from crowdpac.geometry import Halfspace, ProblemConfig, random_unit_vector, sample_instances
from crowdpac.oracles import Adversary, PoolModel, vote_sizes

from conftest import VOTE_ACCURACY, column_points, make_oracle, make_rng, model_oracle


def explicit_quicksort(points, k1, oracle, marks=()):
    """Reference: the level-by-level sort answering every level's tests from
    the true keys, whatever the tests before them answered, each wrong with
    its own Bernoulli(``majority_error``) draw, and flipping the answer of
    every test whose (level, position) is in ``marks``.  Charges k1 per
    test."""
    points = np.asarray(points, dtype=float)
    keys = points @ oracle.ground_truth.weights
    p = oracle.majority_error(k1, comparisons=True)
    n = len(points)
    order = np.arange(n, dtype=np.intp)
    starts = np.zeros(int(n > 1), dtype=np.intp)
    sizes = np.full(len(starts), n, dtype=np.intp)
    n_tests, level = 0, 0
    while len(starts):
        pivots = starts + oracle.rng.integers(sizes)
        segment = np.repeat(np.arange(len(starts)), sizes)
        position = np.arange(len(segment)) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
        asked = position != pivots[segment]
        tags = np.where(keys[order[position[asked]]] >= keys[order[pivots[segment[asked]]]], 1, -1)
        tags[oracle.rng.random(len(tags)) < p] *= -1
        if marks:
            tags[[(level, r) in marks for r in position[asked]]] *= -1
        n_tests += len(tags)
        side = np.ones(len(position), dtype=np.intp)
        side[asked] = np.where(tags == -1, 0, 2)
        order[position] = order[position[np.argsort(3 * segment + side, kind="stable")]]
        n_left = np.bincount(segment[side == 0], minlength=len(starts))
        starts = np.concatenate([starts, starts + n_left + 1])
        sizes = np.concatenate([n_left, sizes - n_left - 1])
        starts, sizes = starts[sizes > 1], sizes[sizes > 1]
        level += 1
    oracle.ledger.charge_comparisons(n_tests * k1)
    return order, n_tests


def sort_sample(sort, m, k1, beta, seeds, pool=None, copies=1):
    """Test counts, descents and fully-sorted flags of ``sort`` over seeds
    on m rows, each key held by ``copies`` of them, checking the ledger on
    every seed."""
    points = column_points(make_rng(90, m).permutation(m) // copies)
    tests, descents = np.empty(seeds), np.empty(seeds)
    for seed in range(seeds):
        reference = int(sort is explicit_quicksort)  # its own streams: independent samples
        oracle = make_oracle([1.0, 0.0], 0.35, beta, 91, m, k1, reference, seed, pool=pool)
        order, tests[seed] = sort(points, k1, oracle)
        assert oracle.ledger.comparison_queries == k1 * tests[seed]
        descents[seed] = np.count_nonzero(np.diff(points[order, 0]) < 0)
    return tests, descents, descents == 0


def vote_by_vote_threshold(keys, k2, q, trials, rng):
    """Reference: ``trials`` binary searches over the sorted ``keys`` at
    once, each probe's label the true label key >= 0 when most of its k2
    votes, each correct with probability q, are correct.  Returns each
    search's threshold."""
    m = len(keys)
    lo, hi = np.ones(trials, dtype=np.int64), np.full(trials, m + 1)
    while np.any(searching := lo < hi):
        mid = (lo + hi) // 2
        correct = 2 * np.count_nonzero(rng.random((trials, k2)) < q, axis=1) > k2
        positive = (keys[np.minimum(mid, m) - 1] >= 0) == correct
        hi = np.where(searching & positive, mid, hi)
        lo = np.where(searching & ~positive, mid + 1, lo)
    return lo


def assert_same_law(a, b, what):
    """Means and standard deviations of two samples within 4 standard errors,
    the latter's from each sample's fourth central moment."""
    n = len(a)
    mean_se = math.sqrt((np.var(a) + np.var(b)) / n)
    assert abs(np.mean(a) - np.mean(b)) <= 4 * mean_se, what + " mean"

    def sd_se(x):
        sd = np.std(x)
        return math.sqrt(max(np.mean((x - x.mean()) ** 4) - sd**4, 0.0) / n) / (2 * sd) if sd else 0.0

    sd_gap = abs(np.std(a) - np.std(b))
    assert sd_gap <= 4 * math.hypot(sd_se(a), sd_se(b)), what + " sd"


class TestNoisyQuicksort:
    def test_noiseless_sorts_by_projection(self):
        # every test right: the order is the stable argsort of the true keys
        rng = make_rng(51)
        oracle = make_oracle(random_unit_vector(3, rng), 0.5, 0.5, 50)
        points = rng.standard_normal((80, 3))
        order, n_tests = noisy_quicksort(points, 1, oracle)
        assert np.array_equal(order, np.argsort(points @ oracle.ground_truth.weights, kind="stable"))
        assert oracle.ledger.comparison_queries == n_tests

    def test_near_tie_follows_key_order(self):
        # keys 4 ulps apart: every test is answered from the keys, so a
        # noiseless crowd orders the pair as the keys do
        keys = np.append(np.arange(40.0), 5.0 + 4 * np.spacing(5.0))
        points = column_points(keys)
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 67)
        order, n_tests = noisy_quicksort(points, 1, oracle)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        assert oracle.ledger.comparison_queries == n_tests > 0

    @pytest.mark.parametrize(
        "m, k1, beta, pool, copies",
        [
            (40, 9, 0.2, None, 1),
            (40, 41, 0.2, None, 1),
            (120, 15, 0.35, None, 1),
            (300, 1, 0.45, None, 1),
            (60, 7, 0.35, PoolModel(0.9, 0.95, Adversary.RANDOM_FLIP), 1),
            (60, 11, 0.35, None, 6),
        ],
        # the distinct-key cases are named without their copy count
        ids=["40-9-0.2-None", "40-41-0.2-None", "120-15-0.35-None", "300-1-0.45-None",
             "60-7-0.35-pool4", "60-11-0.35-None-ties6"],
    )
    def test_law_matches_explicit_sort(self, m, k1, beta, pool, copies):
        # test count, descents of the output and P[fully sorted] against the
        # sort that asks every level, where tests err often enough to matter
        seeds = 300 if m > 100 else 800
        tests, descents, done = sort_sample(noisy_quicksort, m, k1, beta, seeds, pool, copies)
        ref_tests, ref_descents, ref_done = sort_sample(
            explicit_quicksort, m, k1, beta, seeds, pool, copies
        )
        assert_same_law(tests, ref_tests, "tests")
        assert_same_law(descents, ref_descents, "descents")
        p = (done.mean() + ref_done.mean()) / 2
        assert abs(done.mean() - ref_done.mean()) <= 4 * math.sqrt(2 * p * (1 - p) / seeds) + 1e-12

    @pytest.mark.parametrize(
        "marks",
        [((0, 0), (0, 1), (0, 2), (0, 3)), ((0, 1), (1, 2))],
        ids=["level0", "scattered"],
    )
    def test_marked_tests_come_out_wrong(self, marks, monkeypatch):
        # a noiseless crowd with the wrong-test slots forced to `marks`: the
        # output permutation must follow the reference's law, which flips
        # exactly the tests at those (level, position) slots
        m, seeds = 4, 1000
        points = column_points(np.arange(m))
        slots = np.array(sorted(level * m + r for level, r in marks))
        monkeypatch.setattr(compare_label, "_wrong_slots", lambda n_slots, p, rng: slots)
        laws = []
        for sort in (noisy_quicksort, explicit_quicksort):
            counts = {}
            for seed in range(seeds):
                oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 68, len(marks), len(laws), seed)
                args = (points, 3, oracle) + ((set(marks),) if sort is explicit_quicksort else ())
                order, n_tests = sort(*args)
                assert oracle.ledger.comparison_queries == 3 * n_tests
                counts[tuple(order.tolist())] = counts.get(tuple(order.tolist()), 0) + 1
            laws.append(counts)
        new, ref = laws
        if len(marks) == m:
            # every level-0 test wrong: the rows above pivot row P go left,
            # those below it right, and each side then sorts right
            assert set(new) == {(1, 2, 3, 0), (2, 3, 1, 0), (3, 2, 0, 1), (3, 0, 1, 2)}
        cells = set(new) | set(ref)
        chi2 = sum((new.get(c, 0) - ref.get(c, 0)) ** 2 / (new.get(c, 0) + ref.get(c, 0)) for c in cells)
        dof = len(cells) - 1
        assert chi2 <= dof + 5 * math.sqrt(2 * dof)

    @pytest.mark.parametrize("n_slots, p", [(1000, 0.3), (50_000, 1e-4), (10**12, 1e-12)])
    def test_wrong_slots_are_iid_marks(self, n_slots, p):
        # ascending distinct slots in range, Binomial(n_slots, p) of them,
        # at uniform positions
        rng = make_rng(69, n_slots)
        draws = [compare_label._wrong_slots(n_slots, p, rng) for _ in range(2000)]
        assert all(np.all(np.diff(d) > 0) and np.all((0 <= d) & (d < n_slots)) for d in draws)
        counts = np.array([len(d) for d in draws])
        mean, var = n_slots * p, n_slots * p * (1 - p)
        assert abs(counts.mean() - mean) <= 4 * math.sqrt(var / len(draws))
        assert abs(counts.var() - var) <= 0.2 * var
        marks = np.concatenate(draws) / n_slots
        if len(marks) > 100:
            assert abs(marks.mean() - 0.5) <= 4 * math.sqrt(1 / 12 / len(marks))
        assert len(compare_label._wrong_slots(n_slots, 0.0, rng)) == 0

    def test_single_instance_no_comparisons(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 52)
        order, n_tests = noisy_quicksort(column_points([3.0]), 5, oracle)
        assert n_tests == 0 and oracle.ledger.comparison_queries == 0
        assert list(order) == [0]

    def test_three_instances_expected_tests(self):
        # pivot uniform among 3: two choices cost 3 tests, one costs 2 -> 8/3
        counts = []
        for seed in range(3000):
            oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 53, seed)
            points = column_points(make_rng(54, seed).standard_normal(3))
            _, n_tests = noisy_quicksort(points, 1, oracle)
            counts.append(n_tests)
        assert abs(np.mean(counts) - 8 / 3) <= 0.04

    def test_mean_tests_match_closed_form(self):
        # noiseless with distinct rows, the test count is that of randomized
        # quicksort: mean 2(m+1)H_m - 4m, about 10987 at m = 1000
        m, seeds = 1000, 200
        points = column_points(make_rng(64).permutation(m))
        counts = []
        for seed in range(seeds):
            oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 65, seed)
            order, n_tests = noisy_quicksort(points, 1, oracle)
            assert np.all(np.diff(points[order][:, 0]) > 0)
            counts.append(n_tests)
        se = np.std(counts, ddof=1) / math.sqrt(seeds)
        assert abs(np.mean(counts) - quicksort_expected_tests(m)) <= 3 * se

    @pytest.mark.parametrize("d", [1, 2])
    def test_identical_rows_ask_every_pair(self, d):
        # all rows equal: every test ties and goes right, so each level
        # splits off only its pivot and the sort asks each pair once
        m = 60
        oracle = make_oracle(np.ones(d), 0.5, 0.5, 66)
        order, n_tests = noisy_quicksort(np.ones((m, d)), 1, oracle)
        assert sorted(order.tolist()) == list(range(m))
        assert n_tests == m * (m - 1) // 2 == oracle.ledger.comparison_queries

    @given(st.integers(min_value=1, max_value=40), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_output_is_permutation(self, m, noisy):
        beta = 0.2 if noisy else 0.5
        oracle = make_oracle([1.0, 0.0], 0.5, beta, 55, m, int(noisy))
        points = column_points(make_rng(56, m).standard_normal(m))
        order, _ = noisy_quicksort(points, 3, oracle)
        assert sorted(order.tolist()) == list(range(m))

    def test_charges_k1_per_test(self):
        oracle = make_oracle([1.0, 0.0], 0.3, 0.3, 57)
        points = column_points(make_rng(58).standard_normal(30))
        _, n_tests = noisy_quicksort(points, 7, oracle)
        assert oracle.ledger.comparison_queries == 7 * n_tests


class TestThresholdSearch:
    def test_split_in_middle(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 60)
        t, _ = threshold_search(column_points([-2.0, -1.0, 1.0, 2.0]), 1, oracle)
        assert t == 3

    def test_all_negative_sentinel(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 61)
        t, _ = threshold_search(column_points([-4.0, -3.0, -2.0]), 1, oracle)
        assert t == 4

    def test_all_positive(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 62)
        t, _ = threshold_search(column_points([1.0, 2.0, 3.0]), 1, oracle)
        assert t == 1

    def test_every_threshold_noiseless(self):
        # every m up to 300 and every split: the true threshold, within the
        # floor(log2 m) + 1 probes that criterion 2's probe cap relies on,
        # each charged k2 labels
        k2 = 3
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 59)
        for m in range(1, 301):
            cap = math.floor(math.log2(m)) + 1
            for split in range(m + 1):
                before = oracle.ledger.label_queries
                t, probes = threshold_search(column_points(np.arange(m) - split + 0.5), k2, oracle)
                assert t == split + 1
                assert 1 <= probes <= cap
                assert oracle.ledger.label_queries - before == probes * k2

    @pytest.mark.parametrize("m", [1, 8])
    @pytest.mark.parametrize("model", list(VOTE_ACCURACY))
    def test_noisy_law_matches_vote_by_vote_reference(self, model, m):
        # at every split, the law of the returned threshold against searches
        # whose every probe counts k2 votes, in one two-sample chi-square
        # over the (split, threshold) cells; each search charges k2 labels
        # per probe
        k2, trials = 3, 2000
        q = VOTE_ACCURACY[model][1]
        chi2, dof = 0.0, 0
        for split in range(m + 1):
            keys = np.arange(m) - split + 0.5
            points = column_points(keys)
            oracle = model_oracle(model, 140, m, split)
            found = np.empty(trials, dtype=np.int64)
            for i in range(trials):
                before = oracle.ledger.label_queries
                found[i], probes = threshold_search(points, k2, oracle)
                assert oracle.ledger.label_queries - before == probes * k2
            ref = vote_by_vote_threshold(keys, k2, q, trials, make_rng(141, m, split))
            counts = np.bincount(found, minlength=m + 2), np.bincount(ref, minlength=m + 2)
            total = counts[0] + counts[1]
            cells = total > 0
            chi2 += np.sum((counts[0] - counts[1])[cells] ** 2 / total[cells])
            dof += np.count_nonzero(cells) - 1
        assert chi2 <= dof + 5 * math.sqrt(2 * dof), (chi2, dof)

    def test_probe_budget_m8(self):
        k2 = 5
        for split in range(9):
            oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 63, split)
            proj = np.arange(8) - split + 0.5  # split negatives/positives
            t, probes = threshold_search(column_points(proj), k2, oracle)
            assert t == split + 1
            assert probes <= 4
            assert oracle.ledger.label_queries <= 4 * k2


class TestCompareAndLabel:
    def test_noiseless_labels_match_ground_truth(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 70)
        points = column_points(make_rng(71).standard_normal(60))
        labeled = compare_and_label(points, 0.01, oracle)
        assert np.array_equal(labeled.labels, oracle.ground_truth.predict(labeled.instances))

    def test_single_instance_costs(self):
        oracle = make_oracle([1.0, 0.0], 0.3, 0.3, 72)
        _, k2 = vote_sizes(1, 0.05, oracle.config)
        labeled = compare_and_label(column_points([2.0]), 0.05, oracle)
        assert oracle.ledger.comparison_queries == 0
        assert oracle.ledger.label_queries == k2
        assert labeled.threshold_index in (1, 2)

    def test_query_accounting(self):
        oracle = make_oracle([1.0, 0.0], 0.3, 0.3, 73)
        points = column_points(make_rng(74).standard_normal(40))
        k1, k2 = vote_sizes(40, 0.01, oracle.config)
        labeled = compare_and_label(points, 0.01, oracle)
        assert oracle.ledger.comparison_queries == k1 * labeled.comparison_tests
        assert oracle.ledger.label_queries == k2 * labeled.probe_count

    def test_rejects_empty_input(self):
        oracle = make_oracle([1.0, 0.0], 0.3, 0.3, 75)
        with pytest.raises(ValueError):
            compare_and_label(np.empty((0, 2)), 0.01, oracle)

    def test_order_maps_back_to_input(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.2, 76)
        points = column_points(make_rng(77).standard_normal(25))
        labeled = compare_and_label(points, 0.05, oracle)
        assert np.array_equal(labeled.instances, points[labeled.order])

    def test_mostly_all_correct_under_noise(self):
        # small-sample version of the 1 - delta labeling guarantee
        good = 0
        trials = 100
        for seed in range(trials):
            rng = make_rng(78, seed)
            gt = Halfspace(random_unit_vector(2, rng))
            oracle = make_oracle(gt.weights, 0.3, 0.3, 79, seed)
            points = sample_instances(ProblemConfig(dimension=2), 50, rng)
            labeled = compare_and_label(points, 0.1, oracle)
            good += np.array_equal(labeled.labels, gt.predict(labeled.instances))
        # bar: 1 - delta minus 3 binomial standard errors
        assert good / trials >= 0.9 - 3 * math.sqrt(0.9 * 0.1 / trials)

    def test_comparison_count_bound_light(self):
        m, trials, bound = 64, 100, 4 * 64 * math.log(64)
        hits = 0
        for seed in range(trials):
            oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 80, seed)
            points = column_points(make_rng(81, seed).standard_normal(m))
            _, n_tests = noisy_quicksort(points, 1, oracle)
            hits += n_tests <= bound
        assert hits / trials >= 0.95


class TestSortedLabeledSet:
    def test_label_consistency_enforced(self):
        points = column_points([-1.0, 1.0])
        with pytest.raises(ValueError):
            SortedLabeledSet(
                instances=points,
                threshold_index=2,
                labels=np.array([1, -1]),  # contradicts the threshold rule
                order=np.array([0, 1]),
                comparison_tests=0,
                probe_count=0,
            )

    def test_threshold_range_enforced(self):
        points = column_points([-1.0, 1.0])
        with pytest.raises(ValueError):
            SortedLabeledSet(
                instances=points,
                threshold_index=4,
                labels=np.array([-1, 1]),
                order=np.array([0, 1]),
                comparison_tests=0,
                probe_count=0,
            )
