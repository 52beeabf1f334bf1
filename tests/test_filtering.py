import itertools
import math
from collections import defaultdict

import numpy as np
import pytest

from crowdpac.compare_label import SortedLabeledSet
from crowdpac.filtering import (
    _AGREE,
    _INSIDE,
    _MISTAKE,
    FilterConfig,
    SupportPair,
    _walk_verdicts,
    default_walk_length,
    filter_mistakes,
    pick_support,
)
from crowdpac.geometry import Halfspace, ProblemConfig, sample_instances

from conftest import column_points, make_oracle, make_rng


def labeled_set(projections, threshold):
    points = column_points(projections)
    m = len(points)
    return SortedLabeledSet(
        instances=points,
        threshold_index=threshold,
        labels=np.where(np.arange(1, m + 1) < threshold, -1, 1),
        order=np.arange(m),
        comparison_tests=0,
        probe_count=0,
    )


def rotated(mass):
    """Hypothesis disagreeing with the (1, 0) truth on the given sphere mass."""
    theta = mass * math.pi
    return Halfspace(np.array([math.cos(theta), math.sin(theta)]))


SUPPORT = SupportPair(below=np.array([-0.1, 0.0]), above=np.array([0.1, 0.0]))
OUTSIDE_LEFT = np.array([-0.5, 0.0])  # ground truth -1, left of both supports


class TestPickSupport:
    def test_straddling_threshold(self):
        sls = labeled_set([-2.0, -1.0, 1.0, 2.0], threshold=3)
        support = pick_support(sls)
        assert support.below[0] == -1.0 and support.above[0] == 1.0

    def test_all_positive(self):
        support = pick_support(labeled_set([1.0, 2.0], threshold=1))
        assert support.below is None
        assert support.above[0] == 1.0

    def test_all_negative(self):
        support = pick_support(labeled_set([-2.0, -1.0], threshold=3))
        assert support.above is None
        assert support.below[0] == -1.0


def walk_one(x, support, h_label, walk_length, oracle):
    """Verdict code of the walk of the single instance ``x``."""
    codes, _ = _walk_verdicts(x[None], support, np.array([h_label]), walk_length, oracle)
    return codes[0]


class TestIntervalTest:
    def test_noiseless_agree_breaks_immediately(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 100)
        assert walk_one(OUTSIDE_LEFT, SUPPORT, -1, 19, oracle) == _AGREE
        assert oracle.ledger.comparison_queries == 2  # one round, both sides

    def test_noiseless_inside_breaks_immediately(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 101)
        assert walk_one(np.array([0.0, 0.3]), SUPPORT, 1, 19, oracle) == _INSIDE
        assert oracle.ledger.comparison_queries == 2

    def test_noiseless_mistake_runs_full_walk(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 102)
        assert walk_one(OUTSIDE_LEFT, SUPPORT, 1, 19, oracle) == _MISTAKE
        assert oracle.ledger.comparison_queries == 2 * 19

    def test_one_sided_support_above_only(self):
        support = SupportPair(below=None, above=np.array([0.1, 0.0]))
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 103)
        # left of the positive support with a negative hypothesis label: inside
        assert walk_one(OUTSIDE_LEFT, support, -1, 5, oracle) == _INSIDE
        # right of it, hypothesis positive: agreement
        assert walk_one(np.array([0.9, 0.0]), support, 1, 5, oracle) == _AGREE
        # one comparison per round when only one side is present
        assert oracle.ledger.comparison_queries == 2

    def test_one_sided_support_below_only(self):
        support = SupportPair(below=np.array([-0.1, 0.0]), above=None)
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 104)
        assert walk_one(np.array([0.9, 0.0]), support, 1, 5, oracle) == _INSIDE
        assert walk_one(OUTSIDE_LEFT, support, -1, 5, oracle) == _AGREE

    def test_requires_a_support(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 105)
        with pytest.raises(ValueError):
            walk_one(OUTSIDE_LEFT, SupportPair(None, None), 1, 5, oracle)

    def test_requires_odd_walk(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 106)
        with pytest.raises(ValueError):
            walk_one(OUTSIDE_LEFT, SUPPORT, 1, 4, oracle)

    def test_routing_frequencies_under_noise(self):
        # per-round both-correct probability 0.85^2 = 0.7225 > 0.7
        oracle = make_oracle([1.0, 0.0], 0.35, 0.35, 107)
        walk = default_walk_length(0.04)
        reps = 500
        batch = np.tile(OUTSIDE_LEFT, (reps, 1))
        mistakes, _ = _walk_verdicts(batch, SUPPORT, np.full(reps, 1), walk, oracle)
        false_alarms, _ = _walk_verdicts(batch, SUPPORT, np.full(reps, -1), walk, oracle)
        assert np.count_nonzero(mistakes == _MISTAKE) / reps >= 0.5
        assert np.count_nonzero(false_alarms == _MISTAKE) / reps <= 0.1


def exact_walk(q, walk_length, h_label, truths=(-1, -1)):
    """Exact verdict shares, and mean and standard deviation of the rounds
    used, of the walk of an instance whose true comparisons against
    ``below`` and ``above`` are ``truths`` (None for an absent side); the
    default is OUTSIDE_LEFT against SUPPORT.

    Dynamic program over the running tag sums of the present sides, one
    vote per side per round, checked at odd rounds.  A correct vote adds the
    side's true comparison to its sum.
    """
    sides = [(sign, truth) for sign, truth in zip((1, -1), truths) if truth is not None]
    walking = {(0,) * len(sides): 1.0}
    shares = dict.fromkeys((_INSIDE, _AGREE, _MISTAKE), 0.0)
    rounds = defaultdict(float)  # round -> probability of ending there
    for t in range(1, walk_length + 1):
        step = defaultdict(float)
        for sums, p in walking.items():
            for tags in itertools.product(*[((truth, q), (-truth, 1 - q)) for _, truth in sides]):
                moved = tuple(total + tag for total, (tag, _) in zip(sums, tags))
                step[moved] += p * math.prod(p_tag for _, p_tag in tags)
        walking = step
        if t % 2 == 0:
            continue
        for sums in list(walking):
            signed = [sign * total for (sign, _), total in zip(sides, sums)]
            inside = all(value > 0 for value in signed)
            agree = any(
                value < 0 and h_label == -sign for value, (sign, _) in zip(signed, sides)
            )
            if inside or agree:
                p = walking.pop(sums)
                shares[_INSIDE if inside else _AGREE] += p
                rounds[t] += p
    shares[_MISTAKE] = sum(walking.values())
    rounds[walk_length] += shares[_MISTAKE]
    mean = sum(t * p for t, p in rounds.items())
    sd = math.sqrt(sum((t - mean) ** 2 * p for t, p in rounds.items()))
    return shares, mean, sd


def vote_by_vote_walk(points, support, h_labels, walk_length, truth, q, rng):
    """The walk voted round by round, the reference for ``_walk_verdicts``'s
    exact-law draw: one Bernoulli(q) correct vote per present side in round
    1 and two more before every later odd round, for the instances still
    walking.  Returns (verdict codes, rounds used)."""
    sides = [(ref, side) for ref, side in ((support.below, 1), (support.above, -1))
             if ref is not None]
    n = len(points)
    verdicts = np.full(n, _MISTAKE, dtype=np.int8)
    rounds_used = np.full(n, walk_length, dtype=np.int64)
    live = np.arange(n)
    live_labels = np.asarray(h_labels)
    sums = np.zeros((len(sides), n), dtype=np.int64)
    for t in range(1, walk_length + 1, 2):
        if not live.size:
            break
        for row, (ref, side) in enumerate(sides):
            true_tags = truth.predict(points[live] - ref)
            for _ in range(1 if t == 1 else 2):
                sums[row] += side * np.where(rng.random(live.size) < q, true_tags, -true_tags)
        inside = (sums > 0).all(axis=0)
        agree = np.zeros(live.size, dtype=bool)
        for row, (_, side) in enumerate(sides):
            agree |= (sums[row] < 0) & (live_labels == -side)
        fired = inside | agree
        verdicts[live[inside]] = _INSIDE
        verdicts[live[agree]] = _AGREE
        rounds_used[live[fired]] = t
        walking = ~fired
        live, live_labels, sums = live[walking], live_labels[walking], sums[:, walking]
    return verdicts, rounds_used


# the 16 walk classes: present support sides x true comparisons x h
WALK_CLASSES = [
    (truths, h_label)
    for truths in [(b, a) for b in (-1, 1) for a in (-1, 1)]
    + [(b, None) for b in (-1, 1)] + [(None, a) for a in (-1, 1)]
    for h_label in (-1, 1)
]



def walk_class_id(value):
    if isinstance(value, tuple):
        return "_".join(
            f"{name}{'absent' if t is None else f'{t:+d}'}"
            for name, t in zip(("below", "above"), value)
        )
    return f"h{value:+d}"


class TestWalkDistribution:
    @pytest.mark.parametrize("h_label", [1, -1])
    def test_walk_matches_exact_distribution(self, h_label):
        # exact_walk adds one vote per round; the walk draws each side's
        # first stopping round from its exact law
        n, walk = 40_000, 19
        oracle = make_oracle([1.0, 0.0], 0.35, 0.35, 108, h_label + 1)
        codes, rounds = _walk_verdicts(
            np.tile(OUTSIDE_LEFT, (n, 1)), SUPPORT, np.full(n, h_label), walk, oracle
        )
        shares, mean_rounds, sd_rounds = exact_walk(0.85, walk, h_label)
        assert math.isclose(sum(shares.values()), 1.0)
        for code, p in shares.items():
            se = math.sqrt(p * (1 - p) / n)
            assert abs(np.count_nonzero(codes == code) / n - p) <= 4 * se, code
        assert abs(rounds.mean() - mean_rounds) <= 4 * sd_rounds / math.sqrt(n)
        assert np.all(rounds % 2 == 1) and np.all(rounds[codes == _MISTAKE] == walk)
        assert oracle.ledger.comparison_queries == 2 * int(rounds.sum())

    @pytest.mark.parametrize("truths, h_label", WALK_CLASSES, ids=walk_class_id)
    def test_walk_matches_vote_by_vote_reference(self, truths, h_label):
        # the instance sits at the origin; a support at -0.5 * t makes the
        # true comparison against it t
        n, walk, q = 20_000, 9, 0.85
        below, above = (None if t is None else np.array([-0.5 * t, 0.0]) for t in truths)
        support = SupportPair(below=below, above=above)
        points, h_labels = np.zeros((n, 2)), np.full(n, h_label)
        key = [2 if t is None else t + 1 for t in truths] + [h_label + 1]
        oracle = make_oracle([1.0, 0.0], 0.35, 0.35, 109, *key)
        codes, rounds = _walk_verdicts(points, support, h_labels, walk, oracle)
        ref_codes, ref_rounds = vote_by_vote_walk(
            points, support, h_labels, walk, oracle.ground_truth, q, make_rng(110, *key)
        )
        shares, mean_rounds, sd_rounds = exact_walk(q, walk, h_label, truths)
        for code, p in shares.items():
            se = math.sqrt(p * (1 - p) / n)
            for got in (codes, ref_codes):
                assert abs(np.count_nonzero(got == code) / n - p) <= 4 * se, code
        for got in (rounds, ref_rounds):
            assert abs(got.mean() - mean_rounds) <= 4 * sd_rounds / math.sqrt(n)
        assert np.all(rounds % 2 == 1) and np.all(rounds[codes == _MISTAKE] == walk)
        present = sum(t is not None for t in truths)
        assert oracle.ledger.comparison_queries == present * int(rounds.sum())


class TestDefaultWalkLength:
    def test_value_for_four_percent(self):
        # ceil(4 * log2(25)) = 19, already odd
        assert default_walk_length(0.04) == 19

    def test_always_odd(self):
        for eps in (0.9, 0.5, 0.1, 0.01, 0.003):
            assert default_walk_length(eps) % 2 == 1


class TestFilterConfig:
    def test_even_walk_rejected(self):
        with pytest.raises(ValueError):
            FilterConfig(walk_length=6)

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            FilterConfig(per_round_confidence=1.5)

    def test_unresolved_walk_rejected_at_run(self):
        oracle = make_oracle([1.0, 0.0], 0.35, 0.35, 110)
        with pytest.raises(ValueError):
            filter_mistakes(column_points([1.0, 2.0]), oracle.ground_truth, FilterConfig(), oracle)


def subsampled(out):
    """Rows the filter's walk rounds sub-sampled, sorted and set aside."""
    return sum(r.subsample_size for r in out.rounds if not r.small_branch)


class TestFilterMistakes:
    def test_perfect_hypothesis_noiseless(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 120)
        points = sample_instances(ProblemConfig(dimension=2), 400, make_rng(121))
        out = filter_mistakes(points, oracle.ground_truth, FilterConfig(walk_length=19), oracle)
        assert len(out.suspected_indices) == 0
        assert sum(r.suspected for r in out.rounds) == 0
        assert sum(r.agreed for r in out.rounds) + subsampled(out) == 400

    def test_small_input_single_sorting_round(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 122)
        points = sample_instances(ProblemConfig(dimension=2), 12, make_rng(123))
        h = rotated(0.3)
        out = filter_mistakes(points, h, FilterConfig(walk_length=19), oracle)
        assert out.round_count == 1
        assert out.rounds[0].small_branch
        assert subsampled(out) == 0
        # noiseless sorting: suspects are exactly the disagreements
        expected = np.nonzero(h.predict(points) != oracle.ground_truth.predict(points))[0]
        assert np.array_equal(np.sort(out.suspected_indices), expected)

    def test_partition_invariant(self):
        for seed in range(8):
            oracle = make_oracle([1.0, 0.0], 0.35, 0.35, 124, seed)
            points = sample_instances(ProblemConfig(dimension=2), 600, make_rng(125, seed))
            out = filter_mistakes(points, rotated(0.2), FilterConfig(walk_length=19), oracle)
            suspects = out.suspected_indices
            assert np.all(np.diff(suspects) > 0)  # ascending and distinct
            assert np.all((suspects >= 0) & (suspects < 600))
            assert len(suspects) == sum(r.suspected for r in out.rounds)
            # every row has one fate, and the loop runs to exhaustion
            assert len(suspects) + sum(r.agreed for r in out.rounds) + subsampled(out) == 600

    @pytest.mark.parametrize("size, tags, seeds", [(600, (124, 125), 8), (2000, (130, 131), 5)])
    def test_round_stats_match_outcome(self, size, tags, seeds):
        for seed in range(seeds):
            oracle = make_oracle([1.0, 0.0], 0.35, 0.35, tags[0], seed)
            points = sample_instances(ProblemConfig(dimension=2), size, make_rng(tags[1], seed))
            out = filter_mistakes(points, rotated(0.2), FilterConfig(walk_length=19), oracle)
            assert sum(r.suspected for r in out.rounds) == len(out.suspected_indices)
            fates = sum(r.suspected + r.agreed for r in out.rounds) + subsampled(out)
            assert fates == size
            for r in out.rounds:
                assert r.tested + r.subsample_size == r.active_start
                assert r.inside + r.agreed + r.suspected == (
                    r.subsample_size if r.small_branch else r.tested)
            starts = [r.active_start for r in out.rounds[1:]] + [0]
            assert [r.inside for r in out.rounds] == starts

    def test_accounting_matches_ledger(self):
        oracle = make_oracle([1.0, 0.0], 0.35, 0.35, 126)
        points = sample_instances(ProblemConfig(dimension=2), 800, make_rng(127))
        out = filter_mistakes(points, rotated(0.2), FilterConfig(walk_length=19), oracle)
        assert sum(r.label_queries for r in out.rounds) == oracle.ledger.label_queries
        assert sum(r.comparison_queries for r in out.rounds) == oracle.ledger.comparison_queries
        for stats in out.rounds:
            assert stats.walk_comparisons <= stats.comparison_queries

    def test_early_stop_target(self):
        oracle = make_oracle([1.0, 0.0], 0.35, 0.35, 128)
        points = sample_instances(ProblemConfig(dimension=2), 3000, make_rng(129))
        cfg = FilterConfig(walk_length=19, early_stop_target=5)
        out = filter_mistakes(points, rotated(0.2), cfg, oracle)
        full_oracle = make_oracle([1.0, 0.0], 0.35, 0.35, 128)
        full = filter_mistakes(points, rotated(0.2), FilterConfig(walk_length=19), full_oracle)
        assert len(out.suspected_indices) >= 5
        assert out.round_count <= full.round_count
        assert oracle.ledger.comparison_queries <= full_oracle.ledger.comparison_queries

    def test_retained_fraction_below_half(self):
        fractions = []
        for seed in range(20):
            oracle = make_oracle([1.0, 0.0], 0.35, 0.35, 130, seed)
            points = sample_instances(ProblemConfig(dimension=2), 2000, make_rng(131, seed))
            out = filter_mistakes(points, rotated(0.2), FilterConfig(walk_length=19), oracle)
            for stats in out.rounds:
                if not stats.small_branch and stats.tested:
                    fractions.append(stats.inside / stats.tested)
        assert np.mean(np.asarray(fractions) < 0.5) >= 0.95

    def test_round_count_stays_logarithmic(self):
        bound = 3 * math.log(5000) / math.log(8 / 7)
        for seed in range(5):
            oracle = make_oracle([1.0, 0.0], 0.35, 0.35, 132, seed)
            points = sample_instances(ProblemConfig(dimension=2), 5000, make_rng(133, seed))
            out = filter_mistakes(points, rotated(0.2), FilterConfig(walk_length=19), oracle)
            assert out.round_count <= bound

    def test_walk_cost_scales_linearly(self):
        # the per-instance walk component doubles with the input size; the
        # sub-sample sorting overhead on top of it only grows with log |S|
        means = {}
        for size in (1500, 3000):
            costs = []
            for seed in range(12):
                oracle = make_oracle([1.0, 0.0], 0.35, 0.35, 134, seed, size)
                points = sample_instances(ProblemConfig(dimension=2), size, make_rng(135, seed, size))
                out = filter_mistakes(points, rotated(0.2), FilterConfig(walk_length=19), oracle)
                costs.append(out.walk_comparison_queries)
            means[size] = np.mean(costs)
        ratio = means[3000] / means[1500]
        assert 1.7 <= ratio <= 2.3

    def test_single_instance_input(self):
        oracle = make_oracle([1.0, 0.0], 0.5, 0.5, 136)
        out = filter_mistakes(column_points([0.4]), rotated(0.3), FilterConfig(walk_length=3), oracle)
        assert out.round_count == 1 and out.rounds[0].small_branch
        assert out.rounds[0].suspected + out.rounds[0].agreed == 1
        assert len(out.suspected_indices) == out.rounds[0].suspected
