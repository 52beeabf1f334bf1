import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binom, chi2, chisquare, f as f_dist, ks_2samp

from crowdpac.analytic import boosted_majority_error, halfspace_disagreement, pair_disagreement
from crowdpac.filtering import FilterConfig
from crowdpac.geometry import (
    Distribution,
    Halfspace,
    ProblemConfig,
    random_unit_vector,
    sample_instances,
)
from crowdpac.oracles import CrowdConfig, CrowdOracle, QueryLedger, vote_sizes
from crowdpac.pipeline import (
    MajorityVote,
    PipelineConstants,
    draw_equal_mixture,
    holdout_error,
    majority_combine,
    overheads,
    phase1,
    phase2,
    phase3,
    rejection_sample_disagreements,
    run_boost,
    run_natural,
    trial_rng,
    weak_sample_size,
)

from conftest import make_rng

PROBLEM = ProblemConfig(dimension=2, target_error=0.04, confidence=1e-3, vc_constant=2.0)
CROWD = CrowdConfig(alpha=0.35, beta=0.35)
NOISELESS = CrowdConfig(alpha=0.5, beta=0.5)
CONSTANTS = PipelineConstants()


def fresh_oracle(crowd, *key):
    rng = make_rng(*key)
    gt = Halfspace(random_unit_vector(2, rng))
    return CrowdOracle(gt, crowd, rng, QueryLedger()), rng


class TestPhase1:
    def test_noiseless_consistent_training(self):
        oracle, rng = fresh_oracle(NOISELESS, 200)
        report = phase1(PROBLEM, oracle)
        assert report.flags == []
        assert report.sample_sizes == {"S1": weak_sample_size(PROBLEM)}
        err = holdout_error(report.hypothesis, oracle.ground_truth, PROBLEM, 20_000, rng)
        assert err <= 0.05

    def test_query_accounting(self):
        oracle, _ = fresh_oracle(CROWD, 201)
        report = phase1(PROBLEM, oracle)
        k1, k2 = vote_sizes(weak_sample_size(PROBLEM), 1e-3, CROWD)
        assert report.labels_used == oracle.ledger.label_queries
        assert report.comparisons_used == oracle.ledger.comparison_queries
        assert report.labels_used % k2 == 0
        assert report.comparisons_used % k1 == 0

    def test_weak_error_bound_across_seeds(self):
        target = math.sqrt(PROBLEM.target_error)
        ok = 0
        for seed in range(100):
            oracle, rng = fresh_oracle(CROWD, 202, seed)
            report = phase1(PROBLEM, oracle)
            err = holdout_error(report.hypothesis, oracle.ground_truth, PROBLEM, 20_000, rng)
            ok += err <= target
        assert ok >= 95


class TestPhase2:
    def test_perfect_h1_takes_degenerate_path(self):
        oracle, _ = fresh_oracle(NOISELESS, 210)
        report = phase2(oracle.ground_truth, PROBLEM, CONSTANTS, FilterConfig(), oracle)
        assert "phase2:no_mistakes_found" in report.flags
        assert report.hypothesis is oracle.ground_truth
        assert report.sample_sizes["W_I"] == 0

    def test_sizes_recorded_and_bounded(self):
        m_sqrt = weak_sample_size(PROBLEM)
        for seed in range(10):
            oracle, _ = fresh_oracle(CROWD, 211, seed)
            h1 = phase1(PROBLEM, oracle).hypothesis
            report = phase2(h1, PROBLEM, CONSTANTS, FilterConfig(), oracle)
            sizes = report.sample_sizes
            assert sizes["S2"] == math.ceil(4.0 * math.ceil(m_sqrt / 0.2))
            assert sizes["S_C"] == 2 * m_sqrt
            assert sizes["S_I"] <= 10 * m_sqrt
            assert sizes["W_I"] + sizes["W_C"] == sizes["S_I"] + sizes["S_C"]
            # the agreement side always lands in band at this scale
            assert 0.1 * m_sqrt <= sizes["W_C"] <= 10 * m_sqrt
            if "phase2:no_mistakes_found" not in report.flags:
                assert sizes["W"] == 2 * m_sqrt

    def test_ledger_deltas(self):
        oracle, _ = fresh_oracle(CROWD, 212)
        h1 = phase1(PROBLEM, oracle).hypothesis
        before = (oracle.ledger.label_queries, oracle.ledger.comparison_queries)
        report = phase2(h1, PROBLEM, CONSTANTS, FilterConfig(), oracle)
        assert report.labels_used == oracle.ledger.label_queries - before[0]
        assert report.comparisons_used == oracle.ledger.comparison_queries - before[1]


class TestMixture:
    def test_fair_coin_fraction(self):
        rng = make_rng(220)
        wi = (np.arange(20, dtype=float).reshape(10, 2), np.full(10, 1))
        wc = (np.arange(400, dtype=float).reshape(200, 2), np.full(200, -1))
        _, _, mask = draw_equal_mixture(wi, wc, 1000, rng)
        assert abs(mask.mean() - 0.5) <= 0.05

    def test_uniform_within_each_side(self):
        # marginal probability of each member of a side is (1/2) * (1/side size)
        rng = make_rng(221)
        n_i, n_c, draws = 8, 8, 4096
        wi = (np.arange(n_i, dtype=float).reshape(-1, 1), np.full(n_i, 1))
        wc = (100 + np.arange(n_c, dtype=float).reshape(-1, 1), np.full(n_c, -1))
        points, _, _ = draw_equal_mixture(wi, wc, draws, rng)
        values, counts = np.unique(points[:, 0], return_counts=True)
        assert len(values) == n_i + n_c
        result = chisquare(counts)  # uniform over all 16 members
        assert result.pvalue > 1e-4

    def test_empty_side_rejected(self):
        rng = make_rng(222)
        side = (np.ones((3, 2)), np.ones(3))
        empty = (np.empty((0, 2)), np.empty(0))
        with pytest.raises(ValueError):
            draw_equal_mixture(empty, side, 10, rng)


class TestPhase3:
    def test_identical_hypotheses_short_circuit(self):
        oracle, _ = fresh_oracle(CROWD, 230)
        h = oracle.ground_truth
        report = phase3(h, h, PROBLEM, CONSTANTS, oracle)
        assert report.flags == ["phase3:negligible_disagreement"]
        assert report.labels_used == 0 and report.comparisons_used == 0
        assert report.sample_sizes == {"S3": 0, "S3_draws": 0}

    def test_rejection_accepts_only_disagreements(self):
        h1 = Halfspace(np.array([1.0, 0.0]))
        h2 = Halfspace(np.array([0.0, 1.0]))
        rows, _ = rejection_sample_disagreements(h1, h2, PROBLEM, 50, 100_000, make_rng(231))
        assert len(rows) == 50
        assert np.all(h1.predict(rows) != h2.predict(rows))

    def test_draw_count_tracks_disagreement_mass(self):
        # mass 0.3 on the sphere -> about m/0.3 draws to accept m instances
        theta = 0.3 * math.pi
        h1 = Halfspace(np.array([1.0, 0.0]))
        h2 = Halfspace(np.array([math.cos(theta), math.sin(theta)]))
        target = weak_sample_size(PROBLEM)
        draws = []
        for seed in range(25):
            _, drawn = rejection_sample_disagreements(
                h1, h2, PROBLEM, target, 10**6, make_rng(232, seed)
            )
            draws.append(drawn)
        expected = target / 0.3
        assert abs(np.mean(draws) / expected - 1.0) <= 0.2

    def test_budget_exhaustion_falls_back(self):
        # nearly identical hypotheses: the disagreement region is unsampleable
        h1 = Halfspace(np.array([1.0, 0.0]))
        h2 = Halfspace(np.array([1.0, 1e-12]))
        oracle, _ = fresh_oracle(CROWD, 233)
        report = phase3(h1, h2, PROBLEM, CONSTANTS, oracle)
        assert "phase3:negligible_disagreement" in report.flags
        assert report.hypothesis is h1
        assert report.labels_used == 0 and report.comparisons_used == 0

    @pytest.mark.parametrize("d", [2, 20])
    def test_positive_multiples_never_disagree(self, d):
        w = random_unit_vector(d, make_rng(235, d))
        problem = replace(PROBLEM, dimension=d)
        m_sqrt = weak_sample_size(problem)
        max_draws = math.ceil(CONSTANTS.rejection_budget_factor * m_sqrt / problem.target_error)
        oracle, _ = fresh_oracle(CROWD, 235)
        report = phase3(Halfspace(w), Halfspace(3.7 * w), problem, CONSTANTS, oracle)
        assert report.flags == ["phase3:negligible_disagreement"]
        assert report.sample_sizes == {"S3": 0, "S3_draws": max_draws}
        assert report.labels_used == 0 and report.comparisons_used == 0
        assert oracle.ledger.label_queries == 0 and oracle.ledger.comparison_queries == 0

    @pytest.mark.parametrize("w", [[1.0, 0.3], [-2.0]])
    def test_antiparallel_accepts_every_draw(self, w):
        w = np.array(w)
        problem = replace(PROBLEM, dimension=len(w))
        rng = make_rng(236, len(w))
        oracle = CrowdOracle(Halfspace(random_unit_vector(len(w), rng)), NOISELESS, rng, QueryLedger())
        report = phase3(Halfspace(w), Halfspace(-0.5 * w), problem, CONSTANTS, oracle)
        m_sqrt = weak_sample_size(problem)
        assert report.flags == []
        assert report.sample_sizes == {"S3": m_sqrt, "S3_draws": m_sqrt}

    def test_normal_path_trains_on_region(self):
        theta = 0.3 * math.pi
        h1 = Halfspace(np.array([1.0, 0.0]))
        h2 = Halfspace(np.array([math.cos(theta), math.sin(theta)]))
        oracle, _ = fresh_oracle(NOISELESS, 234)
        report = phase3(h1, h2, PROBLEM, CONSTANTS, oracle)
        assert report.flags == []
        assert report.sample_sizes["S3"] == weak_sample_size(PROBLEM)
        assert report.labels_used > 0 and report.comparisons_used > 0


def rejection_reference(h1, h2, problem, target, max_draws, rng):
    """The batched rejection loop phase 3 used to run, kept as the reference
    the direct wedge draw must match in distribution."""
    accepted, n_accepted, drawn = [], 0, 0
    while drawn < max_draws and n_accepted < target:
        batch = min(512, max_draws - drawn)
        points = sample_instances(problem, batch, rng)
        hits = np.nonzero(h1.predict(points) != h2.predict(points))[0]
        if n_accepted + hits.size >= target:
            need = target - n_accepted
            accepted.append(points[hits[:need]])
            return np.vstack(accepted), drawn + int(hits[need - 1]) + 1
        accepted.append(points[hits])
        n_accepted += int(hits.size)
        drawn += batch
    return np.vstack(accepted) if accepted else np.empty((0, problem.dimension)), drawn


def wedge_pair(d, p, *key):
    """Two halfspaces at angle p*pi in a random plane of R^d."""
    basis, _ = np.linalg.qr(make_rng(*key).standard_normal((d, 2)))
    e1, e2 = basis.T
    theta = p * math.pi
    return Halfspace(e1), Halfspace(math.cos(theta) * e1 + math.sin(theta) * e2)


class TestDirectDraws:
    @pytest.mark.parametrize("p", [0.1, 0.005])
    @pytest.mark.parametrize("distribution", list(Distribution))
    def test_wedge_rows_match_rejection_rows(self, distribution, p):
        problem = ProblemConfig(dimension=5, target_error=0.04, distribution=distribution)
        h1, h2 = wedge_pair(5, p, 237)
        direct, _ = rejection_sample_disagreements(h1, h2, problem, 2000, 10**7, make_rng(238))
        reference, _ = rejection_reference(h1, h2, problem, 2000, 10**7, make_rng(239))
        assert np.all(h1.predict(direct) != h2.predict(direct))
        e1 = h1.weights
        e2 = h2.weights - (h2.weights @ e1) * e1
        e2 /= np.linalg.norm(e2)

        def features(rows):
            a, b = rows @ e1, rows @ e2
            rest = rows - np.outer(a, e1) - np.outer(b, e2)
            return np.arctan2(b, a), np.hypot(a, b), np.linalg.norm(rest, axis=1)

        for name, x, y in zip(("angle", "radius", "orthogonal norm"),
                              features(direct), features(reference)):
            assert ks_2samp(x, y).pvalue > 1e-4, name

    def test_draw_count_is_negative_binomial(self):
        m, p, seeds = 20, 0.3, 4000
        h1, h2 = wedge_pair(3, p, 240)
        problem = ProblemConfig(dimension=3)
        drawn = np.array([
            rejection_sample_disagreements(h1, h2, problem, m, 10**9, make_rng(241, seed))[1]
            for seed in range(seeds)
        ], dtype=float)
        mean, var = m / p, m * (1 - p) / p**2
        assert abs(drawn.mean() - mean) <= 4 * math.sqrt(var / seeds)
        squares = (drawn - drawn.mean()) ** 2
        assert abs(drawn.var(ddof=1) - var) <= 4 * squares.std() / math.sqrt(seeds)

    def test_short_budget_share_matches_binomial_cdf(self):
        m, p, budget, seeds = 20, 0.3, 60, 4000
        h1, h2 = wedge_pair(3, p, 242)
        problem = ProblemConfig(dimension=3)
        outcomes = [
            rejection_sample_disagreements(h1, h2, problem, m, budget, make_rng(243, seed))
            for seed in range(seeds)
        ]
        accepted = np.array([len(rows) for rows, _ in outcomes])
        drawn = np.array([d for _, d in outcomes])
        short = accepted < m
        assert np.all(drawn[short] == budget) and np.all(drawn[~short] <= budget)
        # short exactly when fewer than m of the budget's draws disagree
        expected = binom.cdf(m - 1, budget, p)
        assert abs(short.mean() - expected) <= 4 * math.sqrt(expected * (1 - expected) / seeds)
        counts = np.arange(m + 1)
        pmf = binom.pmf(counts, budget, p)
        pmf[-1] += binom.sf(m, budget, p)
        mean = pmf @ counts
        sd = math.sqrt(pmf @ (counts - mean) ** 2)
        assert abs(accepted.mean() - mean) <= 4 * sd / math.sqrt(seeds)


def full_holdout(predictor, truth, problem, n, rng):
    """Holdout error on n instances drawn in full d, the reference for the
    span-reduced draw."""
    points = sample_instances(problem, n, rng)
    return float(np.mean(predictor.predict(points) != truth.predict(points)))


class TestHoldout:
    @pytest.mark.parametrize("distribution", list(Distribution))
    def test_reduced_matches_full_draw(self, distribution):
        problem = ProblemConfig(dimension=20, target_error=0.1, distribution=distribution)
        rng = make_rng(244)
        truth = Halfspace(rng.standard_normal(20))
        voters = [Halfspace(truth.weights + 0.5 * rng.standard_normal(20)) for _ in range(3)]
        combined = majority_combine(*voters)
        seeds, n = 200, 5000
        reduced = np.array([holdout_error(combined, truth, problem, n, make_rng(245, s))
                            for s in range(seeds)])
        full = np.array([full_holdout(combined, truth, problem, n, make_rng(246, s))
                         for s in range(seeds)])
        se = math.sqrt((reduced.var(ddof=1) + full.var(ddof=1)) / seeds)
        assert abs(reduced.mean() - full.mean()) <= 4 * se
        ratio = reduced.var(ddof=1) / full.var(ddof=1)
        tail = min(f_dist.cdf(ratio, seeds - 1, seeds - 1), f_dist.sf(ratio, seeds - 1, seeds - 1))
        assert 2 * tail > 1e-4

    @pytest.mark.parametrize("distribution", list(Distribution))
    def test_single_halfspace_matches_full_draw(self, distribution):
        # one halfspace's error is one Binomial(n, theta/pi) draw over n
        problem = ProblemConfig(dimension=20, target_error=0.1, distribution=distribution)
        rng = make_rng(255)
        truth = Halfspace(rng.standard_normal(20))
        h = Halfspace(truth.weights + 0.5 * rng.standard_normal(20))
        seeds, n = 200, 5000
        drawn = np.array([holdout_error(h, truth, problem, n, make_rng(256, s))
                          for s in range(seeds)])
        full = np.array([full_holdout(h, truth, problem, n, make_rng(257, s))
                         for s in range(seeds)])
        se = math.sqrt((drawn.var(ddof=1) + full.var(ddof=1)) / seeds)
        assert abs(drawn.mean() - full.mean()) <= 4 * se
        ratio = drawn.var(ddof=1) / full.var(ddof=1)
        tail = min(f_dist.cdf(ratio, seeds - 1, seeds - 1), f_dist.sf(ratio, seeds - 1, seeds - 1))
        assert 2 * tail > 1e-4

    def test_single_halfspace_matches_closed_form(self):
        problem = ProblemConfig(dimension=20, target_error=0.1)
        rng = make_rng(247)
        truth = Halfspace(rng.standard_normal(20))
        h = Halfspace(truth.weights + 0.5 * rng.standard_normal(20))
        seeds, n = 200, 5000
        errors = [holdout_error(h, truth, problem, n, make_rng(248, s)) for s in range(seeds)]
        expected = halfspace_disagreement(h.weights, truth.weights)
        assert abs(np.mean(errors) - expected) <= 4 * math.sqrt(expected * (1 - expected) / (n * seeds))

    @pytest.mark.parametrize("d", [1, 2, 20])
    def test_degenerate_spans(self, d):
        w = random_unit_vector(d, make_rng(250, d))
        problem = ProblemConfig(dimension=d)
        truth, h = Halfspace(w), Halfspace(2.0 * w)
        assert holdout_error(majority_combine(h, h, truth), truth, problem, 1000, make_rng(251)) == 0.0
        assert holdout_error(Halfspace(-w), truth, problem, 1000, make_rng(252)) == 1.0
        if d > 1:
            near = Halfspace(w + 1e-12 * random_unit_vector(d, make_rng(253, d)))
            assert holdout_error(majority_combine(h, near, near), truth, problem, 1000, make_rng(254)) == 0.0

    @pytest.mark.parametrize("d", [3, 20])
    def test_thin_voters_match_full_draw(self, d):
        # voters as thin as a boosted run's: only the two thinnest error sets are drawn
        problem = ProblemConfig(dimension=d, target_error=0.1)
        truth = random_unit_vector(d, make_rng(260, d))
        combined = majority_combine(*thin_voters(truth, THIN_MASSES, make_rng(261, d)))
        seeds, n = 100, 20_000
        drawn = np.array([holdout_error(combined, Halfspace(truth), problem, n, make_rng(262, d, s))
                          for s in range(seeds)])
        full = np.array([full_holdout(combined, Halfspace(truth), problem, n, make_rng(263, d, s))
                         for s in range(seeds)])
        se = math.sqrt((drawn.var(ddof=1) + full.var(ddof=1)) / seeds)
        assert abs(drawn.mean() - full.mean()) <= 4 * se
        ratio = drawn.var(ddof=1) / full.var(ddof=1)
        tail = min(f_dist.cdf(ratio, seeds - 1, seeds - 1), f_dist.sf(ratio, seeds - 1, seeds - 1))
        assert 2 * tail > 1e-4

    @pytest.mark.parametrize("key", range(4))
    def test_thin_voters_match_exact_arcs_in_the_plane(self, key):
        # the error count is Binomial(n, p) with p the exact arc measure
        problem = ProblemConfig(dimension=2, target_error=0.1)
        rng = make_rng(264, key)
        truth = random_unit_vector(2, rng)
        masses = np.exp(rng.uniform(math.log(1e-3), math.log(5e-2), 3))
        voters = thin_voters(truth, masses, rng)
        p = arc_majority_error(truth, [h.weights for h in voters])
        seeds, n = 400, 20_000
        counts = n * np.array([holdout_error(majority_combine(*voters), Halfspace(truth), problem, n,
                                             make_rng(265, key, s)) for s in range(seeds)])
        mean, var = n * p, n * p * (1 - p)
        assert abs(counts.mean() - mean) <= 4 * math.sqrt(var / seeds)
        statistic = (seeds - 1) * counts.var(ddof=1) / var
        assert 2 * min(chi2.cdf(statistic, seeds - 1), chi2.sf(statistic, seeds - 1)) > 1e-4

    def test_draws_only_the_thin_error_sets(self):
        # about n (p_1 + p_2) normal rows, where the full draw takes n
        d, n = 20, 20_000
        truth = random_unit_vector(d, make_rng(266))
        combined = majority_combine(*thin_voters(truth, THIN_MASSES, make_rng(267)))
        problem = ProblemConfig(dimension=d, target_error=0.1)
        rows = []
        for s in range(20):
            rng = _CountingRng(make_rng(268, s))
            holdout_error(combined, Halfspace(truth), problem, n, rng)
            rows.append(rng.rows)
        assert np.mean(rows) <= 3 * n * (THIN_MASSES[0] + THIN_MASSES[1])
        assert max(rows) < n / 10

    def test_rejects_voters_that_are_not_halfspaces(self):
        truth = Halfspace(np.array([1.0, 0.0]))
        voters = [_FixedErrorVoter(truth, 0.1, s) for s in range(3)]
        for predictor in (MajorityVote(*voters), voters[0]):
            with pytest.raises(TypeError, match="Halfspace"):
                holdout_error(predictor, truth, PROBLEM, 100, make_rng(249))


def thin_voters(truth, masses, rng):
    """Halfspaces each turned from the unit ``truth`` by pi * mass towards its
    own random direction, so each errs on the given mass."""
    voters = []
    for mass in masses:
        away = rng.standard_normal(truth.size)
        away -= (away @ truth) * truth
        away /= np.linalg.norm(away)
        angle = math.pi * mass
        voters.append(Halfspace(math.cos(angle) * truth + math.sin(angle) * away))
    return voters


def arc_majority_error(truth, voters):
    """Exact mass where a 2-D majority errs: sum the arcs between the sign
    changes of the truth and the voters on which at least two voters err."""
    cuts = sorted(
        (math.atan2(w[1], w[0]) + side * math.pi / 2) % (2 * math.pi)
        for w in [truth] + voters for side in (1, -1)
    )
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:] + [cuts[0] + 2 * math.pi]):
        mid = np.array([math.cos((lo + hi) / 2), math.sin((lo + hi) / 2)])
        wrong = sum((mid @ w >= 0) != (mid @ truth >= 0) for w in voters)
        total += (hi - lo) * (wrong >= 2)
    return total / (2 * math.pi)


# error masses of workload-like voters, thinnest first
THIN_MASSES = (1e-3, 1e-2, 5e-2)


class _CountingRng:
    """A Generator whose ``standard_normal`` counts the rows it returns."""

    def __init__(self, rng):
        self.rng = rng
        self.rows = 0

    def standard_normal(self, size):
        self.rows += size[0]
        return self.rng.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestDegenerateMajorities:
    """Voters parallel to each other or to the truth, whose majority's error
    is a closed form."""

    N, SEEDS = 20_000, 100

    def counts(self, voters, truth, key):
        problem = ProblemConfig(dimension=truth.size, target_error=0.1)
        return self.N * np.array([
            holdout_error(majority_combine(*voters), Halfspace(truth), problem, self.N,
                          make_rng(270, key, s))
            for s in range(self.SEEDS)
        ])

    def assert_binomial_mean(self, counts, p):
        sd = math.sqrt(self.N * p * (1 - p) / len(counts))
        assert abs(counts.mean() - self.N * p) <= 4 * sd + 1e-12

    def setup_voters(self, key):
        truth = random_unit_vector(3, make_rng(271, key))
        return truth, thin_voters(truth, (0.02, 0.05, 0.1), make_rng(272, key))

    def test_two_equal_voters_decide(self):
        truth, (h1, h2, h3) = self.setup_voters(0)
        p1 = halfspace_disagreement(h1.weights, truth)
        self.assert_binomial_mean(self.counts([h1, h1, h3], truth, 0), p1)
        self.assert_binomial_mean(self.counts([h1, h2, h1], truth, 1), p1)
        self.assert_binomial_mean(self.counts([h3, h1, h3], truth, 2), halfspace_disagreement(h3.weights, truth))

    def test_voter_equal_to_truth(self):
        truth, (h1, h2, h3) = self.setup_voters(1)
        p = pair_disagreement(truth, h2.weights, h3.weights)
        self.assert_binomial_mean(self.counts([Halfspace(2.0 * truth), h2, h3], truth, 3), p)

    def test_antiparallel_voter(self):
        # a voter wrong everywhere: the majority errs where either other voter does
        truth, (h1, h2, h3) = self.setup_voters(2)
        p1, p2 = (halfspace_disagreement(h.weights, truth) for h in (h1, h2))
        p = p1 + p2 - pair_disagreement(truth, h1.weights, h2.weights)
        self.assert_binomial_mean(self.counts([h1, h2, Halfspace(-truth)], truth, 4), p)

    def test_antiparallel_voters_leave_the_third(self):
        truth, (h1, h2, h3) = self.setup_voters(3)
        counts = self.counts([h1, Halfspace(-h1.weights), h3], truth, 5)
        self.assert_binomial_mean(counts, halfspace_disagreement(h3.weights, truth))

    def test_voters_1e12_apart(self):
        truth, (h1, h2, h3) = self.setup_voters(4)
        near = Halfspace(h1.weights + 1e-12 * random_unit_vector(3, make_rng(273)))
        p1 = halfspace_disagreement(h1.weights, truth)
        self.assert_binomial_mean(self.counts([h1, near, h3], truth, 6), p1)
        self.assert_binomial_mean(self.counts([near, h3, h1], truth, 7), p1)

    def test_one_dimension(self):
        truth = np.array([0.7])
        plus, minus = Halfspace(np.array([2.0])), Halfspace(np.array([-1.0]))
        problem = ProblemConfig(dimension=1)
        for voters, expected in (([plus, plus, plus], 0.0), ([plus, minus, plus], 0.0),
                                 ([minus, plus, minus], 1.0), ([minus, minus, minus], 1.0)):
            error = holdout_error(majority_combine(*voters), Halfspace(truth), problem, 1000, make_rng(274))
            assert error == expected

    def test_voter_count_other_than_three_rejected(self):
        truth = Halfspace(np.array([1.0, 0.0]))
        for count in (1, 5):
            with pytest.raises(ValueError, match="three"):
                holdout_error(MajorityVote(*[truth] * count), truth, PROBLEM, 100, make_rng(275))


class _FixedErrorVoter:
    """Predictor wrong on a fixed random subset of query points."""

    def __init__(self, truth, p, seed):
        self.truth = truth
        self.p = p
        self.rng = make_rng(240, seed)

    def predict(self, points):
        labels = self.truth.predict(points)
        flip = self.rng.random(len(points)) < self.p
        return np.where(flip, -labels, labels)


class TestMajorityCombine:
    def test_identical_voters_reduce_to_one(self):
        h = Halfspace(np.array([1.0, 2.0]))
        combined = majority_combine(h, h, h)
        points = make_rng(241).standard_normal((500, 2))
        assert np.array_equal(combined.predict(points), h.predict(points))

    def test_two_against_one(self):
        plus = Halfspace(np.array([1.0, 0.0]))
        minus = Halfspace(np.array([-1.0, 0.0]))
        combined = majority_combine(plus, plus, minus)
        assert combined.predict(np.array([[1.0, 0.0]]))[0] == 1

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            majority_combine(
                Halfspace(np.array([1.0])),
                Halfspace(np.array([1.0, 0.0])),
                Halfspace(np.array([1.0, 0.0])),
            )

    @pytest.mark.parametrize("p", [0.1, 0.2, 0.3])
    def test_independent_voter_identity(self, p):
        truth = Halfspace(np.array([1.0, 0.0]))
        voters = [_FixedErrorVoter(truth, p, s) for s in range(3)]
        combined = majority_combine(*voters)
        points = sample_instances(PROBLEM, 100_000, make_rng(242, int(p * 10)))
        err = np.mean(combined.predict(points) != truth.predict(points))
        assert abs(err - boosted_majority_error(p)) <= 0.01


class TestOverheads:
    def test_zero_counts(self):
        assert overheads(0, 0, PROBLEM) == (0.0, 0.0)

    def test_unit_labeling_overhead(self):
        from crowdpac.pipeline import reference_sample_size

        m_ref = reference_sample_size(PROBLEM)
        lam_l, _ = overheads(m_ref, 0, PROBLEM)
        assert lam_l == pytest.approx(1.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            overheads(-1, 0, PROBLEM)


class TestRuns:
    def test_boost_deterministic_per_seed(self):
        a = run_boost(PROBLEM, CROWD, CONSTANTS, FilterConfig(), 11, 20_000)
        b = run_boost(PROBLEM, CROWD, CONSTANTS, FilterConfig(), 11, 20_000)
        assert a.holdout_error == b.holdout_error
        assert a.label_queries == b.label_queries
        assert a.comparison_queries == b.comparison_queries
        for pa, pb in zip(a.phase_reports, b.phase_reports):
            assert np.array_equal(pa.hypothesis.weights, pb.hypothesis.weights)
            assert pa.sample_sizes == pb.sample_sizes

    def test_boost_noiseless_reaches_target(self):
        report = run_boost(PROBLEM, NOISELESS, CONSTANTS, FilterConfig(), 3, 20_000)
        assert report.holdout_error <= PROBLEM.target_error

    def test_boost_ledger_conservation(self):
        report = run_boost(PROBLEM, CROWD, CONSTANTS, FilterConfig(), 5, 20_000)
        assert report.label_queries == sum(p.labels_used for p in report.phase_reports)
        assert report.comparison_queries == sum(p.comparisons_used for p in report.phase_reports)

    def test_natural_noiseless_consistent_and_accurate(self):
        # a consistent halfspace still differs from the truth on a thin
        # wedge, so the holdout error is small but not exactly zero
        report = run_natural(PROBLEM, NOISELESS, 3, 20_000)
        assert report.flags == []
        assert report.holdout_error <= 0.01

    def test_natural_labeling_overhead_decreases_with_epsilon(self):
        means = {}
        for eps in (0.1, 0.025):
            problem = ProblemConfig(dimension=2, target_error=eps, vc_constant=2.0)
            values = [
                run_natural(problem, CROWD, seed, 1_000).labeling_overhead
                for seed in range(5)
            ]
            means[eps] = np.mean(values)
        assert means[0.025] < means[0.1]

    def test_natural_comparison_overhead_grows(self):
        means = {}
        for eps in (0.1, 0.025):
            problem = ProblemConfig(dimension=2, target_error=eps, vc_constant=2.0)
            values = [
                run_natural(problem, CROWD, seed, 1_000).comparison_overhead
                for seed in range(5)
            ]
            means[eps] = np.mean(values)
        assert means[0.025] > means[0.1]

    def test_boost_comparison_overhead_stable(self):
        means = {}
        for eps in (0.1, 0.04):
            problem = ProblemConfig(dimension=2, target_error=eps, vc_constant=2.0)
            values = [
                run_boost(problem, CROWD, CONSTANTS, FilterConfig(), seed, 1_000).comparison_overhead
                for seed in range(5)
            ]
            means[eps] = np.mean(values)
        assert 0.5 <= means[0.04] / means[0.1] <= 2.5

    def test_distinct_streams_per_algorithm(self):
        boost_rng = trial_rng(7, "boost")
        natural_rng = trial_rng(7, "natural")
        assert boost_rng.random() != natural_rng.random()
