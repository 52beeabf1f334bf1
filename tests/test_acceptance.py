"""Acceptance suite: every criterion at its stated tolerance, one printed
PASS/FAIL line per check (run with `pytest tests/test_acceptance.py -v -s`).

Heavy batches (the 50-seed end-to-end run and the three-epsilon sweep) are
computed once per module and shared across criteria.
"""

import math

import numpy as np
import pytest

from crowdpac.analytic import run_verification
from crowdpac.compare_label import compare_and_label, noisy_quicksort
from crowdpac.filtering import (
    _MISTAKE,
    FilterConfig,
    SupportPair,
    _walk_verdicts,
    default_walk_length,
    filter_mistakes,
)
from crowdpac.geometry import (
    Halfspace,
    ProblemConfig,
    random_unit_vector,
    sample_instances,
)
from crowdpac.harness import ExperimentConfig, rows_to_csv, run_experiment, sweep
from crowdpac.oracles import CrowdConfig, CrowdOracle, QueryLedger, vote_sizes
from crowdpac.pipeline import PHASE_CONFIDENCE

from conftest import make_oracle, make_rng


def verdict(tag: str, passed: bool, detail: str) -> bool:
    print(f"[{tag}] {'PASS' if passed else 'FAIL'}: {detail}")
    return passed


@pytest.fixture(scope="module")
def endtoend_rows():
    cfg = ExperimentConfig(
        problem=ProblemConfig(dimension=2, target_error=0.04, confidence=1e-3, vc_constant=2.0),
        crowd=CrowdConfig(alpha=0.35, beta=0.35),
        seeds=tuple(range(50)),
        holdout_size=20_000,
        algorithm="boost",
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def sweep_rows():
    cfg = ExperimentConfig(
        problem=ProblemConfig(dimension=2, target_error=0.1, confidence=1e-3, vc_constant=2.0),
        crowd=CrowdConfig(alpha=0.35, beta=0.35),
        seeds=tuple(range(30)),
        holdout_size=20_000,
        algorithm="both",
    )
    return sweep(cfg, [0.1, 0.05, 0.025])


def cell_summary(rows, algorithm: str, epsilon: float):
    return next(
        r for r in rows
        if r.algorithm == algorithm and r.epsilon == epsilon and "summary" in r.flags
    )


def test_criterion_1_end_to_end_error(endtoend_rows):
    hits = sum(row.holdout_error <= 0.04 for row in endtoend_rows)
    ok_err = verdict(
        "criterion 1", hits >= 45,
        f"boosted holdout error <= 0.04 in {hits}/50 seeds (bar 45/50)",
    )
    slowest = max(row.wall_clock_ms for row in endtoend_rows)
    ok_time = verdict(
        "criterion 1", slowest <= 120_000,
        f"slowest seed {slowest / 1000:.2f} s (bar 120 s)",
    )
    assert ok_err and ok_time


def test_criterion_2_natural_comparison_overhead_trend(sweep_rows):
    lam = [cell_summary(sweep_rows, "natural", eps).lambda_C for eps in (0.1, 0.05, 0.025)]
    m_eps = [cell_summary(sweep_rows, "natural", eps).m_eps for eps in (0.1, 0.05, 0.025)]
    increasing = lam[0] < lam[1] < lam[2]
    ok_trend = verdict(
        "criterion 2", increasing,
        f"mean natural comparison overhead strictly increasing: "
        f"{lam[0]:.1f} < {lam[1]:.1f} < {lam[2]:.1f}",
    )
    ratios = [value / math.log(m) ** 2 for value, m in zip(lam, m_eps)]
    fitted = sum(ratios) / len(ratios)
    spread = [r / fitted for r in ratios]
    ok_fit = verdict(
        "criterion 2", all(1 / 3 <= s <= 3 for s in spread),
        f"natural overhead vs c*log^2(m_eps): cell/fit ratios "
        f"{[f'{s:.2f}' for s in spread]} within [1/3, 3]",
    )
    assert ok_trend and ok_fit


def test_criterion_2_boost_comparison_overhead_stability(sweep_rows):
    lam = [cell_summary(sweep_rows, "boost", eps).lambda_C for eps in (0.1, 0.05, 0.025)]
    ratio = max(lam) / min(lam)
    assert verdict(
        "criterion 2", ratio <= 2.5,
        f"mean boosted comparison overhead max/min = {ratio:.2f} (bar 2.5); cells "
        f"{[f'{v:.1f}' for v in lam]}",
    )


def test_criterion_2_labeling_overhead_bar(sweep_rows):
    """Labels go only to the O(log m) threshold probes of each sort-and-label,
    so their share of the crowd's cost vanishes as epsilon shrinks; no value
    at a finite epsilon is promised."""
    epsilons = (0.1, 0.05, 0.025)
    cells = {
        algorithm: [cell_summary(sweep_rows, algorithm, eps) for eps in epsilons]
        for algorithm in ("natural", "boost")
    }
    lam = {a: [c.lambda_L for c in cs] for a, cs in cells.items()}
    labels = {a: [c.m_L for c in cs] for a, cs in cells.items()}
    m_eps = [c.m_eps for c in cells["natural"]]

    ok_trend = verdict(
        "criterion 2", all(v[0] > v[1] > v[2] for v in lam.values()),
        "mean labeling overhead strictly decreasing over eps=0.1, 0.05, 0.025: "
        + "; ".join(f"{a} {' > '.join(f'{x:.3f}' for x in v)}" for a, v in lam.items()),
    )
    growth_bar = (math.log(m_eps[-1]) / math.log(m_eps[0])) ** 2
    growth = {a: v[-1] / v[0] for a, v in labels.items()}
    ok_growth = verdict(
        "criterion 2", all(g <= growth_bar for g in growth.values()),
        "mean label count m_L(0.025)/m_L(0.1) within log^2(m_eps) growth "
        f"(bar {growth_bar:.2f}, linear would be {m_eps[-1] / m_eps[0]:.2f}): "
        + "; ".join(
            f"{a} {growth[a]:.2f} (m_L {', '.join(f'{x:.1f}' for x in v)})"
            for a, v in labels.items()
        ),
    )

    def label_cap(row):
        crowd = CrowdConfig(alpha=row.alpha, beta=row.beta)
        _, k2 = vote_sizes(row.m_eps, PHASE_CONFIDENCE, crowd)
        return (math.floor(math.log2(row.m_eps)) + 1) * k2

    natural = [r for r in sweep_rows if r.algorithm == "natural" and "summary" not in r.flags]
    within = sum(r.m_L <= label_cap(r) for r in natural)
    ok_probes = verdict(
        "criterion 2", within == len(natural),
        f"natural m_L <= (floor(log2 m_eps) + 1) * k2 in {within}/{len(natural)} runs",
    )
    assert ok_trend and ok_growth and ok_probes


def test_criterion_3_labeling_guarantee():
    problem = ProblemConfig(dimension=2, target_error=0.1)
    good = 0
    trials = 400
    for seed in range(trials):
        rng = make_rng(seed, 0xAC3)
        gt = Halfspace(random_unit_vector(2, rng))
        oracle = CrowdOracle(gt, CrowdConfig(alpha=0.3, beta=0.3), rng, QueryLedger())
        points = sample_instances(problem, 200, rng)
        labeled = compare_and_label(points, 0.05, oracle)
        good += np.array_equal(labeled.labels, gt.predict(labeled.instances))
    assert verdict(
        "criterion 3", good / trials >= 0.92,
        f"all 200 labels correct in {good}/{trials} trials at delta=0.05 (bar 92%)",
    )


@pytest.mark.parametrize("m", [100, 1000])
def test_criterion_4_sorting_cost_bound(m):
    problem = ProblemConfig(dimension=2, target_error=0.1)
    noiseless = CrowdConfig(alpha=0.5, beta=0.5)
    bound = 4 * m * math.log(m)
    trials = 1000
    hits = 0
    for seed in range(trials):
        rng = make_rng(seed, 0xAC4, m)
        gt = Halfspace(random_unit_vector(2, rng))
        oracle = CrowdOracle(gt, noiseless, rng, QueryLedger())
        points = sample_instances(problem, m, rng)
        _, n_tests = noisy_quicksort(points, 1, oracle)
        hits += n_tests <= bound
    assert verdict(
        "criterion 4", hits / trials >= 1 - 1 / m,
        f"m={m}: pairwise tests <= 4 m ln m in {hits}/{trials} trials (bar {1 - 1 / m:.3f})",
    )


def test_criterion_5_routing_probabilities():
    # per-round both-correct probability (0.5 + 0.35)^2 = 0.7225 > 0.7
    oracle = make_oracle([1.0, 0.0], 0.35, 0.35, 0xAC5)
    support = SupportPair(below=np.array([-0.1, 0.0]), above=np.array([0.1, 0.0]))
    outside = np.array([-0.5, 0.0])  # ground truth -1
    walk = default_walk_length(0.04)
    reps = 2000
    batch = np.tile(outside, (reps, 1))
    codes, _ = _walk_verdicts(batch, support, np.full(reps, 1), walk, oracle)
    mistakes = np.count_nonzero(codes == _MISTAKE)
    codes, _ = _walk_verdicts(batch, support, np.full(reps, -1), walk, oracle)
    false_alarms = np.count_nonzero(codes == _MISTAKE)
    ok_hit = verdict(
        "criterion 5", mistakes / reps >= 0.50,
        f"misclassified instances routed to suspects in {mistakes / reps:.3f} (bar 0.50)",
    )
    ok_fa = verdict(
        "criterion 5", false_alarms / reps <= 0.22,
        f"correct instances routed to suspects in {false_alarms / reps:.3f} (bar 0.22)",
    )
    assert ok_hit and ok_fa


def test_criterion_6_filter_round_count():
    theta = 0.2 * math.pi
    h = Halfspace(np.array([math.cos(theta), math.sin(theta)]))
    problem = ProblemConfig(dimension=2, target_error=0.04)
    bound = 3 * math.log(5000) / math.log(8 / 7)
    good = 0
    worst = 0
    for seed in range(100):
        oracle = make_oracle([1.0, 0.0], 0.35, 0.35, seed, 0xAC6)
        points = sample_instances(problem, 5000, make_rng(seed, 0xAC6, 1))
        out = filter_mistakes(points, h, FilterConfig(walk_length=19), oracle)
        good += out.round_count <= bound
        worst = max(worst, out.round_count)
    assert verdict(
        "criterion 6", good >= 99,
        f"round count <= {bound:.0f} in {good}/100 seeds (worst observed {worst})",
    )


def test_criterion_7_analytic_oracles():
    results = run_verification(grid="full", seed=0)
    failures = [check for check in results if not check.passed]
    for check in failures:
        print(f"  failed: {check.name}: {check.detail}")
    assert verdict(
        "criterion 7", not failures,
        f"{len(results) - len(failures)}/{len(results)} analytic-oracle checks passed "
        "(ruin closed form vs monte carlo within 0.01 incl. the 3/7 limit, "
        "exponential bound dominates exact majority error, 3-voter identity within 0.01, "
        "halfspace disagreement angle/pi vs monte carlo on both marginals at d=2,5,20 within 0.01, "
        "walk exit laws vs vote-by-vote walks within 0.01, "
        "error-free quicksort test-count mean and variance vs closed forms within 4 SE, "
        "pair disagreement vs monte carlo at random, thin, nearly antiparallel and coplanar "
        "pairs within 4 SE)",
    )


def test_criterion_8_determinism_and_accounting(endtoend_rows, sweep_rows):
    cfg = ExperimentConfig(
        problem=ProblemConfig(dimension=2, target_error=0.04, confidence=1e-3, vc_constant=2.0),
        crowd=CrowdConfig(alpha=0.35, beta=0.35),
        seeds=(0, 1, 2),
        holdout_size=20_000,
        algorithm="both",
    )
    # wall_clock_ms is the one field that varies between repetitions
    def stripped(rows):
        return [line.rsplit(",", 1)[0] for line in rows_to_csv(rows).strip().splitlines()]

    first = stripped(run_experiment(cfg))
    second = stripped(run_experiment(cfg))
    ok_bytes = verdict(
        "criterion 8", first == second,
        f"identical seeds reproduce identical report rows ({len(first) - 1} rows, "
        "wall clock excluded)",
    )
    detail = [r for r in endtoend_rows + sweep_rows if "summary" not in r.flags]
    mismatches = [
        r for r in detail
        if r.m_L != r.p1_labels + r.p2_labels + r.p3_labels
        or r.m_C != r.p1_comps + r.p2_comps + r.p3_comps
    ]
    ok_ledger = verdict(
        "criterion 8", not mismatches,
        f"query totals reconcile with phase breakdowns in {len(detail)}/{len(detail)} runs",
    )
    assert ok_bytes and ok_ledger
