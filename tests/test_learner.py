import math
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from crowdpac import learner
from crowdpac.geometry import (
    Distribution,
    Halfspace,
    ProblemConfig,
    random_unit_vector,
    sample_instances,
    sample_size,
)
from crowdpac.learner import _feasible_separator, learn_consistent

from conftest import make_rng


def separable_sample(seed, n=60, d=3, distribution=Distribution.UNIT_SPHERE):
    rng = make_rng(90, seed, d)
    gt = Halfspace(random_unit_vector(d, rng))
    points = sample_instances(ProblemConfig(dimension=d, distribution=distribution), n, rng)
    return points, gt.predict(points), gt


def training_errors(result, points, labels) -> int:
    """Rows whose label the returned hypothesis predicts wrong."""
    return int(np.count_nonzero(result.hypothesis.predict(points) != np.asarray(labels)))


def lp_feasible_point(points, labels):
    """Some w with y_i (w . x_i) >= 1 from scipy's LP; None when it reports
    the program infeasible."""
    d = points.shape[1]
    res = linprog(
        c=np.zeros(d),
        A_ub=-(np.asarray(labels, dtype=float)[:, None] * points),
        b_ub=-np.ones(len(points)),
        bounds=[(None, None)] * d,
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return res.x if res.status == 0 else None


def test_threshold_data_one_dimensional():
    points = np.array([[-2.0], [-1.0], [1.0], [3.0]])
    labels = np.array([-1, -1, 1, 1])
    result = learn_consistent(points, labels)
    assert result.consistent and training_errors(result, points, labels) == 0
    assert result.hypothesis.weights[0] > 0


def test_consistency_on_separable_samples():
    for seed in range(25):
        points, labels, _ = separable_sample(seed)
        result = learn_consistent(points, labels)
        assert result.consistent
        assert np.array_equal(result.hypothesis.predict(points), labels)


def test_rescaling_leaves_predictions_unchanged():
    points, labels, _ = separable_sample(3)
    base = learn_consistent(points, labels)
    scaled = learn_consistent(points * 37.5, labels)
    # the max-margin weights scale inversely with the data: identical predictions
    probe = make_rng(91).standard_normal((200, points.shape[1]))
    assert np.array_equal(base.hypothesis.predict(probe), scaled.hypothesis.predict(probe))


def test_rescaling_keeps_training_consistency():
    points, labels, _ = separable_sample(4)
    result = learn_consistent(points * 0.003, labels)
    assert result.consistent
    assert np.array_equal(result.hypothesis.predict(points * 0.003), labels)


def test_nonseparable_returns_flagged_best_effort():
    # +1 on both x and -x cannot be realized through the origin
    points = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    labels = np.array([1, 1, -1, -1])
    result = learn_consistent(points, labels)
    assert not result.consistent
    assert training_errors(result, points, labels) >= 1
    assert result.updates == len(points)


def test_zero_iterate_falls_back_to_the_longest_signed_row():
    # the best perceptron iterate is zero and the first row is zero too
    points = [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]
    result = learn_consistent(points, [1, 1, 1])
    assert not result.consistent
    assert np.array_equal(result.hypothesis.weights, [1.0, 0.0])
    assert training_errors(result, points, [1, 1, 1]) == 1
    result = learn_consistent([[0.0, 0.0], [0.5, 0.0], [0.0, -2.0]], [1, 1, 1])
    assert not result.consistent
    assert np.array_equal(result.hypothesis.weights, [0.0, -2.0])
    # every row zero: e_1
    result = learn_consistent(np.zeros((2, 3)), [1, -1])
    assert not result.consistent
    assert np.array_equal(result.hypothesis.weights, [1.0, 0.0, 0.0])
    assert training_errors(result, np.zeros((2, 3)), [1, -1]) == 1


def test_infeasible_direct_solve_is_final(monkeypatch):
    points, labels, _ = separable_sample(7, n=231, d=2)
    labels = labels.copy()
    labels[0] = -labels[0]
    assert lp_feasible_point(points, labels) is None
    solve = learner._feasible_separator
    calls = []
    monkeypatch.setattr(
        learner, "_feasible_separator", lambda p, y: calls.append(len(p)) or solve(p, y))
    start = time.perf_counter()
    result = learn_consistent(points, labels)
    assert time.perf_counter() - start < 1.0
    assert calls == [231]
    assert not result.consistent and training_errors(result, points, labels) >= 1
    # the best-effort perceptron is capped at n updates
    assert result.updates == 231


def test_deterministic_given_order():
    points, labels, _ = separable_sample(6)
    a = learn_consistent(points, labels)
    b = learn_consistent(points, labels)
    assert np.array_equal(a.hypothesis.weights, b.hypothesis.weights)


def test_input_validation():
    with pytest.raises(ValueError):
        learn_consistent(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError):
        learn_consistent(np.ones((3, 2)), np.array([1, 0, -1]))


@pytest.mark.parametrize("eps,d", [(0.04, 2), (0.04, 5), (0.1, 2), (0.1, 5)])
def test_generalization_grid(eps, d):
    # train on the weak-learning sample size, measure holdout error
    m = sample_size(math.sqrt(eps), 0.001, d, 2.0)
    problem = ProblemConfig(dimension=d, target_error=eps)
    ok = 0
    seeds = 200
    for seed in range(seeds):
        rng = make_rng(92, seed, d, int(eps * 1000))
        gt = Halfspace(random_unit_vector(d, rng))
        points = sample_instances(problem, m, rng)
        result = learn_consistent(points, gt.predict(points))
        assert result.consistent
        holdout = sample_instances(problem, 20_000, rng)
        err = np.mean(result.hypothesis.predict(holdout) != gt.predict(holdout))
        ok += err <= math.sqrt(eps)
    assert ok / seeds >= 0.99


@pytest.mark.parametrize("distribution", list(Distribution))
@pytest.mark.parametrize("d", [1, 2, 5, 20])
def test_separator_is_the_least_norm_unit_margin_solution(d, distribution):
    # the LP returns some feasible point; ours must have margins >= 1 with
    # the smallest at 1, and a norm no larger than any feasible point's
    for seed in range(9):
        n = (5, 60, 231)[seed % 3]
        points, labels, _ = separable_sample(seed, n=n, d=d, distribution=distribution)
        result = learn_consistent(points, labels)
        assert result.consistent
        w = result.hypothesis.weights
        w_lp = lp_feasible_point(points, labels)
        assert w_lp is not None
        margins = labels * (points @ w)
        assert margins.min() >= 1 - 1e-9
        assert abs(margins.min() - 1) <= 1e-6
        assert np.linalg.norm(w) <= np.linalg.norm(w_lp) * (1 + 1e-9)


@pytest.mark.parametrize("d", [2, 3])
def test_separator_keeps_unit_margin_on_thin_margins(d):
    # flipping the label nearest the boundary leaves a separable sample with
    # a thin margin, where w = x / (x . x) amplifies x's rounding by ||w||^2;
    # the smallest margin must still be 1 to rounding of order eps * ||w||
    for seed in range(8):
        points, labels, gt = separable_sample(seed, n=3224, d=d)
        labels = labels.copy()
        nearest = np.argmin(np.abs(points @ gt.weights))
        labels[nearest] = -labels[nearest]
        result = learn_consistent(points, labels)
        assert result.consistent
        w = result.hypothesis.weights
        margins = labels * (points @ w)
        assert abs(margins.min() - 1) <= 64 * np.finfo(float).eps * np.linalg.norm(w)
        assert np.linalg.norm(w) <= np.linalg.norm(lp_feasible_point(points, labels)) * (1 + 1e-9)


INFEASIBLE = {
    "opposite-labelled duplicates": ([[0.3, -1.2], [1.0, 0.5], [0.3, -1.2]], [1, 1, -1]),
    "zero row": ([[1.0, 0.5], [0.0, 0.0], [-0.2, 0.9]], [1, 1, -1]),
    "x and -x both +1": ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1, 1, -1, -1]),
}


@pytest.mark.parametrize("name", sorted(INFEASIBLE))
def test_separator_is_none_on_infeasible_programs(name):
    points, labels = (np.asarray(a, dtype=float) for a in INFEASIBLE[name])
    assert lp_feasible_point(points, labels) is None
    assert _feasible_separator(points, labels) is None


@pytest.mark.parametrize("d", [1, 2, 5, 20])
def test_separator_is_none_exactly_when_the_lp_is_infeasible(d):
    # one flipped label leaves some samples separable and others not
    verdicts = set()
    for seed in range(12):
        points, labels, _ = separable_sample(seed, n=(8, 30, 231)[seed % 3], d=d)
        labels = labels.astype(float)
        labels[seed % len(labels)] *= -1
        feasible = lp_feasible_point(points, labels) is not None
        assert (_feasible_separator(points, labels) is not None) == feasible
        verdicts.add(feasible)
    assert False in verdicts


@pytest.mark.parametrize("d", [2, 5, 20])
def test_row_order_leaves_predictions_unchanged(d):
    points, labels, _ = separable_sample(8, n=231, d=d)
    order = make_rng(95, d).permutation(len(points))
    a = learn_consistent(points, labels)
    b = learn_consistent(points[order], labels[order])
    probe = make_rng(96, d).standard_normal((1000, d))
    assert np.array_equal(a.hypothesis.predict(probe), b.hypothesis.predict(probe))


def test_package_runs_without_scipy():
    # scipy is a test-only dependency: one boosted and one natural trial must
    # not import it
    code = textwrap.dedent("""
        import sys
        from crowdpac import (
            CrowdConfig, FilterConfig, PipelineConstants, ProblemConfig, run_boost, run_natural,
        )
        problem = ProblemConfig(dimension=2, target_error=0.1)
        crowd = CrowdConfig(alpha=0.35, beta=0.35)
        run_boost(problem, crowd, PipelineConstants(), FilterConfig(), 0, 2000)
        run_natural(problem, crowd, 0, 2000)
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
