import math

import numpy as np
import pytest

from crowdpac.geometry import (
    Halfspace,
    ProblemConfig,
    random_unit_vector,
    sample_instances,
    sample_size,
)
from crowdpac.learner import learn_consistent

from conftest import make_rng

SOLVERS = ("perceptron", "feasibility")


def separable_sample(seed, n=60, d=3):
    rng = make_rng(90, seed, d)
    gt = Halfspace(random_unit_vector(d, rng))
    points = sample_instances(ProblemConfig(dimension=d), n, rng)
    return points, gt.predict(points), gt


@pytest.mark.parametrize("solver", SOLVERS)
def test_threshold_data_one_dimensional(solver):
    points = np.array([[-2.0], [-1.0], [1.0], [3.0]])
    labels = np.array([-1, -1, 1, 1])
    result = learn_consistent(points, labels, solver=solver)
    assert result.consistent and result.training_errors == 0
    assert result.hypothesis.weights[0] > 0


@pytest.mark.parametrize("solver", SOLVERS)
def test_consistency_on_separable_samples(solver):
    for seed in range(25):
        points, labels, _ = separable_sample(seed)
        result = learn_consistent(points, labels, solver=solver)
        assert result.consistent
        assert np.array_equal(result.hypothesis.predict(points), labels)


def test_perceptron_rescaling_leaves_predictions_unchanged():
    points, labels, _ = separable_sample(3)
    base = learn_consistent(points, labels)
    scaled = learn_consistent(points * 37.5, labels)
    # perceptron weights scale linearly with the data: identical predictions
    probe = make_rng(91).standard_normal((200, points.shape[1]))
    assert np.array_equal(base.hypothesis.predict(probe), scaled.hypothesis.predict(probe))


@pytest.mark.parametrize("solver", SOLVERS)
def test_rescaling_keeps_training_consistency(solver):
    points, labels, _ = separable_sample(4)
    result = learn_consistent(points * 0.003, labels, solver=solver)
    assert result.consistent
    assert np.array_equal(result.hypothesis.predict(points * 0.003), labels)


def test_nonseparable_returns_flagged_best_effort():
    # +1 on both x and -x cannot be realized through the origin
    points = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    labels = np.array([1, 1, -1, -1])
    result = learn_consistent(points, labels, max_updates=500)
    assert not result.consistent
    assert result.training_errors >= 1
    assert result.updates == 500


def test_update_cap_falls_back_to_feasibility():
    points, labels, _ = separable_sample(5, n=100)
    result = learn_consistent(points, labels, max_updates=1)
    # one perceptron update cannot finish, but the data is separable
    assert result.consistent
    assert result.solver == "feasibility"
    assert np.array_equal(result.hypothesis.predict(points), labels)


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
    with pytest.raises(ValueError):
        learn_consistent(np.ones((3, 2)), np.ones(3), solver="svm")


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
