import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crowdpac.filtering import _INSIDE, _MISTAKE, SupportPair, _walk_verdicts
from crowdpac.geometry import (
    Distribution,
    Halfspace,
    ProblemConfig,
    random_unit_vector,
    sample_instances,
    sample_size,
)

from conftest import make_oracle, make_rng


def noiseless_compare(gt: Halfspace, x, x_other) -> int:
    """Noise-free comparison tag of x against x', +1 when w* . x >= w* . x',
    read from the filter walk of a noiseless crowd: against x' alone as the
    ``below`` support, with hypothesis label +1, the walk stops INSIDE at
    once when the tag is +1 and otherwise never stops, a MISTAKE."""
    oracle = make_oracle(gt.weights, 0.5, 0.5, 0)
    support = SupportPair(below=np.asarray(x_other, dtype=float), above=None)
    codes, _ = _walk_verdicts(np.asarray(x, dtype=float)[None], support, np.array([1]), 1, oracle)
    assert codes[0] in (_INSIDE, _MISTAKE)
    return 1 if codes[0] == _INSIDE else -1


class TestClassify:
    def test_positive_dot_product(self):
        assert Halfspace(np.array([1.0, 0.0])).predict(np.array([2.0, 1.0])[None])[0] == 1

    def test_sign_zero_is_positive(self):
        assert Halfspace(np.array([1.0, 0.0])).predict(np.array([0.0, 5.0])[None])[0] == 1

    def test_negative_dot_product(self):
        assert Halfspace(np.array([1.0, -1.0])).predict(np.array([1.0, 2.0])[None])[0] == -1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Halfspace(np.array([1.0, 0.0])).predict(np.array([1.0, 2.0, 3.0])[None])


class TestTrueCompare:
    def test_higher_projection_wins(self):
        gt = Halfspace(np.array([1.0, 0.0]))
        assert noiseless_compare(gt, np.array([3.0, 0.0]), np.array([1.0, 0.0])) == 1

    def test_equal_instances_tie_positive(self):
        gt = Halfspace(np.array([1.0, 0.0]))
        x = np.array([0.4, 0.6])
        assert noiseless_compare(gt, x, x) == 1
        # rows whose keys round to one value tie both ways, as in the sort,
        # though (x - y) @ w* is not 0 in floating point
        gt = Halfspace(np.array([0.6, 0.8]))
        x, y = np.array([0.41, 1.04]), np.array([np.nextafter(0.41, 1.0), 1.04])
        assert x @ gt.weights == y @ gt.weights and (x - y) @ gt.weights != 0
        assert noiseless_compare(gt, x, y) == noiseless_compare(gt, y, x) == 1

    def test_lower_projection(self):
        gt = Halfspace(np.array([0.0, 1.0]))
        assert noiseless_compare(gt, np.array([9.0, 0.0]), np.array([0.0, 1.0])) == -1

    def test_dimension_mismatch(self):
        gt = Halfspace(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            noiseless_compare(gt, np.array([1.0]), np.array([1.0, 2.0]))

    def test_consistent_with_projection_order(self):
        rng = make_rng(101)
        gt = Halfspace(random_unit_vector(4, rng))
        points = rng.standard_normal((200, 4))
        for _ in range(300):
            i, j = rng.integers(200, size=2)
            tag = noiseless_compare(gt, points[i], points[j])
            pi, pj = points[i] @ gt.weights, points[j] @ gt.weights
            assert tag == (1 if pi >= pj else -1)


class TestHalfspace:
    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            Halfspace(np.zeros(3))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Halfspace(np.array([1.0, np.inf]))

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_positive_scaling_invariance(self, scale):
        rng = make_rng(7)
        gt = Halfspace(random_unit_vector(3, rng))
        scaled = Halfspace(gt.weights * scale)
        points = rng.standard_normal((50, 3))
        assert np.array_equal(gt.predict(points), scaled.predict(points))
        x, y = points[0], points[1]
        assert noiseless_compare(gt, x, y) == noiseless_compare(scaled, x, y)


class TestSampleInstances:
    def test_empty_draw(self):
        cfg = ProblemConfig(dimension=3)
        assert sample_instances(cfg, 0, make_rng(0)).shape == (0, 3)

    def test_sphere_support(self):
        cfg = ProblemConfig(dimension=5, distribution=Distribution.UNIT_SPHERE)
        points = sample_instances(cfg, 2000, make_rng(1))
        norms = np.linalg.norm(points, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-9)

    def test_gaussian_shape(self):
        cfg = ProblemConfig(dimension=4, distribution=Distribution.GAUSSIAN)
        assert sample_instances(cfg, 10, make_rng(2)).shape == (10, 4)

    def test_same_seed_identical(self):
        cfg = ProblemConfig(dimension=3)
        a = sample_instances(cfg, 100, make_rng(3))
        b = sample_instances(cfg, 100, make_rng(3))
        assert np.array_equal(a, b)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample_instances(ProblemConfig(), -1, make_rng(4))

    def test_label_symmetry_on_sphere(self):
        # random unit ground truth labels half the sphere each way
        cfg = ProblemConfig(dimension=3)
        rng = make_rng(5)
        gt = Halfspace(random_unit_vector(3, rng))
        points = sample_instances(cfg, 100_000, rng)
        fraction = np.mean(gt.predict(points) == 1)
        assert abs(fraction - 0.5) <= 0.02


class TestSampleSize:
    def test_concrete_value(self):
        # ceil(10 * (2 ln 10 + ln 1000)) = 116
        assert sample_size(0.1, 0.001, 2, 1.0) == 116

    def test_halving_delta_never_decreases(self):
        delta = 0.4
        prev = sample_size(0.1, delta, 3, 2.0)
        for _ in range(12):
            delta /= 2
            nxt = sample_size(0.1, delta, 3, 2.0)
            assert nxt >= prev
            prev = nxt

    def test_smaller_epsilon_strictly_larger(self):
        assert sample_size(0.01, 0.001, 2, 1.0) > sample_size(0.1, 0.001, 2, 1.0)

    @given(
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=1e-6, max_value=0.99),
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=1.0, max_value=10.0),
    )
    def test_at_least_dimension(self, eps, delta, d, constant):
        assert sample_size(eps, delta, d, constant) >= d

    @pytest.mark.parametrize(
        "eps,delta,d,constant",
        [(0.0, 0.1, 2, 1.0), (1.0, 0.1, 2, 1.0), (0.1, 0.0, 2, 1.0),
         (0.1, 1.0, 2, 1.0), (0.1, 0.1, 0, 1.0), (0.1, 0.1, 2, 0.0)],
    )
    def test_out_of_range_rejected(self, eps, delta, d, constant):
        with pytest.raises(ValueError):
            sample_size(eps, delta, d, constant)


class TestProblemConfig:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            ProblemConfig(target_error=1.5)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            ProblemConfig(dimension=0)
