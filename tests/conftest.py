import numpy as np
import pytest

from crowdpac.geometry import Halfspace
from crowdpac.oracles import Adversary, CrowdConfig, CrowdOracle, PoolModel, QueryLedger


def make_rng(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def make_oracle(weights, alpha, beta, *key, pool=None) -> CrowdOracle:
    return CrowdOracle(
        Halfspace(np.asarray(weights, dtype=float)),
        CrowdConfig(alpha=alpha, beta=beta, pool=pool),
        make_rng(*key),
        QueryLedger(),
    )


# (pool, per-vote accuracy of a label, of a comparison) at alpha = 0.2: the
# pools' floor 0.8 * 0.9 = 0.72 covers 1/2 + 0.2, and their votes are alike
# on both oracles; random_flip adds 0.2 / 2.  The iid crowd's beta = 0.35
# sets the two oracles apart
VOTE_ACCURACY = {
    "iid": (None, 0.7, 0.85),
    "always_wrong": (PoolModel(0.8, 0.9, Adversary.ALWAYS_WRONG), 0.72, 0.72),
    "random_flip": (PoolModel(0.8, 0.9, Adversary.RANDOM_FLIP), 0.82, 0.82),
}


def model_oracle(model, *key) -> CrowdOracle:
    """Oracle of the ``VOTE_ACCURACY`` crowd ``model``, truth (1, -0.5)."""
    pool, _, _ = VOTE_ACCURACY[model]
    return make_oracle([1.0, -0.5], 0.2, 0.35 if pool is None else 0.2, *key, pool=pool)


def column_points(projections) -> np.ndarray:
    """2-D instances whose first coordinate carries the order."""
    projections = np.asarray(projections, dtype=float)
    return np.column_stack([projections, np.zeros_like(projections)])


@pytest.fixture
def axis_truth() -> Halfspace:
    return Halfspace(np.array([1.0, 0.0]))
