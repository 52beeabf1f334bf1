"""Noisy crowd oracles for labels and pairwise comparisons.

Every response is correct with probability at least 1/2 + margin (alpha for
labels, beta for comparisons).  Workers are memoryless and each vote comes
from a freshly drawn worker, so the votes on one question are independent,
each correct with the crowd's per-vote accuracy q.  The simulator never draws
the votes: it draws each test's outcome from its exact law.

The true answers follow one rule, read off the keys x @ w*, w* being
``CrowdOracle.ground_truth.weights``: the true label of x is +1 when
x @ w* >= 0 (``Halfspace.predict``), and the true answer of comparing x
against y is +1 when x @ w* >= y @ w*, ties included.  Each caller computes
the truths it needs from the keys itself, so ``CrowdOracle`` never sees a
question.  It holds the trial's random generator and ``QueryLedger`` and
states the crowd's error law: ``accuracy`` is the per-vote accuracy q of a
label or a comparison, and ``majority_error`` the probability
P[Bin(k, q) <= (k-1)/2] (``analytic.majority_error_exact``) that a k-vote
majority comes out wrong, independently across questions: the caller draws
which of its tests err and charges their k votes each, to ``label_queries``
for labels and ``comparison_queries`` for comparisons (noisy quicksort and
the threshold search).  The filter walk reads its votes one round at a
time: ``first_majority_law`` is the law of the first odd round at which the
running majority of a comparison's votes takes a given sign, from which
``filtering`` builds the joint law of each walk class and charges the votes
the walk reads.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import majority_error_exact
from .geometry import Halfspace


class Adversary(enum.Enum):
    """Behaviour of the unreliable pool fraction."""

    ALWAYS_WRONG = "always_wrong"
    RANDOM_FLIP = "random_flip"


@dataclass(frozen=True)
class PoolModel:
    """Worker pool: a ``reliable_fraction`` answers correctly with probability
    ``reliable_accuracy``; the rest follow the adversary policy."""

    reliable_fraction: float = 1.0
    reliable_accuracy: float = 1.0
    adversary: Adversary = Adversary.ALWAYS_WRONG

    def __post_init__(self):
        if not (0.0 < self.reliable_fraction <= 1.0):
            raise ValueError("crowd.pool.reliable_fraction must lie in (0, 1]")
        if not (0.5 < self.reliable_accuracy <= 1.0):
            raise ValueError("crowd.pool.reliable_accuracy must lie in (1/2, 1]")

    @property
    def vote_accuracy(self) -> float:
        """Probability that one vote, from a freshly drawn worker, is correct."""
        adversary = 0.5 if self.adversary is Adversary.RANDOM_FLIP else 0.0
        return (
            self.reliable_fraction * self.reliable_accuracy
            + (1.0 - self.reliable_fraction) * adversary
        )


@dataclass(frozen=True)
class CrowdConfig:
    """Noise margins and worker model.

    ``pool is None`` selects the default i.i.d.-flip model where each response
    is correct with probability exactly 1/2 + margin.  In pool mode the
    product a*p must cover 1/2 + margin for both oracles, so the effective
    correctness never falls below the advertised margins.
    """

    alpha: float = 0.35
    beta: float = 0.35
    pool: PoolModel | None = None

    def __post_init__(self):
        if not (0.0 < self.alpha <= 0.5):
            raise ValueError("crowd.alpha must lie in (0, 1/2]")
        if not (0.0 < self.beta <= 0.5):
            raise ValueError("crowd.beta must lie in (0, 1/2]")
        if self.pool is not None:
            floor = self.pool.reliable_fraction * self.pool.reliable_accuracy
            if floor < 0.5 + self.alpha:
                raise ValueError(
                    "crowd.pool: reliable_fraction * reliable_accuracy must be "
                    f">= 1/2 + alpha ({0.5 + self.alpha:.4f}), got {floor:.4f}"
                )
            if floor < 0.5 + self.beta:
                raise ValueError(
                    "crowd.pool: reliable_fraction * reliable_accuracy must be "
                    f">= 1/2 + beta ({0.5 + self.beta:.4f}), got {floor:.4f}"
                )

    @property
    def worker_model(self) -> str:
        return "iid" if self.pool is None else "pool"


@dataclass
class QueryLedger:
    """Monotone counters of oracle usage."""

    label_queries: int = 0
    comparison_queries: int = 0

    def charge_labels(self, n: int = 1) -> None:
        self.label_queries += n

    def charge_comparisons(self, n: int = 1) -> None:
        self.comparison_queries += n


def next_odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def vote_sizes(m: int, delta: float, cfg: CrowdConfig) -> tuple[int, int]:
    """Per-test vote counts (k1 for comparisons, k2 for labels).

    Sized so that, by Hoeffding plus a union bound over at most m^2 pairwise
    tests and floor(log2 m)+1 binary-search probes, every majority is correct
    except with probability delta (half the budget on each oracle).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    k1 = next_odd(math.ceil(math.log(2.0 * m * m / delta) / (2.0 * cfg.beta**2)))
    probes = math.floor(math.log2(m)) + 1
    k2 = next_odd(math.ceil(math.log(2.0 * probes / delta) / (2.0 * cfg.alpha**2)))
    return k1, k2


# per-(k, q) error of a k-vote majority, shared by every oracle in the process
_majority_error = functools.lru_cache(maxsize=None)(majority_error_exact)


@functools.lru_cache(maxsize=None)
def first_majority_law(q: float, walk_length: int, toward: bool) -> np.ndarray:
    """CDF of the first odd round t <= walk_length at which the majority of a
    question's first t votes takes a given sign, votes being correct with
    probability q and the true answer having that sign when ``toward``.

    Entry i is the probability of a first such round at or before 2i + 1;
    the (walk_length + 1) / 2 entries leave 1 - cdf[-1] for no such round.
    The running sum of the votes, +1 for each vote of the sign, is odd at
    odd rounds and first turns positive by first reaching +1, which it does
    at round 2m + 1 with probability C_m a^(m+1) (1-a)^m (the ballot
    theorem), C_m being the m-th Catalan number and a a vote's chance of
    carrying the sign.
    """
    a = q if toward else 1.0 - q
    exits = np.empty((walk_length + 1) // 2)
    term = a
    for m in range(len(exits)):
        exits[m] = term
        term *= 2.0 * (2 * m + 1) / (m + 2) * a * (1.0 - a)  # C_(m+1) / C_m
    cdf = np.cumsum(exits)
    cdf.flags.writeable = False
    return cdf


class CrowdOracle:
    """Simulated crowd asked about one ground-truth halfspace: the error law
    of its label and comparison tests.

    Owns the trial's random generator and ledger; a single oracle must not be
    shared across threads.
    """

    def __init__(
        self,
        ground_truth: Halfspace,
        config: CrowdConfig,
        rng: np.random.Generator,
        ledger: QueryLedger | None = None,
    ):
        self.ground_truth = ground_truth
        self.config = config
        self.rng = rng
        self.ledger = ledger if ledger is not None else QueryLedger()

    def accuracy(self, comparisons: bool) -> float:
        """Per-vote accuracy q of a comparison or a label question."""
        if self.config.pool is not None:
            return self.config.pool.vote_accuracy
        return 0.5 + (self.config.beta if comparisons else self.config.alpha)

    def majority_error(self, k: int, comparisons: bool) -> float:
        """Probability P[Bin(k, q) <= (k-1)/2] that one k-vote majority
        question, a comparison or a label, comes out wrong."""
        if k < 1 or k % 2 == 0:
            raise ValueError("majority vote size must be a positive odd count")
        return _majority_error(k, self.accuracy(comparisons))
