"""Noisy crowd oracles for labels and pairwise comparisons.

Every response is correct with probability at least 1/2 + margin (alpha for
labels, beta for comparisons).  Workers are memoryless: repeated queries on
the same instance or pair are independent.  ``CrowdOracle`` answers batches
of questions two ways: ``majority`` returns one k-vote majority tag per
question and charges its k votes to the ``QueryLedger`` (``label_queries``
for labels, ``comparison_queries`` for comparisons); ``responses`` returns
the individual tags and charges nothing, leaving the caller to charge the
votes it actually consumes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Halfspace


class Adversary(enum.Enum):
    """Behaviour of the unreliable pool fraction."""

    ALWAYS_WRONG = "always_wrong"
    RANDOM_FLIP = "random_flip"


@dataclass(frozen=True)
class PoolModel:
    """Worker pool: a ``reliable_fraction`` answers correctly with probability
    ``reliable_accuracy``; the rest follow the adversary policy."""

    reliable_fraction: float
    reliable_accuracy: float
    adversary: Adversary = Adversary.ALWAYS_WRONG

    def __post_init__(self):
        if not (0.0 < self.reliable_fraction <= 1.0):
            raise ValueError("pool.reliable_fraction must lie in (0, 1]")
        if not (0.5 < self.reliable_accuracy <= 1.0):
            raise ValueError("pool.reliable_accuracy must lie in (1/2, 1]")


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


class CrowdOracle:
    """Simulated crowd answering label and comparison queries about one
    ground-truth halfspace.

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

    # -- response model -----------------------------------------------------

    def _correct(self, margin: float, n: int) -> np.ndarray:
        """Boolean array: which of n fresh responses are correct."""
        pool = self.config.pool
        if pool is None:
            return self.rng.random(n) < 0.5 + margin
        reliable = self.rng.random(n) < pool.reliable_fraction
        correct = self.rng.random(n) < pool.reliable_accuracy
        if pool.adversary is Adversary.ALWAYS_WRONG:
            adv = np.zeros(n, dtype=bool)
        else:
            adv = self.rng.random(n) < 0.5
        return np.where(reliable, correct, adv)

    def _draw(self, points, k: int, reference) -> tuple[np.ndarray, np.ndarray]:
        """Truths of len(points) questions and an (n, k) mask of which fresh
        responses are correct: labels when ``reference`` is None, otherwise
        comparisons of each row against ``reference``, either one row for
        every question or one row per question."""
        points = np.asarray(points, dtype=float)
        if reference is None:
            margin = self.config.alpha
        else:
            margin = self.config.beta
            reference = np.asarray(reference, dtype=float)
            if reference.shape not in (points.shape[-1:], points.shape):
                raise ValueError(
                    f"reference of shape {reference.shape} fits neither one row nor one "
                    f"row per question of shape {points.shape}"
                )
            points = points - reference
        n = len(points)
        truths = self.ground_truth.predict(points)  # checks the dimension
        return truths, self._correct(margin, n * k).reshape(n, k)

    # -- answering ------------------------------------------------------------

    def majority(self, points, k: int, reference=None) -> np.ndarray:
        """k-vote majority tag for each row of ``points``: its label, or its
        comparison against ``reference`` (one row, or one row per question).
        Charges n*k to the matching counter of the ledger."""
        if k < 1 or k % 2 == 0:
            raise ValueError("majority vote size must be a positive odd count")
        truths, correct = self._draw(points, k, reference)
        if reference is None:
            self.ledger.charge_labels(correct.size)
        else:
            self.ledger.charge_comparisons(correct.size)
        return np.where(2 * correct.sum(axis=1) > k, truths, -truths)

    def responses(self, points, k: int, reference=None) -> np.ndarray:
        """(n, k) matrix of individual response tags, questions as in
        ``majority``.

        Does NOT charge the ledger: callers running sequential early-stopping
        tests consume a prefix of each row and must charge exactly the
        consumed count.
        """
        truths, correct = self._draw(points, k, reference)
        return np.where(correct, truths[:, None], -truths[:, None])
