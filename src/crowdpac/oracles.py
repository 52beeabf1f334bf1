"""Noisy crowd oracles for labels and pairwise comparisons.

Every response is correct with probability at least 1/2 + margin (alpha for
labels, beta for comparisons).  Workers are memoryless and each vote comes
from a freshly drawn worker, so the k votes on one question are independent
and the number of correct ones is Binomial(k, q) for the crowd's per-vote
accuracy q.  The simulator draws that count, one draw per question, never
the individual votes.

``CrowdOracle`` answers batches of questions two ways: ``majority`` returns
one k-vote majority tag per question and charges its k votes to the
``QueryLedger`` (``label_queries`` for labels, ``comparison_queries`` for
comparisons); ``tally`` returns each question's sum of its k ±1 tags and
charges nothing, leaving the caller to charge the votes it actually reads.
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

    def _draw(self, points, k: int, reference) -> tuple[np.ndarray, np.ndarray]:
        """Truths of len(points) questions and how many of each question's k
        fresh responses are correct: labels when ``reference`` is None,
        otherwise comparisons of each row against ``reference``, either one
        row for every question or one row per question."""
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
        truths = self.ground_truth.predict(points)  # checks the dimension
        pool = self.config.pool
        accuracy = 0.5 + margin if pool is None else pool.vote_accuracy
        return truths, self.rng.binomial(k, accuracy, len(points))

    # -- answering ------------------------------------------------------------

    def majority(self, points, k: int, reference=None) -> np.ndarray:
        """k-vote majority tag for each row of ``points``: its label, or its
        comparison against ``reference`` (one row, or one row per question).
        Charges n*k to the matching counter of the ledger."""
        if k < 1 or k % 2 == 0:
            raise ValueError("majority vote size must be a positive odd count")
        truths, correct = self._draw(points, k, reference)
        if reference is None:
            self.ledger.charge_labels(truths.size * k)
        else:
            self.ledger.charge_comparisons(truths.size * k)
        return np.where(2 * correct > k, truths, -truths)

    def tally(self, points, k: int, reference=None) -> np.ndarray:
        """Sum of k fresh ±1 response tags for each question, questions as
        in ``majority``; its sign is the k-vote majority when k is odd.

        Does NOT charge the ledger: callers running sequential early-stopping
        tests draw votes in steps and must charge exactly the votes they read.
        """
        truths, correct = self._draw(points, k, reference)
        return truths * (2 * correct - k)
