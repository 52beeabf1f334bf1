"""Ground-truth geometry: halfspaces, data distributions, sample-size formula.

Instances are plain 1-D numpy arrays of length ``d``; batches of instances
are ``(n, d)`` arrays whose rows are instances.  Labels and comparison tags
are the integers -1 and +1.  ``sign(0)`` is defined as +1 everywhere so that
classification and comparison are deterministic functions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Distribution(enum.Enum):
    """Marginal distribution the unlabeled instances are drawn from."""

    UNIT_SPHERE = "sphere"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class Halfspace:
    """A homogeneous linear classifier x -> sign(weights . x)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("halfspace weights must be a nonempty 1-D vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("halfspace weights must be finite")
        if not np.any(w != 0.0):
            raise ValueError("halfspace weights must have a nonzero coordinate")
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size

    def predict(self, points) -> np.ndarray:
        """Labels in {-1, +1} for a batch of instances (rows)."""
        points = np.asarray(points, dtype=float)
        if points.shape[-1] != self.dim:
            raise ValueError(
                f"dimension mismatch: halfspace has d={self.dim}, "
                f"instances have d={points.shape[-1]}"
            )
        return np.where(points @ self.weights >= 0, 1, -1)


@dataclass(frozen=True)
class ProblemConfig:
    """Learning problem parameters.

    ``vc_constant`` is the explicit constant of the sample-size formula;
    the reference confidence ``confidence`` is the delta used when converting
    query totals into overheads.
    """

    dimension: int = 2
    target_error: float = 0.1
    confidence: float = 1e-3
    vc_constant: float = 2.0
    distribution: Distribution = Distribution.UNIT_SPHERE

    def __post_init__(self):
        if not (isinstance(self.dimension, int) and self.dimension >= 1):
            raise ValueError("problem.dimension must be a positive integer")
        if not (0.0 < self.target_error < 1.0):
            raise ValueError("problem.target_error must lie in (0, 1)")
        if not (0.0 < self.confidence < 1.0):
            raise ValueError("problem.confidence must lie in (0, 1)")
        if not (math.isfinite(self.vc_constant) and self.vc_constant > 0.0):
            raise ValueError("problem.vc_constant must be positive and finite")


def sample_instances(cfg: ProblemConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. instances from the configured marginal, shape (n, d)."""
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    d = cfg.dimension
    if n == 0:
        return np.empty((0, d))
    points = rng.standard_normal((n, d))
    if cfg.distribution is Distribution.UNIT_SPHERE:
        # the row norms, about 2x faster than np.linalg.norm(axis=1)
        norms = np.sqrt(np.einsum("ij,ij->i", points, points))[:, None]
        # a zero draw has probability zero; guard anyway
        norms[norms == 0.0] = 1.0
        points = points / norms
    return points


def random_unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere in R^d."""
    v = rng.standard_normal(d)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        v[0] = 1.0
        norm = 1.0
    return v / norm


def sample_size(epsilon: float, delta: float, d: int, constant: float) -> int:
    """Number of correctly labeled samples sufficient for error epsilon.

    ceil((C/eps) * (d*ln(1/eps) + ln(1/delta))), at least 1.  Monotone
    nonincreasing in both epsilon and delta.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if d < 1:
        raise ValueError("d must be at least 1")
    if constant <= 0.0:
        raise ValueError("constant must be positive")
    raw = (constant / epsilon) * (d * math.log(1.0 / epsilon) + math.log(1.0 / delta))
    return max(1, math.ceil(raw))
