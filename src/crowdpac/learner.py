"""Consistent-halfspace learner: the PAC oracle fed with labeled samples.

Reference algorithm is the perceptron, run over repeated passes until the
sample is separated, with a cap on total updates.  If the cap is exhausted a
linear feasibility solve (margin >= 1 on every point, via scipy/HiGHS) is
attempted; on genuinely non-separable input the best iterate seen is
returned with ``consistent=False`` so callers can flag it without aborting.
Deterministic given the input order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .geometry import Halfspace

DEFAULT_UPDATE_FACTOR = 10_000  # cap = factor * sample size


@dataclass(frozen=True)
class LearnResult:
    hypothesis: Halfspace
    training_errors: int
    consistent: bool
    updates: int
    solver: str  # "perceptron" or "feasibility"


def _validate_sample(points, labels):
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("training sample must be a nonempty (n, d) array")
    if labels.shape != (len(points),):
        raise ValueError("labels must be a vector matching the sample length")
    if not np.all(np.isin(labels, (-1, 1))):
        raise ValueError("labels must be -1 or +1")
    return points, labels.astype(float)


def _training_errors(points, labels, w) -> int:
    predictions = np.where(points @ w >= 0, 1.0, -1.0)
    return int(np.count_nonzero(predictions != labels))


def _feasible_separator(points, labels) -> np.ndarray | None:
    """Solve for w with y_i (w . x_i) >= 1; None when infeasible."""
    d = points.shape[1]
    res = linprog(
        c=np.zeros(d),
        A_ub=-(labels[:, None] * points),
        b_ub=-np.ones(len(points)),
        bounds=[(None, None)] * d,
        method="highs",
    )
    if res.status == 0:
        return np.asarray(res.x, dtype=float)
    return None


def learn_consistent(
    points,
    labels,
    max_updates: int | None = None,
    solver: str = "perceptron",
) -> LearnResult:
    """Fit a halfspace with zero training error on a separable sample.

    ``solver`` is "perceptron" (reference path with feasibility fallback) or
    "feasibility" (direct linear-program solve, same contract, faster on thin
    margins).
    """
    points, labels = _validate_sample(points, labels)
    n, d = points.shape
    if max_updates is None:
        max_updates = DEFAULT_UPDATE_FACTOR * n

    if solver == "feasibility":
        w = _feasible_separator(points, labels)
        if w is not None:
            return LearnResult(Halfspace(w), 0, True, 0, "feasibility")
        # fall through to the perceptron best-effort path
    elif solver != "perceptron":
        raise ValueError("solver must be 'perceptron' or 'feasibility'")

    w = np.zeros(d)
    best_w = None
    best_errors = n + 1
    updates = 0
    while updates < max_updates:
        margins = labels * (points @ w)
        violated = np.nonzero(margins <= 0)[0]
        if violated.size == 0:
            return LearnResult(Halfspace(w), 0, True, updates, "perceptron")
        if violated.size < best_errors:
            best_errors = int(violated.size)
            best_w = w.copy()
        i = violated[0]
        w = w + labels[i] * points[i]
        updates += 1

    w_feasible = _feasible_separator(points, labels)
    if w_feasible is not None:
        return LearnResult(Halfspace(w_feasible), 0, True, updates, "feasibility")

    if best_w is None or not np.any(best_w):
        # never saw a usable iterate (e.g. cap of zero); fall back to a
        # deterministic nonzero direction
        best_w = points[0].copy() * labels[0]
        best_errors = _training_errors(points, labels, best_w)
    return LearnResult(Halfspace(best_w), best_errors, False, updates, "perceptron")
