"""Consistent-halfspace learner: the PAC oracle fed with labeled samples.

A homogeneous halfspace w separates the sample when every row of
Z = labels[:, None] * points has z . w > 0.  Such a w exists exactly when
the origin lies outside the convex hull conv{z_i}.  Then the point x of the
hull nearest the origin has z . x >= x . x on every row, so w = x / (x . x)
has every margin z . w >= 1, with equality on the support rows: it is the
hard-margin SVM separator, the w of least norm with all margins at least 1
(Keerthi et al., IEEE Trans. Neural Networks 2000).  ``_feasible_separator``
finds x with Wolfe's minimum-norm-point algorithm (Wolfe, Math. Programming
1976) in numpy alone.  It ends after finitely many cycles and returns None
when x is the origin, i.e. the sample is not separable.

On a separable sample the learner returns that separator: zero training
error, as the realizable PAC setting asks of its consistent-hypothesis
oracle.  The nearest-point solve is not retried; on a sample it finds not
separable, a pocket perceptron capped at n updates takes over.  An iterate
that violates no row within those updates comes back with
``consistent=True``; otherwise the best iterate comes back with
``consistent=False``, so callers can flag it without aborting.
Deterministic given the input order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Halfspace

# Wolfe's algorithm stops once min_i z_i . x >= x . x - _GAP_TOL * max_i z_i . z_i,
# a gap at the level of x's rounding error.
_GAP_TOL = 1e-14
# A nearest point with x . x at most this share of max_i z_i . z_i is the
# origin: the sample is not separable.
_ORIGIN_TOL = 1e-24
# Each major cycle shortens x strictly, so the count is finite; the cap turns
# a numerical stall into a None instead of a hang.
_MAX_MAJOR_CYCLES = 10_000
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class LearnResult:
    hypothesis: Halfspace
    consistent: bool
    updates: int


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


def _feasible_separator(points, labels) -> np.ndarray | None:
    """The max-margin w with y_i (w . x_i) >= 1, smallest margin 1; None when
    the sample is not separable.

    Wolfe's algorithm on the rows z_i = y_i x_i keeps x as a convex
    combination of a support set of at most d+1 affinely independent rows.
    A major cycle finds the row j minimizing z_j . x with one ``Z @ x``.
    When z_j . x >= x . x, to rounding (_GAP_TOL), x is the nearest point:
    w = x / (x . x), refined once so that the support rows' margins are 1 to
    rounding.  Otherwise j joins the support, and minor cycles take the
    affine minimizer of the support, one small solve each, stepping back to
    the hull and dropping a row whenever that minimizer leaves it.  x . x
    falls strictly every major cycle, so the loop is finite; a cycle that
    fails to shorten x (rounding) ends it with w = x / (x . x) unrefined.
    x at the origin, a run past _MAX_MAJOR_CYCLES, or a w without z . w > 0
    on every row gives None.
    """
    z = labels[:, None] * points
    d = z.shape[1]
    norms = np.einsum("ij,ij->i", z, z)
    scale = float(norms.max())
    # The support rows and their bordered Gram matrix [[0, 1^T], [1, Z_S Z_S^T]]
    # live in buffers with room for d+2 rows; the first k rows (k+1 rows and
    # columns of the matrix) are in use.  Solving the matrix against e_0
    # gives the affine minimizer's weights.
    rows = np.empty((d + 2, d))
    gram = np.ones((d + 3, d + 3))
    gram[0, 0] = 0.0
    unit = np.zeros(d + 3)
    unit[0] = 1.0
    first = int(np.argmin(norms))
    rows[0] = z[first]
    gram[1, 1] = norms[first]
    k = 1
    weights = np.ones(1)
    x = z[first]
    xx = float(norms[first])
    for _ in range(_MAX_MAJOR_CYCLES):
        if xx <= _ORIGIN_TOL * scale:
            return None
        g = z @ x
        j = int(g.argmin())
        if g[j] >= xx - _GAP_TOL * scale:
            w = _refined(x / xx, rows[:k], gram[1:k + 1, 1:k + 1])
            break
        if k > d:  # d+1 support rows with x away from the origin: rounding
            w = x / xx
            break
        rows[k] = z[j]
        gram[k + 1, 1:k + 1] = gram[1:k + 1, k + 1] = rows[:k] @ z[j]
        gram[k + 1, k + 1] = norms[j]
        weights = np.append(weights, 0.0)
        k += 1
        while True:  # minor cycles
            try:
                affine = np.linalg.solve(gram[:k + 1, :k + 1], unit[:k + 1])[1:]
            except np.linalg.LinAlgError:
                break
            if affine.min() > 0.0:
                weights = affine
                break
            # step from the weights toward the affine minimizer until the
            # first weight reaches zero, and drop that row
            ratios = np.where(
                affine <= 0.0, weights / np.maximum(weights - affine, _TINY), np.inf)
            drop = int(ratios.argmin())
            weights += ratios[drop] * (affine - weights)
            weights[drop:-1] = weights[drop + 1:]
            weights = np.maximum(weights[:-1], 0.0)
            weights /= weights.sum()
            rows[drop:k - 1] = rows[drop + 1:k]
            gram[drop + 1:k, :k + 1] = gram[drop + 2:k + 1, :k + 1]
            gram[:k, drop + 1:k] = gram[:k, drop + 2:k + 1]
            k -= 1
        new_x = weights @ rows[:k]
        new_xx = float(new_x @ new_x)
        if not new_xx < xx:
            w = x / xx
            break
        x, xx = new_x, new_xx
    else:
        return None
    return w if np.all(np.isfinite(w)) and np.all(z @ w > 0.0) else None


def _refined(w, support, gram):
    """One step of iterative refinement toward support . w = 1.

    x / (x . x) carries x's rounding error, amplified by 1 / (x . x): on a
    thin margin the support margins drift from 1.  The correction stays in
    the span of the support rows, so w stays the least-norm separator.
    """
    try:
        return w + np.linalg.solve(gram, 1.0 - support @ w) @ support
    except np.linalg.LinAlgError:
        return w


def learn_consistent(points, labels) -> LearnResult:
    """Fit a halfspace with zero training error on a separable sample.

    The max-margin separator when the sample is separable.  Otherwise a
    pocket perceptron runs for at most n updates: its first iterate that
    violates no row comes back with ``consistent=True``, and failing that,
    its best iterate comes back flagged ``consistent=False``.
    """
    points, labels = _validate_sample(points, labels)
    w = _feasible_separator(points, labels)
    if w is not None:
        return LearnResult(Halfspace(w), True, 0)

    n, d = points.shape
    w = np.zeros(d)
    best_w, best_errors = w, n + 1
    for updates in range(n):
        violated = np.nonzero(labels * (points @ w) <= 0)[0]
        if violated.size == 0:
            return LearnResult(Halfspace(w), True, updates)
        if violated.size < best_errors:
            best_w, best_errors = w, int(violated.size)
        i = violated[0]
        w = w + labels[i] * points[i]

    if not np.any(best_w):
        # the best iterate is the zero vector; fall back to the longest
        # signed row, or to e_1 when every row is zero
        norms = np.einsum("ij,ij->i", points, points)
        longest = int(norms.argmax())
        if norms[longest] > 0.0:
            best_w = labels[longest] * points[longest]
        else:
            best_w = np.eye(d)[0]
    return LearnResult(Halfspace(best_w), False, n)
