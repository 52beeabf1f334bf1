"""Sort-then-threshold labeling from noisy majority-vote queries.

All instances are sorted by randomized quicksort, run level by level: every
open segment of a recursion level draws its own pivot and asks its pairwise
tests, each a k1-vote majority comparison.  Every answer, of a test and of
a label probe, comes from the true keys x @ w* by the rule stated in
``oracles``, and the oracle gives only the chance that a majority errs.
Which tests come out wrong is drawn once per sort: each test sits at its own
(level, position) slot, and every slot is marked independently with the
majority error.  With distinct keys and no marked slot the final order is
the argsort of the keys, and only the test count is drawn: from segment
sizes while a segment has more than 32 rows, then from the exact law of
each smaller segment's count, all of those in one ``analytic.draw_stacked``.
Any other sort runs its levels explicitly, flipping exactly the tests at
marked slots.  The leftmost positive position is then found by binary
search with k2-vote majority labels, each flipped from the true label when
its own draw says the majority errs.  Vote sizes come from
``oracles.vote_sizes`` so the whole procedure labels everything correctly
except with probability delta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import draw_stacked, quicksort_tests_law, stacked_cdf
from .oracles import CrowdOracle, vote_sizes


@dataclass(frozen=True)
class SortedLabeledSet:
    """Instances in ascending inferred order with a single label threshold.

    ``threshold_index`` is 1-based: positions below it are labeled -1 and
    positions at or above it are labeled +1 (``labels``); m+1 means
    everything negative.  ``order`` maps sorted positions back to rows of
    the input set.
    """

    instances: np.ndarray
    threshold_index: int
    order: np.ndarray

    def __post_init__(self):
        m = len(self.instances)
        if not (1 <= self.threshold_index <= m + 1):
            raise ValueError("threshold_index out of range [1, m+1]")
        if len(self.order) != m:
            raise ValueError("instances and order must have equal length")

    @property
    def labels(self) -> np.ndarray:
        return np.where(np.arange(1, len(self) + 1) < self.threshold_index, -1, 1)

    def __len__(self) -> int:
        return len(self.instances)


def noisy_quicksort(points, k1: int, oracle: CrowdOracle) -> tuple[np.ndarray, int]:
    """Randomized quicksort under a noisy comparator, one recursion level at a
    time.

    Every open segment of a level draws its own uniform pivot, and the whole
    level asks its pairwise tests in one batch: each row against its
    segment's pivot, a fresh k1-vote majority comparison (never cached, so
    repeated tests of the same pair stay independent).  Each segment is then
    rearranged in place into left, pivot and right, ties going right; sides
    of two or more rows are the next level's segments.  Returns the
    permutation of row indices in ascending inferred order and the number of
    pairwise tests, whose k1 votes each are charged to the ledger here.

    A test's true answer is read off the keys ``points @ w*``, row >= pivot,
    and which tests err is drawn once, up front.  The test of the row at
    position r of level l takes slot (l, r), l < n - 1 and r < n, and no two
    tests share a slot; each of the n(n-1) slots is marked independently
    with the k1-vote majority error p (``CrowdOracle.majority_error``), and
    a test comes out wrong exactly when its slot is marked.  A level's slots
    depend only on the levels before it, whose marks are independent of its
    own, so every test still errs independently with probability p.

    With distinct keys and no mark every test is right: the order is the
    argsort of the keys, and the test count is that of error-free
    quicksort, drawn from segment sizes alone (one uniform pivot rank splits
    a segment of s rows into r and s - 1 - r) until every open segment has
    at most ``_TABLE_ROWS`` rows, then from the exact law of each such
    segment's count (``analytic.quicksort_tests_law``).  Any other sort runs
    the levels explicitly, from the stable argsort of the keys.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    keys = points @ oracle.ground_truth.weights
    if n < 2:
        return np.arange(n), 0
    p = oracle.majority_error(k1, comparisons=True)
    marks = _wrong_slots(n * (n - 1), p, oracle.rng)
    order = np.argsort(keys)  # on distinct keys the stable order, 5x faster
    ranked = bool(np.all(np.diff(keys[order]) > 0))
    if ranked and not marks.size:
        n_tests = _error_free_tests(n, oracle.rng)
    else:
        if not ranked:
            order = np.argsort(keys, kind="stable")
        n_tests = _explicit_levels(order, keys, marks, oracle.rng)
    oracle.ledger.charge_comparisons(n_tests * k1)
    return order, n_tests


_TABLE_ROWS = 32  # segments this small take their test count from the exact law


@functools.cache
def _tests_table() -> tuple[np.ndarray, np.ndarray]:
    """The laws of error-free quicksort's test count on 0.._TABLE_ROWS rows,
    stacked for ``analytic.draw_stacked``: row s draws the count of s rows."""
    return stacked_cdf(quicksort_tests_law(_TABLE_ROWS))


def _error_free_tests(n: int, rng: np.random.Generator) -> int:
    """Test count of error-free quicksort on n distinct rows.

    A segment of s > _TABLE_ROWS rows costs s - 1 tests and splits at a
    uniform pivot rank floor(u s) (uniform within s 2^-53), one segment at
    a time, since subsorts are independent; every segment of at most
    _TABLE_ROWS rows then draws its whole count from the exact law, all
    such segments in one ``analytic.draw_stacked``.
    """
    large, small, n_tests = [n], [], 0
    u, used = rng.random(n // _TABLE_ROWS + 1).tolist(), 0
    while large:
        s = large.pop()
        if s <= _TABLE_ROWS:
            small.append(s)
            continue
        if used == len(u):
            u += rng.random(len(u)).tolist()
        n_left = int(u[used] * s)
        used += 1
        n_tests += s - 1
        large += (n_left, s - 1 - n_left)
    return n_tests + int(draw_stacked(_tests_table(), small, rng).sum())


def _wrong_slots(n_slots: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Ascending slots in [0, n_slots), each in the set independently with
    probability p: the successes of a Bernoulli(p) sequence, found from its
    geometric gaps, so memory grows with the marks and not with n_slots."""
    if p == 0.0:
        return np.empty(0, dtype=np.int64)
    expected = n_slots * p
    batch = int(expected + 3.0 * math.sqrt(expected)) + 1
    marks = np.cumsum(rng.geometric(p, batch)) - 1
    while marks[-1] < n_slots:
        marks = np.concatenate((marks, marks[-1] + np.cumsum(rng.geometric(p, batch))))
    return marks[: np.searchsorted(marks, n_slots)]


def _explicit_levels(order, keys, marks, rng: np.random.Generator) -> int:
    """Sorts ``order`` in place level by level, answering each test from the
    keys and flipping exactly the tests whose slot (level * n + position) is
    in ``marks``; returns the test count."""
    n = len(order)
    starts = np.zeros(1, dtype=np.intp)  # open segments of the level
    sizes = np.full(1, n, dtype=np.intp)
    n_tests, level = 0, 0
    while len(starts):
        pivots = starts + rng.integers(sizes)
        # every slot of `order` in an open segment, and the segment it is in
        segment = np.repeat(np.arange(len(starts)), sizes)
        position = np.arange(len(segment)) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
        asked = position != pivots[segment]
        tested = position[asked]
        tags = np.where(keys[order[tested]] >= keys[order[pivots[segment[asked]]]], 1, -1)
        n_tests += len(tags)
        lo, hi = np.searchsorted(marks, [level * n, (level + 1) * n])
        if hi > lo:
            wrong = np.zeros(n, dtype=bool)
            wrong[marks[lo:hi] - level * n] = True
            tags[wrong[tested]] *= -1
        side = np.ones(len(position), dtype=np.intp)  # 0 left, 1 pivot, 2 right
        side[asked] = np.where(tags == -1, 0, 2)
        order[position] = order[position[np.argsort(3 * segment + side, kind="stable")]]
        starts, sizes = _split(starts, sizes, np.bincount(segment[side == 0], minlength=len(starts)))
        level += 1
    return n_tests


def _split(starts, sizes, n_left):
    """Open segments after each segment [start, start + size) splits into
    n_left rows, its pivot and the rest; segments under two rows close."""
    sizes = np.concatenate((n_left, sizes - n_left - 1))
    open_ = sizes > 1
    return np.concatenate((starts, starts + n_left + 1))[open_], sizes[open_]


def threshold_search(sorted_points, k2: int, oracle: CrowdOracle) -> tuple[int, int]:
    """Leftmost position whose majority label is +1 (1-based), via binary
    search over positions 1..m+1; m+1 means every probe came back negative.

    The caller is responsible for the input being sorted.  Probes at most
    floor(log2 m) + 1 positions, each a k2-vote majority label: the true
    label x @ w* >= 0, flipped when a Bernoulli(``majority_error``) draw
    comes up 1.  Charges probes * k2 labels to the ledger.
    """
    sorted_points = np.asarray(sorted_points, dtype=float)
    positive = sorted_points @ oracle.ground_truth.weights >= 0
    p = oracle.majority_error(k2, comparisons=False)
    lo, hi = 1, len(sorted_points) + 1
    probes = 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if positive[mid - 1] != (oracle.rng.binomial(1, p) == 1):
            hi = mid
        else:
            lo = mid + 1
    oracle.ledger.charge_labels(probes * k2)
    return lo, probes


def compare_and_label(points, delta: float, oracle: CrowdOracle) -> SortedLabeledSet:
    """Sort and label a whole instance set with confidence 1 - delta."""
    points = np.asarray(points, dtype=float)
    m = len(points)
    if m < 1:
        raise ValueError("compare_and_label needs at least one instance")
    k1, k2 = vote_sizes(m, delta, oracle.config)
    order, _ = noisy_quicksort(points, k1, oracle)
    ordered = np.take(points, order, axis=0)  # the rows of points[order], about 10x faster
    threshold, _ = threshold_search(ordered, k2, oracle)
    return SortedLabeledSet(instances=ordered, threshold_index=threshold, order=order)
