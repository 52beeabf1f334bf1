"""Sort-then-threshold labeling from noisy majority-vote queries.

All instances are sorted by randomized quicksort, run level by level: every
open segment of a recursion level draws its own pivot, and the level's
pairwise tests, each a k1-vote majority comparison, are charged as one batch
whose count of wrong tests is drawn rather than its votes.  Each test's true
answer comes from the true keys x @ w*, the oracle's own definition of a
comparison.  While the keys are distinct and no test has come out wrong,
every open segment holds a contiguous range of ranks, so a level needs only
its segments' sizes: one uniform pivot rank per segment splits it, and the
final order is the argsort of the keys.  Any other level answers its tests
from the keys and flips exactly its drawn count of them at uniform
positions.  The leftmost positive position is then found by binary search
with k2-vote majority labels.  Vote sizes come from ``oracles.vote_sizes``
so the whole procedure labels everything correctly except with probability
delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracles import CrowdOracle, vote_sizes


@dataclass(frozen=True)
class SortedLabeledSet:
    """Instances in ascending inferred order with a single label threshold.

    ``threshold_index`` is 1-based: positions below it are labeled -1 and
    positions at or above it are labeled +1; m+1 means everything negative.
    ``order`` maps sorted positions back to rows of the input set;
    ``comparison_tests`` and ``probe_count`` record how many pairwise tests
    and binary-search probes were spent.
    """

    instances: np.ndarray
    threshold_index: int
    labels: np.ndarray
    order: np.ndarray
    comparison_tests: int
    probe_count: int

    def __post_init__(self):
        m = len(self.instances)
        if not (1 <= self.threshold_index <= m + 1):
            raise ValueError("threshold_index out of range [1, m+1]")
        if len(self.labels) != m or len(self.order) != m:
            raise ValueError("instances, labels and order must have equal length")
        expected = np.where(np.arange(1, m + 1) < self.threshold_index, -1, 1)
        if not np.array_equal(np.asarray(self.labels), expected):
            raise ValueError("labels must match the threshold rule")

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

    The sort starts from the stable argsort of the true keys ``points @ w*``,
    and every level first draws only how many of its tests come out wrong
    (``CrowdOracle.wrong_majorities``, which charges them).  While the keys
    are distinct and every test so far has been right, each open segment
    holds a contiguous range of ranks and a pivot at a uniform position has
    a uniform rank, so such a level draws one pivot rank r per segment of s
    rows, the children having r and s - 1 - r rows.  Any other level answers
    its tests from the keys, row >= pivot, and flips exactly the drawn count
    of them at uniform positions.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    keys = points @ oracle.ground_truth.weights
    order = np.argsort(keys, kind="stable")
    starts = np.zeros(int(n > 1), dtype=np.intp)  # open segments of the level
    sizes = np.full(len(starts), n, dtype=np.intp)
    ranked = bool(np.all(np.diff(keys[order]) > 0))  # segments hold rank ranges
    n_tests = 0
    while len(starts):
        tests = int(sizes.sum()) - len(starts)
        n_tests += tests
        wrong = oracle.wrong_majorities(tests, k1, comparisons=True)
        if ranked and not wrong:
            starts, sizes = _split(starts, sizes, oracle.rng.integers(sizes))
            continue
        ranked = False
        pivots = starts + oracle.rng.integers(sizes)
        # every slot of `order` in an open segment, and the segment it is in
        segment = np.repeat(np.arange(len(starts)), sizes)
        position = np.arange(len(segment)) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
        asked = position != pivots[segment]
        tags = np.where(keys[order[position[asked]]] >= keys[order[pivots[segment[asked]]]], 1, -1)
        tags[oracle.rng.choice(tests, wrong, replace=False)] *= -1
        side = np.ones(len(position), dtype=np.intp)  # 0 left, 1 pivot, 2 right
        side[asked] = np.where(tags == -1, 0, 2)
        order[position] = order[position[np.argsort(3 * segment + side, kind="stable")]]
        starts, sizes = _split(starts, sizes, np.bincount(segment[side == 0], minlength=len(starts)))
    return order, n_tests


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
    floor(log2 m) + 1 positions, each with a k2-vote majority.
    """
    sorted_points = np.asarray(sorted_points, dtype=float)
    m = len(sorted_points)
    lo, hi = 1, m + 1
    probes = 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if oracle.majority(sorted_points[mid - 1 : mid], k2)[0] == 1:
            hi = mid
        else:
            lo = mid + 1
    return lo, probes


def compare_and_label(points, delta: float, oracle: CrowdOracle) -> SortedLabeledSet:
    """Sort and label a whole instance set with confidence 1 - delta."""
    points = np.asarray(points, dtype=float)
    m = len(points)
    if m < 1:
        raise ValueError("compare_and_label needs at least one instance")
    k1, k2 = vote_sizes(m, delta, oracle.config)
    order, n_tests = noisy_quicksort(points, k1, oracle)
    ordered = points[order]
    threshold, probes = threshold_search(ordered, k2, oracle)
    labels = np.where(np.arange(1, m + 1) < threshold, -1, 1)
    return SortedLabeledSet(
        instances=ordered,
        threshold_index=threshold,
        labels=labels,
        order=order,
        comparison_tests=n_tests,
        probe_count=probes,
    )
