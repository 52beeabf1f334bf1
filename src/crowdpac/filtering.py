"""Identify instances a hypothesis misclassifies, cheaply, from comparisons.

Each round sorts and labels a small uniform sub-sample, takes the rightmost
negative and leftmost positive as support instances, and subjects every other
instance to a running-majority comparison walk against the supports: an
instance whose majorities place it inside the support interval is retained
for the next round, one whose majority agrees with the hypothesis on its side
is a confirmed agreement, and one that survives the whole walk without either
break is a suspected mistake.  A row's walk law depends only on its class:
the hypothesis label h and, for each support, whether the row's true
comparison against it, read off the keys x @ w* by the rule stated in
``oracles``, is h, is not, or the support is absent.  Each class's joint
law of (verdict, rounds) is built once per vote accuracy and walk length
from the per-side first-majority laws (``walk_laws``), and every row's
outcome is one inverse-CDF draw from its class's law, all rows in one
``analytic.draw_stacked``; the ledger is charged the votes the walk reads.
The outcome keeps the suspected rows, and per-round counts of every fate.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import draw_stacked, stacked_cdf
from .compare_label import SortedLabeledSet, compare_and_label
from .geometry import Halfspace
from .oracles import CrowdOracle, first_majority_law, next_odd


# verdict codes of the walk, and the fates of the filter's input rows:
# an instance still active in the filter is INSIDE
_INSIDE, _AGREE, _MISTAKE, _SUBSAMPLED = 0, 1, 2, 3


@dataclass(frozen=True)
class SupportPair:
    """Bracketing instances from a labeled sub-sample: ``below`` is the
    rightmost instance labeled -1, ``above`` the leftmost labeled +1; either
    may be absent when the sub-sample is single-labeled."""

    below: np.ndarray | None
    above: np.ndarray | None


@dataclass
class FilterConfig:
    """Knobs of the filtering loop.

    ``subsample_constant`` scales the per-round sub-sample, b = ceil(c *
    log2 |S|).  ``walk_length`` is the odd walk bound N; leave None to let the
    caller derive it from the target error via ``default_walk_length``.
    ``per_round_confidence`` defaults to 0.001 / ceil(log2 |S|) at run time.
    ``early_stop_target`` stops the loop once that many suspects are found.
    """

    subsample_constant: float = 10.0
    walk_length: int | None = None
    per_round_confidence: float | None = None
    early_stop_target: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.subsample_constant) and self.subsample_constant > 0):
            raise ValueError("filter.subsample_constant must be positive and finite")
        if self.walk_length is not None and (
            self.walk_length < 1 or self.walk_length % 2 == 0
        ):
            raise ValueError("filter.walk_length must be a positive odd count")
        if self.per_round_confidence is not None and not (
            0.0 < self.per_round_confidence < 1.0
        ):
            raise ValueError("filter.per_round_confidence must lie in (0, 1)")
        if self.early_stop_target is not None and self.early_stop_target < 1:
            raise ValueError("filter.early_stop_target must be positive")


def default_walk_length(epsilon: float) -> int:
    """Next odd count >= ceil(4 * log2(1/epsilon))."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    return next_odd(max(1, math.ceil(4.0 * math.log2(1.0 / epsilon))))


@dataclass
class RoundStats:
    active_start: int
    subsample_size: int
    tested: int
    inside: int
    agreed: int
    suspected: int
    label_queries: int
    comparison_queries: int
    walk_comparisons: int  # portion of comparison_queries spent on walks
    small_branch: bool


@dataclass
class FilterOutcome:
    """Suspected mistakes found by the filter, with per-round accounting.

    Every input row has exactly one fate: suspected, confirmed,
    sub-sampled, or, after an early stop, still active.  Only the suspects
    are kept, as ascending rows of the input set in ``suspected_indices``;
    ``suspected_mistakes`` materializes them, and the ``rounds`` count the
    other fates.
    """

    source: np.ndarray
    suspected_indices: np.ndarray
    rounds: list[RoundStats] = field(default_factory=list)

    @property
    def suspected_mistakes(self) -> np.ndarray:
        return self.source[self.suspected_indices]

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    @property
    def walk_comparison_queries(self) -> int:
        return sum(r.walk_comparisons for r in self.rounds)


def pick_support(labeled: SortedLabeledSet) -> SupportPair:
    """Support instances straddling the label threshold of a labeled set."""
    if len(labeled) == 0:
        raise ValueError("labeled sub-sample must be nonempty")
    t = labeled.threshold_index
    m = len(labeled)
    below = labeled.instances[t - 2] if t >= 2 else None
    above = labeled.instances[t - 1] if t <= m else None
    return SupportPair(below=below, above=above)


@functools.cache
def walk_laws(q: float, walk_length: int) -> np.ndarray:
    """Joint law of the walk's (verdict, rounds) in each class of rows, votes
    being correct with probability q; read-only, one row per class.

    Row 9h + 3b + a is the class of rows with hypothesis label h (0 for -1,
    1 for +1) whose states against ``below`` and ``above`` are b and a: 0
    when the row's true comparison against that support is h, the sign the
    walk waits for from it, 1 when it is not, and 2 when the support is
    absent.  With K = (walk_length + 1) / 2 checks, column i < K is AGREE at
    round 2i + 1, column K + i is INSIDE at round 2i + 1, and column 2K is
    MISTAKE after all walk_length rounds.

    Each present side's first check whose majority is h is drawn from
    ``first_majority_law``, independently of the other side; call it E_agree
    on the side whose break agrees with h (``below`` when h = -1) and
    E_inside on the other.  AGREE at round t has probability
    P(E_agree = t) P(E_inside >= t), so AGREE wins ties; INSIDE at t has
    P(E_inside = t) P(E_agree > t); MISTAKE has
    P(E_agree > walk_length) P(E_inside > walk_length).  An absent AGREE
    side never breaks the walk.  An absent INSIDE side breaks it at round 1:
    with the AGREE side alone, INSIDE needs only that side's majority to be
    -h, the very condition for the walk to go on.
    """
    k = (walk_length + 1) // 2
    # CDF of a side's first break over the checks, by state
    cdfs = (first_majority_law(q, walk_length, True), first_majority_law(q, walk_length, False))
    pair_laws = {}
    for agree_state, inside_state in itertools.product(range(3), repeat=2):
        agree = cdfs[agree_state] if agree_state < 2 else np.zeros(k)
        inside = cdfs[inside_state] if inside_state < 2 else np.ones(k)
        inside_before = np.concatenate(([0.0], inside[:-1]))  # P(E_inside < t)
        pair_laws[agree_state, inside_state] = np.concatenate((
            np.diff(agree, prepend=0.0) * (1.0 - inside_before),
            np.diff(inside, prepend=0.0) * (1.0 - agree),
            [(1.0 - agree[-1]) * (1.0 - inside[-1])],
        ))
    laws = np.array([
        pair_laws[(below, above) if h == 0 else (above, below)]
        for h, below, above in itertools.product(range(2), range(3), range(3))
    ])
    laws.flags.writeable = False
    return laws


@functools.cache
def _walk_table(q: float, walk_length: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """``walk_laws``' rows stacked for ``analytic.draw_stacked``, with the
    verdict code and the rounds of each column: row c draws a column of
    class c."""
    k = (walk_length + 1) // 2
    codes = np.repeat(np.array([_AGREE, _INSIDE, _MISTAKE], dtype=np.int8), [k, k, 1])
    checks = np.arange(1, walk_length + 1, 2)
    rounds = np.concatenate((checks, checks, [walk_length]))
    for column in (codes, rounds):
        column.flags.writeable = False
    return stacked_cdf(walk_laws(q, walk_length)), codes, rounds


def _walk_verdicts(
    points: np.ndarray,
    support: SupportPair,
    h_labels: np.ndarray,
    walk_length: int,
    oracle: CrowdOracle,
) -> tuple[np.ndarray, np.ndarray]:
    """Running-majority walk for a batch of instances, drawn from its exact law.

    The walk votes once per round on each present support side and checks
    at odd rounds.  An instance breaks at the first check where its running
    majorities place it inside the support interval (INSIDE) or agree with
    the hypothesis on its side (AGREE); one that never breaks is a MISTAKE
    after all ``walk_length`` rounds.  The ledger is charged for the votes
    the walk reads: one comparison per present support side per round used.
    Returns (verdict codes, rounds consumed per instance).

    At an odd round every running sum is odd, so never 0, and the walk
    goes on exactly while the majority against each support is -h, h being
    the hypothesis label.  Each side's walk stops at the first check where
    its majority turns to h, independently of the other side: against
    ``below`` (``above``) that means AGREE when h = -1 (+1) and INSIDE
    otherwise.  A side's true comparison is x @ w* >= ref @ w*, read off
    the keys, and whether it is h sets the row's class; each row draws its
    (verdict, rounds) from its class's row of ``walk_laws`` with one
    ``analytic.draw_stacked`` over the cached table of all classes.
    """
    if support.below is None and support.above is None:
        raise ValueError("interval test needs at least one support instance")
    if walk_length < 1 or walk_length % 2 == 0:
        raise ValueError("walk length must be a positive odd count")
    h = np.asarray(h_labels) == 1
    weights = oracle.ground_truth.weights
    keys = points @ weights
    row = 9 * h
    for ref, scale in ((support.below, 3), (support.above, 1)):
        row = row + scale * (2 if ref is None else (keys >= ref @ weights) != h)
    table, codes, rounds_of = _walk_table(oracle.accuracy(comparisons=True), walk_length)
    drawn = draw_stacked(table, row, oracle.rng)
    rounds_used = rounds_of[drawn]
    present = (support.below is not None) + (support.above is not None)
    oracle.ledger.charge_comparisons(int(rounds_used.sum()) * present)
    return codes[drawn], rounds_used


def filter_mistakes(
    points,
    hypothesis: Halfspace,
    cfg: FilterConfig,
    oracle: CrowdOracle,
) -> FilterOutcome:
    """Partition a sample into suspected mistakes of ``hypothesis``,
    confirmed agreements, and labeled sub-samples.

    Rounds repeat until nothing is left (instances judged inside the support
    interval stay for the next round) or ``early_stop_target`` suspects are
    collected.  Once the active set is no larger than the sub-sample budget
    it is sorted and labeled outright and mismatches become suspects.
    """
    points = np.asarray(points, dtype=float)
    n0 = len(points)
    if n0 < 1:
        raise ValueError("filter needs at least one instance")
    if cfg.walk_length is None:
        raise ValueError("filter.walk_length must be resolved by the caller")
    budget = max(1, math.ceil(cfg.subsample_constant * math.log2(n0))) if n0 > 1 else 1
    delta_round = cfg.per_round_confidence
    if delta_round is None:
        delta_round = 0.001 / max(1, math.ceil(math.log2(n0)))

    h_labels = np.atleast_1d(hypothesis.predict(points))
    fate = np.full(n0, _INSIDE, dtype=np.int8)
    active = np.arange(n0)
    rounds: list[RoundStats] = []

    while active.size:
        labels_before = oracle.ledger.label_queries
        comps_before = oracle.ledger.comparison_queries
        small_branch = active.size <= budget
        if small_branch:
            sample, rest = active, active[:0]
        else:
            chosen = np.zeros(active.size, dtype=bool)
            chosen[oracle.rng.choice(active.size, size=budget, replace=False)] = True
            sample, rest = active[chosen], active[~chosen]
        # np.take(points, idx, axis=0) is points[idx], here and below, about 10x faster
        labeled = compare_and_label(np.take(points, sample, axis=0), delta_round, oracle)
        comps_after_sort = oracle.ledger.comparison_queries
        if small_branch:
            original = sample[labeled.order]
            fate[original] = np.where(labeled.labels != h_labels[original], _MISTAKE, _AGREE)
        else:
            fate[sample] = _SUBSAMPLED
            fate[rest] = _walk_verdicts(
                np.take(points, rest, axis=0), pick_support(labeled), h_labels[rest],
                cfg.walk_length, oracle,
            )[0]
        fates = fate[active]
        counts = np.bincount(fates, minlength=4)
        rounds.append(RoundStats(
            active_start=int(active.size),
            subsample_size=int(sample.size),
            tested=int(rest.size),
            inside=int(counts[_INSIDE]),
            agreed=int(counts[_AGREE]),
            suspected=int(counts[_MISTAKE]),
            label_queries=oracle.ledger.label_queries - labels_before,
            comparison_queries=oracle.ledger.comparison_queries - comps_before,
            walk_comparisons=oracle.ledger.comparison_queries - comps_after_sort,
            small_branch=small_branch,
        ))
        active = active[fates == _INSIDE]
        suspects = np.count_nonzero(fate == _MISTAKE)
        if cfg.early_stop_target is not None and suspects >= cfg.early_stop_target:
            break

    return FilterOutcome(
        source=points,
        suspected_indices=np.flatnonzero(fate == _MISTAKE),
        rounds=rounds,
    )
