"""Three-phase boosted learning from crowd queries, plus the one-shot
sort-everything baseline, with full query accounting.

Phase 1 learns a weak hypothesis from a small sorted-and-labeled sample.
Phase 2 hunts instances that hypothesis gets wrong (via the filter), labels
them together with a fresh agreement sample, and trains a second hypothesis
on an equal-weight mixture of the disagreeing and agreeing labeled points.
Phase 3 trains a third hypothesis on instances where the first two disagree.
It costs no oracle queries: the instances are drawn directly in the two
antipodal wedges where h1 and h2 disagree, in the plane of their weights
that ``analytic.disagreement_plane`` gives, with the draw count a rejection
sampler would have spent.  The returned classifier is the pointwise majority
of the three.

The holdout error is free of queries and drawn from its exact law.  A single
halfspace's is one binomial draw.  The majority's draws only the points
where the two thinnest voters err, on those voters' wedges, about n (p_1 +
p_2) of the n holdout points.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .analytic import disagreement_plane, halfspace_disagreement
from .compare_label import compare_and_label
from .filtering import FilterConfig, default_walk_length, filter_mistakes
from .geometry import (
    Halfspace,
    ProblemConfig,
    random_unit_vector,
    sample_instances,
    sample_size,
)
from .learner import learn_consistent
from .oracles import CrowdConfig, CrowdOracle, QueryLedger

# confidence handed to every sort-and-label call inside the pipeline
PHASE_CONFIDENCE = 1e-3

_ALG_STREAM = {"boost": 0, "natural": 1}


@dataclass(frozen=True)
class PipelineConstants:
    """Explicit constants behind the asymptotic set sizes.

    ``phase2_sample_factor`` (c2) scales the filter input, |S2| = c2 *
    ceil(m_sqrt / sqrt(eps)); ``mixture_size_factor`` (c_w) scales the
    mixture training set, |W| = c_w * m_sqrt; ``rejection_budget_factor``
    caps phase 3 at ceil(factor * m_sqrt / eps) fresh instances examined:
    the wedge draw counts the instances a rejection sampler would have
    examined, and phase 3 falls back to h1 when that count passes the cap.
    """

    phase2_sample_factor: float = 4.0
    mixture_size_factor: float = 2.0
    rejection_budget_factor: float = 10.0

    def __post_init__(self):
        for name in ("phase2_sample_factor", "mixture_size_factor", "rejection_budget_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"constants.{name} must be positive and finite")


@dataclass
class PhaseReport:
    name: str
    hypothesis: Halfspace
    labels_used: int
    comparisons_used: int
    sample_sizes: dict[str, int] = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)


@dataclass
class RunReport:
    algorithm: str
    seed: int
    phase_reports: list[PhaseReport]
    holdout_error: float
    label_queries: int
    comparison_queries: int
    labeling_overhead: float
    comparison_overhead: float
    reference_sample_size: int
    wall_clock_ms: float

    @property
    def flags(self) -> list[str]:
        return [flag for phase in self.phase_reports for flag in phase.flags]


class MajorityVote:
    """Pointwise majority of three predictors; those that are Halfspaces
    must share one dimension."""

    def __init__(self, h1, h2, h3):
        self.voters = (h1, h2, h3)
        if len({h.dim for h in self.voters if isinstance(h, Halfspace)}) > 1:
            raise ValueError("hypotheses must share one dimension")

    def predict(self, points) -> np.ndarray:
        total = sum(voter.predict(points) for voter in self.voters)
        return np.where(total >= 0, 1, -1)


def weak_sample_size(problem: ProblemConfig) -> int:
    """Training-set size granting error sqrt(eps) at the phase confidence."""
    return sample_size(
        math.sqrt(problem.target_error),
        PHASE_CONFIDENCE,
        problem.dimension,
        problem.vc_constant,
    )


def reference_sample_size(problem: ProblemConfig) -> int:
    """Noiseless sample size m_eps that query totals are normalized by."""
    return sample_size(
        problem.target_error,
        problem.confidence,
        problem.dimension,
        problem.vc_constant,
    )


def overheads(label_queries: int, comparison_queries: int, problem: ProblemConfig) -> tuple[float, float]:
    """Average oracle cost per noiseless-equivalent labeled instance."""
    if label_queries < 0 or comparison_queries < 0:
        raise ValueError("query counts must be nonnegative")
    m_ref = reference_sample_size(problem)
    return label_queries / m_ref, comparison_queries / m_ref


def draw_equal_mixture(
    disagree: tuple[np.ndarray, np.ndarray],
    agree: tuple[np.ndarray, np.ndarray],
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw n labeled points with replacement: a fair coin picks a side per
    draw, then a uniform member of that side.  Returns (points, labels,
    from_disagree mask)."""
    (x_d, y_d), (x_a, y_a) = disagree, agree
    if len(x_d) == 0 or len(x_a) == 0:
        raise ValueError("both mixture sides must be nonempty")
    pick_d = rng.random(n) < 0.5
    idx_d = rng.integers(0, len(x_d), size=n)
    idx_a = rng.integers(0, len(x_a), size=n)
    points = np.where(pick_d[:, None], x_d[idx_d], x_a[idx_a])
    labels = np.where(pick_d, y_d[idx_d], y_a[idx_a])
    return points, labels, pick_d


def _report(name, hypothesis, oracle, ledger_before, sizes, flags) -> PhaseReport:
    """A phase's report, charged the queries spent since ``ledger_before``,
    a copy of the oracle's ledger."""
    return PhaseReport(
        name=name,
        hypothesis=hypothesis,
        labels_used=oracle.ledger.label_queries - ledger_before.label_queries,
        comparisons_used=oracle.ledger.comparison_queries - ledger_before.comparison_queries,
        sample_sizes=sizes,
        flags=flags,
    )


def _fit(name: str, points, labels) -> tuple[Halfspace, list[str]]:
    """The consistent learner's hypothesis, and ``<name>:inconsistent_training_set``
    among the flags when the sample is not separable."""
    fit = learn_consistent(points, labels)
    return fit.hypothesis, [] if fit.consistent else [f"{name}:inconsistent_training_set"]


def _sort_label_learn(name: str, sample, oracle: CrowdOracle, sizes) -> PhaseReport:
    """Sort and label an already drawn sample with the crowd, then learn."""
    ledger_before = replace(oracle.ledger)
    labeled = compare_and_label(sample, PHASE_CONFIDENCE, oracle)
    hypothesis, flags = _fit(name, labeled.instances, labeled.labels)
    return _report(name, hypothesis, oracle, ledger_before, sizes, flags)


def phase1(problem: ProblemConfig, oracle: CrowdOracle) -> PhaseReport:
    """Weak hypothesis from a sorted-and-labeled sample of size m_sqrt."""
    m_sqrt = weak_sample_size(problem)
    sample = sample_instances(problem, m_sqrt, oracle.rng)
    return _sort_label_learn("phase1", sample, oracle, {"S1": m_sqrt})


def phase2(
    h1: Halfspace,
    problem: ProblemConfig,
    constants: PipelineConstants,
    filter_cfg: FilterConfig,
    oracle: CrowdOracle,
) -> PhaseReport:
    """Hypothesis trained on an equal mixture of suspected mistakes of h1
    and confirmed agreements, all labeled by sorting."""
    eps = problem.target_error
    sqrt_eps = math.sqrt(eps)
    m_sqrt = weak_sample_size(problem)
    ledger_before = replace(oracle.ledger)

    n2 = math.ceil(constants.phase2_sample_factor * math.ceil(m_sqrt / sqrt_eps))
    big_sample = sample_instances(problem, n2, oracle.rng)
    if filter_cfg.walk_length is None:
        filter_cfg = replace(filter_cfg, walk_length=default_walk_length(eps))
    outcome = filter_mistakes(big_sample, h1, filter_cfg, oracle)

    agreement_sample = sample_instances(problem, 2 * m_sqrt, oracle.rng)
    pool = np.vstack([outcome.suspected_mistakes, agreement_sample])
    labeled = compare_and_label(pool, PHASE_CONFIDENCE, oracle)
    disagrees = labeled.labels != h1.predict(labeled.instances)
    sizes = {
        "S2": n2,
        "S_I": int(len(outcome.suspected_indices)),
        "S_C": 2 * m_sqrt,
        "W_I": int(np.count_nonzero(disagrees)),
        "W_C": int(np.count_nonzero(~disagrees)),
        "W": 0,
        "filter_rounds": outcome.round_count,
    }
    flags: list[str] = []

    if not np.any(disagrees):
        flags.append("phase2:no_mistakes_found")
        hypothesis = h1
    else:
        if np.all(disagrees):
            # cannot happen unless labeling failed wholesale; train on what we have
            flags.append("phase2:agreement_side_empty")
            train_x, train_y = labeled.instances, labeled.labels
        else:
            train_x, train_y, _ = draw_equal_mixture(
                (labeled.instances[disagrees], labeled.labels[disagrees]),
                (labeled.instances[~disagrees], labeled.labels[~disagrees]),
                math.ceil(constants.mixture_size_factor * m_sqrt),
                oracle.rng,
            )
        hypothesis, inconsistent = _fit("phase2", train_x, train_y)
        flags += inconsistent
        sizes["W"] = len(train_y)

    return _report("phase2", hypothesis, oracle, ledger_before, sizes, flags)


def _orthonormal_basis(vectors) -> np.ndarray:
    """Orthonormal columns spanning ``vectors``, in their order; a vector
    within rounding of the span of those before it adds no column.

    Gram-Schmidt with a second pass, which keeps nearly parallel vectors
    orthonormal (numpy's LAPACK QR would page in about 0.7 MB of library
    code for these few columns).
    """
    columns: list[np.ndarray] = []
    for vector in vectors:
        rest = vector
        for _ in range(2):
            for e in columns:
                rest = rest - (rest @ e) * e
        norm = np.linalg.norm(rest)
        if norm > 4 * rest.size * np.finfo(float).eps * np.linalg.norm(vector):
            columns.append(rest / norm)
    return np.column_stack(columns)


def _onto_wedges(rows, u, v, rng: np.random.Generator) -> np.ndarray:
    """``rows`` from a rotation-invariant marginal, turned in place into a
    draw from it conditioned on sign(x.u) != sign(x.v), and returned.  In the
    frame e1, e2 of ``analytic.disagreement_plane`` the signs differ on the
    wedges [-pi/2, theta - pi/2) and that plus pi, theta = pi * mass; each
    row's angle is redrawn uniformly on them, keeping its planar radius and
    its part orthogonal to the plane.  Without a plane the rows stay as they
    are: mass 1 is the whole space, and mass 0 must get no rows.
    """
    e1, e2, mass = disagreement_plane(u, v)
    if e2 is None:
        return rows
    theta = math.pi * mass
    a, b = rows @ e1, rows @ e2
    radius = np.hypot(a, b)
    offset = rng.random(len(rows)) * (2.0 * theta)
    angle = np.where(offset < theta, offset, offset - theta + math.pi) - math.pi / 2
    rows += np.outer(radius * np.cos(angle) - a, e1) + np.outer(radius * np.sin(angle) - b, e2)
    return rows


def rejection_sample_disagreements(
    h1: Halfspace,
    h2: Halfspace,
    problem: ProblemConfig,
    target: int,
    max_draws: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """The accepted rows of a rejection sampler that keeps the first
    ``target`` fresh instances with h1(x) != h2(x) among at most
    ``max_draws``; returns (accepted rows, draws consumed up to and including
    the last accept, or max_draws when short).

    Both marginals are rotation-invariant, so a point's angle in
    span(w1, w2) is uniform and independent of its planar radius and its
    orthogonal part, and h1 != h2 exactly on two antipodal wedges of angle
    theta (total mass p = theta/pi).  Nothing is rejected here: the gaps
    between accepts are geometric(p), and each accepted row is a fresh
    instance whose planar angle is redrawn uniformly on the wedges.  A pair
    parallel within rounding (or d = 1) has p = 0 or p = 1 exactly
    (``analytic.halfspace_disagreement``).
    """
    p = halfspace_disagreement(h1.weights, h2.weights)
    if p == 0.0:
        return np.empty((0, problem.dimension)), max_draws
    # a gap past the budget ends the run; clipping keeps the sum in int64
    positions = np.cumsum(np.minimum(rng.geometric(p, target), max_draws + 1))
    n_accepted = int(np.searchsorted(positions, max_draws, side="right"))
    drawn = int(positions[-1]) if n_accepted == target else max_draws
    rows = sample_instances(problem, n_accepted, rng)
    return _onto_wedges(rows, h1.weights, h2.weights, rng), drawn


def phase3(
    h1: Halfspace,
    h2: Halfspace,
    problem: ProblemConfig,
    constants: PipelineConstants,
    oracle: CrowdOracle,
) -> PhaseReport:
    """Hypothesis trained on the disagreement region of h1 and h2."""
    m_sqrt = weak_sample_size(problem)
    if np.array_equal(h1.weights, h2.weights):
        sample, drawn = np.empty((0, problem.dimension)), 0
    else:
        max_draws = math.ceil(constants.rejection_budget_factor * m_sqrt / problem.target_error)
        sample, drawn = rejection_sample_disagreements(
            h1, h2, problem, m_sqrt, max_draws, oracle.rng
        )
    sizes = {"S3": len(sample), "S3_draws": drawn}
    if len(sample) < m_sqrt:
        return PhaseReport("phase3", h1, 0, 0, sizes, ["phase3:negligible_disagreement"])
    return _sort_label_learn("phase3", sample, oracle, sizes)


def holdout_error(predictor, ground_truth: Halfspace, problem: ProblemConfig,
                  n: int, rng: np.random.Generator) -> float:
    """Disagreement with the ground truth on n fresh instances (free of
    charge: error measurement is instrumentation, not a crowd query).

    ``predictor`` is a Halfspace or a MajorityVote of three Halfspaces.  Every
    sign it and the ground truth take depends only on a point's projection
    onto the span of their weights, and not on its norm.  For both marginals
    that projection's direction is uniform, so points are standard normals,
    in an orthonormal basis of that span when d > 4.  A single Halfspace errs
    on each point independently with probability theta/pi
    (``analytic.halfspace_disagreement``), so its error is one
    Binomial(n, theta/pi) draw over n.

    The majority errs only where two voters err.  Let A_i be the set where
    voter i errs, of mass p_i, and let i, j be the two voters of least mass.
    Every point where the majority errs lies in A_i or in A_j minus A_i, of
    mass p_j - p_ij = (p_j - p_i + theta_ij/pi)/2 (p_ij is
    ``analytic.pair_disagreement``).  The two counts are the first cells of
    the n points' multinomial.  Only those points are drawn, each on its
    set's wedges, and each is counted when a second voter errs there.  So
    the error is still a Binomial(n, P(majority errs)) draw over n, from
    about n (p_i + p_j) normals.

    A_j minus A_i is proposed on the thinner of two wedge pairs that hold it:
    A_j's own, or the pair where voters i and j disagree.  At least half of
    the proposals are kept, and each batch has at most n rows.  Voters
    parallel within the rounding rule of ``halfspace_disagreement`` (and
    d = 1) give masses of exactly 0 or 1, and a set empty to rounding gets
    no points.
    """
    voters = predictor.voters if isinstance(predictor, MajorityVote) else (predictor,)
    if not all(isinstance(voter, Halfspace) for voter in voters):
        raise TypeError("holdout_error needs a Halfspace or a MajorityVote of Halfspaces")
    if any(voter.dim != ground_truth.dim for voter in voters):
        raise ValueError("predictor and ground truth must share one dimension")
    if isinstance(predictor, Halfspace):
        return rng.binomial(n, halfspace_disagreement(predictor.weights, ground_truth.weights)) / n
    weights = [ground_truth.weights] + [voter.weights for voter in voters]
    if ground_truth.dim > len(weights):
        basis = _orthonormal_basis(weights)
        weights = [w @ basis for w in weights]
    truth, *ws = weights
    mass = [halfspace_disagreement(truth, w) for w in ws]
    i, j, k = sorted(range(3), key=mass.__getitem__)
    by_mass = np.column_stack([ws[i], ws[j], ws[k]])

    def errs(points):
        """Whether voters i, j and k err at each point, as three columns."""
        return (points @ by_mass >= 0) != (points @ truth >= 0)[:, None]

    # points in A_i: the majority errs where voter j or k errs too
    in_i = rng.binomial(n, mass[i])
    wrong = errs(_onto_wedges(rng.standard_normal((in_i, truth.size)), truth, ws[i], rng))
    errors = int(np.count_nonzero(wrong[:, 1] | wrong[:, 2]))
    # points in A_j minus A_i: the majority errs where voter k errs too
    split = halfspace_disagreement(ws[i], ws[j])
    only_j = (mass[j] - mass[i] + split) / 2.0 if split else 0.0
    wanted = rng.binomial(n - in_i, min(only_j / (1.0 - mass[i]), 1.0)) if n > in_i and only_j else 0
    u, v, proposal = (truth, ws[j], mass[j]) if mass[j] <= split else (ws[i], ws[j], split)
    while wanted:
        # only_j / proposal of the proposals are kept: ask for 1.2 times the need
        batch = min(n, math.ceil(1.2 * wanted * proposal / only_j))
        wrong = errs(_onto_wedges(rng.standard_normal((batch, truth.size)), u, v, rng))
        kept = wrong[wrong[:, 1] & ~wrong[:, 0], 2][:wanted]
        errors += int(np.count_nonzero(kept))
        wanted -= len(kept)
    return errors / n


def trial_rng(seed: int, algorithm: str) -> np.random.Generator:
    """Independent stream per (seed, algorithm): adding seeds to an
    experiment never perturbs existing rows."""
    return np.random.default_rng(np.random.SeedSequence([seed, _ALG_STREAM[algorithm]]))


def _trial(algorithm: str, problem: ProblemConfig, crowd: CrowdConfig, seed: int,
           holdout_size: int, phases) -> RunReport:
    """One seeded run on the (seed, algorithm) stream: a fresh ground truth
    and oracle, ``phases(oracle)`` giving (phase reports, predictor), then the
    predictor's holdout error and the run's query totals."""
    start = time.perf_counter()
    rng = trial_rng(seed, algorithm)
    ground_truth = Halfspace(random_unit_vector(problem.dimension, rng))
    oracle = CrowdOracle(ground_truth, crowd, rng, QueryLedger())
    phase_reports, predictor = phases(oracle)
    error = holdout_error(predictor, ground_truth, problem, holdout_size, rng)
    lam_l, lam_c = overheads(
        oracle.ledger.label_queries, oracle.ledger.comparison_queries, problem
    )
    return RunReport(
        algorithm=algorithm,
        seed=seed,
        phase_reports=phase_reports,
        holdout_error=error,
        label_queries=oracle.ledger.label_queries,
        comparison_queries=oracle.ledger.comparison_queries,
        labeling_overhead=lam_l,
        comparison_overhead=lam_c,
        reference_sample_size=reference_sample_size(problem),
        wall_clock_ms=(time.perf_counter() - start) * 1e3,
    )


def run_boost(
    problem: ProblemConfig,
    crowd: CrowdConfig,
    constants: PipelineConstants,
    filter_cfg: FilterConfig,
    seed: int,
    holdout_size: int = 20_000,
) -> RunReport:
    """One seeded end-to-end boosted run with a fresh ground truth."""

    def phases(oracle):
        p1 = phase1(problem, oracle)
        p2 = phase2(p1.hypothesis, problem, constants, filter_cfg, oracle)
        p3 = phase3(p1.hypothesis, p2.hypothesis, problem, constants, oracle)
        return [p1, p2, p3], MajorityVote(p1.hypothesis, p2.hypothesis, p3.hypothesis)

    return _trial("boost", problem, crowd, seed, holdout_size, phases)


def run_natural(
    problem: ProblemConfig,
    crowd: CrowdConfig,
    seed: int,
    holdout_size: int = 20_000,
) -> RunReport:
    """Sort-and-label the full m_eps sample in one shot, then learn."""

    def phases(oracle):
        m_ref = reference_sample_size(problem)
        sample = sample_instances(problem, m_ref, oracle.rng)
        report = _sort_label_learn("natural", sample, oracle, {"S1": m_ref})
        return [report], report.hypothesis

    return _trial("natural", problem, crowd, seed, holdout_size, phases)
