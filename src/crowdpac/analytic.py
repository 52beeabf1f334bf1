"""Closed-form analytic oracles used by property tests and `crowdpac verify`.

The ruin probability is the classical biased-walk closed form, the majority
error an exact binomial tail summation, the Hoeffding bound the plain
exponential, the disagreement of two halfspaces their angle over pi, and the
mass where two halfspaces both disagree with a third a sum of three angles.

Two of them are also simulation code paths.  ``CrowdOracle.majority_error``
is ``majority_error_exact``, from which noisy quicksort and the threshold
search draw which of their tests err; the vote-by-vote references in
``tests/test_oracles.py`` and ``tests/test_compare_label.py`` and the
Hoeffding domination check below test it.
``holdout_error`` draws from ``halfspace_disagreement``, and its majority
branch from the masses that make up ``pair_disagreement``; the Monte Carlo
checks below and the full-dimension and exact-arc holdout references in
``tests/test_pipeline.py`` test them.  The walk's first-majority law in
``oracles`` is checked here against a vote-by-vote Monte Carlo.  The test
count of error-free ``noisy_quicksort``, which draws segment sizes and then
the count of every segment of at most 32 rows from
``quicksort_tests_law``, is checked against quicksort's closed-form mean
and variance and against that exact law in full, above the 32 rows too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class WalkSpec:
    """A gambler's-ruin walk: win one unit with probability ``step_win_prob``,
    starting with ``start_capital`` against an opponent holding
    ``opponent_capital``."""

    step_win_prob: float
    start_capital: int
    opponent_capital: int

    def __post_init__(self):
        if not (0.0 < self.step_win_prob < 1.0):
            raise ValueError("step_win_prob must lie in (0, 1)")
        if self.start_capital < 1:
            raise ValueError("start_capital must be a positive integer")
        if self.opponent_capital < 1:
            raise ValueError("opponent_capital must be a positive integer")


def ruin_probability(spec: WalkSpec) -> float:
    """Probability the player is ever ruined: (1 - r^N) / (1 - r^(N+i)) with
    r = p/(1-p); the symmetric case p = 1/2 takes the limit N/(N+i)."""
    p, i, n = spec.step_win_prob, spec.start_capital, spec.opponent_capital
    if p == 0.5:
        return n / (n + i)
    r = p / (1.0 - p)
    if r < 1.0:
        return (1.0 - r**n) / (1.0 - r ** (n + i))
    # r > 1: rescale by r^-(N+i) so large exponents cannot overflow
    s = 1.0 / r
    return (s ** (n + i) - s**i) / (s ** (n + i) - 1.0)


def simulate_ruin(spec: WalkSpec, n_walks: int, rng: np.random.Generator,
                  max_steps: int = 1_000_000) -> float:
    """Monte Carlo estimate of the ruin probability over n_walks walks,
    stepped vote by vote; a walk still live after max_steps is not ruined."""
    capital = np.full(n_walks, spec.start_capital, dtype=np.int64)  # live walks only
    total = spec.start_capital + spec.opponent_capital
    ruined = 0
    for _ in range(max_steps):
        if capital.size == 0:
            break
        capital += np.where(rng.random(capital.size) < spec.step_win_prob, 1, -1)
        ruined += int(np.count_nonzero(capital == 0))
        capital = capital[(capital > 0) & (capital < total)]
    return ruined / n_walks


def simulate_first_majority(q: float, walk_length: int, toward: bool, n_walks: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo first odd rounds t <= walk_length at which the majority of
    t votes, each correct with probability q, takes a sign that is the true
    answer when ``toward``; walk_length + 2 for a walk without one."""
    step_up = q if toward else 1.0 - q
    total = np.zeros(n_walks, dtype=np.int64)
    first = np.full(n_walks, walk_length + 2, dtype=np.int64)
    for t in range(1, walk_length + 1):
        total += np.where(rng.random(n_walks) < step_up, 1, -1)
        if t % 2:
            first[(total > 0) & (first > walk_length)] = t
    return first


def majority_error_exact(k: int, q: float) -> float:
    """Exact probability an odd-k majority of votes, each correct with
    probability q > 1/2, comes out wrong: P(Bin(k, 1-q) >= ceil(k/2)).

    The tail's terms fall from j = ceil(k/2) on, each the one before it
    times (k-j)/(j+1) * (1-q)/q < 1.  The first is taken in logs, so no
    binomial coefficient overflows at large k, and the sum stops once a
    term drops below 1e-17 of it.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be a positive odd count")
    if not (0.5 < q <= 1.0):
        raise ValueError("per-vote correctness q must lie in (1/2, 1]")
    p_wrong = 1.0 - q
    if p_wrong == 0.0:
        return 0.0
    first = (k + 1) // 2
    term = math.exp(
        math.lgamma(k + 1) - math.lgamma(first + 1) - math.lgamma(k - first + 1)
        + first * math.log(p_wrong) + (k - first) * math.log(q)
    )
    terms = [term]
    for j in range(first, k):
        term *= (k - j) / (j + 1) * p_wrong / q
        if term < 1e-17 * terms[0]:
            break
        terms.append(term)
    return math.fsum(terms)


def hoeffding_majority_bound(k: int, margin: float) -> float:
    """Hoeffding upper bound exp(-2 k margin^2) on the majority error of k
    votes each correct with probability 1/2 + margin."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not (0.0 < margin <= 0.5):
        raise ValueError("margin must lie in (0, 1/2]")
    return math.exp(-2.0 * k * margin**2)


def boosted_majority_error(p: float) -> float:
    """Error of a 3-way majority of independent voters each wrong w.p. p."""
    return 3.0 * p**2 - 2.0 * p**3


def quicksort_expected_tests(m: int) -> float:
    """Expected pairwise tests of randomized quicksort with uniform pivots on
    m distinct, correctly compared items: 2(m+1)H_m - 4m."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    harmonic = math.fsum(1.0 / i for i in range(1, m + 1))
    return 2.0 * (m + 1) * harmonic - 4.0 * m


def quicksort_tests_variance(m: int) -> float:
    """Variance of the same test count (Knuth, TAOCP vol. 3, 5.2.2):
    7m^2 - 4(m+1)^2 H_m^(2) - 2(m+1)H_m + 13m, H_m^(2) = sum of 1/i^2."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    harmonic = math.fsum(1.0 / i for i in range(1, m + 1))
    harmonic2 = math.fsum(1.0 / (i * i) for i in range(1, m + 1))
    return 7.0 * m * m - 4.0 * (m + 1) ** 2 * harmonic2 - 2.0 * (m + 1) * harmonic + 13.0 * m


def quicksort_tests_law(max_rows: int) -> list[np.ndarray]:
    """Exact laws of the same test count for 0..max_rows items: entry c of
    row s is P[C_s = c], c = 0..s(s-1)/2.

    The count has no closed-form law (Rösler 1991), but its recurrence
    C_s = s - 1 + C_U + C'_(s-1-U), U uniform on 0..s-1 and the two
    subsorts independent, gives each row from the rows below it by
    convolution; U and s - 1 - U give the same term, so each pair is
    convolved once.  About 3 ms for 32 rows.
    """
    if max_rows < 0:
        raise ValueError("max_rows must be nonnegative")
    laws = [np.ones(1), np.ones(1)][: max_rows + 1]
    for s in range(2, max_rows + 1):
        law = np.zeros(s * (s - 1) // 2 + 1)
        for u in range((s + 1) // 2):
            both = np.convolve(laws[u], laws[s - 1 - u])
            law[s - 1 : s - 1 + len(both)] += both if 2 * u == s - 1 else 2.0 * both
        laws.append(law / s)
    return laws


def halfspace_disagreement(u, v) -> float:
    """Mass theta/pi on which sign(u.x) != sign(v.x) under any rotation-invariant
    marginal, theta being the angle between u and v.

    theta is atan2 of v's components orthogonal and parallel to u, which keeps
    thin angles accurate where acos of the cosine loses them.  A pair parallel
    within rounding (and any pair in d = 1) gives exactly 0 or 1.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1 or not (u.any() and v.any()):
        raise ValueError("u and v must be nonzero vectors of one dimension")
    # math.sqrt(x @ x) is np.linalg.norm(x) of a real vector, without its overhead
    e1 = u / math.sqrt(u @ u)
    along = float(v @ e1)
    rest = v - along * e1
    across = math.sqrt(rest @ rest)
    if across <= 4 * u.size * _EPS * math.sqrt(v @ v):
        return 0.0 if along > 0 else 1.0
    return math.atan2(across, along) / math.pi


def pair_disagreement(w, u, v) -> float:
    """Mass on which both sign(u.x) and sign(v.x) differ from sign(w.x) under
    any rotation-invariant marginal: (theta_wu + theta_wv - theta_uv)/(2 pi).

    The two disagreement sets A_u and A_v have symmetric difference
    {sign(u.x) != sign(v.x)}, so P(A_u and A_v) = (P(A_u) + P(A_v) -
    P(A_u xor A_v))/2, each term a ``halfspace_disagreement``.  Rounding is
    clipped so the mass lies in [0, min(P(A_u), P(A_v))].
    """
    p_u, p_v = halfspace_disagreement(w, u), halfspace_disagreement(w, v)
    both = (p_u + p_v - halfspace_disagreement(u, v)) / 2.0
    return min(max(both, 0.0), p_u, p_v)


# ---------------------------------------------------------------------------
# verification suites (surfaced through the CLI `verify` command)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _ruin_grid(grid: str):
    if grid == "full":
        ps = (0.5, 0.6, 0.7, 0.8)
        starts = (1, 3)
        opponents = (1, 10, 60)
        walks, tol = 100_000, 0.01
    else:
        ps = (0.5, 0.7)
        starts = (1, 3)
        opponents = (1, 10)
        walks, tol = 20_000, 0.02
    return ps, starts, opponents, walks, tol


def verify_ruin_vs_monte_carlo(grid: str, rng: np.random.Generator) -> list[CheckResult]:
    ps, starts, opponents, walks, tol = _ruin_grid(grid)
    results = []
    for p in ps:
        for i in starts:
            for n in opponents:
                spec = WalkSpec(p, i, n)
                exact = ruin_probability(spec)
                est = simulate_ruin(spec, walks, rng)
                gap = abs(exact - est)
                results.append(
                    CheckResult(
                        name=f"ruin p={p} i={i} N={n}",
                        passed=gap <= tol,
                        detail=f"closed form {exact:.6f}, monte carlo {est:.6f}, |gap| {gap:.6f} <= {tol}",
                    )
                )
    limit = ruin_probability(WalkSpec(0.7, 1, 60))
    results.append(
        CheckResult(
            name="ruin limit p=0.7 i=1 N=60",
            passed=abs(limit - 3.0 / 7.0) <= 1e-9,
            detail=f"closed form {limit:.12f} vs 3/7 = {3.0 / 7.0:.12f}",
        )
    )
    return results


def verify_hoeffding_domination(grid: str) -> list[CheckResult]:
    max_k = 201 if grid == "full" else 51
    margins = [0.1, 0.2, 0.3, 0.4, 0.5]
    worst_slack = math.inf
    violation = None
    for margin in margins:
        for k in range(1, max_k + 1, 2):
            bound = hoeffding_majority_bound(k, margin)
            exact = majority_error_exact(k, 0.5 + margin)
            worst_slack = min(worst_slack, bound - exact)
            if bound < exact and violation is None:
                violation = (k, margin)
    passed = violation is None
    detail = (
        f"odd k <= {max_k}, margins {margins}: min(bound - exact) = {worst_slack:.3e}"
        if passed
        else f"violated at k={violation[0]}, margin={violation[1]}"
    )
    return [CheckResult(name="hoeffding bound dominates exact majority error", passed=passed, detail=detail)]


def verify_boost_identity(grid: str, rng: np.random.Generator) -> list[CheckResult]:
    n = 100_000 if grid == "full" else 20_000
    tol = 0.01
    results = []
    for p in (0.1, 0.2, 0.3):
        wrong = rng.random((3, n)) < p
        empirical = float(np.mean(np.sum(wrong, axis=0) >= 2))
        expected = boosted_majority_error(p)
        gap = abs(empirical - expected)
        results.append(
            CheckResult(
                name=f"3-voter majority identity p={p}",
                passed=gap <= tol,
                detail=f"closed form {expected:.6f}, monte carlo {empirical:.6f}, |gap| {gap:.6f} <= {tol}",
            )
        )
    return results


def verify_halfspace_disagreement(grid: str, rng: np.random.Generator) -> list[CheckResult]:
    n, tol = (100_000, 0.01) if grid == "full" else (20_000, 0.02)
    results = []
    for d in (2, 5, 20):
        u, v = rng.standard_normal((2, d))
        expected = halfspace_disagreement(u, v)
        for marginal in ("sphere", "gaussian"):
            points = rng.standard_normal((n, d))
            if marginal == "sphere":
                points /= np.linalg.norm(points, axis=1, keepdims=True)
            empirical = float(np.mean((points @ u >= 0) != (points @ v >= 0)))
            gap = abs(empirical - expected)
            results.append(
                CheckResult(
                    name=f"halfspace disagreement d={d} {marginal}",
                    passed=gap <= tol,
                    detail=f"closed form {expected:.6f}, monte carlo {empirical:.6f}, |gap| {gap:.6f} <= {tol}",
                )
            )
    return results


def verify_pair_disagreement(grid: str, rng: np.random.Generator) -> list[CheckResult]:
    """``pair_disagreement`` against Gaussian points in d = 5, within 4
    standard errors of the closed form, at a random pair, a thin pair (both
    about 1e-3 from w), a pair nearly antiparallel to each other and a pair
    coplanar with w."""
    d, batches = 5, (1 if grid == "small" else 5)
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    u0 = rng.standard_normal(d)
    in_plane = u0 - (u0 @ w) * w
    in_plane /= np.linalg.norm(in_plane)
    a, b = rng.uniform(0.0, math.pi, 2)
    pairs = {
        "random": rng.standard_normal((2, d)),
        "thin": w + 1e-3 * rng.standard_normal((2, d)) / math.sqrt(d),
        "nearly antiparallel": np.array([u0, -u0 + 1e-3 * rng.standard_normal(d)]),
        "coplanar": np.outer(np.cos([a, b]), w) + np.outer(np.sin([a, b]), in_plane),
    }
    results = []
    for label, (u, v) in pairs.items():
        exact = pair_disagreement(w, u, v)
        hits = 0
        for _ in range(batches):
            points = rng.standard_normal((200_000, d))
            truth = points @ w >= 0
            hits += int(np.count_nonzero(((points @ u >= 0) != truth) & ((points @ v >= 0) != truth)))
        n = 200_000 * batches
        gap, se = abs(hits / n - exact), math.sqrt(exact * (1.0 - exact) / n)
        results.append(
            CheckResult(
                name=f"pair disagreement {label} d={d}",
                passed=gap <= 4 * se,
                detail=f"closed form {exact:.6g}, monte carlo {hits / n:.6g} over {n} points, "
                       f"|gap| {gap:.3g} <= 4 SE {4 * se:.3g}",
            )
        )
    return results


def verify_first_majority_law(grid: str, rng: np.random.Generator) -> list[CheckResult]:
    """The filter walk's per-side exit laws, correct votes pointing toward
    the exit or away from it, against vote-by-vote walks."""
    from .oracles import first_majority_law  # oracles imports this module

    lengths = (19,) if grid == "small" else (3, 19, 27)
    walks, tol = 100_000, 0.01
    results = []
    for q in (0.6, 0.85, 0.905):
        for toward in (True, False):
            for walk_length in lengths:
                cdf = first_majority_law(q, walk_length, toward)
                first = simulate_first_majority(q, walk_length, toward, walks, rng)
                empirical = np.array([np.mean(first <= t) for t in range(1, walk_length + 1, 2)])
                gap = float(np.max(np.abs(cdf - empirical)))
                way = "toward" if toward else "away from"
                results.append(
                    CheckResult(
                        name=f"walk exit law q={q} N={walk_length} correct votes {way} the exit",
                        passed=gap <= tol,
                        detail=f"max |CDF gap| over {len(cdf)} rounds {gap:.6f} <= {tol}",
                    )
                )
    return results


def _error_free_test_counts(m: int, sorts: int, rng: np.random.Generator) -> np.ndarray:
    """Test counts of ``sorts`` error-free ``noisy_quicksort`` calls on one
    shuffle of m distinct rows."""
    from .compare_label import noisy_quicksort  # these import this module
    from .geometry import Halfspace
    from .oracles import CrowdConfig, CrowdOracle

    oracle = CrowdOracle(Halfspace(np.array([1.0, 0.0])), CrowdConfig(alpha=0.5, beta=0.5), rng)
    points = np.column_stack([rng.permutation(m), np.zeros(m)]).astype(float)
    return np.array([noisy_quicksort(points, 1, oracle)[1] for _ in range(sorts)])


def verify_quicksort_tests(grid: str, rng: np.random.Generator) -> list[CheckResult]:
    """Test counts of error-free ``noisy_quicksort`` on distinct rows against
    the closed-form mean and variance, each within 4 standard errors (the
    variance's from the sample's fourth central moment)."""
    sizes, sorts = ((3, 30, 200), 800) if grid == "small" else ((3, 10, 100, 1000), 1500)
    results = []
    for m in sizes:
        counts = _error_free_test_counts(m, sorts, rng).astype(float)
        mean, var = quicksort_expected_tests(m), quicksort_tests_variance(m)
        centred = counts - counts.mean()
        var_se = math.sqrt(max(np.mean(centred**4) - np.var(counts) ** 2, 0.0) / sorts)
        for moment, exact, est, se in (
            ("mean", mean, counts.mean(), math.sqrt(var / sorts)),
            ("variance", var, counts.var(ddof=1), var_se),
        ):
            gap = abs(est - exact)
            results.append(
                CheckResult(
                    name=f"quicksort test-count {moment} m={m}",
                    passed=gap <= 4 * se,
                    detail=f"closed form {exact:.4f}, {sorts} error-free sorts {est:.4f}, "
                           f"|gap| {gap:.4f} <= 4 SE {4 * se:.4f}",
                )
            )
    return results


def verify_quicksort_tests_law(grid: str, rng: np.random.Generator) -> list[CheckResult]:
    """Test counts of error-free ``noisy_quicksort`` on distinct rows against
    their exact law (``quicksort_tests_law``) at m = 20, which the sort draws
    from its table of small segments, and at m = 64, which it first splits
    by segment sizes.  The largest gap between the empirical and the exact
    CDF must stay within the DKW bound sqrt(ln(2/a) / 2N) of N sorts, which
    N draws from the exact law exceed with probability at most a = 1e-4."""
    sorts = 4000 if grid == "small" else 10_000
    bound = math.sqrt(math.log(2 / 1e-4) / (2 * sorts))
    laws = quicksort_tests_law(64)
    results = []
    for m in (20, 64):
        exact = np.cumsum(laws[m])
        counts = np.bincount(_error_free_test_counts(m, sorts, rng), minlength=len(exact))
        empirical = np.cumsum(counts) / sorts
        gap = float(np.max(np.abs(empirical - exact)))
        results.append(
            CheckResult(
                name=f"quicksort test-count law m={m}",
                passed=gap <= bound,
                detail=f"max |CDF gap| over {sorts} error-free sorts {gap:.4f} <= DKW bound {bound:.4f}",
            )
        )
    return results


def run_verification(grid: str = "small", seed: int = 0) -> list[CheckResult]:
    """All analytic-oracle checks; `grid` is "small" (fast) or "full"."""
    if grid not in ("small", "full"):
        raise ValueError("grid must be 'small' or 'full'")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11A]))
    results = []
    results += verify_ruin_vs_monte_carlo(grid, rng)
    results += verify_hoeffding_domination(grid)
    results += verify_boost_identity(grid, rng)
    results += verify_halfspace_disagreement(grid, rng)
    results += verify_first_majority_law(grid, rng)
    results += verify_quicksort_tests(grid, rng)
    results += verify_quicksort_tests_law(grid, rng)
    results += verify_pair_disagreement(grid, rng)
    return results
