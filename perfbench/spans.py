"""Spans around the calls into each crowdpac layer, recorded from outside the
package.

Every crowdpac module looks a collaborator up in its own namespace when it
calls it, so replacing ``pipeline.compare_and_label`` (say) with a wrapper
intercepts exactly the calls that ``pipeline`` makes.  The wrappers are
installed only for the duration of one traced trial.  A span records its
name, start, end, parent span and trial id, the ledger delta read from the
call's ``oracle`` argument, and a few counts read from the arguments and the
result.  The ground-truth audit (mislabeled instances, suspect precision)
reads ``oracle.ground_truth`` and costs no queries.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, function) call sites the benchmark wraps.
WRAP_POINTS = (
    ("harness", "run_boost"),
    ("harness", "run_natural"),
    ("pipeline", "phase1"),
    ("pipeline", "phase2"),
    ("pipeline", "phase3"),
    ("pipeline", "compare_and_label"),
    ("pipeline", "filter_mistakes"),
    ("pipeline", "learn_consistent"),
    ("pipeline", "rejection_sample_disagreements"),
    ("pipeline", "holdout_error"),
    ("pipeline", "sample_instances"),
    ("filtering", "compare_and_label"),
    ("compare_label", "noisy_quicksort"),
    ("compare_label", "threshold_search"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    trial: int
    name: str
    start: float
    end: float = 0.0
    covered: float = 0.0  # seconds covered by direct children and their bookkeeping
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    @property
    def self_ms(self) -> float:
        return (self.end - self.start - self.covered) * 1e3

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "trial": self.trial, "name": self.name,
                "start": self.start, "end": self.end, "self_ms": self.self_ms, **self.attrs}


def _sort(args, result, attrs):
    attrs["size"] = len(args["points"])
    attrs["tests"] = int(result[1])


def _threshold(args, result, attrs):
    attrs["probes"] = int(result[1])


def _compare_and_label(args, result, attrs):
    truth = args["oracle"].ground_truth.predict(result.instances)
    attrs["size"] = len(result.instances)
    attrs["delta"] = float(args["delta"])
    attrs["mislabeled"] = int((result.labels != truth).sum())


def _filter(args, result, attrs):
    suspects = result.suspected_mistakes
    attrs["rounds"] = int(result.round_count)
    attrs["walk_comparisons"] = int(result.walk_comparison_queries)
    attrs["suspects"] = len(suspects)
    attrs["true_suspects"] = int(
        (args["hypothesis"].predict(suspects) != args["oracle"].ground_truth.predict(suspects)).sum()
    ) if len(suspects) else 0


def _learn(args, result, attrs):
    attrs["rows"] = len(args["points"])
    attrs["inconsistent"] = int(not result.consistent)


def _sample(args, result, attrs):
    attrs["rows"] = int(args["n"])


def _rejection(args, result, attrs):
    rows, drawn = result
    attrs["accepted"] = len(rows)
    attrs["draws"] = int(drawn)


def _holdout(args, result, attrs):
    attrs["error"] = float(result)


_EXTRACT = {
    "noisy_quicksort": _sort,
    "threshold_search": _threshold,
    "compare_and_label": _compare_and_label,
    "filter_mistakes": _filter,
    "learn_consistent": _learn,
    "sample_instances": _sample,
    "rejection_sample_disagreements": _rejection,
    "holdout_error": _holdout,
}


class Tracer:
    """Installs span-recording wrappers at ``WRAP_POINTS`` while tracing.

    Call sites missing from the package (a refactor renamed or removed them)
    are listed in ``absent`` instead of failing; so are call sites whose
    arguments or result no longer have the fields read here (``broken``).
    """

    def __init__(self, modules: dict):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self._stack: list[Span] = []
        self._trial = -1
        self._patches = []
        for module_name, fn in WRAP_POINTS:
            module = modules.get(module_name)
            original = getattr(module, fn, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{fn}")
                continue
            wrapper = self._wrap(f"{module_name}.{fn}", original, _EXTRACT.get(fn))
            self._patches.append((module, fn, original, wrapper))

    @contextmanager
    def tracing(self, trial: int):
        self._trial = trial
        for module, fn, _, wrapper in self._patches:
            setattr(module, fn, wrapper)
        try:
            yield
        finally:
            for module, fn, original, _ in self._patches:
                setattr(module, fn, original)
            self._stack.clear()

    def _wrap(self, name, original, extract):
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            try:
                bound = signature.bind(*args, **kwargs).arguments
            except TypeError:
                bound = {}  # the call itself raises below
            ledger = getattr(bound.get("oracle"), "ledger", None)
            before = (ledger.label_queries, ledger.comparison_queries) if ledger else None
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent.id if parent else None, self._trial, name,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if before is not None:
                span.attrs["labels"] = ledger.label_queries - before[0]
                span.attrs["comparisons"] = ledger.comparison_queries - before[1]
            if extract is not None:
                try:
                    extract(bound, result, span.attrs)
                except (AttributeError, KeyError, TypeError, IndexError, ValueError) as exc:
                    span.attrs["extract_error"] = repr(exc)
                    self.broken.add(name)
            if parent is not None:
                parent.covered += time.perf_counter() - entered
            return result

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, end-to-end metric it should move, and where)
PER_LAYER = {
    "compare_label.sort.self_ms": ("ms", "trial_ref_p90; mostly natural-sort-d2"),
    "compare_label.sort.calls": ("count", "trial_ref_p90 through per-call cost; boost workloads"),
    "compare_label.sort.size_p50": ("count", "context for the sort timings"),
    "compare_label.sort.tests": ("count", "lambda_C on every workload"),
    "compare_label.sort.comparisons": ("count", "lambda_C on every workload"),
    "compare_label.threshold.self_ms": ("ms", "trial_ref_p90; boost-filter-d2"),
    "compare_label.threshold.probes": ("count", "lambda_L on every workload"),
    "compare_label.threshold.labels": ("count", "lambda_L on every workload"),
    "compare_label.audit.sets": ("count", "none (ground-truth audit, free of queries)"),
    "compare_label.audit.mislabeled_sets": ("count", "holdout error; compare with delta_sum"),
    "compare_label.audit.mislabeled_instances": ("count", "holdout error"),
    "compare_label.audit.delta_sum": ("count", "bound on expected mislabeled_sets"),
    "oracles.votes_per_test": ("votes", "lambda_C everywhere (effective k1)"),
    "oracles.votes_per_probe": ("votes", "lambda_L everywhere, most on boost-filter-d2 (effective k2)"),
    "filtering.walk_self_ms": ("ms", "trial_ref_p90 on boost-filter-d2; zero on natural-sort-d2"),
    "filtering.rounds": ("count", "trial_ref_p90, lambda_L on boost-filter-d2"),
    "filtering.walk_comparisons": ("count", "lambda_C on boost workloads"),
    "filtering.sort_comparisons": ("count", "lambda_C on boost workloads"),
    "filtering.labels": ("count", "lambda_L on boost-filter-d2"),
    "filtering.suspects": ("count", "holdout error of boost"),
    "filtering.suspect_precision": ("share", "holdout error of boost (ground-truth audit)"),
    "learner.self_ms": ("ms", "trial_ref_p90 on boost-pool-d20; barely on natural-sort-d2"),
    "learner.calls": ("count", "trial_ref_p90 on boost-pool-d20"),
    "learner.rows_p50": ("count", "trial_ref_p90 on boost-pool-d20"),
    "learner.inconsistent": ("count", "flagged share"),
    "geometry.sample.self_ms": ("ms", "trial_ref_p90 on boost-pool-d20 and boost-filter-d2"),
    "geometry.sample.rows": ("count", "trial_ref_p90 on boost-pool-d20 and boost-filter-d2"),
    "pipeline.rejection.self_ms": ("ms", "trial_ref_p90 on boost-filter-d2"),
    "pipeline.rejection.draws": ("count", "trial_ref_p90 on boost-filter-d2"),
    "pipeline.rejection.accept_share": ("share", "trial_ref_p90 on boost-filter-d2"),
    "pipeline.holdout.self_ms": ("ms", "trial_ref_p90 on boost-pool-d20"),
    "pipeline.holdout.error_mean": ("share", "the accuracy a query saving must not trade away"),
    "pipeline.phase1.ms": ("ms", "trial_ref_p90 on boost workloads"),
    "pipeline.phase1.labels": ("count", "lambda_L on boost workloads"),
    "pipeline.phase1.comparisons": ("count", "lambda_C on boost workloads"),
    "pipeline.phase2.ms": ("ms", "trial_ref_p90 on boost workloads"),
    "pipeline.phase2.labels": ("count", "lambda_L on boost workloads"),
    "pipeline.phase2.comparisons": ("count", "lambda_C on boost workloads"),
    "pipeline.phase3.ms": ("ms", "trial_ref_p90 on boost workloads"),
    "pipeline.phase3.labels": ("count", "lambda_L on boost workloads"),
    "pipeline.phase3.comparisons": ("count", "lambda_C on boost workloads"),
    "harness.overhead_ms": ("ms", "trial_ref_p90 on every workload"),
    "harness.render_ms": ("ms", "none (rows_to_csv, outside the timed call)"),
    "harness.flagged_share": ("share", "none (degenerate-phase flags)"),
    "trace.overhead_share": ("share", "none (traced over untraced median trial time)"),
    "trace.base_ms": ("ms", "none (the untraced median the share is taken over)"),
    "trace.absent_wraps": ("count", "none (wrap points missing or unreadable)"),
}


def _by_name(spans):
    by = defaultdict(list)
    for span in spans:
        by[span.name].append(span)
    return by


def reconcile(spans, m_L: int, m_C: int) -> list[str]:
    """Exact query reconciliation for one trial: every comparison is a sort
    comparison or a filter-walk step, and every label a threshold probe vote."""
    by = _by_name(spans)
    sort_c = sum(s.attrs.get("comparisons", 0) for s in by["compare_label.noisy_quicksort"])
    walk_c = sum(s.attrs.get("walk_comparisons", 0) for s in by["pipeline.filter_mistakes"])
    thr_l = sum(s.attrs.get("labels", 0) for s in by["compare_label.threshold_search"])
    problems = []
    if sort_c + walk_c != m_C:
        problems.append(f"reconciliation: sort {sort_c} + walk {walk_c} comparisons != m_C {m_C}")
    if thr_l != m_L:
        problems.append(f"reconciliation: threshold labels {thr_l} != m_L {m_L}")
    return problems


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(count_trials, timed_trials) -> dict[str, float]:
    """Per-trial means of the layer counts over ``count_trials`` (the fixed
    seeded batch) and of the layer timings over ``timed_trials`` (every
    traced trial).  Each trial is a dict with ``spans``, ``outer_ms``,
    ``render_ms`` and ``flagged``."""

    count_by = [_by_name(t["spans"]) for t in count_trials]
    timed_by = [_by_name(t["spans"]) for t in timed_trials]

    def each(by_trial, name, fn):
        return [sum(fn(s) for s in by[name]) for by in by_trial]

    def counted(name, key):
        return _mean(each(count_by, name, lambda s: s.attrs.get(key, 0)))

    def calls(name):
        return _mean(each(count_by, name, lambda s: 1))

    def total(name, key):
        return sum(each(count_by, name, lambda s: s.attrs.get(key, 0)))

    def self_ms(name):
        return _mean(each(timed_by, name, lambda s: s.self_ms))

    def pooled_median(name, key):
        values = [s.attrs[key] for by in count_by for s in by[name] if key in s.attrs]
        return float(statistics.median(values)) if values else 0.0

    sort, thr = "compare_label.noisy_quicksort", "compare_label.threshold_search"
    filt, learn = "pipeline.filter_mistakes", "pipeline.learn_consistent"
    sample, rej = "pipeline.sample_instances", "pipeline.rejection_sample_disagreements"
    holdout = "pipeline.holdout_error"
    cal = ("pipeline.compare_and_label", "filtering.compare_and_label")

    out = {
        "compare_label.sort.self_ms": self_ms(sort),
        "compare_label.sort.calls": calls(sort),
        "compare_label.sort.size_p50": pooled_median(sort, "size"),
        "compare_label.sort.tests": counted(sort, "tests"),
        "compare_label.sort.comparisons": counted(sort, "comparisons"),
        "compare_label.threshold.self_ms": self_ms(thr),
        "compare_label.threshold.probes": counted(thr, "probes"),
        "compare_label.threshold.labels": counted(thr, "labels"),
        "compare_label.audit.sets": sum(calls(n) for n in cal),
        "compare_label.audit.mislabeled_sets": sum(
            _mean(each(count_by, n, lambda s: int(s.attrs.get("mislabeled", 0) > 0))) for n in cal
        ),
        "compare_label.audit.mislabeled_instances": sum(counted(n, "mislabeled") for n in cal),
        "compare_label.audit.delta_sum": sum(counted(n, "delta") for n in cal),
        "oracles.votes_per_test": _ratio(total(sort, "comparisons"), total(sort, "tests")),
        "oracles.votes_per_probe": _ratio(total(thr, "labels"), total(thr, "probes")),
        "filtering.walk_self_ms": self_ms(filt),
        "filtering.rounds": counted(filt, "rounds"),
        "filtering.walk_comparisons": counted(filt, "walk_comparisons"),
        "filtering.sort_comparisons": counted(filt, "comparisons") - counted(filt, "walk_comparisons"),
        "filtering.labels": counted(filt, "labels"),
        "filtering.suspects": counted(filt, "suspects"),
        "filtering.suspect_precision": _ratio(total(filt, "true_suspects"), total(filt, "suspects")),
        "learner.self_ms": self_ms(learn),
        "learner.calls": calls(learn),
        "learner.rows_p50": pooled_median(learn, "rows"),
        "learner.inconsistent": counted(learn, "inconsistent"),
        "geometry.sample.self_ms": self_ms(sample),
        "geometry.sample.rows": counted(sample, "rows"),
        "pipeline.rejection.self_ms": self_ms(rej),
        "pipeline.rejection.draws": counted(rej, "draws"),
        "pipeline.rejection.accept_share": _ratio(total(rej, "accepted"), total(rej, "draws")),
        "pipeline.holdout.self_ms": self_ms(holdout),
        "pipeline.holdout.error_mean": counted(holdout, "error"),
        "harness.overhead_ms": _mean(
            t["outer_ms"] - sum(s.ms for s in t["spans"] if s.name.startswith("harness.run_"))
            for t in timed_trials
        ),
        "harness.render_ms": _mean(t["render_ms"] for t in timed_trials),
        "harness.flagged_share": _mean(float(t["flagged"]) for t in count_trials),
    }
    for phase in ("phase1", "phase2", "phase3"):
        name = f"pipeline.{phase}"
        out[f"{name}.ms"] = _mean(each(timed_by, name, lambda s: s.ms))
        out[f"{name}.labels"] = counted(name, "labels")
        out[f"{name}.comparisons"] = counted(name, "comparisons")
    return out
