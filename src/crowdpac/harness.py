"""Experiment configuration, seeded batch execution, sweeps, and reports.

Configs are flat `key = value` text files (`#` comments allowed); every
omitted key takes its default and the effective config can be dumped back
out, re-read, and compared for provenance.  Each (algorithm, seed) pair runs
on its own random stream, so results are reproducible row by row and adding
seeds never changes existing rows.  Reports are CSV by default, JSON when
the output path ends in ``.json``; floats are rendered with 9 significant
digits and summary statistics are computed from the rendered values so they
can be re-derived bit-exactly from the emitted file.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .filtering import FilterConfig
from .geometry import Distribution, ProblemConfig
from .oracles import Adversary, CrowdConfig, PoolModel
from .pipeline import PipelineConstants, RunReport, run_boost, run_natural

CSV_COLUMNS = (
    "algorithm", "seed", "d", "epsilon", "delta", "alpha", "beta",
    "m_eps", "m_L", "m_C", "lambda_L", "lambda_C", "holdout_error",
    "p1_labels", "p1_comps", "p2_labels", "p2_comps", "p3_labels", "p3_comps",
    "flags", "wall_clock_ms",
)
CSV_HEADER = ",".join(CSV_COLUMNS)

SUMMARY_SEED = -1


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field."""


def _first_repeat(values):
    """The first value that already occurred earlier in ``values``, or None."""
    seen = set()
    for value in values:
        if value in seen:
            return value
        seen.add(value)
    return None


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    crowd: CrowdConfig = field(default_factory=CrowdConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    constants: PipelineConstants = field(default_factory=PipelineConstants)
    seeds: tuple[int, ...] = ()
    holdout_size: int = 20_000
    algorithm: str = "both"

    def __post_init__(self):
        if self.holdout_size < 1_000:
            raise ConfigError("holdout_size must be at least 1000")
        if self.algorithm not in ("boost", "natural", "both"):
            raise ConfigError("algorithm must be boost, natural or both")
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError(f"seeds must be non-negative, got {min(self.seeds)}")
        repeated = _first_repeat(self.seeds)
        if repeated is not None:
            raise ConfigError(f"seeds: {repeated} given more than once")

    @property
    def algorithms(self) -> tuple[str, ...]:
        return ("boost", "natural") if self.algorithm == "both" else (self.algorithm,)


@dataclass
class ReportRow:
    algorithm: str
    seed: int
    d: int
    epsilon: float
    delta: float
    alpha: float
    beta: float
    m_eps: int | float
    m_L: int | float
    m_C: int | float
    lambda_L: float
    lambda_C: float
    holdout_error: float
    p1_labels: int | float
    p1_comps: int | float
    p2_labels: int | float
    p2_comps: int | float
    p3_labels: int | float
    p3_comps: int | float
    flags: tuple[str, ...]
    wall_clock_ms: float

    def values(self) -> list:
        return [getattr(self, name) for name in CSV_COLUMNS]


def format_value(value) -> str:
    if isinstance(value, tuple):
        return ";".join(value)
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("boolean fields are not part of the report schema")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def render_row(row: ReportRow) -> str:
    return ",".join(format_value(v) for v in row.values())


def rendered_float(value: float) -> float:
    """The float a reader of the report file recovers."""
    return float(f"{float(value):.9g}")


def row_from_report(report: RunReport, cfg: ExperimentConfig) -> ReportRow:
    phases = list(report.phase_reports) + [None, None, None]
    labels = [p.labels_used if p else 0 for p in phases[:3]]
    comps = [p.comparisons_used if p else 0 for p in phases[:3]]
    return ReportRow(
        algorithm=report.algorithm,
        seed=report.seed,
        d=cfg.problem.dimension,
        epsilon=cfg.problem.target_error,
        delta=cfg.problem.confidence,
        alpha=cfg.crowd.alpha,
        beta=cfg.crowd.beta,
        m_eps=report.reference_sample_size,
        m_L=report.label_queries,
        m_C=report.comparison_queries,
        lambda_L=report.labeling_overhead,
        lambda_C=report.comparison_overhead,
        holdout_error=report.holdout_error,
        p1_labels=labels[0],
        p1_comps=comps[0],
        p2_labels=labels[1],
        p2_comps=comps[1],
        p3_labels=labels[2],
        p3_comps=comps[2],
        flags=tuple(report.flags),
        wall_clock_ms=report.wall_clock_ms,
    )


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

_CONFIG_KEYS = (
    "d", "epsilon", "delta", "vc_constant", "distribution",
    "alpha", "beta", "worker_model", "reliable_fraction", "reliable_accuracy",
    "adversary", "c2", "c_w", "c_b", "r_max_factor", "learner_solver",
    "walk_length", "per_round_confidence", "early_stop_target",
    "seeds", "holdout_size", "algorithm",
)


def _parse_scalar(raw: str, kind, fieldname: str):
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{fieldname}: cannot parse {raw!r}") from exc


def _parse_seeds(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw or raw == "none":
        return ()
    if ":" in raw:
        lo, hi = raw.split(":", 1)
        return tuple(range(_parse_scalar(lo, int, "seeds"), _parse_scalar(hi, int, "seeds")))
    return tuple(_parse_scalar(part.strip(), int, "seeds") for part in raw.split(",") if part.strip())


def parse_config_text(text: str) -> ExperimentConfig:
    values: dict[str, str] = {}
    given_at: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
        if key in given_at:
            raise ConfigError(f"config key {key!r} given twice (lines {given_at[key]} and {lineno})")
        values[key] = raw
        given_at[key] = lineno

    def take(key: str, default: str) -> str:
        return values.get(key, default)

    def optional(key: str, kind, fieldname: str):
        raw = values.get(key, "").strip()
        if raw in ("", "auto", "none"):
            return None
        return _parse_scalar(raw, kind, fieldname)

    dist_raw = take("distribution", "sphere")
    try:
        distribution = Distribution(dist_raw)
    except ValueError as exc:
        raise ConfigError(f"problem.distribution: unknown value {dist_raw!r}") from exc

    try:
        problem = ProblemConfig(
            dimension=_parse_scalar(take("d", "2"), int, "problem.dimension"),
            target_error=_parse_scalar(take("epsilon", "0.1"), float, "problem.target_error"),
            confidence=_parse_scalar(take("delta", "0.001"), float, "problem.confidence"),
            vc_constant=_parse_scalar(take("vc_constant", "2.0"), float, "problem.vc_constant"),
            distribution=distribution,
        )
    except ValueError as exc:
        # the dataclass messages already carry the dotted field name
        raise ConfigError(str(exc)) from exc

    worker_model = take("worker_model", "iid")
    pool = None
    if worker_model == "pool":
        adv_raw = take("adversary", "always_wrong")
        try:
            adversary = Adversary(adv_raw)
        except ValueError as exc:
            raise ConfigError(f"crowd.pool.adversary: unknown value {adv_raw!r}") from exc
        try:
            pool = PoolModel(
                reliable_fraction=_parse_scalar(
                    take("reliable_fraction", "1.0"), float, "crowd.pool.reliable_fraction"
                ),
                reliable_accuracy=_parse_scalar(
                    take("reliable_accuracy", "1.0"), float, "crowd.pool.reliable_accuracy"
                ),
                adversary=adversary,
            )
        except ValueError as exc:
            raise ConfigError(f"crowd.{exc}") from exc
    elif worker_model != "iid":
        raise ConfigError(f"crowd.worker_model: unknown value {worker_model!r}")
    else:
        for key in ("reliable_fraction", "reliable_accuracy", "adversary"):
            if key in values:
                raise ConfigError(f"crowd.pool.{key}: {key} needs worker_model = pool")

    try:
        crowd = CrowdConfig(
            alpha=_parse_scalar(take("alpha", "0.35"), float, "crowd.alpha"),
            beta=_parse_scalar(take("beta", "0.35"), float, "crowd.beta"),
            pool=pool,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        filter_cfg = FilterConfig(
            subsample_constant=_parse_scalar(take("c_b", "10.0"), float, "filter.subsample_constant"),
            walk_length=optional("walk_length", int, "filter.walk_length"),
            per_round_confidence=optional(
                "per_round_confidence", float, "filter.per_round_confidence"
            ),
            early_stop_target=optional("early_stop_target", int, "filter.early_stop_target"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        constants = PipelineConstants(
            phase2_sample_factor=_parse_scalar(take("c2", "4.0"), float, "constants.phase2_sample_factor"),
            mixture_size_factor=_parse_scalar(take("c_w", "2.0"), float, "constants.mixture_size_factor"),
            rejection_budget_factor=_parse_scalar(
                take("r_max_factor", "10.0"), float, "constants.rejection_budget_factor"
            ),
            learner_solver=take("learner_solver", "feasibility"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return ExperimentConfig(
        problem=problem,
        crowd=crowd,
        filter=filter_cfg,
        constants=constants,
        seeds=_parse_seeds(take("seeds", "")),
        holdout_size=_parse_scalar(take("holdout_size", "20000"), int, "holdout_size"),
        algorithm=take("algorithm", "both"),
    )


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; errors name the offending field."""
    return parse_config_text(Path(path).read_text())


def dump_config(cfg: ExperimentConfig) -> str:
    """Effective configuration, defaults included, reloadable verbatim."""
    lines = [
        f"d = {cfg.problem.dimension}",
        f"epsilon = {cfg.problem.target_error!r}",
        f"delta = {cfg.problem.confidence!r}",
        f"vc_constant = {cfg.problem.vc_constant!r}",
        f"distribution = {cfg.problem.distribution.value}",
        f"alpha = {cfg.crowd.alpha!r}",
        f"beta = {cfg.crowd.beta!r}",
    ]
    if cfg.crowd.pool is None:
        lines.append("worker_model = iid")
    else:
        lines += [
            "worker_model = pool",
            f"reliable_fraction = {cfg.crowd.pool.reliable_fraction!r}",
            f"reliable_accuracy = {cfg.crowd.pool.reliable_accuracy!r}",
            f"adversary = {cfg.crowd.pool.adversary.value}",
        ]
    lines += [
        f"c2 = {cfg.constants.phase2_sample_factor!r}",
        f"c_w = {cfg.constants.mixture_size_factor!r}",
        f"c_b = {cfg.filter.subsample_constant!r}",
        f"r_max_factor = {cfg.constants.rejection_budget_factor!r}",
        f"learner_solver = {cfg.constants.learner_solver}",
        f"walk_length = {'auto' if cfg.filter.walk_length is None else cfg.filter.walk_length}",
        "per_round_confidence = "
        + ("auto" if cfg.filter.per_round_confidence is None else repr(cfg.filter.per_round_confidence)),
        "early_stop_target = "
        + ("none" if cfg.filter.early_stop_target is None else str(cfg.filter.early_stop_target)),
        "seeds = " + ",".join(str(s) for s in cfg.seeds),
        f"holdout_size = {cfg.holdout_size}",
        f"algorithm = {cfg.algorithm}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _execute_trial(task) -> ReportRow:
    cfg, algorithm, seed = task
    if algorithm == "boost":
        report = run_boost(
            cfg.problem, cfg.crowd, cfg.constants, cfg.filter, seed, cfg.holdout_size
        )
    else:
        report = run_natural(cfg.problem, cfg.crowd, cfg.constants, seed, cfg.holdout_size)
    return row_from_report(report, cfg)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> list[ReportRow]:
    """One row per (algorithm, seed), deterministic per seed; flags annotate
    degenerate runs instead of aborting the batch."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    if not cfg.seeds:
        raise ConfigError("seeds must be nonempty")
    tasks = [(cfg, algorithm, seed) for algorithm in cfg.algorithms for seed in cfg.seeds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_execute_trial, tasks))
    else:
        rows = [_execute_trial(task) for task in tasks]
    rows.sort(key=lambda r: (r.algorithm, r.seed))
    return rows


def _summary_row(cell_rows: list[ReportRow]) -> ReportRow:
    """Aggregate of one (algorithm, epsilon) cell, computed from rendered
    values so the file alone suffices to recompute it."""
    cell_rows = sorted(cell_rows, key=lambda r: r.seed)
    n = len(cell_rows)

    def mean(name: str) -> float:
        return sum(rendered_float(getattr(r, name)) for r in cell_rows) / n

    def std(name: str) -> float:
        mu = mean(name)
        return math.sqrt(
            sum((rendered_float(getattr(r, name)) - mu) ** 2 for r in cell_rows) / n
        )

    first = cell_rows[0]
    flags = (
        "summary",
        f"n={n}",
        f"std_lambda_L={std('lambda_L'):.9g}",
        f"std_lambda_C={std('lambda_C'):.9g}",
        f"std_holdout_error={std('holdout_error'):.9g}",
    )
    return ReportRow(
        algorithm=first.algorithm,
        seed=SUMMARY_SEED,
        d=first.d,
        epsilon=first.epsilon,
        delta=first.delta,
        alpha=first.alpha,
        beta=first.beta,
        m_eps=first.m_eps,
        m_L=mean("m_L"),
        m_C=mean("m_C"),
        lambda_L=mean("lambda_L"),
        lambda_C=mean("lambda_C"),
        holdout_error=mean("holdout_error"),
        p1_labels=mean("p1_labels"),
        p1_comps=mean("p1_comps"),
        p2_labels=mean("p2_labels"),
        p2_comps=mean("p2_comps"),
        p3_labels=mean("p3_labels"),
        p3_comps=mean("p3_comps"),
        flags=flags,
        wall_clock_ms=mean("wall_clock_ms"),
    )


def sweep(cfg: ExperimentConfig, epsilons, jobs: int = 1) -> list[ReportRow]:
    """Cross the base config with each target error; per-cell mean/stddev
    summary rows (seed = -1, flagged "summary") are appended after the
    detail rows."""
    epsilons = list(epsilons)
    if not epsilons:
        raise ConfigError("epsilons must be nonempty")
    for eps in epsilons:
        if not (0.0 < eps < 1.0):
            raise ConfigError(f"epsilons: {eps} outside (0, 1)")
    repeated = _first_repeat(epsilons)
    if repeated is not None:
        raise ConfigError(f"epsilons: {repeated} given more than once")
    details: list[ReportRow] = []
    summaries: list[ReportRow] = []
    for eps in epsilons:
        cell_cfg = replace(cfg, problem=replace(cfg.problem, target_error=eps))
        rows = run_experiment(cell_cfg, jobs=jobs)
        details.extend(rows)
        for algorithm in cell_cfg.algorithms:
            summaries.append(_summary_row([r for r in rows if r.algorithm == algorithm]))
    return details + summaries


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def rows_to_csv(rows: list[ReportRow]) -> str:
    return "\n".join([CSV_HEADER] + [render_row(r) for r in rows]) + "\n"


def row_to_dict(row: ReportRow) -> dict:
    out = {}
    for name, value in zip(CSV_COLUMNS, row.values()):
        if isinstance(value, tuple):
            out[name] = ";".join(value)
        elif isinstance(value, (float, np.floating)):
            out[name] = rendered_float(value)
        else:
            out[name] = int(value) if isinstance(value, (int, np.integer)) else value
    return out


def rows_to_json(rows: list[ReportRow]) -> str:
    return json.dumps([row_to_dict(r) for r in rows], indent=2) + "\n"


def write_report(rows: list[ReportRow], out_path, cfg: ExperimentConfig) -> Path:
    """Write rows and echo the effective config next to them.  A path ending
    in .json selects the JSON variant; anything else is treated as a
    directory receiving report.csv."""
    out_path = Path(out_path)
    if out_path.suffix == ".json":
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(rows_to_json(rows))
        config_path = out_path.with_suffix(".effective.cfg")
        report_path = out_path
    else:
        out_path.mkdir(parents=True, exist_ok=True)
        report_path = out_path / "report.csv"
        report_path.write_text(rows_to_csv(rows))
        config_path = out_path / "effective_config.cfg"
    config_path.write_text(dump_config(cfg))
    return report_path
