"""Experiment configuration, seeded batch execution, sweeps, and reports.

Configs are flat `key = value` text files (`#` comments allowed).  Every
key lives in one table, ``_CONFIG_KEYS``: its name, the dotted field it sets,
its parser and the word that stands for None.  Parsing, dumping and the
error messages all read that table; an omitted key takes the dataclass
default, and the effective config can be dumped back out, re-read, and
compared for provenance.  Each (algorithm, seed) pair runs on its own random
stream, so results are reproducible row by row and adding seeds never
changes existing rows.  Reports are CSV by default, JSON when
the output path ends in ``.json``; floats are rendered with 9 significant
digits and summary statistics are computed from the rendered values so they
can be re-derived bit-exactly from the emitted file.
"""

from __future__ import annotations

import enum
import json
import math
import multiprocessing
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .filtering import FilterConfig
from .geometry import Distribution, ProblemConfig
from .oracles import Adversary, CrowdConfig, PoolModel
from .pipeline import PipelineConstants, RunReport, run_boost, run_natural

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
    """One report line; its fields, in order, are the CSV columns."""

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


CSV_COLUMNS = tuple(f.name for f in fields(ReportRow))
CSV_HEADER = ",".join(CSV_COLUMNS)
# the per-seed outcomes, which a sweep's summary row averages over its cell
_AVERAGED = (
    "m_L", "m_C", "lambda_L", "lambda_C", "holdout_error", "p1_labels", "p1_comps",
    "p2_labels", "p2_comps", "p3_labels", "p3_comps", "wall_clock_ms",
)


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
    per_phase = {}
    for i, phase in enumerate(phases[:3], start=1):
        per_phase[f"p{i}_labels"] = phase.labels_used if phase else 0
        per_phase[f"p{i}_comps"] = phase.comparisons_used if phase else 0
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
        **per_phase,
        flags=tuple(report.flags),
        wall_clock_ms=report.wall_clock_ms,
    )


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------


class _Key(NamedTuple):
    name: str  # as written in the config file
    field: str  # dotted field of ExperimentConfig
    parse: Callable[[str], object]
    none: str | None = None  # how None is written, for fields that may be None


def _parse_seeds(raw: str) -> tuple[int, ...]:
    if raw in ("", "none"):
        return ()
    if ":" in raw:
        lo, hi = raw.split(":", 1)
        return tuple(range(int(lo), int(hi)))
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _parse_worker_model(raw: str) -> str:
    if raw not in ("iid", "pool"):
        raise ValueError(raw)
    return raw


# Every config key, in the order dump_config writes them; worker_model comes
# before the crowd.pool keys it enables.  Omitted keys take the dataclass
# defaults.
_CONFIG_KEYS = (
    _Key("d", "problem.dimension", int),
    _Key("epsilon", "problem.target_error", float),
    _Key("delta", "problem.confidence", float),
    _Key("vc_constant", "problem.vc_constant", float),
    _Key("distribution", "problem.distribution", Distribution),
    _Key("alpha", "crowd.alpha", float),
    _Key("beta", "crowd.beta", float),
    _Key("worker_model", "crowd.worker_model", _parse_worker_model),
    _Key("reliable_fraction", "crowd.pool.reliable_fraction", float),
    _Key("reliable_accuracy", "crowd.pool.reliable_accuracy", float),
    _Key("adversary", "crowd.pool.adversary", Adversary),
    _Key("c2", "constants.phase2_sample_factor", float),
    _Key("c_w", "constants.mixture_size_factor", float),
    _Key("c_b", "filter.subsample_constant", float),
    _Key("r_max_factor", "constants.rejection_budget_factor", float),
    _Key("walk_length", "filter.walk_length", int, none="auto"),
    _Key("per_round_confidence", "filter.per_round_confidence", float, none="auto"),
    _Key("early_stop_target", "filter.early_stop_target", int, none="none"),
    _Key("seeds", "seeds", _parse_seeds),
    _Key("holdout_size", "holdout_size", int),
    _Key("algorithm", "algorithm", str),
)


def _parse(raw: str, kind, name: str):
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {raw!r}") from exc


def _read(key: _Key, raw: str):
    if key.none is not None and raw in ("", "auto", "none"):
        return None
    return _parse(raw, key.parse, key.field)


def parse_config_text(text: str) -> ExperimentConfig:
    names = {key.name for key in _CONFIG_KEYS}
    given: dict[str, tuple[str, int]] = {}  # key -> (raw value, line number)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        name, raw = (part.strip() for part in line.split("=", 1))
        if name not in names:
            raise ConfigError(f"unknown config key {name!r} (line {lineno})")
        if name in given:
            raise ConfigError(f"config key {name!r} given twice (lines {given[name][1]} and {lineno})")
        given[name] = raw, lineno

    values: dict[str, object] = {}  # dotted field -> value
    for key in _CONFIG_KEYS:
        if key.name not in given:
            continue
        if key.field.startswith("crowd.pool.") and values.get("crowd.worker_model") != "pool":
            raise ConfigError(f"{key.field}: {key.name} needs worker_model = pool")
        values[key.field] = _read(key, given[key.name][0])
    with_pool = values.pop("crowd.worker_model", None) == "pool"
    sections: dict[str, dict] = defaultdict(dict)  # "" holds the top-level fields
    for dotted, value in values.items():
        section, _, name = dotted.rpartition(".")
        sections[section][name] = value

    try:
        # the dataclass messages already carry the dotted field name
        pool = PoolModel(**sections["crowd.pool"]) if with_pool else None
        problem = ProblemConfig(**sections["problem"])
        crowd = CrowdConfig(**sections["crowd"], pool=pool)
        filter_cfg = FilterConfig(**sections["filter"])
        constants = PipelineConstants(**sections["constants"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(
        problem=problem, crowd=crowd, filter=filter_cfg, constants=constants, **sections[""]
    )


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; errors name the offending field."""
    return parse_config_text(Path(path).read_text())


def override(cfg: ExperimentConfig, **raw: str) -> ExperimentConfig:
    """``cfg`` with top-level keys (seeds, holdout_size, algorithm) replaced
    by raw values, parsed and checked as in a config file."""
    keys = {key.name: key for key in _CONFIG_KEYS if "." not in key.field}
    return replace(cfg, **{keys[name].field: _read(keys[name], value) for name, value in raw.items()})


def _config_value(value, none: str | None) -> str:
    if value is None:
        return none
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def dump_config(cfg: ExperimentConfig) -> str:
    """Effective configuration, defaults included, reloadable verbatim."""
    lines = []
    for key in _CONFIG_KEYS:
        *path, name = key.field.split(".")
        owner = reduce(getattr, path, cfg)
        if owner is not None:  # None: the crowd.pool keys of an iid crowd
            lines.append(f"{key.name} = {_config_value(getattr(owner, name), key.none)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _execute_trial(task) -> ReportRow:
    cfg, algorithm, seed = task
    if algorithm == "boost":
        report = run_boost(cfg.problem, cfg.crowd, cfg.constants, cfg.filter, seed, cfg.holdout_size)
    else:
        report = run_natural(cfg.problem, cfg.crowd, seed, cfg.holdout_size)
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
        # spawned, not forked: a fork copies a process whose BLAS threads already run
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
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

    stds = (f"std_{name}={std(name):.9g}" for name in ("lambda_L", "lambda_C", "holdout_error"))
    return replace(
        cell_rows[0],
        seed=SUMMARY_SEED,
        flags=("summary", f"n={n}", *stds),
        **{name: mean(name) for name in _AVERAGED},
    )


def sweep(cfg: ExperimentConfig, epsilons, jobs: int = 1) -> list[ReportRow]:
    """Cross the base config with each target error (numbers or their text);
    per-cell mean/stddev summary rows (seed = -1, flagged "summary") are
    appended after the detail rows."""
    epsilons = [_parse(eps, float, "epsilons") for eps in epsilons]
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
