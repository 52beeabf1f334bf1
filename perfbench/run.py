"""crowdpac benchmark: seeded trials through the public API the CLI uses.

Run from the repository root:

    python3 perfbench/run.py --workload natural-sort-d2 --seed 0 --seconds 30 --trace 0

Each trial is one ``harness.run_experiment`` call on one seed (``jobs=1``) of
a config parsed by ``harness.parse_config_text`` from the workload's text.
Trials run back to back in this process (a closed loop with one client) until
the workload's seeded batch is done and ``--seconds`` have passed.  Every row
is checked; a trial that raises or fails a check counts as failed, with its
reason.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every seed
twice, untraced and traced (alternating which goes first), and prints the
per-layer metrics from the spans in ``spans.py``, after an exact query
reconciliation of every traced trial.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the full
report and the spans go to ``perfbench/out/``.
"""

import os

# One BLAS/OpenMP thread for this process and its children, set before numpy
# loads; the program itself leaves thread counts alone.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import PER_LAYER, Tracer, per_layer_metrics, reconcile  # noqa: E402
from workloads import BATCH, WORKLOADS, trial_seed, warmup_seed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 4  # fresh processes timed for setup_s, besides this one
MAX_LOOP_S = 140.0  # stop starting trials after this long, batch done or not
REF_LOOP = 30_000  # iterations of the reference loop, about 2 ms

# Every end-to-end metric the runner prints.  BENCHMARK.json gates a subset:
# the rest vary too much between workload seeds on a shared 2-core machine,
# or are zero on these workloads (see README.md).
END_TO_END = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "trial_ref_p50": "ref_loops",
    "trial_ref_p90": "ref_loops",
    "setup_s": "s",
    "rss_peak_mb": "MB",
    "lambda_L": "labels/sample",
    "lambda_C": "comps/sample",
    "holdout_error_mean": "share",
    "flagged_share": "share",
    "failed_share": "share",
}


def setup(config_text: str, seed: int):
    """Import the program from this checkout, parse the workload config and
    run one warm-up trial on a seed outside the measured set (this pays the
    lazy load of scipy's HiGHS).  Returns (harness, config, seconds)."""
    start = time.perf_counter()
    if not (SRC / "crowdpac" / "__init__.py").is_file():
        raise SystemExit(f"crowdpac sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    harness = importlib.import_module("crowdpac.harness")
    if not Path(harness.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"crowdpac imported from {harness.__file__}, not from {SRC}")
    cfg = harness.parse_config_text(config_text)
    harness.run_experiment(replace(cfg, seeds=(warmup_seed(seed),)), jobs=1)
    return harness, cfg, time.perf_counter() - start


def probe_setup(args) -> list[float]:
    """setup() timed in fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise SystemExit(f"setup probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def reference_ms() -> float:
    """Wall time of a fixed pure-Python loop.  Timed next to each trial, it
    tells how fast the shared machine runs at that moment: the vCPU speed
    swings by up to 2x within seconds, for reasons outside this process."""
    start = time.perf_counter()
    x = 0
    for i in range(REF_LOOP):
        x += i * i
    return (time.perf_counter() - start) * 1e3


def run_trial(harness, cfg, seed: int) -> dict:
    trial_cfg = replace(cfg, seeds=(seed,))
    start = time.perf_counter()
    rows = harness.run_experiment(trial_cfg, jobs=1)
    outer_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    csv = harness.rows_to_csv(rows)
    render_ms = (time.perf_counter() - start) * 1e3
    return {"seed": seed, "rows": rows, "csv": csv, "outer_ms": outer_ms, "render_ms": render_ms}


def check_trial(harness, trial: dict) -> list[str]:
    """Output checks on one trial's rows and their CSV rendering."""
    rows, problems = trial["rows"], []
    lines = trial["csv"].splitlines()
    if not lines or lines[0] != harness.CSV_HEADER or len(lines) != 1 + len(rows):
        problems.append("rows_to_csv: expected CSV_HEADER plus one line per row")
    if len(rows) != 1:
        return problems + [f"expected 1 row, got {len(rows)}"]
    row = rows[0]
    if row.p1_labels + row.p2_labels + row.p3_labels != row.m_L:
        problems.append("per-phase labels do not sum to m_L")
    if row.p1_comps + row.p2_comps + row.p3_comps != row.m_C:
        problems.append("per-phase comparisons do not sum to m_C")
    if row.lambda_L != row.m_L / row.m_eps:
        problems.append("lambda_L != m_L / m_eps")
    if row.lambda_C != row.m_C / row.m_eps:
        problems.append("lambda_C != m_C / m_eps")
    if not row.holdout_error <= row.epsilon:
        problems.append(f"holdout_error {row.holdout_error} > epsilon {row.epsilon}")
    return problems


def same_row(a, b) -> bool:
    """Rows equal in every column except wall_clock_ms."""
    return replace(a, wall_clock_ms=0.0) == replace(b, wall_clock_ms=0.0)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args) -> dict:
    numpy = importlib.import_module("numpy")
    scipy = importlib.import_module("scipy")
    return {
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Runner:
    """Runs the trial loop and keeps the failures, each with its reason."""

    def __init__(self, harness, cfg, args):
        self.harness, self.cfg, self.args = harness, cfg, args
        self.attempted = 0
        self.failed = 0
        self.failures: list[tuple[int, str]] = []

    def fail(self, seed: int, reasons: list[str]) -> None:
        self.failed += 1
        self.failures.extend((seed, reason) for reason in reasons)

    def attempt(self, seed: int, tracer=None, trial_id: int = -1) -> dict | None:
        """One checked trial, traced when a tracer is given; None if it failed."""
        self.attempted += 1
        first_span = len(tracer.spans) if tracer else 0
        try:
            if tracer is None:
                trial = run_trial(self.harness, self.cfg, seed)
            else:
                with tracer.tracing(trial_id):
                    trial = run_trial(self.harness, self.cfg, seed)
        except Exception as exc:  # a trial that raises is a failed trial, not a crashed benchmark
            self.fail(seed, [f"raised {type(exc).__name__}: {exc}"])
            return None
        problems = check_trial(self.harness, trial)
        if problems:
            self.fail(seed, problems)
            return None
        row = trial["rows"][0]
        trial["flagged"] = bool(row.flags)
        if tracer is not None:
            trial["spans"] = tracer.spans[first_span:]
            mismatches = reconcile(trial["spans"], int(row.m_L), int(row.m_C))
            if mismatches:
                # failed, but kept: the layers that are still wrapped stay measured
                self.fail(seed, mismatches)
        return trial

    def keep_going(self, i: int, start: float) -> bool:
        elapsed = time.perf_counter() - start
        if elapsed > MAX_LOOP_S:
            return False
        return i < BATCH or elapsed < self.args.seconds

    def rerun_matches(self, first: dict) -> None:
        """Run the first seed again; the row must repeat except wall_clock_ms."""
        again = self.attempt(first["seed"])
        if again is not None and not same_row(first["rows"][0], again["rows"][0]):
            self.fail(first["seed"], ["rerun row differs"])

    def batch_done(self, i: int) -> None:
        if i < BATCH:
            self.failures.append((-1, f"batch incomplete: {i} of {BATCH} trials"))


def measure_end_to_end(runner: Runner, setup_samples: list[float]):
    trials, start, i = [], time.perf_counter(), 0
    batch = []
    while runner.keep_going(i, start):
        before = reference_ms()
        trial = runner.attempt(trial_seed(runner.args.seed, i))
        after = reference_ms()
        if trial is not None:
            trial["ref_ms"] = (before + after) / 2
            trials.append(trial)
            if i < BATCH:
                batch.append(trial)
        i += 1
    runner.batch_done(i)
    if trials:
        runner.rerun_matches(trials[0])
    ms = [t["outer_ms"] for t in trials]
    rel = [t["outer_ms"] / t["ref_ms"] for t in trials]
    rows = [t["rows"][0] for t in batch]
    metrics = {
        "trials_per_s": len(ms) / (sum(ms) / 1e3) if ms else 0.0,
        "trial_ms_p50": statistics.median(ms) if ms else 0.0,
        "trial_ms_p90": statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else 0.0,
        "trial_ref_p50": statistics.median(rel) if rel else 0.0,
        "trial_ref_p90": statistics.quantiles(rel, n=10)[8] if len(rel) >= 2 else 0.0,
        "setup_s": statistics.median(setup_samples),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "lambda_L": statistics.fmean(r.lambda_L for r in rows) if rows else 0.0,
        "lambda_C": statistics.fmean(r.lambda_C for r in rows) if rows else 0.0,
        "holdout_error_mean": statistics.fmean(r.holdout_error for r in rows) if rows else 0.0,
        "flagged_share": statistics.fmean(t["flagged"] for t in batch) if batch else 0.0,
        "failed_share": runner.failed / runner.attempted,
    }
    counts = {"timed_trials": len(ms), "batch_trials": len(batch),
              "setup_samples": [round(s, 4) for s in setup_samples],
              "trial_ms": [round(t, 3) for t in ms],
              "ref_ms": [round(t["ref_ms"], 4) for t in trials]}
    return metrics, counts


def measure_per_layer(runner: Runner):
    modules = {name: importlib.import_module(f"crowdpac.{name}")
               for name in ("harness", "pipeline", "filtering", "compare_label")}
    tracer = Tracer(modules)
    traced, untraced_ms, start, i = [], [], time.perf_counter(), 0
    batch = []
    while runner.keep_going(i, start):
        seed = trial_seed(runner.args.seed, i)
        pair = {}
        for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
            pair[traced_run] = runner.attempt(seed, tracer if traced_run else None, i)
        plain, spanned = pair[False], pair[True]
        if plain is not None and spanned is not None:
            if not same_row(plain["rows"][0], spanned["rows"][0]):
                runner.fail(seed, ["traced row differs from untraced row"])
            else:
                untraced_ms.append(plain["outer_ms"])
                traced.append(spanned)
                if i < BATCH:
                    batch.append(spanned)
        i += 1
    runner.batch_done(i)
    if traced:
        runner.rerun_matches(traced[0])
    metrics = per_layer_metrics(batch, traced)
    base = statistics.median(untraced_ms) if untraced_ms else 0.0
    traced_median = statistics.median(t["outer_ms"] for t in traced) if traced else 0.0
    metrics["trace.overhead_share"] = traced_median / base if base else 0.0
    metrics["trace.base_ms"] = base
    missing = sorted(set(tracer.absent) | tracer.broken)
    metrics["trace.absent_wraps"] = float(len(missing))
    counts = {"traced_trials": len(traced), "batch_trials": len(batch), "absent_layers": missing}
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{runner.args.workload}-seed{runner.args.seed}-spans.jsonl"
    with spans_path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.as_dict()) + "\n")
    return metrics, counts


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    config_text = WORKLOADS[args.workload]

    if args.setup_probe:
        print(setup(config_text, args.seed)[2])
        return 0

    units = {n: u for n, (u, _) in PER_LAYER.items()} if args.trace else END_TO_END
    declared = declared_metrics(args.trace)
    if any(units.get(name) != unit for name, unit in declared.items()):
        raise SystemExit("BENCHMARK.json declares a metric this runner does not report")

    setup_samples = [] if args.trace else probe_setup(args)
    harness, cfg, own_setup = setup(config_text, args.seed)
    setup_samples.append(own_setup)
    runner = Runner(harness, cfg, args)
    if args.trace:
        metrics, counts = measure_per_layer(runner)
    else:
        metrics, counts = measure_end_to_end(runner, setup_samples)

    info = provenance(args)
    print(f"provenance: {json.dumps(info)}")
    brief = {k: v for k, v in counts.items() if k not in ("trial_ms", "ref_ms")}
    print(f"trials: attempted {runner.attempted}, failed {runner.failed}, {json.dumps(brief)}")
    for seed, reason in runner.failures:
        print(f"FAILED seed {seed}: {reason}")
    for name in counts.get("absent_layers", []):
        print(f"absent layer: {name}")
    for name, value in metrics.items():
        if args.trace:
            note = f"  [moves {PER_LAYER[name][1]}]"
        else:
            note = "" if name in declared else "  [printed only, not gated]"
        print(f"{name} = {value:.6g} {units[name]}{note}")

    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    report = {**result, "all_metrics": metrics, "counts": counts, "provenance": info,
              "failures": [{"seed": s, "reason": r} for s, r in runner.failures]}
    report_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
