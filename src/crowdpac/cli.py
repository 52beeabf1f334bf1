"""Command-line front end: run experiments, sweep target errors, verify the
analytic oracles, and print effective defaults.

Exit codes: 0 success, 1 validation error (or failed verification),
2 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .analytic import run_verification
from .harness import (
    ConfigError,
    ExperimentConfig,
    dump_config,
    load_config,
    override,
    run_experiment,
    sweep,
    write_report,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdpac",
        description="Crowd-oracle halfspace learning experiments with query accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", required=True,
                       help="output directory (or a .json path for JSON rows)")
        p.add_argument("--algorithm", choices=["boost", "natural", "both"],
                       help="override the configured algorithm")
        seeds = p.add_mutually_exclusive_group()
        seeds.add_argument("--seeds", type=int,
                           help="run seeds 0..N-1, overriding the config")
        seeds.add_argument("--seed-list",
                           help='seeds as in a config file ("3,5,8" or "0:10"), overriding the config')
        p.add_argument("--jobs", type=int, default=1, help="parallel workers")

    run_p = sub.add_parser("run", help="run one experiment batch")
    add_run_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="run the batch across several target errors")
    add_run_flags(sweep_p)
    sweep_p.add_argument("--epsilons", required=True,
                         help='comma-separated target errors, e.g. "0.1,0.05,0.025"')

    verify_p = sub.add_parser("verify", help="check the analytic oracles")
    verify_p.add_argument("--grid", choices=["small", "full"], default="small")
    verify_p.add_argument("--seed", type=int, default=0)

    sub.add_parser("show-config", help="print the effective default config")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed_list:
        cfg = override(cfg, seeds=args.seed_list)
    elif args.seeds is not None:
        cfg = replace(cfg, seeds=tuple(range(args.seeds)))
    if args.algorithm:
        cfg = replace(cfg, algorithm=args.algorithm)
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; report those as validation errors
        return 0 if exc.code == 0 else 1

    try:
        if args.command == "show-config":
            print(dump_config(ExperimentConfig()), end="")
            return 0

        if args.command == "verify":
            results = run_verification(grid=args.grid, seed=args.seed)
            for check in results:
                status = "PASS" if check.passed else "FAIL"
                print(f"{status}  {check.name}: {check.detail}")
            failed = sum(not check.passed for check in results)
            print(f"{len(results) - failed}/{len(results)} checks passed")
            return 0 if failed == 0 else 1

        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "run":
            rows = run_experiment(cfg, jobs=args.jobs)
        else:
            epsilons = [part for part in args.epsilons.split(",") if part.strip()]
            rows = sweep(cfg, epsilons, jobs=args.jobs)
        path = write_report(rows, args.out, cfg)
        print(f"wrote {len(rows)} rows to {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
