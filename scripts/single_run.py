#!/usr/bin/env python3
"""One seeded trial of each algorithm with the per-phase query breakdown.

    python scripts/single_run.py --epsilon 0.04 --seed 0
"""

import argparse

from crowdpac.filtering import FilterConfig
from crowdpac.geometry import ProblemConfig
from crowdpac.oracles import CrowdConfig
from crowdpac.pipeline import PipelineConstants, run_boost, run_natural


def describe(report):
    print(f"{report.algorithm} seed={report.seed}: holdout error {report.holdout_error:.5f}, "
          f"labels {report.label_queries}, comparisons {report.comparison_queries}, "
          f"lam_L {report.labeling_overhead:.3f}, lam_C {report.comparison_overhead:.1f}, "
          f"{report.wall_clock_ms:.0f} ms")
    for phase in report.phase_reports:
        flagged = f"  flags: {phase.flags}" if phase.flags else ""
        print(f"  {phase.name}: labels {phase.labels_used}, comparisons "
              f"{phase.comparisons_used}, sizes {phase.sample_sizes}{flagged}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", type=float, default=0.04)
    parser.add_argument("--alpha", type=float, default=0.35)
    parser.add_argument("--beta", type=float, default=0.35)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--holdout", type=int, default=20_000)
    args = parser.parse_args()

    problem = ProblemConfig(dimension=args.d, target_error=args.epsilon)
    crowd = CrowdConfig(alpha=args.alpha, beta=args.beta)

    describe(run_boost(problem, crowd, PipelineConstants(), FilterConfig(), args.seed, args.holdout))
    print()
    describe(run_natural(problem, crowd, args.seed, args.holdout))


if __name__ == "__main__":
    main()
