"""Crowd-oracle halfspace learning: simulation library and experiment harness."""

from .analytic import (
    WalkSpec,
    hoeffding_majority_bound,
    majority_error_exact,
    ruin_probability,
)
from .compare_label import SortedLabeledSet, compare_and_label, noisy_quicksort, threshold_search
from .filtering import (
    FilterConfig,
    FilterOutcome,
    SupportPair,
    default_walk_length,
    filter_mistakes,
    pick_support,
)
from .geometry import (
    Distribution,
    Halfspace,
    ProblemConfig,
    random_unit_vector,
    sample_instances,
    sample_size,
)
from .harness import ExperimentConfig, ReportRow, load_config, run_experiment, sweep
from .learner import LearnResult, learn_consistent
from .oracles import (
    Adversary,
    CrowdConfig,
    CrowdOracle,
    PoolModel,
    QueryLedger,
    vote_sizes,
)
from .pipeline import (
    MajorityVote,
    PhaseReport,
    PipelineConstants,
    RunReport,
    overheads,
    phase1,
    phase2,
    phase3,
    run_boost,
    run_natural,
)

__version__ = "0.1.0"
