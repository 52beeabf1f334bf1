"""The benchmark's workloads: the config text handed to the program.

Each workload is a flat crowdpac config (the format ``crowdpac run --config``
reads) without seeds; the runner derives the trial seeds from its own
``--seed`` argument.  ``BATCH`` is the stated size of the seeded batch: the
quality and count metrics are taken over exactly these trials, so they repeat
exactly for a given workload seed.  Why each workload was chosen is stated in
BENCHMARK.json.
"""

# Trials in the seeded batch of every workload.
BATCH = 100

_D2 = "d = 2\nepsilon = 0.01\nalpha = 0.35\nbeta = 0.35\ndistribution = sphere\nworker_model = iid\n"

WORKLOADS = {
    "natural-sort-d2": _D2 + "algorithm = natural\n",
    "boost-filter-d2": _D2 + "algorithm = boost\n",
    "boost-pool-d20": "d = 20\nepsilon = 0.1\nalpha = 0.35\nbeta = 0.35\ndistribution = sphere\n"
    "worker_model = pool\nreliable_fraction = 0.9\nreliable_accuracy = 0.95\n"
    "adversary = random_flip\nalgorithm = boost\n",
}

# Trial seeds of workload seed s are s * SEED_STRIDE + i for i < SEED_STRIDE - 1;
# the last seed of each block is the warm-up trial, outside the measured set.
SEED_STRIDE = 10_000


def trial_seed(workload_seed: int, i: int) -> int:
    if not 0 <= i < SEED_STRIDE - 1:
        raise ValueError(f"trial index {i} outside the seed block")
    return workload_seed * SEED_STRIDE + i


def warmup_seed(workload_seed: int) -> int:
    return workload_seed * SEED_STRIDE + SEED_STRIDE - 1
