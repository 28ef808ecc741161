"""Benchmark workloads: one `RunConfig` override set each.

A benchmark run of a workload simulates three suites, with master seeds
derived from the benchmark's `--seed` (`suite_seeds`).  The suites are
scaled down from the paper's 5720-step, 5 m-map scenario so that three
simulations and a detect/evaluate cycle over them fit in one benchmark
run; the parameters that decide which code paths run are kept.

  default  `RunConfig()` apart from the scale: 72 folds with the paper's
           windowing, 2-grams, k=35 and localizer settings.  Suite load,
           featurize, the 2-gram localizer and fold writes take most of
           detect; k-NN takes a few percent at this scale.
  dense    twice the UEs per cell in 3 chunks (three quarters of the
           steps): 18 folds of larger train x test blocks, so the
           quadratic k-NN weighs most and per-fold fixed costs least.
           Highest duplicate-row share.
  wide     half the steps, 3-grams, 30/6 windows, 10 minor components,
           `gram_scope=all` and location-mode symmetry: the non-default
           branches of featurize and localize, and the lowest
           duplicate-row share.
  smoke    the tiny configuration of acceptance test A7; runs the whole
           harness in seconds.  For the benchmark's own test only.
"""

from __future__ import annotations

# Scale shared by the benchmark workloads: a fifth of the paper's steps
# on a 10 m map (the paper uses 5720 steps on 5 m).
_SCALE = {"duration_steps": 1144, "map_resolution_m": 10.0}

WORKLOADS: dict[str, dict] = {
    "default": {**_SCALE},
    "dense": {**_SCALE, "duration_steps": 858, "ues_per_cell": 30, "n_chunks": 3},
    "wide": {
        **_SCALE,
        "duration_steps": 572,
        "ngram_n": 3,
        "window_m": 30,
        "window_n": 6,
        "minor_components": 10,
        "gram_scope": "all",
        "symmetry_mode": "location",
    },
    "smoke": {"ues_per_cell": 3, "duration_steps": 800, "map_resolution_m": 10.0, "knn_k": 5},
}

# Seed whose outputs are pinned in pinned.json.
DEFAULT_SEED = 42
# Suites per run.  The simulated work varies by up to a fifth between
# master seeds (the faulty cell's shadowed area sets how many records
# the fault adds), so each run averages several suites.
SUITES_PER_RUN = 3


def suite_seeds(seed: int) -> list[int]:
    """Master seeds of the suites one benchmark run uses; the first is the seed itself."""
    return [int(seed) + 1000 * i for i in range(SUITES_PER_RUN)]


def config_for(workload: str, master_seed: int) -> dict:
    """The JSON config the CLI receives for one workload and suite."""
    return {**WORKLOADS[workload], "master_seed": int(master_seed)}
