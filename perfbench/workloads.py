"""Workload specifications and the mapping from a benchmark seed to inputs.

Pure data: importing this module does not import picardlab, so the parent
process of the benchmark can validate arguments without paying the import.

Each spec is one of two kinds:

* ``mc`` -- one timed call is ``run_experiment`` on ``samples`` sign draws
  followed by ``emit_report``; inputs are the band-limited datum of the
  experiment config and the base seed.
* ``oracle`` -- one timed call is ``reconstruct_iterate`` and the direct
  ``picard_iterate`` at every level in ``levels``, on the 4-block datum and
  one fixed sign draw.

The workload seed selects one of ``INPUT_SETS`` input sets: base seed
``2026 + k`` (mc) or draw ``(99, 1 + k)`` (oracle) with ``k = seed mod
INPUT_SETS``.  Reference norms for every input set are stored in
``reference.json``, so any seed can be checked against the seed commit.
"""

from __future__ import annotations

import math

INPUT_SETS = 32
MC_BASE_SEED = 2026
ORACLE_DRAW_SEED = 99
ORACLE_DRAW_INDEX = 1

# Relative tolerance of every tracked norm against the stored reference, and
# the largest accepted tree-vs-direct relative Linf-L2 discrepancy.
NORM_RTOL = 1e-13
ORACLE_TOL = 1e-12

# A run keeps starting timed calls until it has at least MIN_CALLS and the
# next one would end past --seconds.
MIN_CALLS = 3
# Set-up is measured in this many set-up-only processes plus every process
# that makes a timed call; the reported value is the median.
SETUP_REPEATS = 5

_MC_COMMON = dict(box_length=16.0 * math.pi, t_final=0.2, band=2.0,
                  h1_norm=1.0, data_seed=7, d_choice="x1")

SPECS = {
    # Criterion-9 reference config (128^2, 65 nodes, n <= 3); one sample per
    # call so that a run holds several calls.
    "ref128": dict(kind="mc", n_points=128, n_steps=64, n_max=3, samples=1,
                   **_MC_COMMON),
    # Per-sample config of criteria 10 and 11 (64^2, 33 nodes, n <= 1).
    "ens64": dict(kind="mc", n_points=64, n_steps=32, n_max=1, samples=16,
                  **_MC_COMMON),
    # Criterion-4 grid, box, datum, draw and T; 17 nodes instead of 129 so
    # that one call (both levels) takes seconds rather than a minute.
    "oracle_tree": dict(kind="oracle", n_points=64, box_length=8.0 * math.pi,
                        t_final=0.5, n_steps=16, levels=(1, 2), d_choice="x1"),
    # Toy sizes for selftest.py only; not listed in BENCHMARK.json.
    "toy_mc": dict(kind="mc", n_points=32, n_steps=16, n_max=1, samples=4,
                   **dict(_MC_COMMON, box_length=8.0 * math.pi)),
    "toy_oracle": dict(kind="oracle", n_points=32, box_length=8.0 * math.pi,
                       t_final=0.5, n_steps=16, levels=(1,), d_choice="x1"),
}


def input_set(seed: int) -> int:
    """Index of the input set a benchmark seed selects."""
    return int(seed) % INPUT_SETS


def series_bytes(spec: dict) -> int:
    """Bytes of one complex128 time series of the workload's grid."""
    return (spec["n_steps"] + 1) * spec["n_points"] ** 2 * 16
