"""Regenerate the golden outputs of tests/test_golden.py.

Each run below writes its rows.csv and summary.json into its own directory
here, and provenance.json records the numpy version and machine type they
were made with (the bytes of the FFTs may depend on both).  Run from the
repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

A change that moves these bytes on purpose regenerates them, bumps the
package version and says so in CHANGES.md.
"""

import json
import platform
from pathlib import Path

import numpy as np

from picardlab.harness import ExperimentConfig, emit_report, run_experiment

HERE = Path(__file__).resolve().parent

# 64^2, 17 nodes, n <= 2, 8 samples: a band-limited datum with d = d/dx1,
# whose modes all lie in the 2/3 box, and a Gaussian datum with d = d/dt,
# whose modes outside the box take the march's gap path
RUNS = {
    "band_x1": ExperimentConfig(n_points=64, n_steps=16, n_max=2, samples=8),
    "gaussian_t": ExperimentConfig(n_points=64, n_steps=16, n_max=2, samples=8,
                                   family="gaussian", d_choice="t"),
}


def main() -> None:
    for name, config in RUNS.items():
        emit_report(run_experiment(config), HERE / name)
    provenance = {"numpy": np.__version__, "machine": platform.machine()}
    (HERE / "provenance.json").write_text(json.dumps(provenance, indent=2) + "\n")


if __name__ == "__main__":
    main()
