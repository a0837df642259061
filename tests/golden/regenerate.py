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

from picardlab import Field, band_limited_field, gaussian_bump, make_grid, save_field
from picardlab.grid import as_physical
from picardlab.harness import ExperimentConfig, emit_report, run_experiment

HERE = Path(__file__).resolve().parent

# the datum file of the family = file run, named relative to the
# repository root as its config (and so its config hash) names it
DATUM = "tests/golden/file_x1/phi0.field"

# 64^2, 17 nodes, n <= 2, 8 samples: band-limited data with d = d/dx1 and
# d = d/dx2, whose modes all lie in the 2/3 box; a Gaussian datum with
# d = d/dt, whose modes outside the box take the march's gap path; and a
# datum read from a file with d = d/dx1, a band-limited field plus a
# narrow bump, whose bump takes the gap path too
RUNS = {
    "band_x1": ExperimentConfig(n_points=64, n_steps=16, n_max=2, samples=8),
    "band_x2": ExperimentConfig(n_points=64, n_steps=16, n_max=2, samples=8, d_choice="x2"),
    "gaussian_t": ExperimentConfig(n_points=64, n_steps=16, n_max=2, samples=8,
                                   family="gaussian", d_choice="t"),
    "file_x1": ExperimentConfig(n_points=64, n_steps=16, n_max=2, samples=8,
                                family="file", data_path=DATUM),
}


def write_datum(path: Path) -> None:
    """The physical samples of a band-limited field (band 1.5, seed 5) plus
    a Gaussian bump of width 1 and amplitude 0.3, on the runs' grid."""
    grid = make_grid(64, 16.0 * np.pi)
    band = as_physical(band_limited_field(grid, band=1.5, seed=5)).values
    bump = gaussian_bump(grid, sigma=1.0, amplitude=0.3).values
    path.parent.mkdir(exist_ok=True)
    save_field(Field(grid, band + bump, "physical"), str(path), name="band 1.5 + bump")


def main() -> None:
    write_datum(HERE.parents[1] / DATUM)
    for name, config in RUNS.items():
        emit_report(run_experiment(config), HERE / name)
    provenance = {"numpy": np.__version__, "machine": platform.machine()}
    (HERE / "provenance.json").write_text(json.dumps(provenance, indent=2) + "\n")


if __name__ == "__main__":
    main()
