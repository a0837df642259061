"""Pinned output bytes: the rows.csv and summary.json of small runs.

tests/golden/ holds the outputs of the runs in tests/golden/regenerate.py
and the numpy version and machine type they were made with; the datum file
of the family = file run is named relative to the repository root, where
the runs are made.  With the same
numpy on the same kind of machine a run must give the same bytes; otherwise
every value must agree to 1e-13 relative, since the FFTs' last bits may
depend on the CPU and the numpy build.
"""

import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from picardlab.harness import ExperimentConfig, emit_report, run_experiment

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
RUNS = sorted(p.name for p in GOLDEN.iterdir() if (p / "summary.json").is_file())
REL_TOL = 1e-13


def _same_value(got, expect) -> bool:
    """Equal, or floats within REL_TOL relative; containers item by item."""
    if isinstance(expect, dict):
        return (isinstance(got, dict) and got.keys() == expect.keys()
                and all(_same_value(got[k], expect[k]) for k in expect))
    if isinstance(expect, list):
        return (isinstance(got, list) and len(got) == len(expect)
                and all(_same_value(a, b) for a, b in zip(got, expect)))
    if isinstance(expect, float) and isinstance(got, float):
        return got == expect or (math.isnan(got) and math.isnan(expect)) or \
            abs(got - expect) <= REL_TOL * abs(expect)
    return type(got) is type(expect) and got == expect


def _csv_values(text: str) -> list:
    """The lines of a rows.csv: the two header lines as text, each row as
    its fields, numbers parsed."""
    lines = text.splitlines()
    return lines[:2] + [[json.loads(v) if v not in ("inf", "nan") else float(v)
                         for v in line.split(",")] for line in lines[2:]]


def _same_output(name: str, got: str, expect: str) -> bool:
    if name == "summary.json":
        return _same_value(json.loads(got), json.loads(expect))
    return _same_value(_csv_values(got), _csv_values(expect))


def test_there_are_golden_runs_and_their_provenance():
    assert RUNS == ["band_x1", "band_x2", "file_x1", "gaussian_t"]
    provenance = json.loads((GOLDEN / "provenance.json").read_text())
    assert set(provenance) == {"numpy", "machine"}


@pytest.mark.parametrize("run", RUNS)
def test_a_run_gives_the_golden_bytes(tmp_path, monkeypatch, run):
    monkeypatch.chdir(ROOT)
    expect_dir = GOLDEN / run
    config = ExperimentConfig(**json.loads((expect_dir / "summary.json").read_text())["config"])
    emit_report(run_experiment(config), tmp_path)
    provenance = json.loads((GOLDEN / "provenance.json").read_text())
    same_env = provenance == {"numpy": np.__version__, "machine": platform.machine()}
    for name in ("rows.csv", "summary.json"):
        got, expect = ((d / name).read_bytes() for d in (tmp_path, expect_dir))
        if same_env:
            assert got == expect, f"{run}/{name}"
        else:
            assert _same_output(name, got.decode(), expect.decode()), f"{run}/{name}"


def test_the_tolerant_comparison_tells_rounding_from_a_change():
    """Off the golden machine the files are compared value by value: a
    relative change of 1e-15 passes, one of 1e-12 or a changed header or
    flag fails."""
    text = (GOLDEN / "band_x1" / "rows.csv").read_text()
    header, columns, first, *rest = text.splitlines()
    fields = first.split(",")
    value = float(fields[-1])

    def with_last(v):
        return "\n".join([header, columns, ",".join(fields[:-1] + [repr(v)]), *rest]) + "\n"

    assert _same_output("rows.csv", text, text)
    assert _same_output("rows.csv", with_last(value * (1 + 1e-15)), text)
    assert not _same_output("rows.csv", with_last(value * (1 + 1e-12)), text)
    assert not _same_output("rows.csv", text.replace("seed=", "seed=1", 1), text)
    assert not _same_output("rows.csv", text.replace(",1,", ",0,", 1), text)
    summary = json.loads((GOLDEN / "band_x1" / "summary.json").read_text())
    moved = json.loads(json.dumps(summary))
    moved["c_cal"] *= 1 + 1e-12
    assert _same_value(summary, json.loads(json.dumps(summary)))
    assert not _same_value(moved, summary)
