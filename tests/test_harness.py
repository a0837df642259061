"""Monte Carlo harness: determinism, verdicts, config files, CLI exit codes."""

import builtins
import configparser
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from picardlab import (
    ExperimentConfig,
    Field,
    TimeGrid,
    band_limited_field,
    draw_rademacher,
    load_field,
    make_grid,
    picard_iterate,
    randomize,
    run_experiment,
    save_field,
)
from picardlab.cli import main
from picardlab.harness import (
    ConfigError,
    _prepare,
    _run_one,
    _worker_count,
    emit_report,
    interval_scaling_study,
    load_config,
    tail_study,
)
from picardlab.randomization import active_blocks

SMALL = ExperimentConfig(
    n_points=32,
    box_length=16.0 * math.pi,
    t_final=0.2,
    n_steps=16,
    n_max=1,
    samples=6,
    base_seed=91,
    band=1.0,
    h1_norm=1.0,
)


def test_config_hash_stable_and_sensitive():
    assert SMALL.config_hash == ExperimentConfig(**{
        **{f: getattr(SMALL, f) for f in SMALL.__dataclass_fields__}}).config_hash
    assert SMALL.config_hash != replace(SMALL, base_seed=92).config_hash
    assert len(SMALL.config_hash) == 12


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(family="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig(samples=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(n_max=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(p_list=(3,))
    with pytest.raises(ConfigError, match="d_choice"):
        ExperimentConfig(d_choice="bogus")
    with pytest.raises(ConfigError, match="data_path"):
        ExperimentConfig(family="file")


def test_bad_grid_and_band_surface_as_config_errors():
    with pytest.raises(ConfigError):
        run_experiment(replace(SMALL, n_points=12))
    # band above the dealiasing-safe half of the lattice range
    with pytest.raises(ConfigError):
        run_experiment(replace(SMALL, band=10.0))
    with pytest.raises(ConfigError):
        run_experiment(replace(SMALL, t_final=-1.0))


def test_run_experiment_shape_and_verdicts():
    report = run_experiment(SMALL)
    assert len(report.rows) == SMALL.samples * (SMALL.n_max + 1)
    assert report.finite_fraction == 1.0
    assert report.verdicts["all_samples_finite"]
    assert report.verdicts["small_regime"]
    assert 0.0 < report.c_cal < 1.0
    assert report.phi0_h1 == pytest.approx(1.0, rel=1e-12)
    # n = 0 is calibrated, so its verdicts pass by construction
    for v in report.moment_verdicts:
        if v.n == 0:
            assert v.passed and v.ratio <= 1.0
    assert set(report.level_stats) == {0, 1}


def test_rows_are_deterministic_and_worker_free(tmp_path, monkeypatch):
    report_a = run_experiment(SMALL)
    emit_report(report_a, tmp_path / "a")
    monkeypatch.setenv("PICARDLAB_WORKERS", "3")
    report_b = run_experiment(SMALL)
    emit_report(report_b, tmp_path / "b")
    monkeypatch.delenv("PICARDLAB_WORKERS")
    rows_a = (tmp_path / "a" / "rows.csv").read_bytes()
    rows_b = (tmp_path / "b" / "rows.csv").read_bytes()
    assert rows_a == rows_b
    assert (tmp_path / "a" / "summary.json").read_bytes() == \
        (tmp_path / "b" / "summary.json").read_bytes()
    assert rows_a.decode().splitlines()[0] == (
        f"# picardlab rows v1 config={SMALL.config_hash} seed={SMALL.base_seed}")


def test_zero_family_runs_and_passes():
    report = run_experiment(replace(SMALL, family="zero"))
    assert report.phi0_h1 == 0.0
    assert report.c_cal == 0.0
    for row in report.rows:
        assert row.finite
        assert row.linf_h1_u == row.linf_l2_dudt == row.l2t_l4_du == 0.0
    assert all(v.ratio == 0.0 and v.passed for v in report.moment_verdicts)
    assert report.all_pass


def test_small_regime_gate():
    loud = replace(SMALL, h1_norm=40.0, t_final=0.4, n_steps=32)
    with pytest.raises(ConfigError, match="small-interval regime"):
        run_experiment(loud)
    report = run_experiment(replace(loud, require_small_regime=False))
    assert not report.verdicts["small_regime"]


def test_blowup_fills_inf_rows_from_the_failing_level(tmp_path):
    config = replace(SMALL, h1_norm=1e6, n_max=3, samples=2, require_small_regime=False)
    report = run_experiment(config)
    assert [(r.sample_index, r.n) for r in report.rows] == [
        (i, n) for i in range(2) for n in range(4)]
    for row in report.rows:
        norms = (row.linf_h1_u, row.linf_l2_dudt, row.l2t_l4_du)
        if row.n <= 1:
            assert row.finite and all(math.isfinite(v) for v in norms)
        else:
            assert not row.finite and all(v == math.inf for v in norms)
    assert report.finite_fraction == 0.5
    assert not report.verdicts["all_samples_finite"]
    emit_report(report, tmp_path)
    lines = (tmp_path / "rows.csv").read_text().splitlines()[2:]
    assert [line.split(",")[2:] for line in lines if line.split(",")[1] in ("2", "3")] == \
        [["0", "inf", "inf", "inf"]] * 4


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_max", [3, 6])
def test_blowup_rows_raise_no_warnings_past_the_failing_level(tmp_path, n_max):
    """The levels march together, but none past the first failing one is
    advanced far enough to overflow: every row from level 2 on is inf."""
    if n_max == 3:
        test_blowup_fills_inf_rows_from_the_failing_level(tmp_path)
        return
    config = replace(SMALL, h1_norm=1e6, n_max=n_max, samples=2, require_small_regime=False)
    report = run_experiment(config)
    assert [(r.n, r.finite) for r in report.rows if r.sample_index == 0] == \
        [(n, n <= 1) for n in range(n_max + 1)]
    assert report.finite_fraction == 2 / 7


def test_one_reference_sample_holds_less_than_one_series_of_memory():
    """One 128^2, 65-node, n <= 3 sample, after a warm-up has built the cached
    tables: its traced peak stays below one 65 x 128^2 complex series."""
    config = ExperimentConfig(n_points=128, box_length=16.0 * math.pi, t_final=0.2,
                              n_steps=64, n_max=3, samples=1, band=2.0)
    run = _prepare(config)
    _run_one(run, 0)
    tracemalloc.start()
    try:
        rows = _run_one(run, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.n for r in rows] == [0, 1, 2, 3] and all(r.finite for r in rows)
    assert peak < 65 * 128 * 128 * 16


def _write_datum(path, scale=1.0):
    grid = make_grid(SMALL.n_points, SMALL.box_length)
    phi0 = band_limited_field(grid, band=1.0, seed=3)
    save_field(Field(grid, scale * phi0.values, phi0.representation), str(path))


def test_data_file_bytes_enter_hash_summary_and_cache(tmp_path, monkeypatch):
    path = tmp_path / "phi0.field"
    _write_datum(path)
    config = replace(SMALL, family="file", data_path=str(path), samples=2, n_max=0)
    first_bytes = path.read_bytes()
    first_hash = config.config_hash
    reads = []
    read_bytes, builtin_open = Path.read_bytes, builtins.open

    def counting_read_bytes(self):
        reads.append(str(self))
        return read_bytes(self)

    def counting_open(file, mode="r", *args, **kwargs):
        if "r" in mode:
            reads.append(str(file))
        return builtin_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    monkeypatch.setattr(builtins, "open", counting_open)
    first = run_experiment(config)
    _write_datum(path, scale=2.0)  # rewritten between the run and its report
    emit_report(first, tmp_path / "first")
    monkeypatch.undo()
    assert reads.count(str(path)) == 1
    # the report describes the bytes the samples used, not the file as it is now
    summary = json.loads((tmp_path / "first" / "summary.json").read_text())
    assert summary["data_sha256"] == hashlib.sha256(first_bytes).hexdigest()
    assert summary["config_hash"] == first_hash
    assert (tmp_path / "first" / "rows.csv").read_text().splitlines()[0] == (
        f"# picardlab rows v1 config={first_hash} seed={config.base_seed}")
    assert config.config_hash != first_hash
    second = run_experiment(config)
    assert second.phi0_h1 == pytest.approx(2.0 * first.phi0_h1, rel=1e-12)
    emit_report(second, tmp_path / "out")
    payload = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert payload["data_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert payload["config_hash"] == config.config_hash
    emit_report(run_experiment(SMALL), tmp_path / "plain")
    assert "data_sha256" not in json.loads((tmp_path / "plain" / "summary.json").read_text())


_HEADER = (b'{"n_points": 32, "box_length": 50.26548245743669, '
           b'"representation": "physical"}\n')


@pytest.mark.parametrize("content", [None, "dir", b"", b"not json\n", b'{"n_points": 32}\n',
                                     _HEADER + b"\0" * 8, "grid"],
                         ids=["missing", "directory", "empty", "not-json", "no-box-length",
                              "short-payload", "grid-mismatch"])
def test_cli_bad_data_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "phi0.field"
    if content == "dir":
        path.mkdir()
    elif content == "grid":
        _write_datum(path)
    elif content is not None:
        path.write_bytes(content)
    ini = tmp_path / "exp.ini"
    grid = "[grid]\nn_points = 64\n" if content == "grid" else ""
    ini.write_text(f"{grid}[data]\nfamily = file\ndata_path = {path}\n")
    code = main(["simulate", "--config", str(ini), "--samples", "2", "--steps", "8",
                 "--n-max", "0", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("[ERROR] ") and repr(str(path)) in err


def test_emit_report_roundtrip_and_empty_rejected(tmp_path):
    report = run_experiment(SMALL)
    written = emit_report(report, tmp_path)
    names = {p.name for p in written}
    assert names == {"rows.csv", "summary.json"}
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["config"]["n_points"] == SMALL.n_points
    assert payload["config_hash"] == SMALL.config_hash
    assert payload["all_pass"] == report.all_pass
    assert "calibration_note" in payload
    assert len(payload["moments"]) == len(report.moment_verdicts)
    with pytest.raises(ValueError):
        emit_report(replace(report, rows=()), tmp_path)


def test_emit_report_json_only(tmp_path):
    report = run_experiment(SMALL)
    written = emit_report(report, tmp_path, formats=("json",))
    assert [p.name for p in written] == ["summary.json"]


def test_scaling_validation():
    with pytest.raises(ConfigError, match=">= 4"):
        interval_scaling_study(replace(SMALL, interval_list=(0.2, 0.1, 0.05)))
    with pytest.raises(ConfigError, match="halve"):
        interval_scaling_study(replace(SMALL, interval_list=(0.2, 0.1, 0.06, 0.03)))


def test_scaling_medians_monotone_and_amplitude_linearity():
    config = replace(SMALL, interval_list=(0.2, 0.1, 0.05, 0.025), samples=8)
    result = interval_scaling_study(config)
    assert result.t_values == (0.2, 0.1, 0.05, 0.025)
    for n in (0, 1):
        meds = result.medians[n]
        assert all(a > b for a, b in zip(meds, meds[1:])), meds
        assert n in result.slopes
    # free level: the norm is 1-homogeneous in the datum amplitude
    doubled = interval_scaling_study(replace(config, h1_norm=2.0))
    for got, base in zip(doubled.medians[0], result.medians[0]):
        assert got == pytest.approx(2.0 * base, rel=0.05)


def test_tail_study_contract(tmp_path):
    config = replace(SMALL, samples=512, n_max=1)
    result = tail_study(config, n=1)
    assert result.n == 1
    assert len(result.lam) == len(result.empirical) == len(result.bound) == 33
    assert result.finite_fraction == 1.0
    assert any(result.checked), "default grid must reach the nonvacuous region"
    assert not all(result.checked), "default grid must record the vacuous region"
    for emp, bnd, chk in zip(result.empirical, result.bound, result.checked):
        assert chk == (bnd <= 1.0)
        if chk:
            assert emp <= bnd
    assert result.passed
    # an explicit grid below the data range: empirical tail 1.0 is recorded,
    # but those vacuous points are not judged
    low = tail_study(config, n=1, lam_grid=[1e-12, 1e-10])
    assert low.empirical == (1.0, 1.0)
    assert low.checked == (False, False)
    assert low.passed


def test_tail_study_validation():
    with pytest.raises(ConfigError, match="512"):
        tail_study(SMALL, n=1)
    big = replace(SMALL, samples=512)
    with pytest.raises(ConfigError, match="0 <= n <= 2"):
        tail_study(big, n=3)
    with pytest.raises(ConfigError, match="nonzero"):
        tail_study(replace(big, family="zero"), n=1)


def test_load_config_overrides_and_unknown_key(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[grid]\nn_points = 32\nbox_length = 50.26548245743669\n"
        "[time]\nt_final = 0.2\nn_steps = 16\n"
        "[experiment]\nsamples = 4\np_list = 4 6\n"
        "[data]\nfamily = band_limited\nband = 1.0\n")
    config = load_config(ini)
    assert config.n_points == 32
    assert config.samples == 4
    assert config.p_list == (4, 6)
    assert config.family == "band_limited"
    override = load_config(ini, samples=9, base_seed=5)
    assert override.samples == 9 and override.base_seed == 5

    bad = tmp_path / "bad.ini"
    bad.write_text("[grid]\nn_poins = 32\n")
    with pytest.raises(ConfigError, match="unknown config entry"):
        load_config(bad)
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.ini")


def test_cli_simulate_report_and_errors(tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "simulate", "--grid", "64", "--samples", "4", "--steps", "16",
        "--t", "0.2", "--n-max", "1", "--seed", "17", "--out", str(out),
    ])
    assert code == 0
    assert (out / "rows.csv").exists() and (out / "summary.json").exists()
    assert main(["report", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "[PASS]" in captured.out

    assert main(["simulate", "--grid", "12", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "[ERROR]" in err


def test_worker_pool_capped_at_samples_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("PICARDLAB_WORKERS", "64")
    assert _worker_count(2) == 2
    assert _worker_count(64) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    monkeypatch.setenv("PICARDLAB_WORKERS", "3")
    assert _worker_count(2) == 2
    assert _worker_count(64) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(64) == 1
    monkeypatch.delenv("PICARDLAB_WORKERS")
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    assert _worker_count(64) == 1


def test_cli_simulate_partial_dumps_sample0_fields(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--grid", "64", "--samples", "4", "--steps", "16",
                 "--t", "0.2", "--n-max", "1", "--seed", "17", "--out", str(out),
                 "--partial"])
    assert code == 0
    config = ExperimentConfig()
    grid = make_grid(64, config.box_length)
    phi0 = band_limited_field(grid, band=config.band, seed=config.data_seed,
                              h1_norm=config.h1_norm)
    draw = draw_rademacher(17, active_blocks(phi0), sample_index=0)
    rec = picard_iterate(1, randomize(phi0, None, draw), TimeGrid(0.2, 16))
    assert np.array_equal(load_field(str(out / "phi0.field")).values, phi0.values)
    assert np.array_equal(load_field(str(out / "u_n1.field")).values, rec.u.values[-1])
    assert np.array_equal(load_field(str(out / "du_n1.field")).values, rec.du.values[-1])


@pytest.mark.parametrize("value", ["abc", "", "2.5", "0", "-3"])
def test_cli_bad_worker_count_exits_2(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("PICARDLAB_WORKERS", value)
    code = main(["simulate", "--grid", "64", "--samples", "2", "--steps", "8",
                 "--n-max", "0", "--out", str(tmp_path / "w")])
    assert code == 2
    err = capsys.readouterr().err
    assert "[ERROR] PICARDLAB_WORKERS must be an integer >= 1" in err
    assert repr(value) in err


@pytest.mark.parametrize("text, where", [
    ("[grid]\nn_points = abc\n", "[grid] n_points"),
    ("n_points = 64\n", "no section headers"),
    ("[grid]\nn_points = 64\nn_points = 32\n", "already exists"),
    ("[experiment]\np_list = 4 x\n", "[experiment] p_list"),
    ("[experiment]\nsamples = %(x)s\n", "samples"),
    (b"\xff\xfe[grid]\n", "decode"),
    ("[experiment]\nrequire_small_regime = ture\n", "[experiment] require_small_regime"),
    ("[experiment]\nrequire_small_regime = 2\n", "[experiment] require_small_regime"),
    ("[experiment]\nrequire_small_regime =\n", "[experiment] require_small_regime"),
], ids=["bad-int", "no-section", "duplicate-key", "bad-p-list", "interpolation", "not-utf8",
        "bool-typo", "bool-number", "bool-empty"])
def test_cli_bad_ini_exits_2(tmp_path, capsys, text, where):
    ini = tmp_path / "exp.ini"
    if isinstance(text, bytes):
        ini.write_bytes(text)
    else:
        ini.write_text(text)
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[ERROR] ") and "Traceback" not in err
    assert str(ini) in err and where in err


def test_ini_boolean_accepts_configparser_words(tmp_path):
    ini = tmp_path / "exp.ini"
    for word, value in configparser.ConfigParser.BOOLEAN_STATES.items():
        for text in (word, word.upper(), f" {word.title()} "):
            ini.write_text(f"[experiment]\nrequire_small_regime = {text}\n")
            config = load_config(str(ini))
            assert config.require_small_regime is value
            # the field is stored as a bool, so the hash does not see the spelling
            assert config.config_hash == ExperimentConfig(require_small_regime=value).config_hash


@pytest.mark.parametrize("content", [b"not json\n", b"\xff\xfe{}", b'{"config_hash": "x"}\n',
                                     b"[1, 2]\n", b'{"config_hash": "x", "version": "0", '
                                     b'"base_seed": 1, "verdicts": 3, "all_pass": true}\n'],
                         ids=["not-json", "not-utf8", "missing-keys", "not-object",
                              "bad-verdicts"])
def test_cli_report_on_broken_summary_exits_2(tmp_path, capsys, content):
    (tmp_path / "summary.json").write_bytes(content)
    assert main(["report", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[ERROR] ") and str(tmp_path / "summary.json") in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "picardlab", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: picardlab")
