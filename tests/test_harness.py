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

from conftest import run_python
from picardlab import (
    __version__,
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
import picardlab.cli as cli
import picardlab.harness as harness
from picardlab.cli import main
from picardlab.harness import (
    WORKERS_ENV,
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
    with pytest.raises(ConfigError, match="p_list"):
        ExperimentConfig(p_list=())
    with pytest.raises(ConfigError, match="d_choice"):
        ExperimentConfig(d_choice="bogus")
    with pytest.raises(ConfigError, match="data_path"):
        ExperimentConfig(family="file")
    for name in ("base_seed", "data_seed"):
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(**{name: -1})


@pytest.mark.parametrize("name, value", [
    ("samples", 2.0), ("samples", True), ("base_seed", 1.5), ("n_max", 1.0), ("data_seed", 2.5),
    ("n_points", "64"), ("n_steps", np.float64(8.0)), ("t_final", "0.2"), ("box_length", True),
    ("sigma", 1 + 2j), ("require_small_regime", "no"), ("require_small_regime", 0),
    ("p_list", ("4",)), ("p_list", 4), ("p_list", (4, None)), ("interval_list", ("a",)),
    ("interval_list", 0.5), ("interval_list", (0.1, 1j)), ("data_path", 5), ("data_path", None)])
def test_config_refuses_values_it_cannot_run_or_hash(name, value):
    extra = {"family": "file"} if name == "data_path" else {}
    with pytest.raises(ConfigError, match=name):
        ExperimentConfig(**{name: value}, **extra)


def test_data_path_with_a_nul_is_a_config_error():
    config = ExperimentConfig(family="file", data_path="a\0b")
    with pytest.raises(ConfigError, match="data file"):
        config.config_hash


def test_config_stores_numpy_numbers_as_python_ones():
    """numpy integers and reals are stored as int and float, in the list
    fields too, so a config hashes as one built from the same Python
    numbers."""
    got = ExperimentConfig(samples=np.int64(4), n_points=np.int64(64), t_final=np.float32(0.2),
                           p_list=(4.0, np.int64(6)), interval_list=[np.float32(0.5), 1])
    assert [type(got.samples), type(got.n_points), type(got.t_final)] == [int, int, float]
    assert got.p_list == (4, 6) and got.interval_list == (0.5, 1.0)
    assert [type(v) for v in got.p_list + got.interval_list] == [int, int, float, float]
    expect = ExperimentConfig(samples=4, n_points=64, t_final=float(np.float32(0.2)),
                              p_list=(4, 6), interval_list=(0.5, 1.0))
    assert got.config_hash == expect.config_hash


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


def test_run_experiment_bootstraps_each_level_and_p_once(monkeypatch):
    """One moment pass per level: C_cal reads level 0's bootstrap uppers
    from the same pass as the verdicts."""
    calls = []
    upper = harness._bootstrap_upper
    monkeypatch.setattr(harness, "_bootstrap_upper",
                        lambda x, p, idx: calls.append(p) or upper(x, p, idx))
    run_experiment(SMALL)
    assert sorted(calls) == sorted(SMALL.p_list * (SMALL.n_max + 1))


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


# the criterion-9 config, one sample
REF128 = ExperimentConfig(n_points=128, box_length=16.0 * math.pi, t_final=0.2,
                          n_steps=64, n_max=3, samples=1, band=2.0)


def test_one_reference_sample_holds_less_than_one_series_of_memory():
    """One 128^2, 65-node, n <= 3 sample, after a warm-up has built the cached
    tables: its traced peak stays below one 65 x 128^2 complex series."""
    run = _prepare(REF128)
    _run_one(run, 0)
    tracemalloc.start()
    try:
        rows = _run_one(run, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.n for r in rows] == [0, 1, 2, 3] and all(r.finite for r in rows)
    assert peak < 65 * 128 * 128 * 16


def test_a_cold_reference_sample_keeps_no_whole_series_table():
    """One 128^2, 65-node, n <= 3 sample in a fresh process, every table
    cache empty: the march forms each chunk's propagator rows on the box's
    own |xi| levels and spreads them into its workspace of four Duhamel
    buffers, over which the norm planes lie, so the traced peak stays below
    5.8 MB (where the five-buffer workspace with norm planes of its own took
    6.8 MB, per-|xi| profiles over the whole series 10.0 MB, and tables over
    the whole lattice 45.9 MB), and what the call keeps stays below one
    whole-series profile of the box's 812 levels, 3 x 65 x 812 doubles
    (where the cached per-|xi| profiles kept 3.6 MB), and below 0.45 MB:
    the box's i xi_1 is the one symbol table it keeps (0.31 MB in all,
    where a cached lattice i xi_1 beside it kept 0.57 MB)."""
    out = run_python(
        "import json, math, tracemalloc\n"
        "from picardlab.harness import ExperimentConfig, _prepare, _run_one\n"
        f"run = _prepare({REF128!r})\n"
        "tracemalloc.start()\n"
        "before = tracemalloc.get_traced_memory()[0]\n"
        "rows = _run_one(run, 0)\n"
        "current, peak = tracemalloc.get_traced_memory()\n"
        "print(json.dumps([[r.n for r in rows], all(r.finite for r in rows),\n"
        "                  peak - before, current - before]))\n")
    levels, finite, peak, held = json.loads(out)
    assert levels == [0, 1, 2, 3] and finite
    assert peak < 5_800_000
    assert held < 3 * 65 * 812 * 8 and held < 450_000


def test_a_warm_reference_march_works_in_box_sized_buffers():
    """A warm 128^2, 65-node, n <= 3 march in a fresh process: every spectral
    stage runs on the 85^2 box in four Duhamel buffers, B without a
    half-weight term and the norm planes laid over the workspace, so its
    traced peak, the workspace with the running Duhamel sums, stays below
    6.5 3-node chunks of the 128^2 lattice (5.1 MB), where five buffers
    with planes of their own took 6.2 MB and the march on the whole lattice
    9.8 MB."""
    out = run_python(
        "import json, tracemalloc\n"
        "import numpy as np\n"
        "from picardlab.harness import ExperimentConfig, _prepare, _sample_data\n"
        "from picardlab.picard import _CHUNK, _march\n"
        f"run = _prepare({REF128!r})\n"
        "data = _sample_data(run, 0)\n"
        "args = (3, data.phi0_rand.values, data.grid, run.tg, 'x1', ())\n"
        "_march(*args)\n"
        "tracemalloc.start()\n"
        "before = tracemalloc.get_traced_memory()[0]\n"
        "per_node, kept = _march(*args)\n"
        "peak = tracemalloc.get_traced_memory()[1]\n"
        "print(json.dumps([per_node.shape, bool(np.isfinite(per_node).all()), _CHUNK,\n"
        "                  peak - before]))\n")
    shape, finite, chunk, peak = json.loads(out)
    assert shape == [4, 3, 65] and finite
    assert peak < 6.5 * chunk * 128 * 128 * 16


@pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 64, 200, 511])
def test_quantile_helper_is_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    cases = [rng.standard_normal(n), rng.exponential(size=n) * 1e-200,
             rng.integers(0, 3, n).astype(float), np.sort(rng.random(n)),
             rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)]
    for x in cases:
        for q in (0.0, 0.05, 0.5, 0.95, 1.0, *rng.random(8)):
            assert np.float64(harness._quantile(x, float(q))).tobytes() == \
                np.quantile(x, float(q)).tobytes()
        assert np.float64(harness._quantile(x, None)).tobytes() == np.median(x).tobytes()


def test_a_run_and_its_report_do_not_import_numpy_ma(tmp_path):
    """numpy's quantile and median import numpy.ma on first use; the harness's
    own quantile keeps it out of a run."""
    config = replace(SMALL, samples=4)
    out = run_python(
        "import sys\n"
        "from picardlab import ExperimentConfig, emit_report, run_experiment\n"
        f"emit_report(run_experiment({config!r}), {str(tmp_path)!r})\n"
        "print('numpy.ma' in sys.modules)\n")
    assert out.strip() == "False"
    assert (tmp_path / "summary.json").is_file()


def test_a_serial_run_does_not_import_the_process_pool(tmp_path):
    """The process pool (with multiprocessing and socket) is imported only by
    a run with more than one worker."""
    config = replace(SMALL, samples=2)
    out = run_python(
        "import sys\n"
        "import picardlab\n"
        "from picardlab import ExperimentConfig, emit_report, run_experiment\n"
        f"emit_report(run_experiment({config!r}), {str(tmp_path)!r})\n"
        "print('concurrent.futures.process' in sys.modules)\n")
    assert out.strip() == "False"
    assert (tmp_path / "summary.json").is_file()


def test_a_sample_datum_builds_no_block_projections():
    """A sample's datum adds its signed block projections into one running
    sum: at the reference config (25 blocks) its traced peak stays below
    2 MB, where one stored 128^2 complex Field per block took 7.75 MB."""
    run = _prepare(REF128)
    harness._sample_data(run, 0)
    tracemalloc.start()
    try:
        data = harness._sample_data(run, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data.draw.blocks) == 25
    assert peak < 2_000_000


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
                                     _HEADER + b"\0" * 8,
                                     _HEADER.replace(b"32", b"1024") + b"\0" * 16,
                                     _HEADER.replace(b"32", b"64.9") + b"\0" * 32768,
                                     "grid", "nan"],
                         ids=["missing", "directory", "empty", "not-json", "no-box-length",
                              "short-payload", "large-header-short-payload", "float-n-points",
                              "grid-mismatch", "nan-sample"])
def test_cli_bad_data_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "phi0.field"
    if content == "dir":
        path.mkdir()
    elif content == "grid":
        _write_datum(path)
    elif content == "nan":
        grid = make_grid(64, ExperimentConfig().box_length)
        values = np.ones((64, 64))
        values[3, 5] = np.nan
        save_field(Field(grid, values, "physical"), str(path))
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


@pytest.mark.parametrize("below", ["", "sub"])
@pytest.mark.parametrize("command, runner", [("simulate", "run_experiment"),
                                             ("scaling", "interval_scaling_study"),
                                             ("tails", "tail_study")])
def test_cli_out_naming_a_file_exits_2_before_the_run(tmp_path, capsys, monkeypatch,
                                                      command, runner, below):
    def no_run(*args, **kwargs):
        raise AssertionError(f"{runner} started")

    monkeypatch.setattr(cli, runner, no_run)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / below
    assert main([command, "--samples", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[ERROR] ") and repr(str(out)) in err
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["simulate", "scaling", "tails", "report"])
def test_cli_out_too_long_to_look_up_exits_2(tmp_path, capsys, command):
    """An ``--out`` with a name over the 255-byte limit of a path component
    makes the existence probe itself fail: exit 2 with a message naming the
    path, never a traceback, and no run."""
    out = tmp_path / ("x" * 300)
    assert main([command, "--samples", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[ERROR] ") and str(out) in err and "Traceback" not in err


@pytest.mark.parametrize("message", ["Unable to allocate 4.37 TiB for an array", ""])
def test_cli_run_too_large_for_memory_exits_2(capsys, monkeypatch, message):
    """A run whose arrays do not fit in memory (``--steps 100000000000``, say)
    ends in exit 2 with a message, never a traceback; the run is replaced
    by one that raises, so the test allocates nothing."""
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_experiment", out_of_memory)
    assert main(["simulate", "--grid", "64", "--samples", "2", "--n-max", "1",
                 "--steps", "100000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[ERROR] ") and "memory" in err and "Traceback" not in err
    assert err.rstrip().endswith(message or "memory")


def test_scaling_validation():
    with pytest.raises(ConfigError, match=">= 4"):
        interval_scaling_study(replace(SMALL, interval_list=(0.2, 0.1, 0.05)))
    with pytest.raises(ConfigError, match="halve"):
        interval_scaling_study(replace(SMALL, interval_list=(0.2, 0.1, 0.06, 0.03)))
    for bad in ((0.0,) * 4, (0.2, 0.1, 0.05, -0.025), (math.inf, 0.1, 0.05, 0.025)):
        with pytest.raises(ConfigError, match="positive and finite"):
            interval_scaling_study(replace(SMALL, interval_list=bad))


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


@pytest.mark.parametrize("command", ["trees", "moments"])
def test_cli_verification_suites_pass(capsys, command):
    assert main([command]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("[PASS]") for line in lines), lines


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


def test_cli_simulate_reports_past_the_float_range_of_the_bound(tmp_path):
    """From n = 8 on, (2^n)! exceeds the float range: the moment bound is
    inf, which holds trivially."""
    out = tmp_path / "run"
    code = main(["simulate", "--grid", "64", "--samples", "2", "--steps", "8",
                 "--n-max", "8", "--out", str(out)])
    assert code == 0
    assert (out / "rows.csv").exists()
    moments = json.loads((out / "summary.json").read_text())["moments"]
    top = [m for m in moments if m["n"] == 8]
    assert top and all(m["bound"] == math.inf and m["ratio"] == 0.0 and m["passed"]
                       for m in top)
    assert all(math.isfinite(m["bound"]) for m in moments if m["n"] <= 7)


def test_worker_pool_capped_at_samples_and_cpus(monkeypatch):
    """The cap is the affinity set where the platform has one: under taskset
    or a cpuset it is smaller than the machine's CPU count."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("PICARDLAB_WORKERS", "64")
    assert _worker_count(2) == 2
    assert _worker_count(64) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
    monkeypatch.setenv("PICARDLAB_WORKERS", "3")
    assert _worker_count(2) == 2
    assert _worker_count(64) == 3
    monkeypatch.delenv("PICARDLAB_WORKERS")
    assert _worker_count(64) == 1


def test_worker_pool_without_affinity_capped_at_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("PICARDLAB_WORKERS", "64")
    assert _worker_count(64) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
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
    ("[experiment]\np_list =\n", "p_list"),
    ("[data]\nfamily = gaussian\nsigma = 0\n", "sigma"),
    ("[time]\nt_final = inf\n", "t_final"),
    ("[time]\nt_final = nan\n", "t_final"),
    ("[time]\nn_steps = 2.5\n", "[time] n_steps"),
    ("[grid]\nbox_length = inf\n", "box_length"),
    ("[data]\nfamily = gaussian\namplitude = nan\n", "family 'gaussian'"),
    ("[data]\nfamily = gaussian\namplitude = inf\n", "family 'gaussian'"),
    ("[data]\nfamily = gaussian\namplitude = 1e200\n", "family 'gaussian'"),
    ("[data]\nfamily = gaussian\nsigma = 1e-300\n", "family 'gaussian'"),
    ("[data]\nh1_norm = nan\n", "family 'band_limited'"),
    ("[data]\nh1_norm = -1\n", "h1_norm"),
    ("[experiment]\nbase_seed = -1\n", "base_seed"),
    ("[data]\ndata_seed = -1\n", "data_seed"),
], ids=["bad-int", "no-section", "duplicate-key", "bad-p-list", "interpolation", "not-utf8",
        "bool-typo", "bool-number", "bool-empty", "empty-p-list", "gaussian-sigma-zero",
        "t-final-inf", "t-final-nan", "n-steps-fraction", "box-length-inf",
        "gaussian-amplitude-nan", "gaussian-amplitude-inf", "gaussian-amplitude-huge",
        "gaussian-sigma-underflow", "h1-norm-nan", "h1-norm-negative",
        "base-seed-negative", "data-seed-negative"])
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


def test_cli_negative_seed_exits_2(tmp_path, capsys):
    code = main(["simulate", "--seed", "-1", "--grid", "32", "--samples", "2", "--steps", "8",
                 "--n-max", "0", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("[ERROR] ") and "Traceback" not in err and "base_seed" in err


@pytest.mark.parametrize("intervals", ["0 0 0 0", "0.2 0.1 0.05 -0.025", "inf 0.1 0.05 0.025",
                                       "0.2 0.1 0.05 nan"],
                         ids=["zero", "negative", "inf", "nan"])
def test_cli_scaling_bad_intervals_exit_2(tmp_path, capsys, intervals):
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[experiment]\ninterval_list = {intervals}\n")
    code = main(["scaling", "--config", str(ini), "--grid", "32", "--samples", "2",
                 "--steps", "8", "--n-max", "0", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("[ERROR] ") and "Traceback" not in err and "interval_list" in err


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


def test_a_blown_up_run_prints_only_the_error_line(tmp_path):
    """At T = 1e300 the iterates overflow; the blow-up guard and the
    small-interval gate are the checks for that, so the run exits 2 with
    the gate's one line on stderr and no numpy warning before it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop(WORKERS_ENV, None)
    done = subprocess.run([sys.executable, "-m", "picardlab", "simulate", "--grid", "64",
                           "--samples", "2", "--n-max", "1", "--t", "1e300", "--steps", "2",
                           "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("[ERROR] small-interval regime violated")
    assert done.stderr.count("\n") == 1, done.stderr


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "picardlab", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: picardlab")


def test_pyproject_names_the_package_and_its_version():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "picardlab"
    assert project["version"] == __version__
