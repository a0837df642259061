"""Monte Carlo harness: determinism, verdicts, config files, CLI exit codes."""

import builtins
import configparser
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
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
import picardlab.picard as picard
from picardlab.cli import main
from picardlab.harness import (
    WORKERS_ENV,
    ConfigError,
    _prepare,
    _run_batch,
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
    ("interval_list", 0.5), ("interval_list", (0.1, 1j)), ("interval_list", ("0.5",)),
    ("interval_list", (0.5, True)), ("data_path", 5), ("data_path", None)])
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
                        lambda x, p, idx, plugin: calls.append(p) or upper(x, p, idx, plugin))
    run_experiment(SMALL)
    assert sorted(calls) == sorted(SMALL.p_list * (SMALL.n_max + 1))


def test_rows_are_deterministic_and_worker_free(tmp_path, monkeypatch):
    """A serial run, a run of three workers and a default run write the
    same bytes (SMALL is one batch, so only a serial run marches it)."""
    for tag, workers in (("a", "1"), ("b", "3"), ("c", None)):
        _set_workers(monkeypatch, workers)
        emit_report(run_experiment(SMALL), tmp_path / tag)
    rows_a = (tmp_path / "a" / "rows.csv").read_bytes()
    for tag in ("b", "c"):
        assert (tmp_path / tag / "rows.csv").read_bytes() == rows_a
        assert (tmp_path / tag / "summary.json").read_bytes() == \
            (tmp_path / "a" / "summary.json").read_bytes()
    assert rows_a.decode().splitlines()[0] == (
        f"# picardlab rows v1 config={SMALL.config_hash} seed={SMALL.base_seed}")


@pytest.mark.parametrize("family, d_choice", [("band_limited", "x1"), ("gaussian", "t")])
def test_rows_do_not_depend_on_the_batch_size(tmp_path, monkeypatch, family, d_choice):
    """7 samples at 64^2 march serially in batches of three, three and one;
    with the step bytes cut to one sample each marches alone.  Either way,
    on 1, 2 or 3 workers or the default count (16 CPUs), each marching its
    own run of samples, rows.csv and summary.json keep the bytes of the
    serial run of lone samples."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    config = replace(SMALL, n_points=64, samples=7, family=family, d_choice=d_choice)
    grid = make_grid(64, config.box_length)
    assert picard._batch_size(grid) == 3
    runs = []
    for step_bytes in (picard._STEP_BYTES, 1):
        monkeypatch.setattr(picard, "_STEP_BYTES", step_bytes)
        for workers in ("1", "2", "3", None):
            _set_workers(monkeypatch, workers)
            runs.append(tmp_path / f"{picard._batch_size(grid)}-{workers}")
            emit_report(run_experiment(config), runs[-1])
    assert runs[-1].name == "1-None"
    _assert_no_child_left()
    for name in ("rows.csv", "summary.json"):
        for out in runs:
            assert (out / name).read_bytes() == (tmp_path / "1-1" / name).read_bytes()


@pytest.mark.parametrize("family", ["band_limited", "gaussian"])
def test_batched_data_are_the_bits_of_randomize(monkeypatch, family):
    """The run forms each block's projection once, on its window of at most
    11 x 11 modes;
    every datum the batches march, signed and summed from them, is
    randomize's phi0_rand of that sample index bit for bit.  The run is
    serial, so that this process sees every batch."""
    monkeypatch.setenv(WORKERS_ENV, "1")
    run = _prepare(replace(SMALL, n_points=64, samples=9, family=family))
    assert len(run.projections) == len(run.blocks)
    assert max(max(proj.shape) for _, proj in run.projections) == 11
    stacks = []
    batch_levels = harness._batch_levels
    monkeypatch.setattr(harness, "_batch_levels",
                        lambda n_max, phi0, *args: stacks.append(phi0.copy())
                        or batch_levels(n_max, phi0, *args))
    harness._sample_rows(run)
    assert [len(stack) for stack in stacks] == [3, 3, 3]
    for idx, phi0 in enumerate(np.concatenate(stacks)):
        assert phi0.tobytes() == harness._sample_data(run, idx).phi0_rand.values.tobytes()


def _set_workers(monkeypatch, workers):
    """PICARDLAB_WORKERS set to ``workers``, or unset for None."""
    if workers is None:
        monkeypatch.delenv(WORKERS_ENV, raising=False)
    else:
        monkeypatch.setenv(WORKERS_ENV, workers)


def _count_forks(monkeypatch) -> list:
    """os.fork wrapped to record each call in this process; the list."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    return forks


def test_the_pool_is_capped_at_the_number_of_batches(monkeypatch):
    """6 samples at 64^2 form two batches of three, so eight workers asked
    for become two: this process and one forked worker; 6 samples at 32^2
    form one batch, and a zero datum marches nothing: neither forks.  The
    rows are the serial run's."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    configs = (replace(SMALL, n_points=64, samples=6), SMALL,
               replace(SMALL, n_points=64, samples=6, family="zero"))
    monkeypatch.setenv(WORKERS_ENV, "1")
    serial = [run_experiment(config).rows for config in configs]
    forks = _count_forks(monkeypatch)
    monkeypatch.setenv(WORKERS_ENV, "8")
    assert run_experiment(configs[0]).rows == serial[0]
    assert len(forks) == 1
    assert [run_experiment(config).rows for config in configs[1:]] == serial[1:]
    assert len(forks) == 1
    _assert_no_child_left()


class WorkerFailure(Exception):
    """Raised by a patched batch."""


def _run_failing(monkeypatch, in_worker=None, here=None):
    """A two-worker run of 6 samples at 64^2 (two batches: the first marched
    by a forked worker, the second by this process), with ``in_worker(batch)``
    and ``here(batch)``, where given, called before the batch is marched.  A
    run still going after 60 s raises TimeoutError here."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    monkeypatch.setenv(WORKERS_ENV, "2")
    parent, run_batch = os.getpid(), harness._run_batch

    def patched(run, batch):
        failure = here if os.getpid() == parent else in_worker
        if failure is not None:
            failure(batch)
        return run_batch(run, batch)

    def expire(signum, frame):
        raise TimeoutError("the run is still going after 60 s")

    monkeypatch.setattr(harness, "_run_batch", patched)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        return run_experiment(replace(SMALL, n_points=64, samples=6))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _fail(batch):
    raise WorkerFailure(f"batch from sample {batch.start} failed")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_exception_reaches_the_caller_with_its_type_and_message(monkeypatch):
    """An exception in the forked worker's batch (sample 0 on) is raised
    again here, with its type and message."""
    with pytest.raises(WorkerFailure, match="^batch from sample 0 failed$") as caught:
        _run_failing(monkeypatch, in_worker=_fail)
    assert caught.type is WorkerFailure
    _assert_no_child_left()


def test_an_exception_here_kills_the_workers_at_once(monkeypatch):
    """An exception in this process's own batch (sample 3 on) leaves the
    run once its worker, still marching (here: asleep for 30 s), is killed
    and reaped; the run does not wait for it."""
    start = time.monotonic()
    with pytest.raises(WorkerFailure, match="^batch from sample 3 failed$"):
        _run_failing(monkeypatch, in_worker=lambda batch: time.sleep(30), here=_fail)
    assert time.monotonic() - start < 20
    _assert_no_child_left()


def test_a_killed_worker_ends_the_run_with_an_error(monkeypatch):
    """A worker that dies without sending its rows ends the run with an
    error naming its wait status: no hang and no partial rows."""
    def die(batch):
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError, match="without sending its rows .*killed by SIGKILL"):
        _run_failing(monkeypatch, in_worker=die)
    _assert_no_child_left()


@pytest.mark.parametrize("platform, has_fork", [("linux", False), ("darwin", True),
                                                 ("win32", True)])
def test_without_fork_or_off_linux_the_run_is_serial(monkeypatch, platform, has_fork):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    config = replace(SMALL, n_points=64, samples=6)
    monkeypatch.setenv(WORKERS_ENV, "1")
    serial = run_experiment(config).rows
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(sys, "platform", platform)
    if not has_fork:
        monkeypatch.delattr(os, "fork")
    for workers in ("2", None):
        _set_workers(monkeypatch, workers)
        assert _worker_count(2) == 1
        assert run_experiment(config).rows == serial
    assert not forks


def test_the_default_forks_only_where_python_stays_quiet(monkeypatch):
    """Python 3.12 and later warn when a process with more than one OS
    thread forks; there the default count forks only from a single-threaded
    process.  An explicit count is kept."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.setattr(sys, "version_info", (3, 11, 7))
    assert _worker_count(6) == 6
    monkeypatch.setattr(sys, "version_info", (3, 12, 0))
    monkeypatch.setattr(os, "listdir", lambda path: ["101", "102"])
    assert _worker_count(6) == 1
    monkeypatch.setenv(WORKERS_ENV, "4")
    assert _worker_count(6) == 4
    monkeypatch.delenv(WORKERS_ENV)
    monkeypatch.setattr(os, "listdir", lambda path: ["101"])
    assert _worker_count(6) == 6


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
    _run_batch(run, range(1))
    tracemalloc.start()
    try:
        rows = _run_batch(run, range(1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.n for r in rows] == [0, 1, 2, 3] and all(r.finite for r in rows)
    assert peak < 65 * 128 * 128 * 16


def test_a_cold_reference_sample_keeps_no_whole_series_table():
    """One 128^2, 65-node, n <= 3 sample in a fresh process, every table
    cache empty: the march forms each chunk's propagator rows on the box's
    own |xi| levels and spreads them into its workspace of four Duhamel
    buffers, over which the norm planes lie, and forms the free part again
    at each level, so the traced peak stays below 5.3 MB (4.8 MB measured;
    a free pair kept per chunk took 5.3 MB, the five-buffer workspace with
    norm planes of its own 6.8 MB, per-|xi| profiles over the whole series
    10.0 MB, and tables over
    the whole lattice 45.9 MB), and what the call keeps stays below one
    whole-series profile of the box's 812 levels, 3 x 65 x 812 doubles
    (where the cached per-|xi| profiles kept 3.6 MB), and below 0.45 MB:
    the box's i xi_1 is the one symbol table it keeps (0.31 MB in all,
    where a cached lattice i xi_1 beside it kept 0.57 MB)."""
    out = run_python(
        "import json, math, tracemalloc\n"
        "from picardlab.harness import ExperimentConfig, _prepare, _run_batch\n"
        f"run = _prepare({REF128!r})\n"
        "tracemalloc.start()\n"
        "before = tracemalloc.get_traced_memory()[0]\n"
        "rows = _run_batch(run, range(1))\n"
        "current, peak = tracemalloc.get_traced_memory()\n"
        "print(json.dumps([[r.n for r in rows], all(r.finite for r in rows),\n"
        "                  peak - before, current - before]))\n")
    levels, finite, peak, held = json.loads(out)
    assert levels == [0, 1, 2, 3] and finite
    assert peak < 5_300_000
    assert held < 3 * 65 * 812 * 8 and held < 450_000


def test_a_warm_reference_march_works_in_box_sized_buffers():
    """A warm 128^2, 65-node, n <= 3 march in a fresh process: every spectral
    stage runs on the 85^2 box in four Duhamel buffers, B without a
    half-weight term, the norm planes laid over the workspace and the free
    part formed again at each level, so its traced peak, the workspace with
    the running Duhamel sums, stays below 6 3-node chunks of the 128^2
    lattice (4.7 MB; 4.2 MB measured), where a free pair kept per chunk
    took 4.75 MB, five buffers with planes of their own 6.2 MB and the
    march on the whole lattice 9.8 MB."""
    out = run_python(
        "import json, tracemalloc\n"
        "import numpy as np\n"
        "from picardlab.harness import ExperimentConfig, _prepare, _sample_data\n"
        "from picardlab.picard import _CHUNK, _march\n"
        f"run = _prepare({REF128!r})\n"
        "data = _sample_data(run, 0)\n"
        "args = (3, data.phi0_rand.values[None], data.grid, run.tg, 'x1', ())\n"
        "_march(*args)\n"
        "tracemalloc.start()\n"
        "before = tracemalloc.get_traced_memory()[0]\n"
        "(per_node,), kept = _march(*args)\n"
        "peak = tracemalloc.get_traced_memory()[1]\n"
        "print(json.dumps([per_node.shape, bool(np.isfinite(per_node).all()), _CHUNK,\n"
        "                  peak - before]))\n")
    shape, finite, chunk, peak = json.loads(out)
    assert shape == [4, 3, 65] and finite
    assert peak < 6 * chunk * 128 * 128 * 16


# the criteria 10/11 config, whose samples march three at a time
ENS64 = ExperimentConfig(n_points=64, box_length=16.0 * math.pi, t_final=0.2,
                         n_steps=32, n_max=1, samples=16, band=2.0)


def test_a_warm_batch_of_three_64_samples_holds_its_step_workspace():
    """One warm batch of three 64^2, 33-node, n <= 1 samples in 2-node
    chunks: the physical du (0.39 MB), the four Duhamel buffers (0.71 MB),
    the level's running sums (0.27 MB) and the three data on the lattice
    and the box (0.29 MB) keep its traced peak below 2.1 MB (1.92 MB
    measured), where three samples marched one at a time peaked at
    1.26 MB."""
    run = _prepare(ENS64)
    assert picard._batch_size(run.phi0.grid) == 3
    _run_batch(run, range(3))
    tracemalloc.start()
    try:
        rows = _run_batch(run, range(3, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(r.sample_index, r.n) for r in rows] == [(i, n) for i in range(3, 6) for n in (0, 1)]
    assert all(r.finite for r in rows)
    assert peak < 2_100_000


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
    """Neither a serial run (one batch) nor a default run of two batches,
    which forks, imports multiprocessing or the stdlib process pool, and
    neither warns (every warning is an error here)."""
    configs = replace(SMALL, samples=2), replace(SMALL, n_points=64, samples=6)
    out = run_python(
        "import sys, warnings\n"
        "warnings.simplefilter('error')\n"
        "from picardlab import ExperimentConfig, emit_report, run_experiment\n"
        f"for k, config in enumerate({configs!r}):\n"
        f"    emit_report(run_experiment(config), {str(tmp_path)!r} + f'/{{k}}')\n"
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n")
    assert out.strip() == "[]"
    assert (tmp_path / "1" / "summary.json").is_file()


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
    # unset, the count is the cap where a fork is quiet, else 1
    monkeypatch.delenv("PICARDLAB_WORKERS")
    monkeypatch.setattr(harness, "_fork_is_quiet", lambda: True)
    assert _worker_count(2) == 2
    assert _worker_count(64) == 16
    monkeypatch.setattr(harness, "_fork_is_quiet", lambda: False)
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
