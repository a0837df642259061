"""Monte Carlo experiment runner for randomized Picard iterates.

Pipeline per batch of consecutive samples: derive each sample's sign draw
from (base_seed, sample_index), sign and sum the run's block projections of
phi0 into its datum, march the batch's levels 0..n_max together and keep
their three tracked norms.  A run is resolved once into one
:class:`PreparedRun` that every batch, worker, report and field dump uses.
Each sample keeps the bits of its march alone and the rows are merged by
sample index, so the report is a pure function of (config, base_seed, data
bytes) regardless of batch size and worker count (PICARDLAB_WORKERS;
by default one forked worker per CPU, up to one per batch, on Linux).

The moment verdicts compare the empirical L^p_omega norm of
||du^(n)||_{L^2_t L^4_x} (plug-in estimator, bootstrap upper confidence bound
with 200 resamples) against the growth bound

    C_cal * p^(2^n / 2) * ||phi0||_{H^1} * T^(1/2) * (2^n)!

C_cal is calibrated once per run from the n = 0 moments (the leading term of
the expansion) of the one moment pass the verdicts read: 1.05 times the worst
observed ratio against sqrt(p) ||phi0|| sqrt(T).  Verdicts are relative to this
frozen calibration and the report says so.  The small-interval regime requires
C_cal * ||phi0||_{H^1} * T < 1/2.

The interval scaling study fits log(median norm) against log T over halved
intervals; the tail study checks the empirical survival function of
||du^(n)|| against the calibrated moment growth fed through tail_from_moments.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import pickle
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import NoReturn

import numpy as np

from .grid import Field, Grid, _check_integer, as_spectral, make_grid, parse_field, sobolev_norm
from .moments import MomentBound, tail_from_moments
from .multipliers import D_CHOICES
from .picard import BlowUpError, TimeGrid, _batch_levels, _batch_size
from .randomization import (
    RandomizedData,
    _block_projections,
    _signed_sum,
    active_blocks,
    band_limited_field,
    draw_rademacher,
    gaussian_bump,
    randomize,
    support_radius,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SampleRow",
    "MomentVerdict",
    "ExperimentReport",
    "ScalingResult",
    "TailStudyResult",
    "load_config",
    "run_experiment",
    "interval_scaling_study",
    "tail_study",
    "emit_report",
    "emit_scaling",
    "emit_tail",
]

BOOTSTRAP_RESAMPLES = 200
BOOTSTRAP_QUANTILE = 0.95
CALIBRATION_MARGIN = 1.05
SMALL_REGIME_LIMIT = 0.5
SLOPE_RANGE = (0.4, 0.6)
WORKERS_ENV = "PICARDLAB_WORKERS"

DATA_FAMILIES = ("band_limited", "gaussian", "file", "zero")


class ConfigError(ValueError):
    """Configuration violates a run invariant."""


def _is_real(value) -> bool:
    """A real number that is not a bool; a string is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo run; hashable and picklable."""

    n_points: int = 64
    box_length: float = 16.0 * math.pi
    t_final: float = 0.2
    n_steps: int = 64
    n_max: int = 2
    samples: int = 16
    base_seed: int = 2026
    d_choice: str = "x1"
    family: str = "band_limited"
    band: float = 2.0
    h1_norm: float = 1.0
    sigma: float = 2.0
    amplitude: float = 1.0
    data_seed: int = 7
    data_path: str = ""
    p_list: tuple[int, ...] = (4, 6, 8)
    interval_list: tuple[float, ...] = ()
    require_small_regime: bool = True

    def __post_init__(self) -> None:
        if self.family not in DATA_FAMILIES:
            raise ConfigError(f"unknown data family {self.family!r}")
        if self.family == "file" and not (self.data_path and isinstance(self.data_path, str)):
            raise ConfigError(f"family 'file' needs data_path, a file name; "
                              f"got {self.data_path!r}")
        if self.d_choice not in D_CHOICES:
            raise ConfigError(f"d_choice must be one of {D_CHOICES}, got {self.d_choice!r}")
        # numbers are stored as Python ints and floats, which the run and
        # the hash take; the grid and the time grid check their own bounds
        for name, least in (("n_points", None), ("n_steps", None), ("n_max", 0), ("samples", 1),
                            ("base_seed", 0), ("data_seed", 0)):
            try:
                value = _check_integer(getattr(self, name), name)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            if least is not None and value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
            object.__setattr__(self, name, value)
        for name in ("box_length", "t_final", "band", "h1_norm", "sigma", "amplitude"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            if type(value) not in (int, float):
                object.__setattr__(self, name, float(value))
        if not isinstance(self.require_small_regime, bool):
            raise ConfigError(f"require_small_regime must be a bool, "
                              f"got {self.require_small_regime!r}")
        for name, number, must in (("p_list", int, "nonempty, of even integers >= 2"),
                                   ("interval_list", float, "a sequence of real numbers")):
            values = getattr(self, name)
            try:
                entries = tuple(values)
                if not all(map(_is_real, entries)) or name == "p_list" and (
                        not entries or any(p < 2 or p % 2 for p in entries)):
                    raise ValueError
                object.__setattr__(self, name, tuple(number(v) for v in entries))
            except (TypeError, ValueError):
                raise ConfigError(f"{name} must be {must}, got {values!r}") from None

    @property
    def config_hash(self) -> str:
        """Hash of every field, and of the data file's bytes for family 'file'."""
        return _hash_config(self, _data_digest(self)[1])


def _data_digest(config: ExperimentConfig) -> tuple[bytes, str]:
    if config.family != "file":
        return b"", ""
    try:
        raw = Path(config.data_path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
        raise ConfigError(f"cannot read data file {config.data_path!r}: {exc}") from exc
    return raw, hashlib.sha256(raw).hexdigest()


def _hash_config(config: ExperimentConfig, data_sha256: str) -> str:
    fields = asdict(config)
    if config.family == "file":
        fields["data_sha256"] = data_sha256
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True, eq=False)
class PreparedRun:
    """What :func:`_prepare` resolves once per run; one value for all its
    samples.  ``projections`` holds each block's projection of phi0 on its
    window, in block order, which every sample's datum signs and sums."""

    config: ExperimentConfig
    phi0: Field
    tg: TimeGrid
    phi0_h1: float
    blocks: tuple[tuple[int, int], ...]
    projections: tuple
    data_sha256: str
    config_hash: str


@dataclass(frozen=True)
class SampleRow:
    sample_index: int
    n: int
    finite: bool
    linf_h1_u: float
    linf_l2_dudt: float
    l2t_l4_du: float


@dataclass(frozen=True)
class MomentVerdict:
    n: int
    p: int
    empirical: float
    upper_ci: float
    bound: float
    ratio: float
    passed: bool


@dataclass(frozen=True)
class ExperimentReport:
    run: PreparedRun
    c_cal: float
    rows: tuple[SampleRow, ...]
    moment_verdicts: tuple[MomentVerdict, ...]
    level_stats: dict
    finite_fraction: float
    verdicts: dict

    @property
    def config(self) -> ExperimentConfig:
        return self.run.config

    @property
    def phi0_h1(self) -> float:
        return self.run.phi0_h1

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())


@dataclass(frozen=True)
class ScalingResult:
    t_values: tuple[float, ...]
    medians: dict
    slopes: dict

    def slope_ok(self, n: int) -> bool:
        return SLOPE_RANGE[0] <= self.slopes[n] <= SLOPE_RANGE[1]


@dataclass(frozen=True)
class TailStudyResult:
    n: int
    lam: tuple[float, ...]
    empirical: tuple[float, ...]
    bound: tuple[float, ...]
    checked: tuple[bool, ...]
    passed: bool
    finite_fraction: float


# ---------------------------------------------------------------------------
# Run preparation and the per-sample pipeline
# ---------------------------------------------------------------------------

def _build_phi0(config: ExperimentConfig, grid: Grid, raw: bytes) -> Field:
    if config.family == "band_limited":
        return band_limited_field(grid, band=config.band, seed=config.data_seed,
                                  h1_norm=config.h1_norm)
    if config.family == "gaussian":
        return gaussian_bump(grid, sigma=config.sigma, amplitude=config.amplitude)
    if config.family == "file":
        try:
            phi0 = parse_field(raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed data file {config.data_path!r}: {exc!r}") from exc
        if phi0.grid != grid:
            raise ConfigError(f"data file {config.data_path!r} holds {phi0.grid}, "
                              f"the config asks for {grid}")
        return phi0
    return Field(grid=grid, values=np.zeros((grid.n_points, grid.n_points)),
                 representation="physical")


def _prepare(config: ExperimentConfig) -> PreparedRun:
    """Resolve a run once; a data file is read once and hashed as parsed."""
    raw, data_sha256 = _data_digest(config)
    try:
        grid = make_grid(config.n_points, config.box_length)
        # overflow or a zero width may make phi0 non-finite; that is
        # reported below as a config error, not as a numpy warning
        with np.errstate(all="ignore"):
            phi0 = _build_phi0(config, grid, raw)
            phi0_h1 = sobolev_norm(phi0, 1.0)
        tg = TimeGrid(t_final=config.t_final, n_steps=config.n_steps)
    except ConfigError:
        raise
    except ValueError as exc:
        # grid/band/time constructor rejections are configuration mistakes
        raise ConfigError(str(exc)) from exc
    if not (np.all(np.isfinite(phi0.values)) and math.isfinite(phi0_h1)):
        source = f" ({config.data_path!r})" if config.family == "file" else ""
        raise ConfigError(f"data family {config.family!r}{source} gives a datum with "
                          f"non-finite values or H^1 norm ({phi0_h1})")
    blocks = active_blocks(phi0) if phi0_h1 > 0 else ()
    if config.family == "gaussian" and phi0_h1 > 0:
        # compactly supported (to rounding) datum: solution must not wrap
        margin = grid.box_length / 2.0 - support_radius(phi0) - config.t_final
        if margin <= 0:
            raise ConfigError(
                f"t_final {config.t_final} reaches the box boundary "
                f"(support margin {margin:.3g}); shrink T or enlarge the box")
    return PreparedRun(config, phi0, tg, phi0_h1, blocks,
                       _block_projections(as_spectral(phi0), blocks), data_sha256,
                       _hash_config(config, data_sha256))


def _sample_data(run: PreparedRun, idx: int) -> RandomizedData:
    """Sample ``idx``'s randomized datum: its sign draw applied to the run's phi0."""
    draw = draw_rademacher(run.config.base_seed, run.blocks, sample_index=idx)
    return randomize(run.phi0, None, draw)


def _run_batch(run: PreparedRun, indices: range) -> list[SampleRow]:
    """Rows (levels 0..n_max) of the samples ``indices``, marched together;
    a sample's datum is its sign draw applied to the run's projections, the
    bits of :func:`_sample_data`."""
    n_max, grid = run.config.n_max, run.phi0.grid
    if not run.blocks:
        return [SampleRow(idx, n, True, 0.0, 0.0, 0.0) for idx in indices for n in range(n_max + 1)]
    phi0 = np.zeros((len(indices), grid.n_points, grid.n_points), dtype=complex)
    for idx, total in zip(indices, phi0):
        draw = draw_rademacher(run.config.base_seed, run.blocks, sample_index=idx)
        _signed_sum(run.projections, map(draw.eps, run.blocks), total)
    rows: list[SampleRow] = []
    for idx, levels in zip(indices, _batch_levels(n_max, phi0, grid, run.tg,
                                                  run.config.d_choice)):
        try:
            for n, norms, _ in levels:
                rows.append(SampleRow(idx, n, True, **norms))
        except BlowUpError as exc:
            rows.extend(SampleRow(idx, m, False, math.inf, math.inf, math.inf)
                        for m in range(exc.n, n_max + 1))
    return rows


def _fork_is_quiet() -> bool:
    """Whether this process forks without Python's DeprecationWarning, which
    Python 3.12 and later raise when a process with more than one OS thread
    forks (numpy's OpenBLAS starts some unless OPENBLAS_NUM_THREADS=1)."""
    if sys.version_info < (3, 12):
        return True
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _worker_count(tasks: int) -> int:
    """The processes that share a run's ``tasks`` batches: PICARDLAB_WORKERS
    (an integer >= 1) capped at ``tasks`` and at the CPUs this process may
    run on (its affinity set under taskset or a cpuset, where the platform
    reports one).  Unset, it is that cap where a fork is quiet, else 1.
    Workers are forked, so only Linux runs more than one."""
    raw = os.environ.get(WORKERS_ENV)
    if raw is not None:
        try:
            workers = int(raw)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ConfigError(f"{WORKERS_ENV} must be an integer >= 1, got {raw!r}")
    if not (sys.platform.startswith("linux") and hasattr(os, "fork")):
        return 1
    if raw is None:
        workers = tasks if _fork_is_quiet() else 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(workers, tasks, cpus)


def _march_share(run: PreparedRun, share: range) -> list[SampleRow]:
    """Rows of the samples ``share``, marched in batches of
    :func:`.picard._batch_size` consecutive samples."""
    size = _batch_size(run.phi0.grid)
    return [row for at in range(0, len(share), size)
            for row in _run_batch(run, share[at:at + size])]


def _reply_and_exit(run: PreparedRun, share: range, write_fd: int) -> NoReturn:
    """A forked worker's whole life: march ``share`` and write its rows, or
    the exception that stopped it, pickled to ``write_fd``.  It ends with
    ``os._exit``, so no exit handler or buffered output of the parent runs
    twice, and with status 0 only once its reply is written."""
    status = 1
    try:
        try:
            reply = True, _march_share(run, share)
        except BaseException as exc:
            reply = False, exc
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(reply))
        status = 0
    finally:
        os._exit(status)


def _describe_wait_status(status: int) -> str:
    """How a worker whose wait status is ``status`` ended."""
    import signal  # loaded only when a run fails

    code = os.waitstatus_to_exitcode(status)
    return f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit status {code}"


def _map_shares(run: PreparedRun, shares: list[range]) -> list[SampleRow]:
    """The rows of ``shares`` (runs of sample indices), in order.  One worker
    is forked per share but the last, which this process marches; then it
    reads each worker's pipe to EOF and reaps every worker, in a
    ``finally``, before a worker's exception is re-raised here."""
    pids, pipes = [], []
    try:
        for share in shares[:-1]:
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
            except OSError:
                os.close(write_fd)
                raise
            if pid == 0:
                _reply_and_exit(run, share, write_fd)
            os.close(write_fd)
            pids.append(pid)
        own = _march_share(run, shares[-1])
        replies = [pipe.read() for pipe in pipes]
    except BaseException:
        import signal  # loaded only when a run fails

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    rows: list[SampleRow] = []
    for reply, status in zip(replies, statuses):
        if status:
            raise RuntimeError(f"a sample worker ended without sending its rows "
                               f"(wait status {status}: {_describe_wait_status(status)})")
        marched, value = pickle.loads(reply)
        if not marched:
            raise value
        rows.extend(value)
    return rows + own


def _sample_rows(run: PreparedRun) -> tuple[SampleRow, ...]:
    """All per-sample rows, sorted by (sample_index, n); schedule-independent.
    :func:`_worker_count` processes, at most one per batch of
    :func:`.picard._batch_size` samples, march equal runs of consecutive
    samples (to one sample); a zero datum marches nothing and forks no
    worker."""
    samples = run.config.samples
    workers = _worker_count(-(-samples // _batch_size(run.phi0.grid))) if run.blocks else 1
    return tuple(_map_shares(run, [range(k * samples // workers, (k + 1) * samples // workers)
                                   for k in range(workers)]))


# ---------------------------------------------------------------------------
# Moment verdicts and calibration
# ---------------------------------------------------------------------------

def _norms_by_level(rows, n_max: int) -> dict:
    return {n: np.array([r.l2t_l4_du for r in rows if r.n == n]) for n in range(n_max + 1)}


def _plugin_moment(x: np.ndarray, p: int) -> float:
    return float(np.mean(x ** float(p)) ** (1.0 / p))


def _quantile(x: np.ndarray, q: float | None) -> float:
    """np.quantile(x, q) with numpy's default (linear) method, or np.median(x)
    for q None, bit for bit on a nonempty array of finite floats none of
    which is -0.0 (numpy may pick either zero of a tie of 0.0 and -0.0).

    numpy 2.x reaches both through code that imports numpy.ma on first use;
    this sorts and follows numpy's arithmetic step by step.
    """
    s = np.sort(x)
    n = s.size
    if q is None:
        # the mean of the middle one or two values
        mid = n // 2
        return float(s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0)
    v = (n - 1) * q
    lo = math.floor(v)
    if v >= n - 1:
        lo = hi = -1
    else:
        hi = lo + 1
    t = v - lo
    a, b = s[lo], s[hi]
    diff = b - a
    return float(b - diff * (1.0 - t) if t >= 0.5 else a + diff * t)


def _level_stats(x: np.ndarray) -> dict:
    """Statistics of one level's norms over their finite values, and the
    fraction of the norms that are finite; inf (and 0.0) when none is."""
    xf = x[np.isfinite(x)]
    if not xf.size:
        return {"mean": math.inf, "median": math.inf, "q05": math.inf, "q95": math.inf,
                "max": math.inf, "finite_fraction": 0.0}
    return {
        "mean": float(np.mean(xf)),
        "median": _quantile(xf, None),
        "q05": _quantile(xf, 0.05),
        "q95": _quantile(xf, 0.95),
        "max": float(np.max(xf)),
        "finite_fraction": float(xf.size / x.size),
    }


def _bootstrap_upper(x: np.ndarray, p: int, boot_idx: np.ndarray, plugin: float) -> float:
    """The bootstrap quantile of the p-th moment of ``x``, and at least its
    ``plugin`` estimate."""
    boots = np.mean(x[boot_idx] ** float(p), axis=1) ** (1.0 / p)
    return max(_quantile(boots, BOOTSTRAP_QUANTILE), plugin)


def _moment_bound(c_cal: float, n: int, p: int, phi0_h1: float, t_final: float) -> float:
    """C_cal p^(2^n/2) ||phi0||_H1 sqrt(T) (2^n)!; inf once it leaves the
    float range (from n = 8 on), where it holds trivially, and 0 for a zero
    datum."""
    try:
        return (c_cal * p ** (2**n / 2.0) * phi0_h1 * math.sqrt(t_final)
                * math.factorial(2**n))
    except OverflowError:
        return math.inf if c_cal * phi0_h1 > 0 else 0.0


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Monte Carlo over sign draws: norms, moment verdicts, regime bookkeeping."""
    run = _prepare(config)
    phi0_h1 = run.phi0_h1
    rows = _sample_rows(run)
    by_level = _norms_by_level(rows, config.n_max)
    finite_fraction = float(np.mean([r.finite for r in rows]))

    rng = np.random.Generator(np.random.Philox(
        seed=np.random.SeedSequence((config.base_seed, 0xB007))))
    boot_idx = rng.integers(0, config.samples,
                            size=(BOOTSTRAP_RESAMPLES, config.samples))

    # (p, plug-in, bootstrap upper) per level and p; inf for a level with a
    # non-finite norm
    moments = {n: [(p, emp := _plugin_moment(x, p), _bootstrap_upper(x, p, boot_idx, emp))
                   if np.all(np.isfinite(x)) else (p, math.inf, math.inf) for p in config.p_list]
               for n, x in by_level.items()}
    root_t = math.sqrt(config.t_final)
    c_cal = 0.0
    if phi0_h1 > 0:
        c_cal = CALIBRATION_MARGIN * max(
            upper / (math.sqrt(p) * phi0_h1 * root_t) for p, _, upper in moments[0])

    verdicts_list = []
    for n, level in moments.items():
        for p, emp, upper in level:
            bound = _moment_bound(c_cal, n, p, phi0_h1, config.t_final)
            if bound == 0.0:
                ratio = 0.0 if upper == 0.0 else math.inf
            else:
                ratio = upper / bound
            verdicts_list.append(MomentVerdict(
                n=n, p=p, empirical=emp, upper_ci=upper, bound=bound,
                ratio=ratio, passed=ratio <= 1.0))

    small_regime_value = c_cal * phi0_h1 * config.t_final
    verdicts = {
        "all_samples_finite": finite_fraction == 1.0,
        "moment_ratios": all(v.passed for v in verdicts_list),
        "small_regime": small_regime_value < SMALL_REGIME_LIMIT,
    }
    if config.require_small_regime and not verdicts["small_regime"]:
        raise ConfigError(
            f"small-interval regime violated: C_cal*||phi0||*T = "
            f"{small_regime_value:.4g} >= {SMALL_REGIME_LIMIT}")

    return ExperimentReport(
        run=run, c_cal=c_cal, rows=rows,
        moment_verdicts=tuple(verdicts_list),
        level_stats={n: _level_stats(x) for n, x in by_level.items()},
        finite_fraction=finite_fraction, verdicts=verdicts)


# ---------------------------------------------------------------------------
# Interval scaling and tail studies
# ---------------------------------------------------------------------------

def interval_scaling_study(config: ExperimentConfig) -> ScalingResult:
    """Slope of log(median ||du^(n)||) vs log T over a halving ladder of T."""
    ts = tuple(sorted(config.interval_list, reverse=True))
    if len(ts) < 4:
        raise ConfigError(f"need >= 4 interval values, got {len(ts)}")
    if not all(math.isfinite(t) and t > 0 for t in ts):
        raise ConfigError(f"interval_list values must be positive and finite: {ts}")
    for a, b in zip(ts, ts[1:]):
        if abs(b / a - 0.5) > 1e-6:
            raise ConfigError(f"intervals must halve: {a} -> {b}")
    # one datum for the whole ladder, support-checked at the largest T
    run = _prepare(replace(config, t_final=ts[0]))
    medians: dict = {n: [] for n in range(config.n_max + 1)}
    for t in ts:
        rows = _sample_rows(replace(run, tg=TimeGrid(t_final=t, n_steps=config.n_steps)))
        for n, x in _norms_by_level(rows, config.n_max).items():
            medians[n].append(_level_stats(x)["median"])
    slopes = {}
    for n, meds in medians.items():
        good = [(t, m) for t, m in zip(ts, meds) if math.isfinite(m) and m > 0]
        if len(good) < 3:
            raise ConfigError(f"degenerate fit at n={n}: "
                              f"{len(good)} finite medians (need >= 3)")
        log_t = np.log([t for t, _ in good])
        log_m = np.log([m for _, m in good])
        slopes[n] = float(np.polyfit(log_t, log_m, 1)[0])
    return ScalingResult(t_values=ts,
                         medians={n: tuple(m) for n, m in medians.items()},
                         slopes=slopes)


def tail_study(config: ExperimentConfig, n: int) -> TailStudyResult:
    """Empirical P(||du^(n)|| > lam) against the calibrated sub-Weibull bound.

    The moment growth C_cal p^(2^n/2) ||phi0|| sqrt(T) (2^n)! is rewritten as
    c * n_scale^(-1) * p^(k/2) with k = 2^n and n_scale = 1/(2^n ||phi0||
    sqrt(T)), then converted by tail_from_moments.  The 33-point geometric
    lambda grid runs from half the median norm past both the largest norm and
    the point where the bound crosses 1.  The domination check runs at grid
    points where the bound is nonvacuous (<= 1); vacuous points are recorded
    but not judged.
    """
    if config.samples < 512:
        raise ConfigError(f"tail study needs >= 512 samples, got {config.samples}")
    if not 0 <= n <= 2:
        raise ConfigError(f"tail study supports 0 <= n <= 2, got {n}")
    report = run_experiment(replace(config, n_max=n))
    if report.phi0_h1 == 0:
        raise ConfigError("tail study needs nonzero data")
    stats = report.level_stats[n]
    if not stats["finite_fraction"]:
        raise ConfigError("tail study has no finite samples")
    x = _norms_by_level(report.rows, n)[n]
    k = 2**n
    scale = k * report.phi0_h1 * math.sqrt(config.t_final)
    mb = MomentBound(c=report.c_cal * math.factorial(k) / k, alpha=1.0,
                     n_scale=1.0 / scale, k=float(k), p0=2.0)
    # cover the vacuous region (bound > 1, recorded only) AND a decade of
    # the nonvacuous region; lam_vac is where the bound crosses 1
    lam_vac = math.e * mb.c * scale * mb.p0 ** (k / 2.0)
    hi = max(4.0 * stats["max"], 8.0 * lam_vac)
    lam = tuple(float(v) for v in np.geomspace(0.5 * stats["median"], hi, 33))
    empirical = tuple(float(np.mean(x > v)) for v in lam)
    bound = tuple(tail_from_moments(mb, v) for v in lam)
    checked = tuple(b <= 1.0 for b in bound)
    passed = all(e <= b for e, b, c in zip(empirical, bound, checked) if c)
    return TailStudyResult(n=n, lam=lam, empirical=empirical,
                           bound=bound, checked=checked, passed=passed,
                           finite_fraction=stats["finite_fraction"])


# ---------------------------------------------------------------------------
# Report emission (deterministic bytes)
# ---------------------------------------------------------------------------

def _write_text(path: Path, text: str) -> Path:
    try:
        path.write_text(text, newline="\n")
    except OSError as exc:
        raise OSError(f"failed writing report file {path}: {exc}") from exc
    return path


def _rows_csv(report: ExperimentReport) -> str:
    lines = [f"# picardlab rows v1 config={report.run.config_hash} "
             f"seed={report.config.base_seed}",
             "sample_index,n,finite,linf_h1_u,linf_l2_dudt,l2t_l4_du"]
    for r in report.rows:
        lines.append(f"{r.sample_index},{r.n},{int(r.finite)},"
                     f"{r.linf_h1_u!r},{r.linf_l2_dudt!r},{r.l2t_l4_du!r}")
    return "\n".join(lines) + "\n"


def _two_column_csv(header: str, pairs) -> str:
    lines = [header] + [f"{a!r},{b!r}" for a, b in pairs]
    return "\n".join(lines) + "\n"


def _summary_payload(report: ExperimentReport) -> dict:
    payload = {
        "version": _package_version(),
        "config": asdict(report.config),
        "config_hash": report.run.config_hash,
        "base_seed": report.config.base_seed,
        "phi0_h1": report.phi0_h1,
        "c_cal": report.c_cal,
        "calibration_note": (
            "C_cal frozen from the n=0 moments of this run "
            f"(x{CALIBRATION_MARGIN} margin over the bootstrap upper CI); "
            "verdicts are relative to this calibration"),
        "finite_fraction": report.finite_fraction,
        "level_stats": {str(n): s for n, s in report.level_stats.items()},
        "moments": [asdict(v) for v in report.moment_verdicts],
        "verdicts": dict(report.verdicts),
        "all_pass": report.all_pass,
    }
    if report.config.family == "file":
        payload["data_sha256"] = report.run.data_sha256
    return payload


def _package_version() -> str:
    from . import __version__
    return __version__


def emit_scaling(scaling: ScalingResult, out_dir) -> tuple[Path, ...]:
    """Two-column plot data per level: log10 T vs log10 median norm."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for n, meds in sorted(scaling.medians.items()):
        pairs = [(math.log10(t), math.log10(m))
                 for t, m in zip(scaling.t_values, meds)
                 if math.isfinite(m) and m > 0]
        written.append(_write_text(out / f"scaling_n{n}.csv",
                                   _two_column_csv("log10_t,log10_median", pairs)))
    return tuple(written)


def emit_tail(tail: TailStudyResult, out_dir) -> tuple[Path, ...]:
    """Two-column plot data: lambda vs empirical tail, lambda vs bound."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return (
        _write_text(out / f"tail_n{tail.n}_empirical.csv",
                    _two_column_csv("lambda,tail", zip(tail.lam, tail.empirical))),
        _write_text(out / f"tail_n{tail.n}_bound.csv",
                    _two_column_csv("lambda,bound", zip(tail.lam, tail.bound))),
    )


def emit_report(report: ExperimentReport, out_dir) -> tuple[Path, ...]:
    """Write the run's rows.csv and summary.json into ``out_dir``; the scaling
    and tail studies write their plot data through emit_scaling / emit_tail."""
    if not report.rows:
        raise ValueError("refusing to emit an empty report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = _summary_payload(report)
    return (
        _write_text(out / "rows.csv", _rows_csv(report)),
        _write_text(out / "summary.json",
                    json.dumps(payload, sort_keys=True, indent=2) + "\n"),
    )


# ---------------------------------------------------------------------------
# Declarative config files (INI: one section per concern, key = value lines)
# ---------------------------------------------------------------------------

def _ini_boolean(raw: str) -> bool:
    """configparser's boolean words (1/0, yes/no, true/false, on/off); anything
    else is an error, so a typo cannot switch a gate off."""
    import configparser

    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


_INI_SCHEMA = {
    ("grid", "n_points"): ("n_points", int),
    ("grid", "box_length"): ("box_length", float),
    ("time", "t_final"): ("t_final", float),
    ("time", "n_steps"): ("n_steps", int),
    ("experiment", "n_max"): ("n_max", int),
    ("experiment", "samples"): ("samples", int),
    ("experiment", "base_seed"): ("base_seed", int),
    ("experiment", "d_choice"): ("d_choice", str),
    ("experiment", "p_list"): ("p_list", lambda s: tuple(int(v) for v in s.split())),
    ("experiment", "interval_list"):
        ("interval_list", lambda s: tuple(float(v) for v in s.split())),
    ("experiment", "require_small_regime"): ("require_small_regime", _ini_boolean),
    ("data", "family"): ("family", str),
    ("data", "band"): ("band", float),
    ("data", "h1_norm"): ("h1_norm", float),
    ("data", "sigma"): ("sigma", float),
    ("data", "amplitude"): ("amplitude", float),
    ("data", "data_seed"): ("data_seed", int),
    ("data", "data_path"): ("data_path", str),
}


def load_config(path, **overrides) -> ExperimentConfig:
    """Read an INI config file; keyword overrides win over file values."""
    import configparser

    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        entries = [(section, key, raw) for section in parser.sections()
                   for key, raw in parser.items(section)]
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    kwargs = {}
    for section, key, raw in entries:
        try:
            field, conv = _INI_SCHEMA[(section, key)]
        except KeyError:
            raise ConfigError(f"unknown config entry [{section}] {key}") from None
        try:
            kwargs[field] = conv(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for [{section}] {key}: {exc}") from exc
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**kwargs)
