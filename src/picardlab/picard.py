"""Free wave evolution, the Duhamel operator, and the Picard iterate recursion.

The model is the scalar derivative wave equation on the periodic box: iterates
are defined by

    du^(n) = du^(0) + A0(du^(n-1), du^(n-1)),
    A0(f, g)(t) = integral_0^t  d sin((t-t')|grad|)/|grad| [f g](t') dt',

where d is a fixed first-order derivative (d/dx1 by default, d/dx2 or d/dt by
configuration).  All propagators are exact Fourier multipliers; the time
integral is composite trapezoid on the uniform time grid.  Angle addition
splits each kernel into a factor of t times a factor of t',

    sinc(t-t') = sinc(t) cos(t') - cos(t) sinc(t'),
    cos(t-t')  = cos(t) cos(t') + |xi| sin(t) sinc(t'),

with sinc(t) = sin(t|xi|)/|xi|, exact at xi = 0 too (sinc = t there), so u
and dt u at every node come from two cumulative sums per Fourier mode.  d u
is i xi_d u, or dt u for d = d/dt.

The quadratic nonlinearity is Galerkin-truncated with the 2/3 rule: factors
and product are projected onto the box |m_i| <= N/3 before and after the
pointwise square, so the computed system is exactly the truncated Galerkin
wave system (alias-free) and the product is bilinear in its factors -- the
property the tree-expansion oracle relies on.  :func:`_region` is the box's
one definition and holds its modes side by side in one compact array; every
spectral stage takes the region whose layout it works in.  Work the
truncation makes zero is skipped with unchanged values: numpy's 2-D
transforms are one 1-D pass per axis, each line on its own, so the inverse
transform of a box spectrum runs its first pass on the box rows only and a
forward transform truncated to the box runs its second pass on the box
columns only.  Every Duhamel source of the recursion and of the tree terms
is a product, zero outside the box, so its sums, its parts and their
derivative stay in the compact box; the public :func:`duhamel` takes
arbitrary sources and keeps the whole lattice.

The iterates come from one time march.  Duhamel is causal and the product is
pointwise in time, so du^(n) at the nodes up to t_m needs only du^(n-1) at
those nodes and the running sums of level n.  Levels 0..n_max therefore
advance together, a short chunk of nodes at a time, and the running sums
carry over from chunk to chunk in the same operation order, so any chunk
length gives the same bits.  Every chunked loop, the tree sum's too, walks
:func:`_chunk_tables`, which forms each chunk's propagator rows on the
distinct |xi| of the modes it serves; no table over the whole series is
kept.  The levels of a chunk run one after another, so one workspace of
chunk-sized buffers, allocated when the march starts, serves all of them and
the march maps no fresh memory per chunk.  The one lattice-sized stage is a
level's physical du, which gives its L^4 norm and is squared for the next
level's product.  Outside the box every iterate is its free part, the same
at every level, so a datum with modes there (a Gaussian bump, say) adds that
part's norm sums and physical du, formed once per chunk, to every level's.
:func:`_d_duhamel_part` is the one place d picks the part of (u, dt u) it
reads; the march forms both, since its norms read both.

The march takes a stack of data, the samples of a Monte Carlo batch, with a
sample axis after the node axis: the samples advance together through one
set of chunk tables (broadcast over them) and one workspace, and each keeps
the bits of its march alone, since every transform, product and sum acts on
one sample's lines.  A batch is as many samples as one step of
``_STEP_BYTES`` holds at 2 nodes each on the lattice (:func:`_batch_size`):
3 at 64^2, and one from 128^2 on, where a single sample's chunk already
fills the cache.  A single datum marches alone in chunks of ``_CHUNK`` = 3
nodes.

Iterates can grow factorially outside the small-interval regime, so every
norm is checked against a blow-up guard and :class:`BlowUpError` carries the
diagnostic of a sample's first failing level; a sample's levels after one
sure to fail are dropped, and advanced further only while a batch-mate
needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import Collection, Iterator, Sequence

import numpy as np

from .grid import (Grid, PHYSICAL, SPECTRAL, _check_integer, _sobolev_sums, _sobolev_weight,
                   lp_nodes)
from .multipliers import (D_CHOICES, abs_xi_levels, halfwave_rows, halfwave_tables,
                          spatial_derivative, symbol_array)
from .randomization import RandomizedData

__all__ = [
    "TimeGrid",
    "FieldSeries",
    "IterateRecord",
    "BlowUpError",
    "free_evolution",
    "free_derivative_hat",
    "duhamel",
    "product_dealias",
    "picard_iterate",
    "picard_chain",
    "space_time_norm",
    "energy_inequality_check",
    "EnergyCheckResult",
]

BLOWUP_GUARD = 1e12


@dataclass(frozen=True)
class TimeGrid:
    """Uniform nodes t_m = m T / n_steps, m = 0..n_steps."""

    t_final: float
    n_steps: int

    def __post_init__(self) -> None:
        steps = _check_integer(self.n_steps, "n_steps")
        if not math.isfinite(self.t_final):
            raise ValueError(f"t_final must be finite, got {self.t_final}")
        if not self.t_final > 0.0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        if steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {steps}")
        object.__setattr__(self, "n_steps", steps)

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class FieldSeries:
    """A time-indexed scalar field: values[m] is the field at node t_m.

    Physical values may be complex: the signed block resummation of real data
    is only conjugate-symmetric for symmetric sign draws, so iterate series
    carry complex samples in general (all norms use the modulus).  Read-only
    values of the right dtype are wrapped, not copied; writeable ones are.
    """

    grid: Grid
    timegrid: TimeGrid
    values: np.ndarray
    representation: str

    def __post_init__(self) -> None:
        if self.representation not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown representation {self.representation!r}")
        n, m = self.grid.n_points, self.timegrid.n_nodes
        real = self.representation == PHYSICAL and not np.iscomplexobj(self.values)
        vals = np.asarray(self.values, dtype=np.float64 if real else np.complex128)
        if vals.shape != (m, n, n):
            raise ValueError(f"series shape {vals.shape}, expected {(m, n, n)}")
        if vals.flags.writeable:
            vals = vals.copy()
            vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def _frozen_series(grid: Grid, tg: TimeGrid, hat: np.ndarray) -> FieldSeries:
    """Wrap a spectral array the engine has just computed, freezing it in place."""
    hat.flags.writeable = False
    return FieldSeries(grid, tg, hat, SPECTRAL)


def series_to_physical(series: FieldSeries) -> FieldSeries:
    if series.representation == PHYSICAL:
        return series
    phys = np.fft.ifft2(series.values, norm="ortho", axes=(1, 2))
    scale = float(np.max(np.abs(phys.real)))
    if float(np.max(np.abs(phys.imag))) <= 1e-12 * max(scale, 1e-300):
        phys = phys.real
    return FieldSeries(series.grid, series.timegrid, phys, PHYSICAL)


class BlowUpError(RuntimeError):
    """An iterate norm left the finite range (NaN/inf or above the guard)."""

    def __init__(self, n: int, norm_name: str, value: float):
        super().__init__(f"iterate {n}: {norm_name} = {value:.3e} exceeds guard {BLOWUP_GUARD:.0e}")
        self.n = n
        self.norm_name = norm_name
        self.value = value


# ---------------------------------------------------------------------------
# Propagator tables and the separable Duhamel integral
# ---------------------------------------------------------------------------

# Time nodes per step of a one-sample march: a chunk's arrays stay well
# inside a 2 MB L2 (0.8 MB each at 128^2).
_CHUNK = 3
# Lattice bytes of one step of a batched march, B samples x 2 nodes: six
# complex nodes at 64^2, where B = 3 is as fast as B = 4 and holds less.
_STEP_BYTES = 6 * 16 * 64**2


def _batch_size(grid: Grid) -> int:
    """Samples a Monte Carlo run marches together on ``grid``."""
    return max(1, _STEP_BYTES // (2 * 16 * grid.n_points**2))


def _chunk_length(tg: TimeGrid, batch: int = 1) -> int:
    """Nodes in the first, longest chunk of a march of ``batch`` samples:
    the length of every chunk buffer."""
    return min(_CHUNK if batch == 1 else 2, tg.n_nodes)


@dataclass(frozen=True, eq=False)
class _Region:
    """The modes a spectral stage works on, held as one contiguous array:
    the whole lattice, or the box with its four quadrants side by side.
    ``pairs`` maps each (rows, cols) slice pair of the full lattice to its
    place in that array; every kernel is pointwise per mode, so the layout
    changes no value.  In that layout ``abs_xi`` holds each mode's |xi|,
    ``h1_weight`` its H^1 weight and ``index`` its place among ``levels``,
    the region's distinct |xi| (:func:`.multipliers.abs_xi_levels`)."""

    pairs: tuple
    size: int
    grid: Grid
    abs_xi: np.ndarray = field(init=False, repr=False)
    h1_weight: np.ndarray = field(init=False, repr=False)
    levels: np.ndarray = field(init=False, repr=False)
    index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        abs_xi = self.gather(self.grid.abs_xi)
        arrays = (abs_xi, self.gather(_sobolev_weight(self.grid, 1.0))) + abs_xi_levels(abs_xi)
        for name, arr in zip(("abs_xi", "h1_weight", "levels", "index"), arrays):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def gather(self, full: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The region's modes of ``full`` in the compact layout, written into
        ``out`` (or a fresh array); the whole lattice is ``full`` itself."""
        if len(self.pairs) == 1:
            return full
        if out is None:
            out = np.empty(full.shape[:-2] + (self.size, self.size), dtype=full.dtype)
        for (rows, cols), (c_rows, c_cols) in self.pairs:
            out[..., c_rows, c_cols] = full[..., rows, cols]
        return out

    def spread(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``rows`` (nodes x ``levels``) on the region's modes,
        written into ``out`` (or a fresh array) of shape (nodes, size, size).

        The indices are in range; mode "clip" writes into ``out`` without
        the buffered copy of the default mode.
        """
        return np.take(rows, self.index, axis=1, out=out, mode="clip")

    def buffers(self, *lead: int) -> np.ndarray:
        """A Duhamel step's workspace of leading shape ``lead`` (up to so
        many nodes, or nodes x samples), four buffers in one array: scratch
        (the gathered source), the sum A (dt u once u is formed), the sum B
        and the part u.  Between steps the whole block is free, so a caller
        may lay other scratch over it."""
        return np.empty((4,) + lead + (self.size, self.size), dtype=complex)

    def place(self, part: np.ndarray, out: np.ndarray) -> None:
        """Write the compact ``part`` into its modes of ``out``; the other
        modes of ``out`` are left as they are."""
        for (rows, cols), (c_rows, c_cols) in self.pairs:
            out[..., rows, cols] = part[..., c_rows, c_cols]


@lru_cache(maxsize=8)
def _region(grid: Grid, box: bool) -> _Region:
    """The whole lattice or, with ``box``, the box: the one definition of
    the modes the 2/3 rule keeps, |m_1|, |m_2| <= N/3.  On each axis the
    box's lattice bands are 0..N/3 and N-N/3..N-1 of numpy's unshifted
    layout, side by side in the compact layout; its ``pairs`` are basic
    slices, so indexing with them gives views."""
    n = grid.n_points
    if not box:
        whole = (slice(None), slice(None))
        return _Region(((whole, whole),), n, grid)
    cut = n // 3
    bands = tuple(zip((slice(0, cut + 1), slice(n - cut, n)),
                      (slice(0, cut + 1), slice(cut + 1, 2 * cut + 1))))
    return _Region(tuple(((rows, cols), (c_rows, c_cols)) for rows, c_rows in bands
                         for cols, c_cols in bands), 2 * cut + 1, grid)


def _gap_lines(grid: Grid) -> tuple[tuple, tuple]:
    """Index tuples of the rows and of the columns N/3 < |m| the box leaves
    out; together they cover every mode outside it."""
    ((low, _), _), *_, ((high, _), _) = _region(grid, True).pairs
    gap = slice(low.stop, high.start)
    return (..., gap, slice(None)), (..., slice(None), gap)


def _inside_box(hat: np.ndarray, grid: Grid) -> bool:
    """Whether a spectrum is exactly zero outside the box."""
    return not any(hat[lines].any() for lines in _gap_lines(grid))


class _DuhamelSums:
    """The Duhamel integral of a source that arrives a chunk of nodes at a
    time, the one Duhamel body of the engine: with the trapezoid sums
    A = sum''(cos S) and B = sum''(sinc S) up to each node, u = sinc A -
    cos B and dt u = cos A + |xi| sin B.  Each sum is a running sum minus
    the half-weight terms of the first and the current node; both carry
    over from chunk to chunk.  sinc vanishes at t_0 = 0, so B keeps no
    first half-weight term."""

    def __init__(self, region: _Region, tg: TimeGrid):
        self.region = region
        self.dt = tg.dt
        self.node = 0
        self.run: list = [None, None]
        self.half_first: list = [None, None]

    def _sum(self, i: int, f: np.ndarray, scratch: np.ndarray) -> None:
        """Trapezoid sums dt * sum''_{l<=m} f[l] of sum ``i``, in place;
        ``scratch`` holds one node."""
        rest = f
        if self.node == 0:
            self.run[i] = f[0].copy()
            self.half_first[i] = 0.5 * f[0] if i == 0 else None
            f[0] = 0.0
            rest = f[1:]
        run, half_first = self.run[i], self.half_first[i]
        for row in rest:
            run += row
            # row = run - half_first - 0.5 * row, for B run - 0.5 * row
            np.multiply(0.5, row, out=row)
            if half_first is None:
                np.subtract(run, row, out=row)
            else:
                np.subtract(run, half_first, out=scratch)
                np.subtract(scratch, row, out=row)
        f *= self.dt

    def advance(self, src: np.ndarray, work: Sequence[np.ndarray],
                tables: tuple[np.ndarray, ...], want_u: bool = True, want_dt: bool = True
                ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(u, dt u) at the next ``len(src)`` nodes from the source ``src``
        there, in the region's layout, with the (cos, sin, sinc) ``tables``
        on its modes (sin read only for dt u); a part not asked for is None.
        All work is done in the four buffers of ``work``
        (:meth:`_Region.buffers`), whose scratch may hold ``src``; the parts
        are views of them, valid until the next call that uses them, and
        B's buffer is free on return."""
        scratch, a, b, u = (buf[:len(src)] for buf in work)
        c, s, sc = tables
        np.multiply(c, src, out=a)
        np.multiply(sc, src, out=b)
        # A and B hold all the source is needed for: the scratch is free
        self._sum(0, a, scratch[0])
        self._sum(1, b, scratch[0])
        self.node += len(src)
        if want_u:
            np.multiply(sc, a, out=u)
            u -= np.multiply(c, b, out=scratch)
        if want_dt:
            b *= self.region.abs_xi
            np.multiply(c, a, out=a)
            a += np.multiply(s, b, out=scratch)
        return u if want_u else None, a if want_dt else None


def _chunk_tables(tg: TimeGrid, region: _Region, spread: tuple[bool, ...] = (True, True, True),
                  batch: int = 1) -> Iterator[tuple[slice, tuple[np.ndarray | None, ...]]]:
    """The one walk over the chunks of nodes of ``tg`` (of a march of
    ``batch`` samples, :func:`_chunk_length`): each chunk with its
    (cos, sin, sinc) tables on the modes of ``region``, None where
    ``spread`` is False, spread from rows on the region's ``levels``.  The
    rows and the tables are chunk-sized buffers allocated at the first
    chunk and rewritten at each."""
    length = _chunk_length(tg, batch)
    times = tg.times
    rows = tuple(np.empty((length, len(region.levels))) for _ in range(3))
    tables = tuple(np.empty((length, region.size, region.size)) if want else None
                   for want in spread)
    for start in range(0, tg.n_nodes, length):
        nodes = slice(start, min(start + length, tg.n_nodes))
        k = nodes.stop - start
        halfwave_rows(times[nodes], region.levels, out=tuple(row[:k] for row in rows))
        yield nodes, tuple(None if table is None else region.spread(row[:k], out=table[:k])
                           for row, table in zip(rows, tables))


def _d_duhamel_part(src: np.ndarray, sums: _DuhamelSums, work: Sequence[np.ndarray],
                    tables: tuple[np.ndarray | None, ...], d_choice: str) -> np.ndarray:
    """d of the Duhamel integral at the next ``len(src)`` nodes, in the
    region of ``sums``: the one place d picks its part of (u, dt u), dt u
    or u times i xi_d, formed in the buffers ``work`` with the chunk's
    ``tables`` (see :meth:`_DuhamelSums.advance`), where the result lies."""
    u, dt_u = sums.advance(src, work, tables, want_u=d_choice != "t", want_dt=d_choice == "t")
    return _derivative_hat(u, dt_u, sums.region, d_choice, out=u)


def _d_duhamel_hat(source: np.ndarray, region: _Region, tg: TimeGrid, d_choice: str
                   ) -> np.ndarray:
    """d of the Duhamel integral at every node, the source and the result
    in the layout of ``region``, a chunk at a time; the result's rows stand
    in for the buffer d's part is formed in (dt u over the sum A, or u's)."""
    sums = _DuhamelSums(region, tg)
    work = list(region.buffers(_chunk_length(tg)))
    slot = 1 if d_choice == "t" else 3
    out = np.empty(source.shape, dtype=complex)
    for nodes, tables in _chunk_tables(tg, region, spread=(True, d_choice == "t", True)):
        work[slot] = out[nodes]
        _d_duhamel_part(source[nodes], sums, work, tables, d_choice)
    return out


def _check_d_choice(d_choice: str) -> None:
    if d_choice not in D_CHOICES:
        raise ValueError(f"d_choice must be one of {D_CHOICES}, got {d_choice!r}")


def _check_level(n: int, name: str) -> None:
    """An iterate level is a non-negative Python or numpy integer; a bool, a
    float or a string is refused even when it equals one."""
    if _check_integer(n, name) < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")


def duhamel(source: FieldSeries, tg: TimeGrid, d_choice: str = "x1") -> FieldSeries:
    """A0 applied to a source series: out(t) = int_0^t M(t-t') source(t') dt'.

    M is the m01 multiplier for the configured derivative (cos symbol for
    d_choice="t").  Output is spectral.
    """
    _check_d_choice(d_choice)
    if source.timegrid != tg:
        raise ValueError("source series lives on a different time grid")
    src = source.values
    if source.representation != SPECTRAL:
        src = np.fft.fft2(src, norm="ortho", axes=(-2, -1))
    out = _d_duhamel_hat(src, _region(source.grid, False), tg, d_choice)
    return _frozen_series(source.grid, tg, out)


# ---------------------------------------------------------------------------
# Dealiased products
# ---------------------------------------------------------------------------

def _box_ifft2(hat: np.ndarray, region: _Region, out: np.ndarray | None = None
               ) -> np.ndarray:
    """ifft2 of ``hat``, in the layout of ``region``, truncated to the box,
    over the trailing two axes, written into ``out`` (or a fresh array) on
    the lattice; the first pass runs on the box rows only."""
    grid = region.grid
    if out is None:
        n = grid.n_points
        out = np.empty(hat.shape[:-2] + (n, n), dtype=complex)
    region.place(hat, out)
    for lines in _gap_lines(grid):
        out[lines] = 0.0
    for (rows, _), _ in _region(grid, True).pairs[::2]:  # each row band once
        band = out[..., rows, :]
        np.fft.ifft(band, axis=-1, norm="ortho", out=band)
    return np.fft.ifft(out, axis=-2, norm="ortho", out=out)


def _box_fft2(phys: np.ndarray, region: _Region, out: np.ndarray | None = None
              ) -> np.ndarray:
    """fft2 of ``phys`` over the trailing two axes, truncated to the box, in
    the layout of ``region``: in place on the lattice, or gathered into
    ``out`` (or a fresh array) on the box; the second pass runs on the box
    columns only."""
    box = _region(region.grid, True)
    np.fft.fft(phys, axis=-1, norm="ortho", out=phys)
    for (_, cols), _ in box.pairs[:2]:  # each column band once
        band = phys[..., :, cols]
        np.fft.fft(band, axis=-2, norm="ortho", out=band)
    if region is not box:
        for lines in _gap_lines(region.grid):
            phys[lines] = 0.0
    return region.gather(phys, out=out)


def product_dealias(a_hat: np.ndarray, b_hat: np.ndarray, grid: Grid) -> np.ndarray:
    """Galerkin product: truncate both factors, multiply pointwise, truncate.

    Exactly bilinear in (a, b) and alias-free on the retained modes; the
    pointwise values stay complex (randomized data need not be real).  A
    square (``b_hat is a_hat``) transforms its factor once; the result is
    the same bits as transforming it twice.  Distinct factors are
    multiplied in both orders and averaged, so that P(a, b) equals P(b, a)
    bit for bit: numpy's complex multiply may round fa*fb and fb*fa
    differently (fused multiply-add).
    """
    lattice = _region(grid, False)
    fa = _box_ifft2(a_hat, lattice)
    if b_hat is a_hat:
        return _box_fft2(fa * fa, lattice)
    fb = _box_ifft2(b_hat, lattice)
    return _box_fft2(0.5 * (fa * fb + fb * fa), lattice)


# ---------------------------------------------------------------------------
# Free evolution and the time-marching iterate engine
# ---------------------------------------------------------------------------

def _free_hats(phi0_hat: np.ndarray, abs_xi: np.ndarray, tables: tuple[np.ndarray, ...],
               out: tuple = (None, None),
               scratch: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(u, dt u) of the free wave from (phi0, 0) at the nodes of the
    (cos, sin) ``tables``, phi0, |xi| and the tables on the same modes,
    written into the pair ``out`` (or fresh arrays); ``scratch`` is real,
    of the same shape."""
    cos_t, sin_t = tables
    u = np.multiply(cos_t, phi0_hat, out=out[0])
    speed = np.multiply(abs_xi, sin_t, out=scratch)
    return u, np.multiply(np.negative(speed, out=speed), phi0_hat, out=out[1])


@lru_cache(maxsize=16)
def _derivative_symbol(region: _Region, d_choice: str) -> np.ndarray:
    """Read-only i xi_d of :mod:`.multipliers` on the modes of ``region``:
    the lattice symbol gathered, and the engine's one cached copy of it.
    It is 0 on the unpaired Nyquist line, which lies outside the box."""
    axis = 1 if d_choice == "x1" else 2
    sym = region.gather(symbol_array(spatial_derivative(axis), region.grid))
    sym.flags.writeable = False
    return sym


def _derivative_hat(u_hat: np.ndarray | None, dudt_hat: np.ndarray | None,
                    region: _Region, d_choice: str, out: np.ndarray | None = None
                    ) -> np.ndarray:
    """d u from the pair (u, dt u) in the layout of ``region``: dt u itself,
    or i xi_d u written into ``out`` (or a fresh array)."""
    if d_choice == "t":
        return dudt_hat
    return np.multiply(_derivative_symbol(region, d_choice), u_hat, out=out)


def _free_window(phi0_hat: np.ndarray, grid: Grid, tg: TimeGrid) -> tuple[tuple, tuple]:
    """The window of rows and columns where phi0 has a nonzero mode (one
    unit block's, for a tree leaf), and (u, dt u) of the free wave from
    (phi0, 0) on it at every node of ``tg``, from (cos, sin) tables formed
    for this call on the window only; outside it both parts are zero."""
    window = np.ix_(np.flatnonzero(phi0_hat.any(axis=1)), np.flatnonzero(phi0_hat.any(axis=0)))
    abs_xi = grid.abs_xi[window]
    cos_t, sin_t = halfwave_tables(abs_xi, tg.times, count=2)
    return window, _free_hats(phi0_hat[window], abs_xi, (cos_t, sin_t), scratch=sin_t)


def _on_lattice(window: tuple, part: np.ndarray, grid: Grid) -> np.ndarray:
    """A fresh lattice series holding ``part`` on ``window``, zero elsewhere."""
    series = np.zeros(part.shape[:1] + (grid.n_points, grid.n_points), dtype=complex)
    series[(slice(None),) + window] = part
    return series


def _free_derivative_window(phi0_hat: np.ndarray, grid: Grid, tg: TimeGrid,
                            d_choice: str) -> tuple[tuple, np.ndarray]:
    """The window of :func:`_free_window` and, at every node of ``tg``, d of
    the free wave from (phi0, 0) on it, from the part of the free pair d
    reads (dt u, or u times i xi_d): a tree leaf's part."""
    window, (u, dt_u) = _free_window(phi0_hat, grid, tg)
    if d_choice == "t":
        return window, dt_u
    symbol = _derivative_symbol(_region(grid, False), d_choice)
    return window, np.multiply(symbol[window], u, out=u)


def free_derivative_hat(phi0_hat: np.ndarray, grid: Grid, tg: TimeGrid,
                        d_choice: str) -> np.ndarray:
    """Spectral series of d W(t) phi0 for a zero-velocity datum: the tree
    expansion's per-block brick, formed on the datum's window only."""
    _check_d_choice(d_choice)
    return _on_lattice(*_free_derivative_window(phi0_hat, grid, tg, d_choice), grid)


def free_evolution(data: RandomizedData, tg: TimeGrid,
                   d_choice: str = "x1") -> tuple[FieldSeries, FieldSeries, FieldSeries]:
    """Free wave evolution of randomized data.

    Returns the series (u0, d/dt u0, d u0) with

        u0(t) = cos(t|grad|) phi0_rand       (zero velocity datum),

    all derivatives taken by exact multipliers.  The free energy
    ||grad u0||_2^2 + ||dt u0||_2^2 is conserved node-to-node to rounding.
    """
    _check_d_choice(d_choice)
    grid = data.grid
    window, pair = _free_window(data.phi0_rand.values, grid, tg)
    u0, dudt0 = (_on_lattice(window, part, grid) for part in pair)
    du0 = _derivative_hat(u0, dudt0, _region(grid, False), d_choice)
    return tuple(_frozen_series(grid, tg, part) for part in (u0, dudt0, du0))


@dataclass(frozen=True, eq=False)
class IterateRecord:
    """One Picard iterate with its tracked series and norms.

    norms keys: ``linf_h1_u`` (sup-in-t homogeneous H^1 of u), ``linf_l2_dudt``
    (sup-in-t L^2 of dt u), ``l2t_l4_du`` (L^2-in-t L^4-in-x of du).
    """

    n: int
    u: FieldSeries
    du_dt: FieldSeries
    du: FieldSeries
    norms: dict[str, float]


def _time_norm(space: np.ndarray, q: float, dt: float) -> float:
    """L^q (trapezoid) over the time nodes of per-node spatial norms; sup for q = inf."""
    if q == np.inf:
        return float(space.max())
    vals = space**q
    return float(dt * (vals.sum() - 0.5 * (vals[0] + vals[-1]))) ** (1.0 / q)


def _march(n_max: int, phi0_hat: np.ndarray, grid: Grid, tg: TimeGrid, d_choice: str,
           keep: Collection[int]) -> tuple[list[np.ndarray], dict]:
    """Per-node norms of iterates 0..n_max from each signed datum (zero
    velocity) of the stack ``phi0_hat`` (samples x lattice), and the
    (u, dt u) series of the levels in ``keep`` on the lattice (nodes x
    samples), all samples and levels advancing together a chunk of nodes at
    a time (see the module docstring).

    Row n of a sample's norms holds (H^1 of u, L^2 of dt u, L^4 of du) per
    node.  Once a level of a sample is sure to fail the blow-up guard (a
    node's sup-norm term above it, or a non-finite term), the sample's rows
    end at that level; its later levels march on only while a batch-mate
    needs them, and are dropped.  A level is free + Duhamel part on the
    compact box; the free part is formed again at each level from the
    chunk's tables.  The workspace (laid out below) does not outlive the
    call; kept series are copied out of it.
    """
    box = _region(grid, True)
    batch = len(phi0_hat)
    sums = [_DuhamelSums(box, tg) for _ in range(n_max)]
    per_node = np.zeros((batch, n_max + 1, 3, tg.n_nodes))
    shape = (tg.n_nodes, batch, grid.n_points, grid.n_points)
    kept = {n: (np.empty(shape, dtype=complex), np.empty(shape, dtype=complex))
            for n in keep}
    chunk = (_chunk_length(tg, batch),) + shape[1:]
    box_chunk = chunk[:2] + (box.size, box.size)
    # on the box: -|xi| sin, the free dt u of a unit datum; on the lattice:
    # the physical du
    speeds = np.empty((chunk[0], 1, box.size, box.size))
    phys_buf = np.empty(chunk, dtype=complex)
    work = box.buffers(*chunk[:2])
    # the norms' real planes lie in the workspace: on the box in B's
    # buffer, free between Duhamel steps; on the lattice over all four
    # buffers, free once du's inverse transform has read it
    box_planes, planes = _planes(work[2], box_chunk), _planes(work, chunk)
    phi0_box = box.gather(phi0_hat)
    if _inside_box(phi0_hat, grid):
        gaps, total_buf = repeat(((0.0, 0.0), 0.0, 0.0, None)), None
    else:
        gaps = _gap_chunks(phi0_hat, grid, tg, d_choice, planes)
        total_buf = np.empty(chunk, dtype=complex)
    tops = np.full(batch, n_max)
    for (nodes, tables), (gap_pair, gap_h1, gap_l2, gap_phys) in zip(
            _chunk_tables(tg, box, batch=batch), gaps):
        k = nodes.stop - nodes.start
        phys, real, real_box = phys_buf[:k], planes[:, :k], box_planes[:, :k]
        tables = tuple(table[:, None] for table in tables)  # to the samples
        speed = np.negative(np.multiply(box.abs_xi, tables[1], out=speeds[:k]), out=speeds[:k])
        for n in range(tops.max() + 1):
            if n == 0:
                u = np.multiply(tables[0], phi0_box, out=work[3][:k])
                dudt = np.multiply(speed, phi0_box, out=work[1][:k])
            else:
                # the Duhamel integral of (du^(n-1))^2, the self-square of
                # product_dealias taken in place, plus the free part
                phys *= phys
                src = _box_fft2(phys, box, out=work[0][:k])
                u, dudt = sums[n - 1].advance(src, work, tables)
                u += np.multiply(tables[0], phi0_box, out=src)
                dudt += np.multiply(speed, phi0_box, out=src)
            rows = per_node[:, n, :, nodes].transpose(1, 2, 0)
            rows[0] = grid.dx * np.sqrt(_sobolev_sums(u, box.h1_weight, real_box) + gap_h1)
            rows[1] = grid.dx * np.sqrt(_sobolev_sums(dudt, None, real_box) + gap_l2)
            for part, out, start in zip((u, dudt), kept.get(n, ()), gap_pair):
                out[nodes] = start
                box.place(part, out[nodes])
            # du in the Duhamel scratch, free until the next level's source
            du = _derivative_hat(u, dudt, box, d_choice, out=work[0][:k])
            _box_ifft2(du, box, out=phys)
            full = phys if gap_phys is None else np.add(phys, gap_phys, out=total_buf[:k])
            rows[2] = lp_nodes(full, grid, 4.0, scratch=real)
            ok = (rows[:2].max(axis=(0, 1)) <= BLOWUP_GUARD) & np.isfinite(rows[2]).all(axis=0)
            np.minimum(tops, n, out=tops, where=~ok)
            if tops.max() <= n:
                break
    return [rows[:top + 1] for rows, top in zip(per_node, tops)], kept


def _planes(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Two real planes of ``shape``, the scratch of the norm kernels, laid
    over the front of the contiguous buffer ``buf``."""
    return buf.reshape(-1).view(float)[:2 * math.prod(shape)].reshape((2,) + shape)


def _gap_chunks(phi0_hat: np.ndarray, grid: Grid, tg: TimeGrid, d_choice: str,
                planes: np.ndarray) -> Iterator[tuple]:
    """Per chunk of :func:`_chunk_tables`, the part of every iterate outside
    the box, the free wave from the modes of each datum of the stack
    ``phi0_hat`` there: the pair (u, dt u) on the lattice with the box zero,
    the H^1 sums of u and the L^2 sums of dt u, and the physical du, in the
    march's layout (nodes x samples).  The arrays are views of buffers
    reused from chunk to chunk; ``planes``, the sums' real scratch, need
    only be free while the next chunk is drawn."""
    phi0 = phi0_hat.copy()
    for (rows, cols), _ in _region(grid, True).pairs:
        phi0[..., rows, cols] = 0.0
    lattice = _region(grid, False)
    chunk = planes.shape[1:]
    u_buf, dt_buf, phys_buf = (np.empty(chunk, dtype=complex) for _ in range(3))
    for nodes, tables in _chunk_tables(tg, lattice, spread=(True, True, False), batch=chunk[1]):
        k = nodes.stop - nodes.start
        pair = _free_hats(phi0, lattice.abs_xi, tuple(table[:, None] for table in tables[:2]),
                          out=(u_buf[:k], dt_buf[:k]), scratch=planes[0, :k, :1])
        du = _derivative_hat(*pair, lattice, d_choice, out=phys_buf[:k])
        yield (pair, _sobolev_sums(pair[0], lattice.h1_weight, planes[:, :k]),
               _sobolev_sums(pair[1], None, planes[:, :k]),
               np.fft.ifft2(du, norm="ortho", axes=(-2, -1), out=phys_buf[:k]))


def _batch_levels(n_max: int, phi0_hat: np.ndarray, grid: Grid, tg: TimeGrid, d_choice: str,
                  keep: Collection[int] = ()) -> list[Iterator[tuple]]:
    """Per signed datum of the stack ``phi0_hat``, an iterator of (n, norms,
    kept series or None) of iterates 0..n_max in order, from one march:
    the single path through the recursion for the chain, one iterate and
    the harness.  A sample's first level whose norm fails the guard raises
    :class:`BlowUpError` from its iterator, norms checked in key order; the
    guard is the check for a blow-up, so the march's overflows raise no
    numpy warning."""
    _check_d_choice(d_choice)
    _check_level(n_max, "n_max")
    with np.errstate(over="ignore", invalid="ignore"):
        per_node, kept = _march(n_max, phi0_hat, grid, tg, d_choice, keep)
    return [_sample_levels(rows, tg, {n: (u[:, b], dt_u[:, b]) for n, (u, dt_u) in kept.items()})
            for b, rows in enumerate(per_node)]


def _sample_levels(per_node: np.ndarray, tg: TimeGrid, kept: dict) -> Iterator[tuple]:
    """One sample's iterator of :func:`_batch_levels`, from its per-node
    norms and its ``kept`` series by level."""
    for n, (h1_u, l2_dudt, l4_du) in enumerate(per_node):
        norms = {
            "linf_h1_u": float(h1_u.max()),
            "linf_l2_dudt": float(l2_dudt.max()),
            "l2t_l4_du": _time_norm(l4_du, 2.0, tg.dt),
        }
        for name, value in norms.items():
            if not math.isfinite(value) or value > BLOWUP_GUARD:
                raise BlowUpError(n, name, value)
        yield n, norms, kept.get(n)


def _levels(n_max: int, data: RandomizedData, tg: TimeGrid, d_choice: str, keep=()) -> Iterator:
    """:func:`_batch_levels` of one randomized datum: the iterator of
    (n, norms, kept series or None) the chain and one iterate read."""
    return _batch_levels(n_max, data.phi0_rand.values[None], data.grid, tg, d_choice, keep)[0]


def _record(n: int, norms: dict[str, float], series: tuple, data: RandomizedData,
            tg: TimeGrid, d_choice: str) -> IterateRecord:
    grid = data.grid
    u_hat, dudt_hat = series
    return IterateRecord(
        n=n,
        u=_frozen_series(grid, tg, u_hat),
        du_dt=_frozen_series(grid, tg, dudt_hat),
        du=_frozen_series(grid, tg, _derivative_hat(u_hat, dudt_hat, _region(grid, False),
                                                    d_choice)),
        norms=norms,
    )


def picard_chain(n_max: int, data: RandomizedData, tg: TimeGrid,
                 d_choice: str = "x1") -> list[IterateRecord]:
    """Iterates 0..n_max by the recursion, sharing the free-evolution work."""
    _check_level(n_max, "n_max")
    return [_record(n, norms, series, data, tg, d_choice)
            for n, norms, series in _levels(n_max, data, tg, d_choice, range(n_max + 1))]


def picard_iterate(n: int, data: RandomizedData, tg: TimeGrid,
                   d_choice: str = "x1") -> IterateRecord:
    """The n-th Picard iterate; only its own series are kept."""
    _check_level(n, "n")
    for level in _levels(n, data, tg, d_choice, keep=(n,)):
        pass
    return _record(*level, data, tg, d_choice)


def space_time_norm(series: FieldSeries, q: float, r: float) -> float:
    """Mixed norm (int_0^T ||f(t)||_{L^r}^q dt)^{1/q}; sup over nodes for q=inf.

    Time integration is composite trapezoid on the series' own nodes.
    """
    for name, value in (("q", q), ("r", r)):
        if not value >= 1.0:  # NaN compares false
            raise ValueError(f"{name} must be >= 1 or inf, got {value}")
    phys = series_to_physical(series)
    return _time_norm(lp_nodes(phys.values, phys.grid, r), q, series.timegrid.dt)


@dataclass(frozen=True)
class EnergyCheckResult:
    """Measured constant of the energy inequality for one iterate triple."""

    c_measured: float
    lhs: float
    rhs: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.c_measured)


def energy_inequality_check(rec_n: IterateRecord, rec_prev: IterateRecord,
                            rec_0: IterateRecord) -> EnergyCheckResult:
    """Smallest C with  E(u^n) <= C (E(u^0) + ||du^(n-1)||_{L2L4}^2).

    E(u) = ||u||_{Linf H^1} + ||dt u||_{Linf L^2}.  Zero data yields C = 0.
    """
    lhs = rec_n.norms["linf_h1_u"] + rec_n.norms["linf_l2_dudt"]
    rhs = (rec_0.norms["linf_h1_u"] + rec_0.norms["linf_l2_dudt"]
           + rec_prev.norms["l2t_l4_du"] ** 2)
    if rhs == 0.0:
        return EnergyCheckResult(c_measured=0.0 if lhs == 0.0 else math.inf, lhs=lhs, rhs=rhs)
    return EnergyCheckResult(c_measured=lhs / rhs, lhs=lhs, rhs=rhs)
