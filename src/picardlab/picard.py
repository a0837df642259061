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
property the tree-expansion oracle relies on.

Work the truncation makes zero is skipped, with unchanged values.  numpy's
2-D transforms are one 1-D pass per axis, each line on its own, so the
product's inverse transforms run their first pass only on the box rows (the
others are zero) and its forward transform runs its second pass only on the
box columns (the others are discarded).  Every Duhamel source is a product,
zero outside the box, so the recursion and the tree terms form the
cumulative sums on the box only; outside it an iterate is its free part.
The public :func:`duhamel` takes arbitrary sources and keeps the whole
lattice.

Iterates can grow factorially outside the small-interval regime, so every
norm is checked against a blow-up guard and :class:`BlowUpError` carries the
diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .grid import Grid, PHYSICAL, SPECTRAL, lp_nodes, sobolev_nodes
from .multipliers import D_CHOICES, halfwave_tables, spatial_derivative, symbol_array
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
        if not self.t_final > 0.0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

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
    tag: str = ""

    def __post_init__(self) -> None:
        n, m = self.grid.n_points, self.timegrid.n_nodes
        real = self.representation == PHYSICAL and not np.iscomplexobj(self.values)
        vals = np.asarray(self.values, dtype=np.float64 if real else np.complex128)
        if vals.shape != (m, n, n):
            raise ValueError(f"series shape {vals.shape}, expected {(m, n, n)}")
        if vals.flags.writeable:
            vals = vals.copy()
            vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def _frozen_series(grid: Grid, tg: TimeGrid, hat: np.ndarray, tag: str) -> FieldSeries:
    """Wrap a spectral array the engine has just computed, freezing it in place."""
    hat.flags.writeable = False
    return FieldSeries(grid, tg, hat, SPECTRAL, tag)


def series_to_physical(series: FieldSeries) -> FieldSeries:
    if series.representation == PHYSICAL:
        return series
    phys = np.fft.ifft2(series.values, norm="ortho", axes=(1, 2))
    scale = float(np.max(np.abs(phys.real)))
    if float(np.max(np.abs(phys.imag))) <= 1e-12 * max(scale, 1e-300):
        phys = phys.real
    return FieldSeries(series.grid, series.timegrid, phys, PHYSICAL, series.tag)


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

@lru_cache(maxsize=8)
def _wave_tables(grid: Grid, tg: TimeGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (cos, sin, sinc) tables at the nodes of ``tg``: the free
    propagators and, split by angle addition, every Duhamel kernel's factors."""
    tables = halfwave_tables(grid, tg.times)
    for arr in tables:
        arr.flags.writeable = False
    return tables


_WHOLE = ((slice(None), slice(None)),)


@lru_cache(maxsize=8)
def _box(grid: Grid) -> tuple[tuple[slice, slice], ...]:
    """The modes the 2/3 rule keeps, |m_1|, |m_2| <= N/3, as the four
    (rows, cols) basic-slice pairs of numpy's unshifted layout: low band
    0..N/3 and high band N-N/3..N-1 on each axis.  Indexing with them gives
    views."""
    n = grid.n_points
    cut = n // 3
    bands = (slice(0, cut + 1), slice(n - cut, n))
    return tuple((rows, cols) for rows in bands for cols in bands)


def _cumtrap(f: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid sums dt * sum''_{l<=m} f[l] for every node m, in place.

    A running sum minus the half-weight endpoint terms f[0]/2 and f[m]/2,
    one time row at a time: np.cumsum along the leading axis gives the same
    bits several times slower and needs a second full-size array.
    """
    run = f[0].copy()
    half_first = 0.5 * f[0]
    f[0] = 0.0
    for m in range(1, f.shape[0]):
        run += f[m]
        f[m] = run - half_first - 0.5 * f[m]
    f *= dt
    return f


def _duhamel_hats(source_hat: np.ndarray, grid: Grid, tg: TimeGrid, region=_WHOLE, *,
                  start: tuple[np.ndarray, np.ndarray] | None = None,
                  want_u: bool = True, want_dt: bool = True
                  ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(u, dt u) of u(t) = int_0^t sin((t-t')|grad|)/|grad| S(t') dt', plus
    the pair ``start`` when one is given.

    With A = cumtrap(cos S) and B = cumtrap(sinc S) (see the module
    docstring), u = sinc A - cos B and dt u = cos A + |xi| sin B, computed
    only on the (rows, cols) slice pairs of ``region`` (the box, or
    ``_WHOLE``); outside it the result is ``start`` (zero when None).  A part
    not asked for is returned as None.
    """
    cos_t, sin_t, sinc_t = _wave_tables(grid, tg)
    shape = (tg.n_nodes, grid.n_points, grid.n_points)

    def output(i: int, have: np.ndarray | None) -> np.ndarray:
        # made after the first sums, not before them: allocating the output
        # first made the whole-lattice call ~12 % slower (65 x 128^2, numpy
        # 2.4, glibc), an effect of the allocator, not of the arithmetic
        if have is not None:
            return have
        return np.zeros(shape, dtype=complex) if start is None else start[i].copy()

    u = dt_u = None
    for rows, cols in region:
        q = (slice(None), rows, cols)
        c, sc, src = cos_t[q], sinc_t[q], source_hat[q]
        a = _cumtrap(c * src, tg.dt)
        b = _cumtrap(sc * src, tg.dt)
        # on a zero start the part is written in place; a start is added
        # after the part is complete, as start + part
        if want_u:
            u = output(0, u)
            part = np.multiply(sc, a, out=u[q] if start is None else None)
            part -= c * b
            if start is not None:
                u[q] += part
        if want_dt:
            dt_u = output(1, dt_u)
            b *= grid.abs_xi[rows, cols]
            part = np.multiply(c, a, out=dt_u[q] if start is None else None)
            part += sin_t[q] * b
            if start is not None:
                dt_u[q] += part
    return u, dt_u


def _d_duhamel_hat(source_hat: np.ndarray, grid: Grid, tg: TimeGrid,
                   d_choice: str, region) -> np.ndarray:
    """d of the Duhamel integral, from the one part of (u, dt u) it needs."""
    pair = _duhamel_hats(source_hat, grid, tg, region, want_u=d_choice != "t",
                         want_dt=d_choice == "t")
    return _derivative_hat(*pair, grid, d_choice)


def _check_d_choice(d_choice: str) -> None:
    if d_choice not in D_CHOICES:
        raise ValueError(f"d_choice must be one of {D_CHOICES}, got {d_choice!r}")


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
    out = _d_duhamel_hat(src, source.grid, tg, d_choice, _WHOLE)
    return _frozen_series(source.grid, tg, out, f"duhamel_{d_choice}")


# ---------------------------------------------------------------------------
# Dealiased products
# ---------------------------------------------------------------------------

def _box_ifft2(hat: np.ndarray, grid: Grid) -> np.ndarray:
    """ifft2 of ``hat`` truncated to the box, over the trailing two axes.

    numpy's ifft2 is one 1-D pass per axis, last axis first, and each line
    is transformed on its own, so skipping the last-axis pass on rows that
    are zero after truncation gives the same values as the full transform.
    """
    box = _box(grid)
    out = np.zeros(hat.shape, dtype=complex)
    for rows, cols in box:
        out[..., rows, cols] = hat[..., rows, cols]
    for rows, _ in box[::2]:  # each row band once
        band = out[..., rows, :]
        np.fft.ifft(band, axis=-1, norm="ortho", out=band)
    return np.fft.ifft(out, axis=-2, norm="ortho", out=out)


def _box_fft2(phys: np.ndarray, grid: Grid) -> np.ndarray:
    """fft2 of ``phys`` over the trailing two axes, truncated to the box, in
    place: the second pass runs only on the box columns (see _box_ifft2)."""
    box = _box(grid)
    np.fft.fft(phys, axis=-1, norm="ortho", out=phys)
    for _, cols in box[:2]:  # each column band once
        band = phys[..., :, cols]
        np.fft.fft(band, axis=-2, norm="ortho", out=band)
    gap = slice(box[0][0].stop, box[-1][0].start)  # N/3 < |m| on that axis
    phys[..., gap, :] = 0.0
    phys[..., :, gap] = 0.0
    return phys


def product_dealias(a_hat: np.ndarray, b_hat: np.ndarray, grid: Grid) -> np.ndarray:
    """Galerkin product: truncate both factors, multiply pointwise, truncate.

    Exactly bilinear in (a, b) and alias-free on the retained modes; the
    pointwise values stay complex (randomized data need not be real).  The
    transforms skip the lines the truncation zeroes, with the same values as
    full transforms of the masked arrays.  A square (``b_hat is a_hat``)
    transforms its factor once; the result is the same bits as transforming
    it twice.  Distinct factors are multiplied in both orders and averaged:
    numpy's complex multiply may round fa*fb and fb*fa differently (fused
    multiply-add), and the tree memo relies on P(a, b) equalling P(b, a) bit
    for bit.
    """
    fa = _box_ifft2(a_hat, grid)
    fb = fa if b_hat is a_hat else _box_ifft2(b_hat, grid)
    pointwise = fa * fa if fb is fa else 0.5 * (fa * fb + fb * fa)
    return _box_fft2(pointwise, grid)


# ---------------------------------------------------------------------------
# Free evolution and the iterate recursion
# ---------------------------------------------------------------------------

def _free_hats(phi0_hat: np.ndarray, phi1_hat: np.ndarray | None, grid: Grid,
               tg: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """(u, dt u) of the free wave from (phi0, phi1); phi1 None is zero velocity."""
    cos_t, sin_t, sinc_t = _wave_tables(grid, tg)
    u = cos_t * phi0_hat
    dudt = -(grid.abs_xi[None, :, :] * sin_t) * phi0_hat
    if phi1_hat is not None:
        u += sinc_t * phi1_hat
        dudt += cos_t * phi1_hat
    return u, dudt


def _data_hats(data: RandomizedData, tg: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    phi1 = None if data.phi1_is_zero else data.phi1_rand.values
    return _free_hats(data.phi0_rand.values, phi1, data.grid, tg)


def _derivative_hat(u_hat: np.ndarray | None, dudt_hat: np.ndarray | None,
                    grid: Grid, d_choice: str) -> np.ndarray:
    """d u from the pair (u, dt u): dt u itself, or i xi_d u (the multiplier
    is 0 on the unpaired Nyquist line, as in :mod:`.multipliers`)."""
    if d_choice == "t":
        return dudt_hat
    return symbol_array(spatial_derivative(1 if d_choice == "x1" else 2), grid) * u_hat


def free_derivative_hat(phi0_hat: np.ndarray, grid: Grid, tg: TimeGrid,
                        d_choice: str) -> np.ndarray:
    """Spectral series of d W(t) phi0 for a zero-velocity datum: the tree
    expansion's per-block brick, from the free pair the recursion starts at."""
    _check_d_choice(d_choice)
    return _derivative_hat(*_free_hats(phi0_hat, None, grid, tg), grid, d_choice)


def free_evolution(data: RandomizedData, tg: TimeGrid,
                   d_choice: str = "x1") -> tuple[FieldSeries, FieldSeries, FieldSeries]:
    """Free wave evolution of randomized data.

    Returns the series (u0, d/dt u0, d u0) with

        u0(t) = cos(t|grad|) phi0 + sin(t|grad|)/|grad| phi1,

    all derivatives taken by exact multipliers.  The free energy
    ||grad u0||_2^2 + ||dt u0||_2^2 is conserved node-to-node to rounding.
    """
    _check_d_choice(d_choice)
    u0, dudt0 = _data_hats(data, tg)
    grid = data.grid
    du0 = _derivative_hat(u0, dudt0, grid, d_choice)
    return (
        _frozen_series(grid, tg, u0, "u"),
        _frozen_series(grid, tg, dudt0, "du_dt"),
        _frozen_series(grid, tg, du0, "du"),
    )


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


def _record(n: int, grid: Grid, tg: TimeGrid, u_hat, dudt_hat,
            d_choice: str) -> IterateRecord:
    du_hat = _derivative_hat(u_hat, dudt_hat, grid, d_choice)
    norms = {
        "linf_h1_u": float(sobolev_nodes(u_hat, grid, 1.0).max()),
        "linf_l2_dudt": float(sobolev_nodes(dudt_hat, grid, 0.0).max()),
        "l2t_l4_du": _time_norm(
            lp_nodes(np.fft.ifft2(du_hat, norm="ortho", axes=(-2, -1)), grid, 4.0),
            2.0, tg.dt),
    }
    for name, value in norms.items():
        if not math.isfinite(value) or value > BLOWUP_GUARD:
            raise BlowUpError(n, name, value)
    return IterateRecord(
        n=n,
        u=_frozen_series(grid, tg, u_hat, "u"),
        du_dt=_frozen_series(grid, tg, dudt_hat, "du_dt"),
        du=_frozen_series(grid, tg, du_hat, "du"),
        norms=norms,
    )


def _iterates(n_max: int, data: RandomizedData, tg: TimeGrid,
              d_choice: str) -> Iterator[IterateRecord]:
    """Records of iterates 0..n_max in order, sharing one free evolution: the
    single path through the recursion for the chain, one iterate and the harness."""
    _check_d_choice(d_choice)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    grid = data.grid
    u0, dudt0 = _data_hats(data, tg)
    rec = _record(0, grid, tg, u0, dudt0, d_choice)
    yield rec
    for n in range(1, n_max + 1):
        # the one recursion step: free part plus the Duhamel integral of (du^(n-1))^2
        prev_du = rec.du.values
        u_hat, dudt_hat = _duhamel_hats(product_dealias(prev_du, prev_du, grid), grid, tg,
                                        _box(grid), start=(u0, dudt0))
        rec = _record(n, grid, tg, u_hat, dudt_hat, d_choice)
        yield rec


def picard_chain(n_max: int, data: RandomizedData, tg: TimeGrid,
                 d_choice: str = "x1") -> list[IterateRecord]:
    """Iterates 0..n_max by the recursion, sharing the free-evolution work."""
    return list(_iterates(n_max, data, tg, d_choice))


def picard_iterate(n: int, data: RandomizedData, tg: TimeGrid,
                   d_choice: str = "x1") -> IterateRecord:
    """The n-th Picard iterate; lower levels are computed and dropped in turn."""
    for rec in _iterates(n, data, tg, d_choice):
        pass
    return rec


def space_time_norm(series: FieldSeries, q: float, r: float) -> float:
    """Mixed norm (int_0^T ||f(t)||_{L^r}^q dt)^{1/q}; sup over nodes for q=inf.

    Time integration is composite trapezoid on the series' own nodes.
    """
    if q != np.inf and q < 1.0:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    if r != np.inf and r < 1.0:
        raise ValueError(f"r must be >= 1 or inf, got {r}")
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
