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
and product are projected onto |m_i| <= N/3 before and after the pointwise
square, so the computed system is exactly the truncated Galerkin wave system
(alias-free) and the product is bilinear in its factors -- the property the
tree-expansion oracle relies on.

Iterates can grow factorially outside the small-interval regime, so every
norm is checked against a blow-up guard and :class:`BlowUpError` carries the
diagnostic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Field, Grid, PHYSICAL, SPECTRAL
from .multipliers import D_CHOICES, spatial_derivative, symbol_array
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
    "iterate_from_previous",
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
    carry complex samples in general (all norms use the modulus).
    """

    grid: Grid
    timegrid: TimeGrid
    values: np.ndarray
    representation: str
    tag: str = ""

    def __post_init__(self) -> None:
        n, m = self.grid.n_points, self.timegrid.n_nodes
        vals = np.asarray(self.values)
        if self.representation == PHYSICAL and vals.dtype.kind != "c":
            vals = vals.astype(np.float64)
        else:
            vals = vals.astype(np.complex128)
        if vals.shape != (m, n, n):
            raise ValueError(f"series shape {vals.shape}, expected {(m, n, n)}")
        if vals.flags.writeable:
            vals = vals.copy()
            vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def field_at(self, m: int) -> Field:
        return Field(self.grid, self.values[m], self.representation)


def series_to_physical(series: FieldSeries) -> FieldSeries:
    if series.representation == PHYSICAL:
        return series
    phys = np.fft.ifft2(series.values, norm="ortho", axes=(1, 2))
    scale = float(np.max(np.abs(phys.real)))
    if float(np.max(np.abs(phys.imag))) <= 1e-12 * max(scale, 1e-300):
        phys = phys.real
    return FieldSeries(series.grid, series.timegrid, phys, PHYSICAL, series.tag)


def series_to_spectral(series: FieldSeries) -> FieldSeries:
    if series.representation == SPECTRAL:
        return series
    spec = np.fft.fft2(series.values, norm="ortho", axes=(1, 2))
    return FieldSeries(series.grid, series.timegrid, spec, SPECTRAL, series.tag)


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
def _wave_tables(grid: Grid, tg: TimeGrid) -> dict[str, np.ndarray]:
    """cos(t_m |xi|), sin(t_m |xi|), and sin(t_m |xi|)/|xi| for all nodes.

    The same tables serve as free propagators and, split by angle addition,
    as the factors of every Duhamel kernel.
    """
    a = grid.abs_xi
    targ = tg.times[:, None, None] * a[None, :, :]
    cos_t = np.cos(targ)
    sin_t = np.sin(targ)
    sinc_t = np.empty_like(sin_t)
    nz = a > 0.0
    sinc_t[:, nz] = sin_t[:, nz] / a[nz]
    sinc_t[:, ~nz] = tg.times[:, None]
    for arr in (cos_t, sin_t, sinc_t):
        arr.flags.writeable = False
    return {"cos": cos_t, "sin": sin_t, "sinc": sinc_t}


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


def _duhamel_hats(source_hat: np.ndarray, grid: Grid, tg: TimeGrid, *,
                  want_u: bool = True, want_dt: bool = True
                  ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(u, dt u) of u(t) = int_0^t sin((t-t')|grad|)/|grad| S(t') dt'.

    With A = cumtrap(cos S) and B = cumtrap(sinc S) (see the module
    docstring), u = sinc A - cos B and dt u = cos A + |xi| sin B.  A part
    not asked for is returned as None.
    """
    tables = _wave_tables(grid, tg)
    cos_t, sinc_t = tables["cos"], tables["sinc"]
    a = _cumtrap(cos_t * source_hat, tg.dt)
    b = _cumtrap(sinc_t * source_hat, tg.dt)
    u = dt_u = None
    if want_u:
        u = sinc_t * a
        u -= cos_t * b
    if want_dt:
        b *= grid.abs_xi
        dt_u = cos_t * a
        dt_u += tables["sin"] * b
    return u, dt_u


def _d_duhamel_hat(source_hat: np.ndarray, grid: Grid, tg: TimeGrid,
                   d_choice: str) -> np.ndarray:
    """d of the Duhamel integral, from the one part of (u, dt u) it needs."""
    pair = _duhamel_hats(source_hat, grid, tg, want_u=d_choice != "t",
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
    src = series_to_spectral(source)
    out = _d_duhamel_hat(src.values, src.grid, tg, d_choice)
    return FieldSeries(src.grid, tg, out, SPECTRAL, tag=f"duhamel_{d_choice}")


# ---------------------------------------------------------------------------
# Dealiased products
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _dealias_mask(grid: Grid) -> np.ndarray:
    n = grid.n_points
    cut = n // 3
    m = np.rint(np.fft.fftfreq(n) * n).astype(int)
    keep1 = np.abs(m) <= cut
    mask = np.outer(keep1, keep1)
    mask.flags.writeable = False
    return mask


def product_dealias(a_hat: np.ndarray, b_hat: np.ndarray, grid: Grid) -> np.ndarray:
    """Galerkin product: truncate both factors, multiply pointwise, truncate.

    Exactly bilinear in (a, b) and alias-free on the retained modes; the
    pointwise values stay complex (randomized data need not be real).  A
    square (``b_hat is a_hat``) transforms its factor once; the result is the
    same bits as transforming it twice.
    """
    mask = _dealias_mask(grid)
    fa = np.fft.ifft2(a_hat * mask, norm="ortho", axes=(-2, -1))
    fb = fa if b_hat is a_hat else np.fft.ifft2(b_hat * mask, norm="ortho", axes=(-2, -1))
    prod = np.fft.fft2(fa * fb, norm="ortho", axes=(-2, -1))
    return prod * mask


# ---------------------------------------------------------------------------
# Free evolution and the iterate recursion
# ---------------------------------------------------------------------------

def free_derivative_hat(phi0_hat: np.ndarray, grid: Grid, tg: TimeGrid,
                        d_choice: str) -> np.ndarray:
    """Spectral series of d W(t) phi0 for a zero-velocity datum.

    Spatial choices apply i xi_i to cos(t|grad|) phi0; the time choice is
    -|grad| sin(t|grad|) phi0.  This is the per-block building brick of the
    tree expansion and matches the free part of the iterate recursion.
    """
    tables = _wave_tables(grid, tg)
    if d_choice == "t":
        return -(grid.abs_xi[None, :, :] * tables["sin"]) * phi0_hat
    return _derivative_hat(tables["cos"] * phi0_hat, None, grid, d_choice)


def _derivative_hat(u_hat: np.ndarray | None, dudt_hat: np.ndarray | None,
                    grid: Grid, d_choice: str) -> np.ndarray:
    """d u from the pair (u, dt u): dt u itself, or i xi_d u (the multiplier
    is 0 on the unpaired Nyquist line, as in :mod:`.multipliers`)."""
    if d_choice == "t":
        return dudt_hat
    return symbol_array(spatial_derivative(1 if d_choice == "x1" else 2), grid) * u_hat


def _free_hats(data: RandomizedData, tg: TimeGrid, d_choice: str) -> tuple[np.ndarray, np.ndarray]:
    """(u0, dt u0) of the free evolution; rejects an unknown d_choice."""
    _check_d_choice(d_choice)
    grid = data.grid
    tables = _wave_tables(grid, tg)
    phi0 = data.phi0_rand.values
    u0 = tables["cos"] * phi0
    dudt0 = -(grid.abs_xi[None, :, :] * tables["sin"]) * phi0
    if not data.phi1_is_zero:
        phi1 = data.phi1_rand.values
        u0 = u0 + tables["sinc"] * phi1
        dudt0 = dudt0 + tables["cos"] * phi1
    return u0, dudt0


def free_evolution(data: RandomizedData, tg: TimeGrid,
                   d_choice: str = "x1") -> tuple[FieldSeries, FieldSeries, FieldSeries]:
    """Free wave evolution of randomized data.

    Returns the series (u0, d/dt u0, d u0) with

        u0(t) = cos(t|grad|) phi0 + sin(t|grad|)/|grad| phi1,

    all derivatives taken by exact multipliers.  The free energy
    ||grad u0||_2^2 + ||dt u0||_2^2 is conserved node-to-node to rounding.
    """
    u0, dudt0 = _free_hats(data, tg, d_choice)
    grid = data.grid
    return (
        FieldSeries(grid, tg, u0, SPECTRAL, tag="u"),
        FieldSeries(grid, tg, dudt0, SPECTRAL, tag="du_dt"),
        FieldSeries(grid, tg, _derivative_hat(u0, dudt0, grid, d_choice), SPECTRAL, tag="du"),
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
    seed: int = 0
    sample_index: int = 0
    config_hash: str = ""

    def to_json(self) -> str:
        """Norms and provenance as one JSON object (fields are dumped separately)."""
        payload = {
            "n": self.n,
            "norms": dict(self.norms),
            "seed": self.seed,
            "sample_index": self.sample_index,
            "config_hash": self.config_hash,
        }
        return json.dumps(payload, sort_keys=True)


def _norm_linf_hs(hat: np.ndarray, grid: Grid, s: float) -> float:
    if s == 0.0:
        w = np.ones_like(grid.abs_xi)
    else:
        w = grid.abs_xi ** (2.0 * s)
        w = w.copy()
        w[0, 0] = 0.0
    vals = np.sqrt(np.einsum("mij,ij->m", np.abs(hat) ** 2, w))
    return float(grid.dx * vals.max())


def _norm_l2t_l4(hat: np.ndarray, grid: Grid, tg: TimeGrid) -> float:
    phys = np.fft.ifft2(hat, norm="ortho", axes=(1, 2))
    l4sq = (np.sum(np.abs(phys) ** 4, axis=(1, 2)) * grid.dx**2) ** 0.5
    return float(np.sqrt(_trapezoid(l4sq, tg.dt)))


def _trapezoid(vals: np.ndarray, dt: float) -> float:
    return float(dt * (vals.sum() - 0.5 * (vals[0] + vals[-1])))


def _record(n: int, grid: Grid, tg: TimeGrid, u_hat, dudt_hat, du_hat,
            seed: int, sample_index: int, config_hash: str) -> IterateRecord:
    norms = {
        "linf_h1_u": _norm_linf_hs(u_hat, grid, 1.0),
        "linf_l2_dudt": _norm_linf_hs(dudt_hat, grid, 0.0),
        "l2t_l4_du": _norm_l2t_l4(du_hat, grid, tg),
    }
    for name, value in norms.items():
        if not math.isfinite(value) or value > BLOWUP_GUARD:
            raise BlowUpError(n, name, value)
    return IterateRecord(
        n=n,
        u=FieldSeries(grid, tg, u_hat, SPECTRAL, tag="u"),
        du_dt=FieldSeries(grid, tg, dudt_hat, SPECTRAL, tag="du_dt"),
        du=FieldSeries(grid, tg, du_hat, SPECTRAL, tag="du"),
        norms=norms,
        seed=seed,
        sample_index=sample_index,
        config_hash=config_hash,
    )


def _step(n: int, prev_du: np.ndarray, free: tuple[np.ndarray, np.ndarray],
          grid: Grid, tg: TimeGrid, d_choice: str,
          provenance: tuple[int, int, str]) -> IterateRecord:
    """Iterate n from du^(n-1): free part plus the Duhamel integral of its square."""
    u0, dudt0 = free
    src = product_dealias(prev_du, prev_du, grid)
    u_hat, dudt_hat = _duhamel_hats(src, grid, tg)
    u_hat += u0
    dudt_hat += dudt0
    du_hat = _derivative_hat(u_hat, dudt_hat, grid, d_choice)
    return _record(n, grid, tg, u_hat, dudt_hat, du_hat, *provenance)


def picard_chain(n_max: int, data: RandomizedData, tg: TimeGrid,
                 d_choice: str = "x1", config_hash: str = "") -> list[IterateRecord]:
    """Iterates 0..n_max by the recursion, sharing the free-evolution work."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    grid = data.grid
    provenance = (data.draw.seed, data.draw.sample_index, config_hash)
    free = _free_hats(data, tg, d_choice)
    du0 = _derivative_hat(*free, grid, d_choice)
    records = [_record(0, grid, tg, *free, du0, *provenance)]
    for n in range(1, n_max + 1):
        records.append(_step(n, records[-1].du.values, free, grid, tg, d_choice, provenance))
    return records


def picard_iterate(n: int, data: RandomizedData, tg: TimeGrid,
                   d_choice: str = "x1", config_hash: str = "") -> IterateRecord:
    """The n-th Picard iterate (computes the chain 0..n internally)."""
    return picard_chain(n, data, tg, d_choice, config_hash)[-1]


def iterate_from_previous(prev: IterateRecord, data: RandomizedData, tg: TimeGrid,
                          d_choice: str = "x1") -> IterateRecord:
    """One recursion step from a stored iterate.

    Bit-identical to the corresponding entry of :func:`picard_chain`: the
    computation is the same code path on the same inputs.
    """
    free = _free_hats(data, tg, d_choice)
    return _step(prev.n + 1, prev.du.values, free, data.grid, tg, d_choice,
                 (prev.seed, prev.sample_index, prev.config_hash))


def space_time_norm(series: FieldSeries, q: float, r: float) -> float:
    """Mixed norm (int_0^T ||f(t)||_{L^r}^q dt)^{1/q}; sup over nodes for q=inf.

    Time integration is composite trapezoid on the series' own nodes.
    """
    if q != np.inf and q < 1.0:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    if r != np.inf and r < 1.0:
        raise ValueError(f"r must be >= 1 or inf, got {r}")
    phys = series_to_physical(series)
    a = np.abs(phys.values)
    dx2 = phys.grid.dx**2
    if r == np.inf:
        space = a.max(axis=(1, 2))
    else:
        space = (np.sum(a**r, axis=(1, 2)) * dx2) ** (1.0 / r)
    if q == np.inf:
        return float(space.max())
    return float(_trapezoid(space**q, series.timegrid.dt) ** (1.0 / q))


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
