"""Fourier multipliers of the half-wave calculus and unit-scale projections.

The module owns the half-wave formula: :func:`halfwave_rows` is the one
evaluation of cos(t|xi|), sin(t|xi|) and sin(t|xi|)/|xi|, once per time and
distinct |xi| (:func:`abs_xi_levels`); :func:`halfwave_tables` spreads it
over an array of |xi|: the lattice for the symbols below, a datum's window
for the free wave.

Symbols implemented, as functions of the lattice frequency xi:

* ``cos_halfwave(t)``      -- cos(t|xi|)
* ``sinc_halfwave(t)``     -- sin(t|xi|)/|xi|, limiting value t at xi = 0
* ``spatial_derivative(i)``-- i*xi_i (Nyquist mode zeroed, see below)
* ``gradient_magnitude``   -- |xi|
* ``m01(tau, d)``          -- the wave-propagator derivative symbol: for a
  spatial derivative, i*xi_i * sin(tau|xi|)/|xi| (0 at xi = 0); for the time
  derivative, cos(tau|xi|).  Every m01 symbol has magnitude <= 1 at every
  lattice point, so the operator is an L^2 contraction.

Odd symbols zero the unpaired Nyquist frequency on the differentiated axis so
real fields stay exactly real.

The unit-scale partition splits frequency space into integer-translated bumps
psi(xi - k) = eta(xi_1 - k_1) * eta(xi_2 - k_2) (eta: :func:`bump_profile`),
supported in the open square (-1, 1)^2 and 1 on the block interior
[-1/4, 1/4]^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Field, Grid, SPECTRAL, as_spectral

__all__ = [
    "MultiplierKind",
    "cos_halfwave",
    "sinc_halfwave",
    "spatial_derivative",
    "gradient_magnitude",
    "m01",
    "apply_multiplier",
    "symbol_array",
    "bump_profile",
    "UnitPartition",
    "unit_projection",
    "BERNSTEIN_C0",
]

# Calibrated unit-scale Bernstein constant: max over seeded random single-block
# fields of ||P_k f||_4 / (sqrt(2) ||P_k f||_2) measures ~0.5; 1.0 is the fixed
# conservative round-up used by the checks (support measure |E| = 4, exponent
# 1/4, |E|^(1/4) = sqrt(2)).
BERNSTEIN_C0 = 1.0

D_CHOICES = ("x1", "x2", "t")


@dataclass(frozen=True)
class MultiplierKind:
    """Tagged multiplier symbol; use the module factory functions to build."""

    tag: str
    t: float = 0.0
    axis: int = 0
    d_choice: str = ""

    def __post_init__(self) -> None:
        if self.tag not in ("cos_halfwave", "sinc_halfwave", "spatial_derivative",
                            "gradient_magnitude", "m01"):
            raise ValueError(f"unknown multiplier tag {self.tag!r}")
        if self.tag == "spatial_derivative" and self.axis not in (1, 2):
            raise ValueError(f"axis must be 1 or 2, got {self.axis}")
        if self.tag == "m01" and self.d_choice not in D_CHOICES:
            raise ValueError(f"d_choice must be one of {D_CHOICES}, got {self.d_choice!r}")


def cos_halfwave(t: float) -> MultiplierKind:
    """Propagator symbol cos(t|xi|)."""
    return MultiplierKind("cos_halfwave", t=float(t))


def sinc_halfwave(t: float) -> MultiplierKind:
    """Propagator symbol sin(t|xi|)/|xi| with value t at xi = 0."""
    return MultiplierKind("sinc_halfwave", t=float(t))


def spatial_derivative(axis: int) -> MultiplierKind:
    """Derivative symbol i*xi_axis, axis in {1, 2}."""
    return MultiplierKind("spatial_derivative", axis=int(axis))


def gradient_magnitude() -> MultiplierKind:
    """Symbol |xi|."""
    return MultiplierKind("gradient_magnitude")


def m01(tau: float, d_choice: str) -> MultiplierKind:
    """Derivative-of-propagator symbol for d in {x1, x2, t} at time lag tau."""
    return MultiplierKind("m01", t=float(tau), d_choice=str(d_choice))


def _nyquist_safe_xi(grid: Grid, axis: int) -> np.ndarray:
    """xi_axis with the unpaired Nyquist frequency zeroed."""
    n = grid.n_points
    xi = (grid.xi1 if axis == 1 else grid.xi2).copy()
    if axis == 1:
        xi[n // 2, :] = 0.0
    else:
        xi[:, n // 2] = 0.0
    return xi


def abs_xi_levels(abs_xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``abs_xi`` in ascending order, and per entry
    the index of its value among them (the shape of ``abs_xi``):
    ``levels[index]`` is ``abs_xi`` bit for bit."""
    levels, index = np.unique(abs_xi, return_inverse=True)
    return levels, index.reshape(abs_xi.shape)


def halfwave_rows(times: np.ndarray, levels: np.ndarray, out: tuple[np.ndarray, ...]
                  ) -> tuple[np.ndarray, ...]:
    """cos(t l), sin(t l) and sin(t l)/l (limit t at l = 0) per time t and
    level l, the first ``len(out)`` (two or three) of them, written into
    ``out``, each of shape (len(times), len(levels)).

    The levels ascend from l >= 0 (:func:`abs_xi_levels`), so a level 0
    comes first and the division runs on a slice of the others.
    """
    cos_t, sin_t, *sinc = out
    np.multiply(times[:, None], levels, out=cos_t)  # the arguments t l
    np.sin(cos_t, out=sin_t)
    np.cos(cos_t, out=cos_t)
    if sinc:
        zero = int(np.searchsorted(levels, 0.0, side="right"))
        np.divide(sin_t[:, zero:], levels[zero:], out=sinc[0][:, zero:])
        sinc[0][:, :zero] = times[:, None]
    return out


def halfwave_tables(abs_xi: np.ndarray, times, count: int = 3) -> tuple[np.ndarray, ...]:
    """The first ``count`` of cos(t|xi|), sin(t|xi|) and sin(t|xi|)/|xi|
    (limit t at xi = 0) per time and entry of ``abs_xi``, each of shape
    (len(times),) + abs_xi.shape: :func:`halfwave_rows` on the distinct
    |xi|, spread by ``np.take``, the same bits as evaluating every entry."""
    times = np.asarray(times, dtype=float)
    levels, index = abs_xi_levels(abs_xi)
    rows = halfwave_rows(times, levels, out=tuple(np.empty((len(times), len(levels)))
                                                  for _ in range(count)))
    return tuple(np.take(row, index, axis=1) for row in rows)


def symbol_array(kind: MultiplierKind, grid: Grid) -> np.ndarray:
    """Evaluate the symbol on the grid's frequency lattice (a fresh read-only
    array, formed per call: the engine keeps its own cached i xi_d)."""
    if kind.tag == "gradient_magnitude":
        sym = grid.abs_xi.copy()
    elif kind.tag == "spatial_derivative":
        sym = 1j * _nyquist_safe_xi(grid, kind.axis)
    else:
        cos_t, sin_t, sinc_t = (table[0] for table in halfwave_tables(grid.abs_xi, [kind.t]))
        if kind.tag == "sinc_halfwave":
            sym = sinc_t
        elif kind.tag == "cos_halfwave" or kind.d_choice == "t":
            sym = cos_t
        else:
            xi = _nyquist_safe_xi(grid, 1 if kind.d_choice == "x1" else 2)
            a = grid.abs_xi
            frac = np.zeros_like(a)
            nz = a > 0.0
            frac[nz] = xi[nz] / a[nz]
            sym = 1j * frac * sin_t
    sym = np.ascontiguousarray(sym)
    sym.flags.writeable = False
    return sym


def apply_multiplier(f: Field, kind: MultiplierKind) -> Field:
    """Multiply each spectral amplitude by the symbol value.

    Physical input is transformed automatically; output is spectral.
    """
    g = as_spectral(f)
    return Field(g.grid, g.values * symbol_array(kind, g.grid), SPECTRAL)


# ---------------------------------------------------------------------------
# Unit-scale partition of unity
# ---------------------------------------------------------------------------

def _smoothstep(u: np.ndarray) -> np.ndarray:
    """Quintic smoothstep 10u^3 - 15u^4 + 6u^5 on [0, 1]; C^2 and S(u)+S(1-u)=1."""
    return u**3 * (10.0 + u * (-15.0 + 6.0 * u))


def bump_profile(x: np.ndarray | float) -> np.ndarray:
    """1-D partition bump eta: 1 on [-1/4, 1/4], quintic ramp to 0 at 3/4.

    Satisfies sum_m eta(x - m) = 1 for every real x and supp eta = [-3/4, 3/4].
    """
    a = np.abs(np.asarray(x, dtype=float))
    out = np.zeros_like(a)
    out[a <= 0.25] = 1.0
    ramp = (a > 0.25) & (a < 0.75)
    out[ramp] = 1.0 - _smoothstep((a[ramp] - 0.25) / 0.5)
    return out


@dataclass(frozen=True)
class UnitPartition:
    """Unit-scale frequency blocks covering a grid's lattice.

    The block index set holds every k in Z^2 whose bump support intersects the
    lattice, so sum_k psi(xi - k) = 1 at every lattice point.
    """

    grid: Grid

    @property
    def k_range(self) -> tuple[int, int]:
        """Inclusive per-axis index range [k_min, k_max] of covered blocks."""
        n, length = self.grid.n_points, self.grid.box_length
        xi_min = -np.pi * n / length
        xi_max = np.pi * n / length - 2.0 * np.pi / length
        return int(np.ceil(xi_min - 0.75)), int(np.floor(xi_max + 0.75))

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        lo, hi = self.k_range
        return tuple((k1, k2) for k1 in range(lo, hi + 1) for k2 in range(lo, hi + 1))

    def contains(self, k: tuple[int, int]) -> bool:
        lo, hi = self.k_range
        return lo <= k[0] <= hi and lo <= k[1] <= hi

    def window(self, k: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """psi(xi - k) on its support: the lattice indices (rows, cols) of
        each axis where its factor eta(xi_i - k_i) is nonzero, and the
        weight there, of shape (len(rows), len(cols)).

        The indices ascend in numpy's unshifted order, so a block near
        xi_i = 0 holds the first and the last indices of the axis.
        """
        if not self.contains(k):
            raise ValueError(f"block {k} outside covered range {self.k_range}")
        lo = self.k_range[0]
        (rows, eta_1), (cols, eta_2) = (self._axis_windows[k_i - lo] for k_i in k)
        return rows, cols, np.outer(eta_1, eta_2)

    @cached_property
    def _axis_windows(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per covered k_i from k_min on: the indices of a lattice axis where
        eta(xi_i - k_i) is nonzero, and its values there."""
        lo, hi = self.k_range
        xi = self.grid.xi1[:, 0]
        windows = []
        for factor in bump_profile(xi - np.arange(lo, hi + 1, dtype=float)[:, None]):
            idx = np.flatnonzero(factor)
            windows.append((idx, factor[idx]))
        return tuple(windows)

    def weight(self, k: tuple[int, int]) -> np.ndarray:
        """psi(xi - k) evaluated on the frequency lattice: its window, zero
        elsewhere."""
        rows, cols, w = self.window(k)
        full = np.zeros((self.grid.n_points,) * 2)
        full[np.ix_(rows, cols)] = w
        return full


def unit_projection(f: Field, k: tuple[int, int]) -> Field:
    """Project onto the unit block k: spectral amplitudes weighted by psi(.-k)."""
    g = as_spectral(f)
    w = UnitPartition(g.grid).weight((int(k[0]), int(k[1])))
    return Field(g.grid, g.values * w, SPECTRAL)
