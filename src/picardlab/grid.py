"""Periodic grid, scalar fields, and their discrete Fourier representation.

Everything downstream (multipliers, projections, the Picard engine) works on
the square torus [0, L)^2 sampled on an N x N lattice, N a power of two.  The
discrete frequency lattice is {2*pi*m/L : m in [-N/2, N/2)^2}; the unit-scale
machinery requires the frequency spacing 2*pi/L <= 1 so that each unit block
holds several modes.

Transforms use the unitary normalization (numpy ``norm="ortho"``), so the
physical-sample l2 norm equals the spectral l2 norm exactly and the continuum
L^2 norm is ``dx * ||fhat||_2``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "make_grid",
    "transform",
    "as_spectral",
    "as_physical",
    "lp_norm",
    "sobolev_norm",
    "save_field",
    "load_field",
]

PHYSICAL = "physical"
SPECTRAL = "spectral"


def _check_integer(value, name: str) -> int:
    """``value`` as an int if it is a Python or numpy integer; a bool, a float
    or a string is refused, naming the field, even when it equals one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Grid:
    """Periodic N x N grid on [0, L)^2 with its frequency lattice: N
    (``n_points``) a power of two >= 8, L (``box_length``) the side of the
    square.  The frequency meshes and |xi| are formed once, read-only; the
    coordinate meshes x1, x2 on first use.  Equality and hashing use
    (n_points, box_length) only."""

    n_points: int
    box_length: float

    xi1: np.ndarray = field(init=False, repr=False, compare=False)
    xi2: np.ndarray = field(init=False, repr=False, compare=False)
    abs_xi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = _check_integer(self.n_points, "n_points")
        length = float(self.box_length)
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 8, got {n}")
        if not math.isfinite(length):
            raise ValueError(f"box_length must be finite, got {length}")
        if not length > 0.0:
            raise ValueError(f"box_length must be positive, got {length}")
        if 2.0 * np.pi / length > 1.0 + 1e-12:
            raise ValueError(
                f"frequency spacing 2*pi/L = {2.0 * np.pi / length:.4g} exceeds 1; "
                "unit-scale blocks need L >= 2*pi"
            )
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "box_length", length)

        k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
        xi1, xi2 = np.meshgrid(k, k, indexing="ij")
        abs_xi = np.sqrt(xi1**2 + xi2**2)
        for name, arr in (("xi1", xi1), ("xi2", xi2), ("abs_xi", abs_xi)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def _coordinate(self, axis: int) -> np.ndarray:
        x = np.arange(self.n_points) * (self.box_length / self.n_points)
        mesh = np.meshgrid(x, x, indexing="ij", copy=False)[axis].copy()
        mesh.flags.writeable = False
        return mesh

    @cached_property
    def x1(self) -> np.ndarray:
        """Read-only sample coordinate x1 at every grid point."""
        return self._coordinate(0)

    @cached_property
    def x2(self) -> np.ndarray:
        """Read-only sample coordinate x2 at every grid point."""
        return self._coordinate(1)

    @property
    def dx(self) -> float:
        """Grid spacing L/N."""
        return self.box_length / self.n_points

    @property
    def dxi(self) -> float:
        """Frequency spacing 2*pi/L."""
        return 2.0 * np.pi / self.box_length

    @property
    def xi_max(self) -> float:
        """Largest lattice frequency magnitude per axis, pi*N/L."""
        return np.pi * self.n_points / self.box_length


@dataclass(frozen=True, eq=False)
class Field:
    """One real scalar field on a grid, in physical or spectral representation.

    Physical values are real samples f(x); spectral values are the unitary DFT
    amplitudes in numpy's unshifted layout.  Values are frozen (read-only
    array) on construction; operations return new fields.
    """

    grid: Grid
    values: np.ndarray
    representation: str

    def __post_init__(self) -> None:
        n = self.grid.n_points
        if self.representation not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown representation {self.representation!r}")
        want = np.float64 if self.representation == PHYSICAL else np.complex128
        vals = np.asarray(self.values, dtype=want)
        if vals.shape != (n, n):
            raise ValueError(f"values shape {vals.shape} does not match grid ({n}, {n})")
        if vals.flags.writeable:
            vals = vals.copy()
            vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def is_physical(self) -> bool:
        return self.representation == PHYSICAL

    @property
    def is_spectral(self) -> bool:
        return self.representation == SPECTRAL


def make_grid(n_points: int, box_length: float) -> Grid:
    """Build a periodic grid; rejects a non-integer or non-power-of-two
    ``n_points`` and a non-finite or non-positive ``box_length``."""
    return Grid(n_points, box_length)


def transform(f: Field, direction: str) -> Field:
    """Unitary DFT between representations.

    ``direction="forward"`` takes a physical field to spectral amplitudes,
    ``"inverse"`` back to physical samples.  The inverse requires conjugate-
    symmetric input (the spectral image of a real field); a genuinely complex
    spectrum is rejected rather than silently truncated.  Forward/inverse
    round-trips reproduce samples to ~1e-16 relative.
    """
    if direction == "forward":
        if not f.is_physical:
            raise ValueError("forward transform expects a physical field")
        vals = np.fft.fft2(f.values, norm="ortho")
        return Field(f.grid, vals, SPECTRAL)
    if direction == "inverse":
        if not f.is_spectral:
            raise ValueError("inverse transform expects a spectral field")
        vals = np.fft.ifft2(f.values, norm="ortho")
        residue = float(np.max(np.abs(vals.imag)))
        scale = float(np.max(np.abs(vals.real)))
        if residue > 1e-10 * max(scale, 1e-300):
            raise ValueError(
                "spectrum is not conjugate-symmetric (imaginary residue "
                f"{residue:.3e} vs scale {scale:.3e}); no real physical form")
        return Field(f.grid, vals.real, PHYSICAL)
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def as_spectral(f: Field) -> Field:
    """Return the field in spectral representation (transform if needed)."""
    return f if f.is_spectral else transform(f, "forward")


def as_physical(f: Field) -> Field:
    """Return the field in physical representation (transform if needed)."""
    return f if f.is_physical else transform(f, "inverse")


def _squared_modulus(values: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """|f|^2 as re^2 + im^2 (f^2 for real f), in plane 0 of a real ``scratch``
    of shape (2,) + values.shape (or a fresh array): no hypot, whose square
    root the square would undo."""
    if scratch is None:
        scratch = np.empty((2,) + values.shape)
    sq = np.square(values.real, out=scratch[0])
    if np.iscomplexobj(values):
        sq += np.square(values.imag, out=scratch[1])
    return sq


def lp_nodes(values: np.ndarray, grid: Grid, p: float,
             scratch: np.ndarray | None = None) -> np.ndarray:
    """Continuum L^p norm over the trailing two axes, one per leading index:
    (sum |f|^p dx^2)^(1/p), or max |f| for p = inf.  |f|^2 is re^2 + im^2
    and |f|^4 its square, with no libm pow; other p take |f| ** p.  A real
    ``scratch`` of shape (2,) + values.shape holds the terms instead of
    fresh arrays."""
    if p in (2.0, 4.0):
        a = _squared_modulus(values, scratch)
        if p == 4.0:
            a *= a
    else:
        a = np.abs(values, out=None if scratch is None else scratch[0])
        if p == np.inf:
            return a.max(axis=(-2, -1))
        a **= p
    return (np.sum(a, axis=(-2, -1)) * grid.dx**2) ** (1.0 / p)


@lru_cache(maxsize=16)
def _sobolev_weight(grid: Grid, s: float) -> np.ndarray | None:
    """Read-only |xi|^(2s) with xi = 0 dropped, or None for s = 0: the
    weight would be all ones, and x * 1.0 is x."""
    if s == 0.0:
        return None
    w = grid.abs_xi ** (2.0 * s)
    w[0, 0] = 0.0
    w.flags.writeable = False
    return w


def _sobolev_sums(hat: np.ndarray, weight: np.ndarray | None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """sum weight |fhat|^2 over the trailing two axes, one per leading index
    (``weight`` None means 1), with a ``scratch`` as in :func:`lp_nodes`.
    Each leading index is reduced on its own over its contiguous block, so a
    node's value does not depend on how many nodes are passed with it."""
    sq = _squared_modulus(hat, scratch)
    if weight is not None:
        sq *= weight
    return np.sum(sq, axis=(-2, -1))


def sobolev_nodes(hat: np.ndarray, grid: Grid, s: float) -> np.ndarray:
    """Homogeneous H^s norm of spectral values over the trailing two axes,
    dx (sum |xi|^(2s) |fhat|^2)^(1/2) from :func:`_sobolev_sums`; xi = 0 is
    dropped for s != 0."""
    return grid.dx * np.sqrt(_sobolev_sums(hat, _sobolev_weight(grid, s)))


def lp_norm(f: Field, p: float) -> float:
    """Continuum L^p norm on the box: (sum |f|^p dx^2)^(1/p); max for p=inf.

    Requires a physical-representation field (transform first if needed).
    """
    if not f.is_physical:
        raise ValueError("lp_norm expects a physical field; use transform() first")
    if p != np.inf and p < 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(lp_nodes(f.values, f.grid, p))


def sobolev_norm(f: Field, s: float) -> float:
    """Homogeneous Sobolev norm (sum |xi|^(2s) |fhat|^2)^(1/2), L^2-weighted.

    The xi = 0 amplitude is dropped for s > 0 (and would be singular for
    s < 0).  s = 0 reproduces the L^2 norm exactly (Parseval).
    """
    g = as_spectral(f)
    return float(sobolev_nodes(g.values, g.grid, s))


def save_field(f: Field, path: str, name: str = "") -> None:
    """Dump a field: one JSON header line, then raw little-endian float64.

    Physical fields store row-major samples; spectral fields store interleaved
    real/imaginary pairs in the same row-major mode order.
    """
    header = {
        "n_points": f.grid.n_points,
        "box_length": f.grid.box_length,
        "representation": f.representation,
        "name": name,
    }
    if f.is_physical:
        payload = np.ascontiguousarray(f.values, dtype="<f8")
    else:
        inter = np.empty(f.values.shape + (2,), dtype="<f8")
        inter[..., 0] = f.values.real
        inter[..., 1] = f.values.imag
        payload = inter
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(payload.tobytes())


def load_field(path: str) -> Field:
    """Read a field written by :func:`save_field`."""
    return parse_field(Path(path).read_bytes())


def parse_field(data: bytes) -> Field:
    """The field whose :func:`save_field` file holds exactly these bytes.

    The header's n_points (an integer) and the payload size are checked
    before the grid is built, so a corrupt header allocates nothing.
    """
    head, _, raw = data.partition(b"\n")
    header = json.loads(head.decode("ascii"))
    n = _check_integer(header["n_points"], "n_points")
    rep = header["representation"]
    if rep not in (PHYSICAL, SPECTRAL):
        raise ValueError(f"unknown representation {rep!r} in header")
    expect = n * n * (8 if rep == PHYSICAL else 16)
    if len(raw) != expect:
        raise ValueError(f"payload has {len(raw)} bytes, expected {expect}")
    grid = make_grid(n, float(header["box_length"]))
    vals = np.frombuffer(raw, dtype="<f8")
    if rep == PHYSICAL:
        return Field(grid, vals.reshape(n, n), PHYSICAL)
    inter = vals.reshape(n, n, 2)
    return Field(grid, inter[..., 0] + 1j * inter[..., 1], SPECTRAL)
