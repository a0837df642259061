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
from dataclasses import dataclass, field
from functools import lru_cache
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


@dataclass(frozen=True)
class Grid:
    """Periodic N x N grid on [0, L)^2 with its frequency lattice.

    Parameters
    ----------
    n_points : int
        Samples per axis; power of two, at least 8.
    box_length : float
        Side L of the periodic square.

    Notes
    -----
    Derived arrays (coordinates, frequency meshes, |xi|) are computed once in
    ``__post_init__`` and cached on the instance; they are excluded from
    equality and hashing, which use only (n_points, box_length).
    """

    n_points: int
    box_length: float

    x1: np.ndarray = field(init=False, repr=False, compare=False)
    x2: np.ndarray = field(init=False, repr=False, compare=False)
    xi1: np.ndarray = field(init=False, repr=False, compare=False)
    xi2: np.ndarray = field(init=False, repr=False, compare=False)
    abs_xi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n_points
        length = float(self.box_length)
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 8, got {n}")
        if not length > 0.0:
            raise ValueError(f"box_length must be positive, got {length}")
        if 2.0 * np.pi / length > 1.0 + 1e-12:
            raise ValueError(
                f"frequency spacing 2*pi/L = {2.0 * np.pi / length:.4g} exceeds 1; "
                "unit-scale blocks need L >= 2*pi"
            )
        object.__setattr__(self, "box_length", length)

        x = np.arange(n) * (length / n)
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
        xi1, xi2 = np.meshgrid(k, k, indexing="ij")
        abs_xi = np.sqrt(xi1**2 + xi2**2)
        for name, arr in (("x1", x1), ("x2", x2), ("xi1", xi1), ("xi2", xi2), ("abs_xi", abs_xi)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

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
    """Build a periodic grid; rejects non-power-of-two or non-positive input."""
    return Grid(int(n_points), float(box_length))


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


def lp_nodes(values: np.ndarray, grid: Grid, p: float) -> np.ndarray:
    """Continuum L^p norm over the trailing two axes, one per leading index:
    (sum |f|^p dx^2)^(1/p), or max |f| for p = inf."""
    a = np.abs(values)
    if p == np.inf:
        return a.max(axis=(-2, -1))
    return (np.sum(a**p, axis=(-2, -1)) * grid.dx**2) ** (1.0 / p)


@lru_cache(maxsize=16)
def _sobolev_weight(grid: Grid, s: float) -> np.ndarray:
    """Read-only |xi|^(2s), with xi = 0 dropped for s != 0."""
    w = grid.abs_xi ** (2.0 * s)
    if s != 0.0:
        w[0, 0] = 0.0
    w.flags.writeable = False
    return w


def sobolev_nodes(hat: np.ndarray, grid: Grid, s: float) -> np.ndarray:
    """Homogeneous H^s norm of spectral values over the trailing two axes,
    dx (sum |xi|^(2s) |fhat|^2)^(1/2); xi = 0 is dropped for s != 0.

    Each leading index is reduced on its own over its contiguous N x N
    block, as in :func:`lp_nodes`, so a node's value does not depend on how
    many nodes are passed with it.
    """
    sq = np.abs(hat) ** 2
    sq *= _sobolev_weight(grid, s)
    return grid.dx * np.sqrt(np.sum(sq, axis=(-2, -1)))


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
    """The field whose :func:`save_field` file holds exactly these bytes."""
    head, _, raw = data.partition(b"\n")
    header = json.loads(head.decode("ascii"))
    n = int(header["n_points"])
    grid = make_grid(n, float(header["box_length"]))
    rep = header["representation"]
    if rep == PHYSICAL:
        expect = n * n * 8
        if len(raw) != expect:
            raise ValueError(f"payload has {len(raw)} bytes, expected {expect}")
        vals = np.frombuffer(raw, dtype="<f8").reshape(n, n)
        return Field(grid, vals, PHYSICAL)
    if rep == SPECTRAL:
        expect = n * n * 16
        if len(raw) != expect:
            raise ValueError(f"payload has {len(raw)} bytes, expected {expect}")
        inter = np.frombuffer(raw, dtype="<f8").reshape(n, n, 2)
        return Field(grid, inter[..., 0] + 1j * inter[..., 1], SPECTRAL)
    raise ValueError(f"unknown representation {rep!r} in header")
