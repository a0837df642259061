"""Rademacher block randomization of initial data.

The lab's data space is H^1 x {0}: the velocity datum is zero, the case the
tree oracle can check.  A draw assigns one independent sign eps_k to every
block, and the randomized datum is the signed resummation of the unit-block
projections,

    phi0_rand = sum_k eps_k P_k phi0.

Signs come from a counter-based generator keyed by (seed, sample_index), drawn
for all blocks in sorted order, so a draw depends only on (seed, sample_index,
block set) -- never on scheduling or worker count.

Built-in data families: a Gaussian bump (physical-space, effectively compactly
supported), a band-limited random field with prescribed homogeneous-H^1 norm
(spectrally exact on the grid, the canonical test family), and file input via
:func:`picardlab.grid.load_field`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, SPECTRAL, as_spectral, sobolev_nodes, sobolev_norm
from .multipliers import UnitPartition

__all__ = [
    "RademacherDraw",
    "RandomizedData",
    "draw_rademacher",
    "active_blocks",
    "randomize",
    "gaussian_bump",
    "band_limited_field",
    "support_radius",
]

CHANNELS = ("eps", "nu")
BLOCK_NORM_THRESHOLD = 1e-14


@dataclass(frozen=True)
class RademacherDraw:
    """The sign of every block: values[("eps", k)] in {-1, +1}."""

    seed: int
    sample_index: int
    blocks: tuple[tuple[int, int], ...]
    values: dict[tuple[str, tuple[int, int]], int]

    def eps(self, k: tuple[int, int]) -> int:
        return self.values[("eps", k)]


def draw_rademacher(
    seed: int,
    blocks: "set[tuple[int, int]] | tuple[tuple[int, int], ...] | list[tuple[int, int]]",
    sample_index: int = 0,
) -> RademacherDraw:
    """Independent +-1 per block from a counter-based stream.

    Identical (seed, sample_index, blocks) reproduce the draw exactly; distinct
    sample indices give disjoint Philox streams, so Monte Carlo samples can be
    generated in any order or in parallel.
    """
    block_list = tuple(sorted((int(k[0]), int(k[1])) for k in blocks))
    if not block_list:
        raise ValueError("draw_rademacher needs a nonempty block set")
    bitgen = np.random.Philox(seed=np.random.SeedSequence((int(seed), int(sample_index))))
    rng = np.random.Generator(bitgen)
    # the "nu" column (the velocity channel's signs) is still drawn, and not
    # kept: without it the stream, and so every eps sign, would change
    raw = rng.integers(0, 2, size=(len(block_list), len(CHANNELS))) * 2 - 1
    values = {("eps", k): int(raw[i, 0]) for i, k in enumerate(block_list)}
    return RademacherDraw(int(seed), int(sample_index), block_list, values)


def _spectral_bbox_blocks(phi_hat: np.ndarray, grid: Grid) -> list[tuple[int, int]]:
    """Candidate blocks from the bounding box of the nonzero spectrum."""
    part = UnitPartition(grid)
    lo, hi = part.k_range
    mag = np.abs(phi_hat)
    scale = mag.max()
    if scale == 0.0:
        return []
    xi = grid.xi1[:, 0]
    active = mag > BLOCK_NORM_THRESHOLD * scale
    # per axis, the blocks whose bump (half-width 3/4) meets a hit frequency
    k1, k2 = (range(max(lo, int(np.ceil(hit.min() - 0.75))),
                    min(hi, int(np.floor(hit.max() + 0.75))) + 1)
              for hit in (xi[active.any(axis=1)], xi[active.any(axis=0)]))
    return [(a, b) for a in k1 for b in k2]


def active_blocks(phi0: Field) -> tuple[tuple[int, int], ...]:
    """Blocks k with ||P_k phi0||_2 above BLOCK_NORM_THRESHOLD."""
    g0 = as_spectral(phi0)
    grid = g0.grid
    part = UnitPartition(grid)
    out = []
    for k in sorted(_spectral_bbox_blocks(g0.values, grid)):
        if sobolev_nodes(part.weight(k) * g0.values, grid, 0.0) > BLOCK_NORM_THRESHOLD:
            out.append(k)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class RandomizedData:
    """A draw, the spectral datum phi0 and its signed resummation
    phi0_rand = sum_k eps_k P_k phi0 over the draw's blocks."""

    draw: RademacherDraw
    phi0: Field
    phi0_rand: Field

    @property
    def grid(self) -> Grid:
        return self.phi0_rand.grid


def randomize(phi0: Field, phi1: None, draw: RademacherDraw) -> RandomizedData:
    """Assemble the randomized datum for a given draw.

    The velocity slot ``phi1`` must be None: the data lie in H^1 x {0}.  The
    signed projections are added one at a time, in the draw's block order,
    into one running sum, each on the window of its weight (11 x 11 modes at
    frequency spacing 1/8): outside it the full-lattice term is zero and
    adding it changes no bit.
    """
    if phi1 is not None:
        raise ValueError("the velocity datum is zero: data in H^1 x {0}")
    g0 = as_spectral(phi0)
    part = UnitPartition(g0.grid)
    total = np.zeros_like(g0.values)
    for k in draw.blocks:
        rows, cols, w = part.window(k)
        win = np.ix_(rows, cols)
        total[win] += draw.eps(k) * (w * g0.values[win])
    return RandomizedData(draw=draw, phi0=g0, phi0_rand=Field(g0.grid, total, SPECTRAL))


# ---------------------------------------------------------------------------
# Data families
# ---------------------------------------------------------------------------

def gaussian_bump(grid: Grid, sigma: float = 2.0, amplitude: float = 1.0) -> Field:
    """Gaussian bump amplitude * exp(-|x - c|^2 / (2 sigma^2)) at the box
    center c = (L/2, L/2), where :func:`support_radius` measures from."""
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be a positive finite width, got {sigma}")
    c = grid.box_length / 2.0
    r2 = (grid.x1 - c) ** 2 + (grid.x2 - c) ** 2
    return Field(grid, amplitude * np.exp(-r2 / (2.0 * sigma**2)), "physical")


def support_radius(f: Field) -> float:
    """Radius around the box center beyond which |f| stays below 1e-13 * max|f|.

    Used by the harness to validate the finite-propagation condition
    T < L/2 - radius for physically localized data.
    """
    from .grid import as_physical

    p = as_physical(f)
    a = np.abs(p.values)
    scale = a.max()
    if scale == 0.0:
        return 0.0
    c = p.grid.box_length / 2.0
    r = np.sqrt((p.grid.x1 - c) ** 2 + (p.grid.x2 - c) ** 2)
    hit = a > 1e-13 * scale
    return float(r[hit].max()) if hit.any() else 0.0


def band_limited_field(grid: Grid, band: float, seed: int,
                       h1_norm: float = 1.0) -> Field:
    """Random real field with spectrum confined to 0 < |xi| <= band.

    Amplitudes are complex Gaussian, conjugate-symmetrized so the field is
    real, then rescaled to the requested homogeneous-H^1 norm.  Spectrally
    exact on the grid: every mode outside the band is identically zero, so the
    block decomposition has finitely many active blocks with no truncation
    error.  ``h1_norm`` = 0 gives the zero datum; a negative one is refused,
    since no rescaling has a negative norm.
    """
    if band <= 0 or band > grid.xi_max / 2:
        raise ValueError(f"band must lie in (0, {grid.xi_max / 2:g}], got {band}")
    if h1_norm < 0:
        raise ValueError(f"h1_norm must be >= 0, got {h1_norm}")
    rng = np.random.Generator(np.random.Philox(
        seed=np.random.SeedSequence((int(seed), 0x0DA7A))))
    n = grid.n_points
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mask = (grid.abs_xi <= band) & (grid.abs_xi > 0.0)
    raw[~mask] = 0.0
    # Hermitian part of the coefficient array: c(-xi) = conj(c(xi)).
    idx = (-np.arange(n)) % n
    sym = 0.5 * (raw + np.conj(raw[np.ix_(idx, idx)]))
    f = Field(grid, sym, SPECTRAL)
    cur = sobolev_norm(f, 1.0)
    if cur == 0.0:
        raise ValueError("band contains no lattice modes")
    return Field(grid, sym * (h1_norm / cur), SPECTRAL)
