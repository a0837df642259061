"""Shared fixtures: small grids and canonical data instances."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from picardlab import Field, TimeGrid, band_limited_field, make_grid, sobolev_norm
from picardlab.harness import WORKERS_ENV
from picardlab.randomization import active_blocks, draw_rademacher, randomize


@pytest.fixture(scope="session")
def grid64():
    return make_grid(64, 8.0 * math.pi)


@pytest.fixture(scope="session")
def grid_wide():
    return make_grid(64, 16.0 * math.pi)


def two_block_datum(grid, seed: int = 42) -> Field:
    """Real datum whose spectrum sits on plateau interiors of the unit blocks
    (1,0) and (0,1) plus their conjugates; exactly 4 active blocks."""
    n = grid.n_points
    if abs(grid.dxi - 0.25) > 1e-12:
        raise ValueError("two_block_datum expects frequency spacing 1/4")
    rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed)))
    hat = np.zeros((n, n), dtype=complex)
    for (i, j) in [(4, 0), (4, 1), (4, n - 1), (0, 4), (1, 4)]:
        a = rng.standard_normal() + 1j * rng.standard_normal()
        hat[i, j] += a
        hat[(-i) % n, (-j) % n] += np.conj(a)
    f = Field(grid=grid, values=hat, representation="spectral")
    return Field(grid=grid, values=hat / sobolev_norm(f, 1.0),
                 representation="spectral")


def box_mask(n: int) -> np.ndarray:
    """The modes the 2/3 rule keeps on an n x n lattice, |m_1|, |m_2| <= n/3,
    as a boolean mask in numpy's unshifted layout."""
    m = np.rint(np.fft.fftfreq(n) * n)
    keep = np.abs(m) <= n // 3
    return np.outer(keep, keep)


@pytest.fixture(scope="session")
def oracle_data(grid64):
    """Randomized 4-block datum shared by the tree-vs-direct comparisons."""
    phi0 = two_block_datum(grid64)
    blocks = active_blocks(phi0)
    draw = draw_rademacher(99, blocks, sample_index=1)
    return randomize(phi0, None, draw)


@pytest.fixture(scope="session")
def oracle_timegrid():
    return TimeGrid(t_final=0.5, n_steps=128)


def run_python(code: str, timeout: float = 120) -> str:
    """Run ``code`` in a fresh interpreter with this checkout's ``src`` first
    on the path; its standard output."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop(WORKERS_ENV, None)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout
