"""Fourier multipliers, the partition of unity, and block projections."""

import math

import numpy as np
import pytest

from picardlab import BERNSTEIN_C0, Field, apply_multiplier, lp_norm, make_grid, unit_projection
from picardlab.grid import as_physical, as_spectral
from picardlab.picard import _region
from picardlab.multipliers import (
    UnitPartition,
    bump_profile,
    cos_halfwave,
    gradient_magnitude,
    halfwave_rows,
    halfwave_tables,
    m01,
    sinc_halfwave,
    spatial_derivative,
    symbol_array,
)


def _random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal((grid.n_points,) * 2), "physical")


def test_cos_halfwave_eigenfunction(grid64):
    f = Field(grid64, np.cos(grid64.x1), "physical")
    out = as_physical(apply_multiplier(f, cos_halfwave(0.3)))
    expect = math.cos(0.3) * np.cos(grid64.x1)
    assert np.max(np.abs(out.values - expect)) < 1e-12


def test_sinc_halfwave_limit_at_origin(grid64):
    s = symbol_array(sinc_halfwave(0.7), grid64)
    assert s[0, 0] == pytest.approx(0.7)
    # index 4 on the xi1 axis sits at |xi| = 1 (dxi = 0.25)
    assert s[4, 0] == pytest.approx(math.sin(0.7), rel=1e-12)


def test_spatial_derivative_exact(grid64):
    f = Field(grid64, np.sin(grid64.x1), "physical")
    out = as_physical(apply_multiplier(f, spatial_derivative(1)))
    assert np.max(np.abs(out.values - np.cos(grid64.x1))) < 1e-12


def test_gradient_magnitude_symbol(grid64):
    s = symbol_array(gradient_magnitude(), grid64)
    assert s[0, 0] == 0.0
    assert s[4, 4] == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_m01_zero_mode_vanishes_for_spatial_d(grid64):
    for d in ("x1", "x2"):
        s = symbol_array(m01(0.9, d), grid64)
        assert s[0, 0] == 0.0


def test_m01_symbol_magnitude_below_one(grid64):
    for tau in (0.0, 0.3, 1.7):
        for d in ("x1", "x2", "t"):
            s = symbol_array(m01(tau, d), grid64)
            assert np.max(np.abs(s)) <= 1.0 + 1e-15


def test_m01_l2_contraction(grid64):
    kind = m01(0.8, "x1")
    for seed in range(100):
        f = _random_field(grid64, seed)
        out = apply_multiplier(f, kind)
        before = lp_norm(f, 2)
        after = grid64.dx * float(np.linalg.norm(out.values))
        assert after <= before * (1.0 + 1e-12)


def test_multiplier_kind_validation():
    with pytest.raises(ValueError):
        m01(0.5, "zz")
    with pytest.raises(ValueError):
        spatial_derivative(3)


def test_bump_profile_shape():
    assert bump_profile(0.0) == 1.0
    assert bump_profile(0.25) == 1.0
    assert bump_profile(0.75) == 0.0
    assert bump_profile(-0.75) == 0.0
    assert bump_profile(2.0) == 0.0
    mid = bump_profile(0.5)
    assert 0.0 < mid < 1.0
    assert bump_profile(-0.5) == mid


def test_bump_partition_of_unity_1d():
    x = np.linspace(-3.0, 3.0, 1201)
    total = sum(bump_profile(x - m) for m in range(-4, 5))
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_partition_of_unity_on_lattice(grid64):
    part = UnitPartition(grid64)
    total = np.zeros((64, 64))
    for k in part.blocks:
        total += part.weight(k)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_projections_sum_to_identity(grid64):
    f = _random_field(grid64, 3)
    fhat = as_spectral(f).values
    total = np.zeros_like(fhat)
    for k in UnitPartition(grid64).blocks:
        total += unit_projection(f, k).values
    assert np.max(np.abs(total - fhat)) <= 1e-10


def test_projection_far_block_vanishes(grid64):
    f = _random_field(grid64, 4)
    near = unit_projection(f, (2, 2))
    # re-project the block-(2,2) piece onto a block at sup-distance >= 2
    far = Field(grid64, unit_projection(near, (4, 2)).values, "spectral")
    assert np.max(np.abs(far.values)) == 0.0


def test_unit_projection_support(grid64):
    f = _random_field(grid64, 5)
    pk = unit_projection(f, (2, -1)).values
    live = np.abs(pk) > 1e-14
    assert np.all(np.abs(grid64.xi1[live] - 2.0) < 1.0)
    assert np.all(np.abs(grid64.xi2[live] + 1.0) < 1.0)


def test_unit_projection_out_of_range(grid64):
    f = Field(grid64, np.ones((64, 64)), "physical")
    with pytest.raises(ValueError):
        unit_projection(f, (10**6, 0))


def test_bernstein_block_bound(grid64):
    """||P_k f||_4 <= C0 * |E|^(1/4) * ||P_k f||_2 with support measure |E| = 4.

    Block pieces are complex in physical space, so the norms are computed
    directly from the spectral amplitudes (Parseval for L2, raw inverse DFT
    for L4).
    """
    factor = BERNSTEIN_C0 * 4.0**0.25
    part = UnitPartition(grid64)
    weights = {k: part.weight(k) for k in part.blocks}
    dx = grid64.dx
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        f = Field(grid64, rng.standard_normal((64, 64)), "physical")
        fhat = as_spectral(f).values
        for k, w in weights.items():
            pk = fhat * w
            l2 = dx * float(np.linalg.norm(pk))
            if l2 < 1e-13:
                continue
            phys = np.fft.ifft2(pk, norm="ortho")
            l4 = float((np.sum(np.abs(phys) ** 4) * dx * dx) ** 0.25)
            worst = max(worst, l4 / (factor * l2))
            assert l4 <= factor * l2 * (1.0 + 1e-12)
    print(f"\nmeasured Bernstein ratio against C0 = {BERNSTEIN_C0}: {worst:.4f}")
    assert 0.05 < worst <= 1.0 + 1e-12


def test_block_product_support_growth(grid64):
    """A product of j = 2 block pieces has spectrum in a square of side 2j."""
    f = _random_field(grid64, 9)
    fhat = as_spectral(f).values
    part = UnitPartition(grid64)
    a = np.fft.ifft2(fhat * part.weight((1, 0)), norm="ortho")
    b = np.fft.ifft2(fhat * part.weight((0, 1)), norm="ortho")
    prod_hat = np.fft.fft2(a * b, norm="ortho")
    live = np.abs(prod_hat) > 1e-13 * np.abs(prod_hat).max()
    # supports add: centered at (1, 1) with half-side < j = 2
    assert np.all(np.abs(grid64.xi1[live] - 1.0) < 2.0)
    assert np.all(np.abs(grid64.xi2[live] - 1.0) < 2.0)


def test_symbol_arrays_are_frozen(grid64):
    s = symbol_array(gradient_magnitude(), grid64)
    with pytest.raises(ValueError):
        s[0, 0] = 1.0


@pytest.mark.parametrize("n, length", [(128, 16.0 * math.pi), (64, 8.0 * math.pi),
                                       (8, 4.0 * math.pi)])
@pytest.mark.parametrize("times", [[0.0], np.linspace(0.0, 0.5, 65),
                                   [0.0, 0.3, 0.31, 1.7, 11.0]],
                         ids=["zero", "uniform", "nonuniform"])
def test_halfwave_tables_equal_direct_evaluation(n, length, times):
    grid = make_grid(n, length)
    t = np.asarray(times)[:, None, None]
    a = grid.abs_xi
    arg = t * a
    sin_direct = np.sin(arg)
    sinc_direct = np.where(a > 0.0, sin_direct / np.where(a > 0.0, a, 1.0), t)
    cos_t, sin_t, sinc_t = halfwave_tables(a, times)
    assert np.array_equal(cos_t, np.cos(arg))
    assert np.array_equal(sin_t, sin_direct)
    assert np.array_equal(sinc_t, sinc_direct)
    assert np.array_equal(symbol_array(cos_halfwave(0.3), grid), np.cos(0.3 * a))
    # on a window of the lattice (a free datum's), the first two only
    window = np.ix_([1, 2, n - 1], [0, 3])
    pair = halfwave_tables(a[window], times, count=2)
    assert len(pair) == 2
    assert all(np.array_equal(got, table[(slice(None),) + window])
               for got, table in zip(pair, (cos_t, sin_t)))
    # the engine's tables: rows on a region's own levels spread on its modes
    # (the whole lattice, and the box in its compact layout), each also
    # written into a buffer; two buffers take (cos, sin) only, and levels
    # without 0 (a leaf window's) the same rows
    times = np.asarray(times, dtype=float)
    for box in (False, True):
        region = _region(grid, box)
        assert np.array_equal(region.levels[region.index], region.abs_xi)
        assert np.array_equal(region.abs_xi, region.gather(a))
        rows = halfwave_rows(times, region.levels,
                             out=tuple(np.empty((len(times), len(region.levels))) for _ in range(3)))
        for row, table in zip(rows, (cos_t, sin_t, sinc_t)):
            expect = region.gather(table)
            assert np.array_equal(region.spread(row), expect)
            out = np.full(expect.shape, np.nan)
            assert region.spread(row, out=out) is out
            assert np.array_equal(out, expect)
        assert region.levels[0] == 0.0
        pair = halfwave_rows(times, region.levels[1:],
                             out=tuple(np.empty((len(times), len(region.levels) - 1))
                                       for _ in range(2)))
        assert all(np.array_equal(got, row[:, 1:]) for got, row in zip(pair, rows))


@pytest.mark.parametrize("n, length", [(128, 16.0 * math.pi), (64, 8.0 * math.pi),
                                       (32, 2.0 * math.pi)])
def test_block_weight_is_its_window_and_the_outer_product_of_its_factors(n, length):
    """Each weight, evaluated on its support window, equals the full-lattice
    outer product of the two 1-D bumps, which is zero off the window."""
    grid = make_grid(n, length)
    part = UnitPartition(grid)
    xi = grid.xi1[:, 0]
    for k in part.blocks:
        outer = np.outer(bump_profile(xi - k[0]), bump_profile(xi - k[1]))
        rows, cols, w = part.window(k)
        assert np.array_equal(part.weight(k), outer)
        assert np.array_equal(w, outer[np.ix_(rows, cols)])
        off = np.ones_like(outer, dtype=bool)
        off[np.ix_(rows, cols)] = False
        assert not outer[off].any()
    lo, hi = part.k_range
    with pytest.raises(ValueError):
        part.window((hi + 1, 0))
