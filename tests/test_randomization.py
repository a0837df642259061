"""Rademacher draws, block decomposition, and the bundled data families."""

import numpy as np
import pytest

from picardlab import Field, band_limited_field, gaussian_bump, make_grid, sobolev_norm
from picardlab.grid import as_spectral
from picardlab.multipliers import unit_projection
from picardlab.randomization import (
    RademacherDraw,
    active_blocks,
    draw_rademacher,
    randomize,
    support_radius,
)

from conftest import two_block_datum


def test_draw_values_are_signs():
    blocks = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
    draw = draw_rademacher(7, blocks, sample_index=2)
    assert set(draw.values.values()) <= {-1, 1}
    assert len(draw.values) == len(blocks)


def test_draw_deterministic_and_order_free():
    blocks = [(0, 0), (1, 0), (0, 1), (-1, -1)]
    a = draw_rademacher(123, blocks, sample_index=5)
    b = draw_rademacher(123, tuple(reversed(blocks)), sample_index=5)
    c = draw_rademacher(123, set(blocks), sample_index=5)
    assert a.values == b.values == c.values
    # drawing other sample indices first must not shift the stream
    _ = [draw_rademacher(123, blocks, sample_index=i) for i in range(5)]
    d = draw_rademacher(123, blocks, sample_index=5)
    assert d.values == a.values


def test_distinct_indices_give_distinct_draws():
    blocks = [(i, j) for i in range(-4, 5) for j in range(-4, 5)]
    base = draw_rademacher(11, blocks, sample_index=0)
    seen = {tuple(sorted(base.values.items()))}
    for idx in range(1, 20):
        other = draw_rademacher(11, blocks, sample_index=idx)
        key = tuple(sorted(other.values.items()))
        assert key not in seen
        seen.add(key)


def test_empirical_sign_mean_is_small():
    total = 0
    n_samples = 100_000
    for idx in range(n_samples):
        total += draw_rademacher(1234, [(0, 0)], sample_index=idx).eps((0, 0))
    assert abs(total / n_samples) <= 0.02


def test_empty_block_set_rejected():
    with pytest.raises(ValueError):
        draw_rademacher(1, [])


def test_all_plus_one_reproduces_datum(grid64):
    phi0 = two_block_datum(grid64)
    blocks = active_blocks(phi0)
    values = {(ch, k): 1 for k in blocks for ch in ("eps", "nu")}
    draw = RademacherDraw(0, 0, tuple(blocks), values)
    data = randomize(phi0, None, draw)
    diff = np.max(np.abs(data.phi0_rand.values - as_spectral(phi0).values))
    assert diff <= 1e-10
    assert np.array_equal(data.phi0.values, as_spectral(phi0).values)


def test_single_sign_flip_moves_one_block(grid64):
    phi0 = two_block_datum(grid64)
    blocks = active_blocks(phi0)
    flip_at = blocks[0]
    plus = {(ch, k): 1 for k in blocks for ch in ("eps", "nu")}
    flipped = dict(plus)
    flipped[("eps", flip_at)] = -1
    d_plus = randomize(phi0, None, RademacherDraw(0, 0, tuple(blocks), plus))
    d_flip = randomize(phi0, None, RademacherDraw(0, 1, tuple(blocks), flipped))
    delta = d_flip.phi0_rand.values - d_plus.phi0_rand.values
    expect = -2.0 * unit_projection(phi0, flip_at).values
    assert np.max(np.abs(delta - expect)) <= 1e-12


def test_active_blocks_of_two_block_datum(grid64):
    phi0 = two_block_datum(grid64)
    assert set(active_blocks(phi0)) == {(1, 0), (0, 1), (-1, 0), (0, -1)}


def test_active_blocks_of_zero_field(grid64):
    zero = Field(grid64, np.zeros((64, 64)), "physical")
    assert active_blocks(zero) == ()


def test_randomized_norm_triangle_inequality(grid64):
    phi0 = band_limited_field(grid64, band=3.0, seed=8)
    blocks = active_blocks(phi0)
    draw = draw_rademacher(21, blocks, sample_index=3)
    data = randomize(phi0, None, draw)
    total = sum(sobolev_norm(unit_projection(phi0, k), 1.0) for k in data.draw.blocks)
    assert sobolev_norm(data.phi0_rand, 1.0) <= total + 1e-12


def test_plateau_modes_keep_magnitude(grid64):
    """Unit-lattice modes sit on block plateaus, so signs cannot change
    any |amplitude|; the randomized H^1 norm matches the datum exactly."""
    phi0 = two_block_datum(grid64)
    blocks = active_blocks(phi0)
    for idx in range(10):
        draw = draw_rademacher(4, blocks, sample_index=idx)
        data = randomize(phi0, None, draw)
        assert np.max(
            np.abs(np.abs(data.phi0_rand.values) - np.abs(phi0.values))
        ) <= 1e-13
        assert sobolev_norm(data.phi0_rand, 1.0) == pytest.approx(
            sobolev_norm(phi0, 1.0), abs=1e-12
        )


def test_randomize_rejects_a_velocity_datum(grid64, grid_wide):
    phi0 = two_block_datum(grid64)
    draw = draw_rademacher(1, active_blocks(phi0))
    for phi1 in (Field(grid_wide, np.zeros((64, 64)), "physical"),
                 Field(grid64, np.zeros((64, 64)), "physical"), phi0):
        with pytest.raises(ValueError, match="velocity datum is zero"):
            randomize(phi0, phi1, draw)


@pytest.mark.parametrize("n_points", [64, 128])
@pytest.mark.parametrize("family", ["band", "gaussian"])
def test_signed_sum_is_the_blockwise_reference_bit_for_bit(n_points, family):
    """phi0_rand equals the memo-free sum of eps_k P_k phi0 in block order."""
    grid = make_grid(n_points, 16.0 * np.pi)
    phi0 = (band_limited_field(grid, band=2.0, seed=7) if family == "band"
            else gaussian_bump(grid, sigma=2.0))
    blocks = active_blocks(phi0)
    for idx in (0, 1, 5, 17):
        draw = draw_rademacher(2026, blocks, sample_index=idx)
        expect = np.zeros((n_points, n_points), dtype=complex)
        for k in draw.blocks:
            expect += draw.eps(k) * unit_projection(phi0, k).values
        assert np.array_equal(randomize(phi0, None, draw).phi0_rand.values, expect)


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
def test_gaussian_bump_rejects_a_bad_width(grid64, sigma):
    with pytest.raises(ValueError, match="sigma"):
        gaussian_bump(grid64, sigma=sigma)


def test_band_limited_field_contract(grid64):
    f = band_limited_field(grid64, band=2.0, seed=3, h1_norm=0.7)
    assert sobolev_norm(f, 1.0) == pytest.approx(0.7, rel=1e-12)
    g = as_spectral(f)
    outside = g.grid.abs_xi > 2.0
    assert np.max(np.abs(g.values[outside])) == 0.0
    assert np.abs(g.values[0, 0]) == 0.0
    # conjugate symmetry: physical form is real
    n = g.grid.n_points
    idx = (-np.arange(n)) % n
    assert np.max(np.abs(g.values - np.conj(g.values[np.ix_(idx, idx)]))) <= 1e-13


def test_band_limited_field_refuses_a_negative_h1_norm(grid64):
    """A negative norm would give the negated datum with norm |h1_norm|; zero
    is the zero datum."""
    for h1_norm in (-1.0, -1e-300):
        with pytest.raises(ValueError, match="h1_norm"):
            band_limited_field(grid64, band=2.0, seed=3, h1_norm=h1_norm)
    zero = band_limited_field(grid64, band=2.0, seed=3, h1_norm=0.0)
    assert not zero.values.any() and sobolev_norm(zero, 1.0) == 0.0


def test_band_limited_determinism_and_band_errors(grid64):
    a = band_limited_field(grid64, band=2.0, seed=3)
    b = band_limited_field(grid64, band=2.0, seed=3)
    assert np.array_equal(a.values, b.values)
    with pytest.raises(ValueError):
        band_limited_field(grid64, band=0.0, seed=1)
    with pytest.raises(ValueError):
        band_limited_field(grid64, band=grid64.xi_max, seed=1)


def test_gaussian_bump_localization(grid_wide):
    f = gaussian_bump(grid_wide, sigma=2.0)
    r = support_radius(f)
    assert 0.0 < r < grid_wide.box_length / 2.0
    # max sits at the center
    c = grid_wide.box_length / 2.0
    i = np.argmax(np.abs(f.values))
    x1 = f.grid.x1.ravel()[i]
    x2 = f.grid.x2.ravel()[i]
    assert abs(x1 - c) < f.grid.dx and abs(x2 - c) < f.grid.dx


def test_support_radius_of_zero_field(grid64):
    zero = Field(grid64, np.zeros((64, 64)), "physical")
    assert support_radius(zero) == 0.0
