"""Free evolution, Duhamel integrals, and the Picard iterate recursion."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import picardlab.picard as picard
from picardlab import (
    BlowUpError,
    Field,
    FieldSeries,
    TimeGrid,
    band_limited_field,
    duhamel,
    energy_inequality_check,
    free_evolution,
    gaussian_bump,
    make_grid,
    picard_chain,
    picard_iterate,
    reconstruct_iterate,
    sobolev_norm,
    space_time_norm,
)
from picardlab.grid import _sobolev_sums, _sobolev_weight, as_spectral, lp_nodes
from picardlab.multipliers import halfwave_tables, spatial_derivative, symbol_array, unit_projection
from picardlab.picard import (_d_duhamel_hat, _region, free_derivative_hat, product_dealias,
                              series_to_physical)
from picardlab.randomization import (
    RademacherDraw,
    active_blocks,
    draw_rademacher,
    randomize,
)

from conftest import box_mask, two_block_datum

DEFAULT_CHUNK = picard._CHUNK


def _identity_data(phi0):
    """RandomizedData whose resummation equals phi0 (all signs +1)."""
    blocks = active_blocks(phi0)
    values = {(ch, k): 1 for k in blocks for ch in ("eps", "nu")}
    return randomize(phi0, None, RademacherDraw(0, 0, tuple(blocks), values))


def _random_data(grid, band=3.0, seed=8, sample_index=3):
    phi0 = band_limited_field(grid, band=band, seed=seed)
    blocks = active_blocks(phi0)
    return randomize(phi0, None, draw_rademacher(21, blocks, sample_index=sample_index))


def _energy(u_hat, dudt_hat, grid):
    w = grid.abs_xi[None, :, :] ** 2
    per_node = np.sum(w * np.abs(u_hat) ** 2 + np.abs(dudt_hat) ** 2, axis=(1, 2))
    return grid.dx**2 * per_node


def test_timegrid_validation():
    with pytest.raises(ValueError):
        TimeGrid(t_final=0.0, n_steps=4)
    with pytest.raises(ValueError):
        TimeGrid(t_final=1.0, n_steps=0)
    tg = TimeGrid(t_final=1.0, n_steps=4)
    assert tg.dt == 0.25
    assert tg.n_nodes == 5
    assert np.allclose(tg.times, [0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize("t_final, n_steps, field", [
    (math.inf, 4, "t_final"), (-math.inf, 4, "t_final"), (math.nan, 4, "t_final"),
    (0.2, 2.5, "n_steps"), (0.2, 4.0, "n_steps"), (0.2, True, "n_steps"), (0.2, "4", "n_steps"),
], ids=["inf", "-inf", "nan", "2.5", "4.0", "True", "str"])
def test_timegrid_rejects_non_finite_times_and_non_integer_steps(t_final, n_steps, field):
    """Refused when built, naming the field: an infinite T used to fill the
    propagator tables with NaN, 2.5 steps to fail in ``times`` and True to
    run one step."""
    with pytest.raises(ValueError, match=field):
        TimeGrid(t_final, n_steps)


def test_timegrid_accepts_numpy_integer_steps():
    tg = TimeGrid(0.2, np.int64(4))
    assert type(tg.n_steps) is int
    assert tg == TimeGrid(0.2, 4) and hash(tg) == hash(TimeGrid(0.2, 4))
    assert np.array_equal(tg.times, TimeGrid(0.2, 4).times)


def test_free_evolution_closed_form(grid64):
    """phi0 = cos(x1) (|xi| = 1): u = cos(t)cos(x1), dt u = -sin(t)cos(x1),
    d1 u = -cos(t)sin(x1)."""
    data = _identity_data(Field(grid64, np.cos(grid64.x1), "physical"))
    tg = TimeGrid(t_final=1.5, n_steps=16)
    u, du_dt, du = free_evolution(data, tg, d_choice="x1")
    u_p = series_to_physical(u).values
    dt_p = series_to_physical(du_dt).values
    d1_p = series_to_physical(du).values
    for m, t in enumerate(tg.times):
        assert np.max(np.abs(u_p[m] - math.cos(t) * np.cos(grid64.x1))) < 1e-12
        assert np.max(np.abs(dt_p[m] + math.sin(t) * np.cos(grid64.x1))) < 1e-12
        assert np.max(np.abs(d1_p[m] + math.cos(t) * np.sin(grid64.x1))) < 1e-12


def test_free_evolution_at_time_zero(grid64):
    data = _random_data(grid64)
    tg = TimeGrid(t_final=0.5, n_steps=8)
    u, du_dt, _ = free_evolution(data, tg)
    assert np.array_equal(u.values[0], data.phi0_rand.values)
    assert np.max(np.abs(du_dt.values[0])) == 0.0


def test_free_energy_conserved(grid64):
    data = _random_data(grid64)
    tg = TimeGrid(t_final=1.0, n_steps=128)
    u, du_dt, _ = free_evolution(data, tg)
    e = _energy(u.values, du_dt.values, grid64)
    drift = np.max(np.abs(e - e[0])) / e[0]
    assert drift <= 1e-10


def test_free_evolution_d_choice_validation(grid64):
    data = _random_data(grid64)
    with pytest.raises(ValueError):
        free_evolution(data, TimeGrid(0.5, 8), d_choice="x3")


def _whole_lattice_free(phi0_hat, grid, tg, d_choice):
    """(u, dt u, d u) of the free wave from (phi0, 0) on every mode of the
    lattice: the full cos and sin tables of halfwave_tables and the public
    derivative symbol, with no window."""
    cos_t, sin_t, _ = halfwave_tables(grid.abs_xi, tg.times)
    u = cos_t * phi0_hat
    dudt = -(grid.abs_xi * sin_t) * phi0_hat
    if d_choice == "t":
        return u, dudt, dudt
    return u, dudt, symbol_array(spatial_derivative(1 if d_choice == "x1" else 2), grid) * u


@pytest.mark.parametrize("d_choice", ["x1", "x2", "t"])
def test_free_series_equal_the_whole_lattice_expression(grid64, oracle_data, d_choice):
    """Third reference for the free series, which evolve only the window of
    rows and columns where the datum has a nonzero mode, with propagator
    rows formed on the |xi| of that window only: every block of the
    criterion-4 datum (a tree leaf; its window is a few of the 64 rows and
    holds no |xi| = 0), a band-limited datum (the rows and columns of its
    band) and a Gaussian datum (full support, so the window is the whole
    lattice) give the bits of the whole-lattice expression."""
    tg = TimeGrid(t_final=0.5, n_steps=16)
    for k in oracle_data.draw.blocks:
        leaf = unit_projection(oracle_data.phi0, k).values
        assert leaf.any() and not leaf.any(axis=1).all()
        assert grid64.abs_xi[leaf.any(axis=1)][:, leaf.any(axis=0)].min() > 0.0
        assert np.array_equal(free_derivative_hat(leaf, grid64, tg, d_choice),
                              _whole_lattice_free(leaf, grid64, tg, d_choice)[2]), k
    gaussian = _gaussian_data(grid64)
    full = gaussian.phi0_rand.values
    assert full.any(axis=0).all() and full.any(axis=1).all()
    for data in (oracle_data, _random_data(grid64), gaussian):
        phi0 = data.phi0_rand.values
        expect = _whole_lattice_free(phi0, grid64, tg, d_choice)
        assert np.array_equal(free_derivative_hat(phi0, grid64, tg, d_choice), expect[2])
        for got, want in zip(free_evolution(data, tg, d_choice), expect):
            assert np.array_equal(got.values, want)


def _duhamel_error(grid, n_steps):
    """Max-norm error of duhamel against the closed form for source cos(x1)."""
    tg = TimeGrid(t_final=1.0, n_steps=n_steps)
    src_one = np.cos(grid.x1)
    src = FieldSeries(grid, tg, np.broadcast_to(src_one, (tg.n_nodes, 64, 64)),
                      "physical")
    out = series_to_physical(duhamel(src, tg, d_choice="x1")).values
    err = 0.0
    for m, t in enumerate(tg.times):
        expect = -(1.0 - math.cos(t)) * np.sin(grid.x1)
        err = max(err, float(np.max(np.abs(out[m] - expect))))
    return err


def test_duhamel_closed_form(grid64):
    assert _duhamel_error(grid64, 256) <= 1e-6


def test_duhamel_second_order_in_time(grid64):
    e1 = _duhamel_error(grid64, 128)
    e2 = _duhamel_error(grid64, 256)
    order = math.log2(e1 / e2)
    assert order >= 1.9


def test_duhamel_zero_source(grid64):
    tg = TimeGrid(t_final=0.7, n_steps=32)
    src = FieldSeries(grid64, tg, np.zeros((tg.n_nodes, 64, 64)), "physical")
    out = duhamel(src, tg)
    assert np.max(np.abs(out.values)) == 0.0


def test_duhamel_linearity(grid64):
    tg = TimeGrid(t_final=0.7, n_steps=32)
    rng = np.random.default_rng(12)
    s1 = rng.standard_normal((tg.n_nodes, 64, 64))
    s2 = rng.standard_normal((tg.n_nodes, 64, 64))
    a, b = 0.75, -1.5
    f1 = FieldSeries(grid64, tg, s1, "physical")
    f2 = FieldSeries(grid64, tg, s2, "physical")
    combo = FieldSeries(grid64, tg, a * s1 + b * s2, "physical")
    lhs = duhamel(combo, tg).values
    rhs = a * duhamel(f1, tg).values + b * duhamel(f2, tg).values
    scale = np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(scale, 1.0)


def test_duhamel_timegrid_mismatch(grid64):
    tg = TimeGrid(t_final=0.7, n_steps=32)
    other = TimeGrid(t_final=0.7, n_steps=16)
    src = FieldSeries(grid64, tg, np.zeros((tg.n_nodes, 64, 64)), "physical")
    with pytest.raises(ValueError):
        duhamel(src, other)


# ---------------------------------------------------------------------------
# Third reference for the Duhamel scheme shared by the recursion and the trees:
# the trapezoid sum dt * sum''_{l<=m} K(t_m - t_l) S[l] evaluated term by term,
# O(m^2), with every kernel value taken from sin/cos of (t_m - t_l)|xi|.
# ---------------------------------------------------------------------------

def _direct_trapezoid(kernel, src, tg):
    """dt * sum''_{l<=m} kernel(t_m - t_l) * src[l] for every node m."""
    times = tg.times
    out = np.zeros_like(src, dtype=np.complex128)
    for m in range(1, tg.n_nodes):
        weights = np.ones(m + 1)
        weights[0] = weights[m] = 0.5
        tau = times[m] - times[: m + 1]
        k_vals = np.stack([kernel(t) for t in tau])
        out[m] = tg.dt * np.einsum("l,lij,lij->ij", weights, k_vals, src[: m + 1])
    return out


def _direct_kernels(grid):
    a = grid.abs_xi
    safe = np.where(a > 0.0, a, 1.0)
    n = grid.n_points

    def frac(axis):
        xi = (grid.xi1 if axis == 1 else grid.xi2).copy()
        if axis == 1:
            xi[n // 2, :] = 0.0
        else:
            xi[:, n // 2] = 0.0
        return np.where(a > 0.0, xi / safe, 0.0)

    frac1, frac2 = frac(1), frac(2)
    return {
        "u": lambda t: np.where(a > 0.0, np.sin(t * a) / safe, t),
        "dt": lambda t: np.cos(t * a),
        "x1": lambda t: 1j * frac1 * np.sin(t * a),
        "x2": lambda t: 1j * frac2 * np.sin(t * a),
        "t": lambda t: np.cos(t * a),
    }


def _random_source(grid, tg, seed):
    rng = np.random.default_rng(seed)
    shape = (tg.n_nodes, grid.n_points, grid.n_points)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rel(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("t_xi_max, n_steps", [(1.0, 1), (1.0, 16), (10.0, 64),
                                                (100.0, 64), (100.0, 256)])
def test_duhamel_matches_direct_trapezoid_sum(t_xi_max, n_steps):
    grid = make_grid(16, 2.0 * math.pi)
    tg = TimeGrid(t_final=t_xi_max / grid.xi_max, n_steps=n_steps)
    src = _random_source(grid, tg, seed=n_steps)
    kernels = _direct_kernels(grid)
    u, dt_u = _march_duhamel(src, _region(grid, False), tg)
    assert _rel(u, _direct_trapezoid(kernels["u"], src, tg)) <= 1e-12
    assert _rel(dt_u, _direct_trapezoid(kernels["dt"], src, tg)) <= 1e-12
    series = FieldSeries(grid, tg, src, "spectral")
    for d in ("x1", "x2", "t"):
        got = duhamel(series, tg, d_choice=d).values
        assert _rel(got, _direct_trapezoid(kernels[d], src, tg)) <= 1e-12, d


@settings(max_examples=25, deadline=None)
@given(n_steps=st.integers(1, 24), node=st.integers(0, 24), seed=st.integers(0, 2**31),
       d_choice=st.sampled_from(["x1", "x2", "t"]),
       coeffs=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)))
def test_duhamel_is_causal_and_linear(n_steps, node, seed, d_choice, coeffs):
    grid = make_grid(8, 4.0 * math.pi)
    tg = TimeGrid(t_final=1.3, n_steps=n_steps)
    node = min(node, n_steps)
    s1 = _random_source(grid, tg, seed)
    s2 = _random_source(grid, tg, seed + 1)

    def apply(src):
        return duhamel(FieldSeries(grid, tg, src, "spectral"), tg, d_choice).values

    out1 = apply(s1)
    scale = max(float(np.max(np.abs(out1))), 1e-300)
    perturbed = s1.copy()
    perturbed[node + 1:] += 10.0 * s2[node + 1:]
    causal = apply(perturbed)
    assert np.max(np.abs(causal[: node + 1] - out1[: node + 1])) <= 1e-14 * scale

    a, b = coeffs
    combo = apply(a * s1 + b * s2)
    expect = a * out1 + b * apply(s2)
    assert np.max(np.abs(combo - expect)) <= 1e-12 * max(float(np.max(np.abs(expect))), scale)


def test_self_square_is_bit_identical_to_two_transforms(grid64):
    rng = np.random.default_rng(5)
    shape = (9, 64, 64)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(product_dealias(a, a, grid64),
                          product_dealias(a, a.copy(), grid64))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), n_nodes=st.integers(1, 5),
       coeffs=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)))
def test_product_is_bilinear_and_exactly_symmetric(seed, n_nodes, coeffs):
    """Bilinearity is what the tree expansion sums over; P(a, b) and P(b, a)
    are the same bits, although numpy's complex multiply may round fa * fb
    and fb * fa differently."""
    grid = make_grid(16, 4.0 * math.pi)
    rng = np.random.default_rng(seed)
    shape = (n_nodes, 16, 16)
    a, b, c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
               for _ in range(3))
    ab, cb = product_dealias(a, b, grid), product_dealias(c, b, grid)
    assert np.array_equal(ab, product_dealias(b, a, grid))
    x, y = coeffs
    got = product_dealias(x * a + y * c, b, grid)
    scale = max(float(np.max(np.abs(x * ab))), float(np.max(np.abs(y * cb))), 1e-300)
    assert np.max(np.abs(got - (x * ab + y * cb))) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Third references for the box-restricted kernels shared by the recursion and
# the trees: full-lattice transforms of the masked arrays, and the whole-lattice
# Duhamel sum.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "3d"])
@pytest.mark.parametrize("square", [True, False], ids=["square", "distinct"])
def test_product_equals_full_lattice_reference(n, lead, square):
    grid = make_grid(n, 2.0 * math.pi * max(1, n // 16))
    rng = np.random.default_rng(n + len(lead))
    shape = lead + (n, n)
    a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    if square:
        b = a
    mask = box_mask(n)
    fa = np.fft.ifft2(a * mask, norm="ortho", axes=(-2, -1))
    fb = np.fft.ifft2(b * mask, norm="ortho", axes=(-2, -1))
    pointwise = fa * fa if square else 0.5 * (fa * fb + fb * fa)
    expect = np.fft.fft2(pointwise, norm="ortho", axes=(-2, -1)) * mask
    got = product_dealias(a, b, grid)
    assert got.shape == shape
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("n", [8, 16, 64, 128, 256])
def test_the_box_region_is_the_two_thirds_box_with_its_derivative_symbol(n):
    """A third reference for the box the march and the tree oracle share:
    the box region's lattice slices cover each mode of the 2/3 mask once,
    its compact side is 2 floor(N/3) + 1, and its i xi_d is, byte for byte,
    i times xi_d on the masked modes in lattice order (the Nyquist line,
    where the lattice symbol is 0, lies outside)."""
    grid = make_grid(n, 4.0 * math.pi)
    box, mask = _region(grid, True), box_mask(n)
    covered = np.zeros((n, n), dtype=int)
    for (rows, cols), _ in box.pairs:
        covered[rows, cols] += 1
    assert np.array_equal(covered, mask)
    assert box.size == 2 * (n // 3) + 1
    assert not mask[n // 2].any()
    for d_choice, xi in (("x1", grid.xi1), ("x2", grid.xi2)):
        symbol = picard._derivative_symbol(box, d_choice)
        expect = 1j * xi[mask].reshape(box.size, box.size)
        assert symbol.dtype == expect.dtype and symbol.tobytes() == expect.tobytes()
        assert not symbol.flags.writeable
        assert picard._derivative_symbol(box, d_choice) is symbol


def _march_duhamel(src, region, tg, start=None):
    """start (zero if None) + the (u, dt u) Duhamel series on ``region``, on
    the lattice, chunk by chunk as the march adds it: one workspace for
    every chunk, each chunk's rows of the whole-series lattice tables (the
    public halfwave_tables of the lattice's |xi|) gathered on the
    region, the sum formed in the region's compact layout, and outside the
    region the start itself."""
    step = picard._DuhamelSums(region, tg)
    work = region.buffers(DEFAULT_CHUNK)
    lattice = halfwave_tables(region.grid.abs_xi, tg.times)
    if start is None:
        start = (np.zeros(src.shape, dtype=complex),) * 2
    out = tuple(part.copy() for part in start)
    for first in range(0, tg.n_nodes, DEFAULT_CHUNK):
        nodes = slice(first, first + DEFAULT_CHUNK)
        tables = tuple(region.gather(table[nodes]) for table in lattice)
        parts = step.advance(region.gather(src[nodes]), work, tables)
        for part, begin, dest in zip(parts, start, out):
            region.place(np.add(region.gather(begin[nodes]), part, out=part), dest[nodes])
    return out


def _placed(part, box):
    """A compact box series on the whole lattice, zero outside the box."""
    out = np.zeros(part.shape[:1] + (box.grid.n_points, box.grid.n_points), dtype=complex)
    box.place(part, out)
    return out


@pytest.mark.parametrize("n", [16, 64])
def test_box_duhamel_equals_whole_lattice_on_box_sources(n):
    grid = make_grid(n, 4.0 * math.pi)
    tg = TimeGrid(t_final=0.9, n_steps=12)
    mask = box_mask(n)
    src = _random_source(grid, tg, seed=n) * mask
    box = _region(grid, True)
    from_box = np.zeros((n, n), dtype=bool)
    for (rows, cols), _ in box.pairs:
        from_box[rows, cols] = True
    assert np.array_equal(from_box, mask)
    whole_u, whole_dt = _march_duhamel(src, _region(grid, False), tg)
    u, dt_u = _march_duhamel(src, box, tg)
    assert np.array_equal(u, whole_u) and np.array_equal(dt_u, whole_dt)

    free_u, free_dt = _random_source(grid, tg, seed=n + 1), _random_source(grid, tg, seed=n + 2)
    u, dt_u = _march_duhamel(src, box, tg, start=(free_u, free_dt))
    assert np.array_equal(u, free_u + whole_u)
    assert np.array_equal(dt_u, free_dt + whole_dt)
    assert np.array_equal(u[:, ~mask], free_u[:, ~mask])
    assert np.array_equal(dt_u[:, ~mask], free_dt[:, ~mask])

    for d_choice in ("x1", "x2", "t"):
        whole = _d_duhamel_hat(src, _region(grid, False), tg, d_choice)
        assert np.array_equal(_placed(_d_duhamel_hat(box.gather(src), box, tg, d_choice), box),
                              whole), d_choice


def test_chain_matches_stepwise_bit_for_bit(grid64):
    data = _random_data(grid64)
    tg = TimeGrid(t_final=0.4, n_steps=32)
    chain = picard_chain(3, data, tg)
    assert [r.n for r in chain] == [0, 1, 2, 3]
    top = picard_iterate(3, data, tg)
    assert np.array_equal(top.u.values, chain[3].u.values)
    assert np.array_equal(top.du.values, chain[3].du.values)
    assert top.norms == chain[3].norms
    assert set(top.norms) == {"linf_h1_u", "linf_l2_dudt", "l2t_l4_du"}


# ---------------------------------------------------------------------------
# The time march: every chunk length, both transform branches and the
# level-by-level recursion give the same bits.
# ---------------------------------------------------------------------------

def _gaussian_data(grid):
    phi0 = gaussian_bump(grid, sigma=2.0)
    return randomize(phi0, None, draw_rademacher(21, active_blocks(phi0), sample_index=3))


def _chain_values(chain):
    return [(rec.norms, rec.u.values, rec.du_dt.values, rec.du.values) for rec in chain]


def _assert_same_chain(got, expect):
    assert len(got) == len(expect)
    for (got_norms, *got_series), (norms, *series) in zip(got, expect):
        assert got_norms == norms
        for a, b in zip(got_series, series):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("box", [True, False])
def test_chunk_driver_spreads_every_chunk_into_one_set_of_tables(monkeypatch, grid64, box):
    """At chunk lengths 1, 3, 4 and the whole series, at 64^2 and 128^2, the
    chunk driver walks the nodes in order, _CHUNK at a time (the last chunk
    shorter), forms each chunk's (cos, sin, sinc) rows on the region's own
    levels and spreads the ones ``spread`` asks for on its modes into the
    same buffers at every chunk, the others None: the bits of the
    whole-series lattice tables (the public halfwave_tables of the
    lattice's |xi|) there."""
    tg = TimeGrid(t_final=0.3, n_steps=13)
    for grid in (grid64, make_grid(128, 16.0 * math.pi)):
        region = picard._region(grid, box)
        lattice = tuple(region.gather(table) for table in halfwave_tables(grid.abs_xi, tg.times))
        for length in (1, 3, 4, tg.n_nodes):
            monkeypatch.setattr(picard, "_CHUNK", length)
            for spread in ((True, True, True), (True, True, False), (True, False, True)):
                starts, first = [], None
                for nodes, tables in picard._chunk_tables(tg, region, spread):
                    starts.append(nodes.start)
                    assert nodes.stop == min(nodes.start + length, tg.n_nodes)
                    assert [table is not None for table in tables] == list(spread)
                    first = first or [table if table is None else table.base
                                      for table in tables]
                    for table, base, expect in zip(tables, first, lattice):
                        if table is not None:
                            assert table.base is base
                            assert np.array_equal(table, expect[nodes])
                assert starts == list(range(0, tg.n_nodes, length))


def test_the_gap_march_spreads_only_the_tables_it_reads(monkeypatch, grid64):
    """On a Gaussian datum (modes outside the box) each chunk spreads three
    tables on the box, for the free pair and the Duhamel sums, and two,
    cos and sin, on the lattice for the gap's free pair: no sinc table is
    spread over the lattice."""
    data = _gaussian_data(grid64)
    assert not picard._inside_box(data.phi0_rand.values, grid64)
    tg = TimeGrid(t_final=0.3, n_steps=13)
    spread = picard._Region.spread
    sizes = []

    def counting_spread(region, rows, out=None):
        sizes.append(region.size)
        return spread(region, rows, out=out)

    monkeypatch.setattr(picard._Region, "spread", counting_spread)
    list(picard._levels(2, data, tg, "x1"))
    chunks = len(range(0, tg.n_nodes, DEFAULT_CHUNK))
    box = picard._region(grid64, True).size
    assert sizes.count(box) == 3 * chunks
    assert sizes.count(grid64.n_points) == 2 * chunks
    assert len(sizes) == 5 * chunks


@pytest.mark.parametrize("family, d_choice", [("band", "x1"), ("band", "x2"), ("band", "t"),
                                              ("gaussian", "x1"), ("gaussian", "t")])
def test_march_is_bit_identical_for_every_chunk_length(monkeypatch, grid64, family, d_choice):
    data = _random_data(grid64) if family == "band" else _gaussian_data(grid64)
    assert picard._inside_box(data.phi0_rand.values, grid64) == (family == "band")
    tg = TimeGrid(t_final=0.3, n_steps=24)
    monkeypatch.setattr(picard, "_CHUNK", tg.n_nodes)
    expect = _chain_values(picard_chain(3, data, tg, d_choice))
    norms_only = [norms for _, norms, _ in picard._levels(3, data, tg, d_choice)]
    assert norms_only == [norms for norms, *_ in expect]
    for chunk in sorted({1, 3, 4, DEFAULT_CHUNK}):
        monkeypatch.setattr(picard, "_CHUNK", chunk)
        _assert_same_chain(_chain_values(picard_chain(3, data, tg, d_choice)), expect)
        assert [norms for _, norms, _ in picard._levels(3, data, tg, d_choice)] == norms_only
        top = picard_iterate(3, data, tg, d_choice)
        _assert_same_chain(_chain_values([top]), expect[3:])


@pytest.mark.parametrize("d_choice", ["x1", "x2", "t"])
def test_reused_physical_du_gives_the_bits_of_the_full_transform(monkeypatch, grid64, d_choice):
    """On a box-supported datum one inverse transform serves the L^4 norm and
    the next product.  Forcing the path of a datum with modes outside the
    box changes no bit: its gap sums are exact zeros here, and its one full
    inverse transform per chunk, shared by every level, is of zeros."""
    data = _random_data(grid64)
    tg = TimeGrid(t_final=0.3, n_steps=20)
    full_transforms = []
    ifft2 = np.fft.ifft2

    def counted(*args, **kwargs):
        full_transforms.append(1)
        return ifft2(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft2", counted)
    reused = _chain_values(picard_chain(3, data, tg, d_choice))
    assert not full_transforms
    monkeypatch.setattr(picard, "_inside_box", lambda hat, grid: False)
    _assert_same_chain(_chain_values(picard_chain(3, data, tg, d_choice)), reused)
    chunks = -(-tg.n_nodes // DEFAULT_CHUNK)
    assert len(full_transforms) == chunks


@pytest.mark.parametrize("family, d_choice", [("band", "x1"), ("gaussian", "t")])
def test_march_equals_the_level_by_level_recursion(grid64, family, d_choice):
    """Each level from the whole previous level: the product of its du, the
    box Duhamel series from the free pair, and the norms of whole series as
    the march sums them: the box in its compact layout plus the modes
    outside it, and the physical du as the box part plus the outside part."""
    data = _random_data(grid64) if family == "band" else _gaussian_data(grid64)
    tg = TimeGrid(t_final=0.3, n_steps=24)
    chain = picard_chain(3, data, tg, d_choice)
    free_u, free_dt, _ = free_evolution(data, tg, d_choice)
    box, inside = picard._region(grid64, True), box_mask(64)

    def sobolev(hat, s):
        sums = _sobolev_sums(box.gather(hat), box.h1_weight if s else None)
        sums = sums + _sobolev_sums(hat * ~inside, _sobolev_weight(grid64, s))
        return float((grid64.dx * np.sqrt(sums)).max())

    for prev, rec in zip([None] + chain, chain):
        if prev is None:
            u, dt_u = free_u.values, free_dt.values
        else:
            src = product_dealias(prev.du.values, prev.du.values, grid64)
            part_u, part_dt = _march_duhamel(src, box, tg)
            u, dt_u = free_u.values + part_u, free_dt.values + part_dt
        assert np.array_equal(rec.u.values, u) and np.array_equal(rec.du_dt.values, dt_u)
        du_phys = sum(np.fft.ifft2(rec.du.values * part, norm="ortho", axes=(-2, -1))
                      for part in (inside, ~inside))
        assert rec.norms == {
            "linf_h1_u": sobolev(u, 1.0),
            "linf_l2_dudt": sobolev(dt_u, 0.0),
            "l2t_l4_du": picard._time_norm(lp_nodes(du_phys, grid64, 4.0), 2.0, tg.dt),
        }


def _plain_norms(rec, grid, tg):
    """The tracked norms of a record from plain numpy on the whole lattice:
    np.abs(.)**2 and np.abs(.)**4 sums, np.fft.ifft2 for the physical du,
    and the time trapezoid written out."""
    h1 = grid.dx * np.sqrt(np.sum(grid.abs_xi**2 * np.abs(rec.u.values)**2, axis=(1, 2)))
    l2 = grid.dx * np.sqrt(np.sum(np.abs(rec.du_dt.values)**2, axis=(1, 2)))
    phys = np.fft.ifft2(rec.du.values, norm="ortho", axes=(1, 2))
    l4_squared = np.sqrt(np.sum(np.abs(phys)**4, axis=(1, 2)) * grid.dx**2)
    l2t = math.sqrt(tg.dt * (l4_squared.sum() - 0.5 * (l4_squared[0] + l4_squared[-1])))
    return {"linf_h1_u": float(h1.max()), "linf_l2_dudt": float(l2.max()), "l2t_l4_du": l2t}


@pytest.mark.parametrize("family", ["band", "gaussian"])
@pytest.mark.parametrize("d_choice", ["x1", "x2", "t"])
def test_march_norms_match_plain_full_lattice_sums(grid64, family, d_choice):
    """Third reference for the norms, which the march sums on the box (plus
    the modes outside it) with re^2 + im^2 kernels: the same norms of its
    series by plain numpy over the whole lattice, to rounding."""
    data = _random_data(grid64) if family == "band" else _gaussian_data(grid64)
    tg = TimeGrid(t_final=0.3, n_steps=24)
    for rec in picard_chain(3, data, tg, d_choice):
        expect = _plain_norms(rec, grid64, tg)
        for name, value in rec.norms.items():
            assert value == pytest.approx(expect[name], rel=1e-14, abs=0.0), (rec.n, name)


def test_no_march_workspace_view_escapes(grid64):
    """The march's workspace is reused across chunks and levels; every result
    it hands out is its own memory, untouched by a later march."""
    tg = TimeGrid(t_final=0.3, n_steps=13)

    def results(data):
        chain = picard_chain(2, data, tg)
        levels = list(picard._levels(2, data, tg, "x1", keep=(1,)))
        return chain, picard_iterate(2, data, tg), levels

    def snapshot(chain, top, levels):
        records = [*chain, top]
        series = [s.values.copy() for rec in records for s in (rec.u, rec.du_dt, rec.du)]
        kept = [part.copy() for _, _, pair in levels if pair is not None for part in pair]
        norms = [dict(rec.norms) for rec in records] + [dict(n) for _, n, _ in levels]
        return series, kept, norms

    first = results(_random_data(grid64, seed=8))
    before = snapshot(*first)
    results(_random_data(grid64, seed=9, sample_index=5))
    after = snapshot(*first)
    for old, new in zip(before[0] + before[1], after[0] + after[1]):
        assert np.array_equal(old, new)
    assert before[2] == after[2]
    chain, top, levels = first
    arrays = [s.values for rec in (*chain, top) for s in (rec.u, rec.du_dt)]
    arrays += [rec.du.values for rec in (*chain, top)]
    arrays += [part for _, _, pair in levels if pair is not None for part in pair]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.filterwarnings("error")
def test_blowup_error_names_the_first_failing_level(monkeypatch):
    """Levels past the failing one march no further than it, raise no
    overflow warning, and leave the error of the level-by-level order."""
    grid = make_grid(32, 16.0 * math.pi)
    phi0 = band_limited_field(grid, band=1.0, seed=7, h1_norm=1e6)
    data = randomize(phi0, None, draw_rademacher(91, active_blocks(phi0), sample_index=0))
    tg = TimeGrid(t_final=0.2, n_steps=16)
    errors = set()
    for chunk in (1, DEFAULT_CHUNK, tg.n_nodes):
        monkeypatch.setattr(picard, "_CHUNK", chunk)
        for n_max in (2, 3, 8):
            with pytest.raises(BlowUpError) as err:
                picard_chain(n_max, data, tg)
            errors.add((err.value.n, err.value.norm_name, err.value.value))
    assert len(errors) == 1
    n, name, value = errors.pop()
    assert n == 2 and name == "linf_l2_dudt" and value > picard.BLOWUP_GUARD
    assert picard_chain(1, data, tg)[1].norms["linf_l2_dudt"] < picard.BLOWUP_GUARD


# ---------------------------------------------------------------------------
# Batched marches: the samples of a stack advance together, each with the
# bits of its own one-sample march.
# ---------------------------------------------------------------------------

def _signed_stack(phi0, samples, seed=21):
    """phi0_rand of sample indices 0..samples-1 of ``phi0``, stacked."""
    blocks = active_blocks(phi0)
    return np.stack([randomize(phi0, None, draw_rademacher(seed, blocks, sample_index=i))
                     .phi0_rand.values for i in range(samples)])


@pytest.mark.parametrize("family", ["band", "gaussian"])
@pytest.mark.parametrize("d_choice", ["x1", "x2", "t"])
def test_a_batched_march_gives_each_sample_its_one_sample_bits(grid64, family, d_choice):
    """B = 1, 2, 3 and 16 samples marched together (2-node chunks from B = 2
    on) give every sample the per-node norms of its own one-sample march
    (3-node chunks), on the box path and on the gap path, and the kept
    series of a batch are each sample's own."""
    phi0 = band_limited_field(grid64, band=3.0, seed=8) if family == "band" else \
        gaussian_bump(grid64, sigma=2.0)
    stack = _signed_stack(phi0, 16)
    assert picard._inside_box(stack, grid64) == (family == "band")
    tg = TimeGrid(t_final=0.3, n_steps=8)
    alone = [picard._march(2, stack[b:b + 1], grid64, tg, d_choice, (1,)) for b in range(16)]
    for batch in (1, 2, 3, 16):
        per_node, kept = picard._march(2, stack[:batch], grid64, tg, d_choice,
                                       (1,) if batch == 3 else ())
        assert len(per_node) == batch
        for b, (rows, ((expect,), one_kept)) in enumerate(zip(per_node, alone)):
            assert rows.shape == (3, 3, tg.n_nodes) and np.array_equal(rows, expect)
            for part, own in zip(kept.get(1, ()), one_kept[1]):
                assert np.array_equal(part[:, b], own[:, 0])


def _drained(levels):
    """The norms an iterator of :func:`picard._batch_levels` yields, and its
    BlowUpError's (n, norm name, value), or None."""
    norms = []
    try:
        for n, level, _ in levels:
            norms.append(level)
    except BlowUpError as exc:
        return norms, (exc.n, exc.norm_name, exc.value)
    return norms, None


@pytest.mark.filterwarnings("error")
def test_a_sample_that_blows_up_mid_batch_ends_its_rows_alone():
    """The middle sample of a batch of three, scaled by 1e6, fails the guard
    at level 2: its rows end there and its iterator raises the error of its
    one-sample march, while its batch-mates march on to level 3 with the
    bits of their own marches, and no overflow warning escapes."""
    grid = make_grid(32, 16.0 * math.pi)
    tg = TimeGrid(t_final=0.2, n_steps=16)
    stack = _signed_stack(band_limited_field(grid, band=1.0, seed=7), 3, seed=91)
    stack[1] *= 1e6
    per_node, _ = picard._march(3, stack, grid, tg, "x1", ())
    levels = [_drained(it) for it in picard._batch_levels(3, stack, grid, tg, "x1")]
    for b, (rows, got) in enumerate(zip(per_node, levels)):
        (expect,), _ = picard._march(3, stack[b:b + 1], grid, tg, "x1", ())
        assert np.array_equal(rows, expect, equal_nan=True)
        assert got == _drained(picard._batch_levels(3, stack[b:b + 1], grid, tg, "x1")[0])
    assert [len(rows) for rows in per_node] == [4, 3, 4]
    assert [len(norms) for norms, _ in levels] == [4, 2, 4]
    assert levels[0][1] is None and levels[2][1] is None
    n, name, value = levels[1][1]
    assert n == 2 and name == "linf_l2_dudt" and value > picard.BLOWUP_GUARD


def test_records_wrap_engine_arrays_read_only(grid64):
    data = _random_data(grid64)
    tg = TimeGrid(t_final=0.4, n_steps=8)
    for d_choice in ("x1", "t"):
        for rec in picard_chain(1, data, tg, d_choice=d_choice):
            for series in (rec.u, rec.du_dt, rec.du):
                assert not series.values.flags.writeable
        if d_choice == "t":
            assert rec.du.values is rec.du_dt.values
    frozen = rec.u.values
    assert FieldSeries(grid64, tg, frozen, "spectral").values is frozen


def test_field_series_copies_a_writeable_input(grid64):
    tg = TimeGrid(t_final=0.4, n_steps=8)
    for rep, dtype in (("spectral", np.complex128), ("physical", np.float64)):
        raw = np.ones((tg.n_nodes, 64, 64), dtype=dtype)
        series = FieldSeries(grid64, tg, raw, rep)
        raw[3, 4, 5] = 7.0
        assert series.values[3, 4, 5] == 1.0
        assert series.values.dtype == dtype and not series.values.flags.writeable
        assert raw.flags.writeable


@pytest.mark.parametrize("rep", ["Spectral", "fourier", ""])
def test_field_series_rejects_an_unknown_representation(grid64, rep):
    tg = TimeGrid(t_final=0.4, n_steps=8)
    with pytest.raises(ValueError, match="unknown representation"):
        FieldSeries(grid64, tg, np.ones((tg.n_nodes, 64, 64), dtype=np.complex128), rep)


def test_du_is_exact_spatial_derivative_of_u(grid64):
    """With d = x1 the tracked du series equals i xi1 u mode for mode."""
    data = _random_data(grid64)
    tg = TimeGrid(t_final=0.4, n_steps=32)
    for rec in picard_chain(2, data, tg, d_choice="x1"):
        expect = 1j * grid64.xi1[None, :, :] * rec.u.values
        scale = max(float(np.max(np.abs(expect))), 1.0)
        assert np.max(np.abs(rec.du.values - expect)) <= 1e-10 * scale


def test_space_time_norm_constant(grid64):
    tg = TimeGrid(t_final=2.0, n_steps=64)
    c = -0.3
    series = FieldSeries(grid64, tg, np.full((tg.n_nodes, 64, 64), c), "physical")
    length = grid64.box_length
    got = space_time_norm(series, 2.0, 4.0)
    assert got == pytest.approx(math.sqrt(2.0) * abs(c) * math.sqrt(length), rel=1e-12)
    assert space_time_norm(series, np.inf, 2.0) == pytest.approx(abs(c) * length, rel=1e-12)


def test_space_time_norm_sup_spike(grid64):
    tg = TimeGrid(t_final=1.0, n_steps=4)
    vals = np.zeros((tg.n_nodes, 64, 64))
    vals[2, 5, 7] = -9.0
    series = FieldSeries(grid64, tg, vals, "physical")
    assert space_time_norm(series, np.inf, np.inf) == 9.0
    with pytest.raises(ValueError):
        space_time_norm(series, 0.5, 2.0)
    with pytest.raises(ValueError):
        space_time_norm(series, 2.0, 0.5)


@pytest.mark.parametrize("name", ["q", "r"])
@pytest.mark.parametrize("bad", [math.nan, -math.inf], ids=["nan", "-inf"])
def test_space_time_norm_refuses_a_nan_or_minus_inf_exponent(grid64, name, bad):
    series = FieldSeries(grid64, TimeGrid(t_final=1.0, n_steps=4),
                         np.ones((5, 64, 64)), "physical")
    exponents = {"q": 2.0, "r": 2.0, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        space_time_norm(series, exponents["q"], exponents["r"])


def test_blowup_guard_raises(grid64):
    phi0 = two_block_datum(grid64)
    big = Field(grid64, 1e13 * phi0.values, "spectral")
    data = _identity_data(big)
    with pytest.raises(BlowUpError) as err:
        picard_chain(0, data, TimeGrid(0.5, 8))
    assert err.value.n == 0


def test_chain_validation(grid64):
    data = _random_data(grid64)
    tg = TimeGrid(0.5, 8)
    with pytest.raises(ValueError):
        picard_chain(-1, data, tg)
    with pytest.raises(ValueError):
        picard_chain(1, data, tg, d_choice="bogus")
    with pytest.raises(ValueError):
        picard_iterate(-1, data, tg)


@pytest.mark.parametrize("level", [True, False, 1.5, 2.0, np.float64(1.0), "1"],
                         ids=["True", "False", "1.5", "2.0", "float64", "str"])
def test_iterate_levels_must_be_integers(oracle_data, level):
    """A bool, a float or a string is no iterate level, even when it equals
    one; every entry point names the value instead of running level 1 for
    True or failing inside range()."""
    tg = TimeGrid(0.5, 4)
    for entry in (picard_chain, picard_iterate, reconstruct_iterate):
        with pytest.raises(ValueError, match=re.escape(repr(level))):
            entry(level, oracle_data, tg)


def test_iterate_levels_accept_numpy_integers(oracle_data):
    tg = TimeGrid(0.5, 4)
    level = np.int64(1)
    assert len(picard_chain(level, oracle_data, tg)) == 2
    assert picard_iterate(level, oracle_data, tg).n == 1
    assert np.array_equal(reconstruct_iterate(level, oracle_data, tg).values,
                          reconstruct_iterate(1, oracle_data, tg).values)


def test_zero_data_gives_zero_iterates(grid64):
    zero = Field(grid64, np.zeros((64, 64)), "physical")
    values = {(ch, (0, 0)): 1 for ch in ("eps", "nu")}
    data = randomize(zero, None, RademacherDraw(0, 0, ((0, 0),), values))
    tg = TimeGrid(0.5, 16)
    chain = picard_chain(2, data, tg)
    for rec in chain:
        assert np.max(np.abs(rec.u.values)) == 0.0
        assert all(v == 0.0 for v in rec.norms.values())
    check = energy_inequality_check(chain[2], chain[1], chain[0])
    assert check.c_measured == 0.0 and check.ok


def test_energy_constant_stable_under_refinement(grid64):
    """The measured energy-inequality constant is a property of the iterates,
    not of the time step: refining dt moves it by under 10%, and it stays
    within a small uniform band across iterate levels."""
    data = _random_data(grid64)
    results = {}
    for steps in (64, 128):
        tg = TimeGrid(t_final=0.25, n_steps=steps)
        chain = picard_chain(4, data, tg)
        results[steps] = [
            energy_inequality_check(chain[n], chain[n - 1], chain[0]).c_measured
            for n in range(1, 5)
        ]
    for c_coarse, c_fine in zip(results[64], results[128]):
        assert c_coarse == pytest.approx(c_fine, rel=0.10)
    cs = results[128]
    assert max(cs) / min(cs) <= 3.0
