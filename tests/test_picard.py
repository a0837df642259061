"""Free evolution, Duhamel integrals, and the Picard iterate recursion."""

import math

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
    sobolev_norm,
    space_time_norm,
)
from picardlab.grid import as_spectral, lp_nodes, sobolev_nodes
from picardlab.picard import _box, _duhamel_series, product_dealias, series_to_physical
from picardlab.randomization import (
    RademacherDraw,
    active_blocks,
    draw_rademacher,
    randomize,
)

from conftest import two_block_datum

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
    u, dt_u = _duhamel_series(src, grid, tg)
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
    """Bilinearity is what the tree expansion sums over; exact symmetry is
    what lets trees._canonical_blocks merge swapped block halves."""
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

def _box_mask(n):
    m = np.rint(np.fft.fftfreq(n) * n)
    keep = np.abs(m) <= n // 3
    return np.outer(keep, keep)


@pytest.mark.parametrize("n", [8, 16, 64, 128])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "3d"])
@pytest.mark.parametrize("square", [True, False], ids=["square", "distinct"])
def test_product_equals_full_lattice_reference(n, lead, square):
    grid = make_grid(n, 2.0 * math.pi * max(1, n // 16))
    rng = np.random.default_rng(n + len(lead))
    shape = lead + (n, n)
    a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    if square:
        b = a
    mask = _box_mask(n)
    fa = np.fft.ifft2(a * mask, norm="ortho", axes=(-2, -1))
    fb = np.fft.ifft2(b * mask, norm="ortho", axes=(-2, -1))
    pointwise = fa * fa if square else 0.5 * (fa * fb + fb * fa)
    expect = np.fft.fft2(pointwise, norm="ortho", axes=(-2, -1)) * mask
    got = product_dealias(a, b, grid)
    assert got.shape == shape
    assert np.array_equal(got, expect)


def _march_duhamel(src, grid, tg, start):
    """start + the box Duhamel series, chunk by chunk as the march adds it."""
    step = picard._DuhamelSums(grid, tg, box=True)
    chunks = [picard._add_duhamel(step, src[nodes], (start[0][nodes], start[1][nodes]))
              for nodes in picard._chunks(tg.n_nodes)]
    return tuple(np.concatenate(part) for part in zip(*chunks))


@pytest.mark.parametrize("n", [16, 64])
def test_box_duhamel_equals_whole_lattice_on_box_sources(n):
    grid = make_grid(n, 4.0 * math.pi)
    tg = TimeGrid(t_final=0.9, n_steps=12)
    mask = _box_mask(n)
    src = _random_source(grid, tg, seed=n) * mask
    from_box = np.zeros((n, n), dtype=bool)
    for rows, cols in _box(grid):
        from_box[rows, cols] = True
    assert np.array_equal(from_box, mask)
    whole_u, whole_dt = _duhamel_series(src, grid, tg)
    u, dt_u = _duhamel_series(src, grid, tg, box=True)
    assert np.array_equal(u, whole_u) and np.array_equal(dt_u, whole_dt)

    free_u, free_dt = _random_source(grid, tg, seed=n + 1), _random_source(grid, tg, seed=n + 2)
    u, dt_u = _march_duhamel(src, grid, tg, start=(free_u, free_dt))
    assert np.array_equal(u, free_u + whole_u)
    assert np.array_equal(dt_u, free_dt + whole_dt)
    assert np.array_equal(u[:, ~mask], free_u[:, ~mask])
    assert np.array_equal(dt_u[:, ~mask], free_dt[:, ~mask])

    only_u, none_dt = _duhamel_series(src, grid, tg, box=True, want_dt=False)
    none_u, only_dt = _duhamel_series(src, grid, tg, box=True, want_u=False)
    assert none_u is None and none_dt is None
    assert np.array_equal(only_u, whole_u) and np.array_equal(only_dt, whole_dt)


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
    the next product; forcing the full-transform branch changes no bit."""
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
    assert len(full_transforms) == 4 * chunks


@pytest.mark.parametrize("family, d_choice", [("band", "x1"), ("gaussian", "t")])
def test_march_equals_the_level_by_level_recursion(grid64, family, d_choice):
    """Each level from the whole previous level: the product of its du, the
    box Duhamel series from the free pair, and the norms of whole series."""
    data = _random_data(grid64) if family == "band" else _gaussian_data(grid64)
    tg = TimeGrid(t_final=0.3, n_steps=24)
    chain = picard_chain(3, data, tg, d_choice)
    free_u, free_dt, _ = free_evolution(data, tg, d_choice)
    for prev, rec in zip([None] + chain, chain):
        if prev is None:
            u, dt_u = free_u.values, free_dt.values
        else:
            src = product_dealias(prev.du.values, prev.du.values, grid64)
            part_u, part_dt = _duhamel_series(src, grid64, tg, box=True)
            u, dt_u = free_u.values + part_u, free_dt.values + part_dt
        assert np.array_equal(rec.u.values, u) and np.array_equal(rec.du_dt.values, dt_u)
        du_phys = np.fft.ifft2(rec.du.values, norm="ortho", axes=(-2, -1))
        assert rec.norms == {
            "linf_h1_u": float(sobolev_nodes(u, grid64, 1.0).max()),
            "linf_l2_dudt": float(sobolev_nodes(dt_u, grid64, 0.0).max()),
            "l2t_l4_du": picard._time_norm(lp_nodes(du_phys, grid64, 4.0), 2.0, tg.dt),
        }


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
