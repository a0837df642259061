"""Grid, transforms, norms, and field serialization."""

import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picardlab import (Field, Grid, load_field, lp_norm, make_grid, save_field, sobolev_norm,
                       transform)
from picardlab.grid import (_sobolev_sums, _sobolev_weight, as_physical, as_spectral, lp_nodes,
                            parse_field, sobolev_nodes)


def test_make_grid_frequency_spacing():
    g = make_grid(64, 16.0 * math.pi)
    assert g.dxi == pytest.approx(1.0 / 8.0)
    g2 = make_grid(8, 2.0 * math.pi)
    assert g2.dxi == pytest.approx(1.0)
    assert sorted(np.unique(g2.xi1)) == pytest.approx(list(range(-4, 4)))


@pytest.mark.parametrize("bad", [(65, 2 * math.pi), (4, 2 * math.pi),
                                 (64, -1.0), (64, 0.0), (0, 1.0)])
def test_make_grid_rejects(bad):
    with pytest.raises(ValueError):
        make_grid(*bad)


@pytest.mark.parametrize("n_points, box_length, field", [
    (64, math.inf, "box_length"), (64, math.nan, "box_length"),
    (64.0, 16.0 * math.pi, "n_points"), (64.5, 16.0 * math.pi, "n_points"),
    (True, 16.0 * math.pi, "n_points"), ("64", 16.0 * math.pi, "n_points"),
], ids=["inf", "nan", "64.0", "64.5", "True", "str"])
def test_grid_rejects_non_finite_length_and_non_integer_points(n_points, box_length, field):
    for build in (Grid, make_grid):
        with pytest.raises(ValueError, match=field):
            build(n_points, box_length)


def test_grid_accepts_numpy_integer_points():
    grid = make_grid(np.int64(64), 16.0 * math.pi)
    assert type(grid.n_points) is int
    assert grid == make_grid(64, 16.0 * math.pi)


def test_grid_forms_its_coordinates_on_first_use():
    """x1 and x2 are formed when first read, read-only and the same object
    afterwards; only (n_points, box_length) enter equality and hashing, and
    a pickled grid comes back equal, with the same hash and coordinates,
    whether or not they were formed before pickling."""
    n, length = 16, 4.0 * math.pi
    fresh, used = make_grid(n, length), make_grid(n, length)
    assert "x1" not in vars(fresh) and "x2" not in vars(fresh)
    x = np.arange(n) * (length / n)
    expect = np.meshgrid(x, x, indexing="ij")
    for name, mesh in zip(("x1", "x2"), expect):
        coords = getattr(used, name)
        assert np.array_equal(coords, mesh) and not coords.flags.writeable
        assert getattr(used, name) is coords
    assert fresh == used and hash(fresh) == hash(used)
    assert fresh != make_grid(n, 2.0 * length) and fresh != make_grid(2 * n, length)
    assert repr(fresh) == repr(used) == f"Grid(n_points={n}, box_length={length!r})"
    for grid in (fresh, used):
        back = pickle.loads(pickle.dumps(grid))
        assert back == grid and hash(back) == hash(grid)
        assert np.array_equal(back.abs_xi, grid.abs_xi)
        for name, mesh in zip(("x1", "x2"), expect):
            assert np.array_equal(getattr(back, name), mesh)


def test_make_grid_rejects_coarse_frequency():
    # frequency spacing must stay at or below unit scale
    with pytest.raises(ValueError):
        make_grid(8, 1.0)


def test_transform_constant_field(grid64):
    f = Field(grid64, np.full((64, 64), 3.0), "physical")
    fh = transform(f, "forward")
    assert abs(fh.values[0, 0]) == pytest.approx(3.0 * 64.0)
    off = fh.values.copy()
    off[0, 0] = 0.0
    assert np.max(np.abs(off)) < 1e-12


def test_transform_cosine_two_modes():
    g = make_grid(8, 2.0 * math.pi)
    f = Field(g, np.cos(g.x1), "physical")
    fh = transform(f, "forward").values
    hits = np.argwhere(np.abs(fh) > 1e-12)
    assert sorted(map(tuple, hits)) == [(1, 0), (7, 0)]


def test_round_trip(grid64):
    rng = np.random.default_rng(0)
    f = Field(grid64, rng.standard_normal((64, 64)), "physical")
    back = transform(transform(f, "forward"), "inverse")
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))


def test_transform_direction_mismatch(grid64):
    f = Field(grid64, np.zeros((64, 64)), "physical")
    with pytest.raises(ValueError):
        transform(f, "inverse")
    with pytest.raises(ValueError):
        transform(transform(f, "forward"), "forward")


def test_inverse_rejects_asymmetric_spectrum(grid64):
    hat = np.zeros((64, 64), dtype=complex)
    hat[3, 5] = 1.0  # no conjugate partner: not the image of a real field
    with pytest.raises(ValueError, match="conjugate"):
        transform(Field(grid64, hat, "spectral"), "inverse")


def test_conjugate_symmetry_of_real_fields(grid64):
    rng = np.random.default_rng(1)
    fh = transform(Field(grid64, rng.standard_normal((64, 64)), "physical"),
                   "forward").values
    n = 64
    idx = (-np.arange(n)) % n
    assert np.max(np.abs(fh - np.conj(fh[np.ix_(idx, idx)]))) < 1e-10


def test_lp_norm_closed_forms(grid64):
    L = grid64.box_length
    f = Field(grid64, np.cos(grid64.x1), "physical")
    # integral of cos^4 over one period is (3/8)L per axis line
    assert lp_norm(f, 4) == pytest.approx((0.375 * L * L) ** 0.25, rel=1e-12)
    assert lp_norm(f, 2) == pytest.approx(math.sqrt(0.5 * L * L), rel=1e-12)
    assert lp_norm(f, np.inf) == pytest.approx(1.0, rel=1e-12)


def test_lp_norm_validation(grid64):
    f = Field(grid64, np.ones((64, 64)), "physical")
    with pytest.raises(ValueError):
        lp_norm(transform(f, "forward"), 2)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_parseval(grid64):
    rng = np.random.default_rng(2)
    f = Field(grid64, rng.standard_normal((64, 64)), "physical")
    fh = as_spectral(f)
    assert lp_norm(f, 2) == pytest.approx(
        grid64.dx * float(np.linalg.norm(fh.values)), rel=1e-12)


def test_sobolev_norm_single_mode(grid64):
    # mode xi = (1, 0): |xi| = 1, so H^s weight is 1 for every s
    f = Field(grid64, np.cos(grid64.x1), "physical")
    l2 = lp_norm(f, 2)
    for s in (0.5, 1.0, 2.0):
        assert sobolev_norm(f, s) == pytest.approx(l2, rel=1e-12)


def test_sobolev_norm_drops_mean(grid64):
    f = Field(grid64, np.cos(grid64.x1) + 7.0, "physical")
    g = Field(grid64, np.cos(grid64.x1), "physical")
    assert sobolev_norm(f, 1.0) == pytest.approx(sobolev_norm(g, 1.0), rel=1e-12)


@pytest.mark.parametrize("n", [16, 128, 256])
@pytest.mark.parametrize("s", [0.0, 1.0])
def test_per_node_norms_do_not_depend_on_the_leading_shape(n, s):
    """A node's norm is the same bits whether it comes alone or with others:
    the time-marching engine evaluates norms on short chunks of nodes."""
    grid = make_grid(n, 2.0 * math.pi * max(1, n // 16))
    rng = np.random.default_rng(n)
    x = rng.standard_normal((65, n, n)) + 1j * rng.standard_normal((65, n, n))
    whole = sobolev_nodes(x, grid, s)
    phys = lp_nodes(np.fft.ifft2(x, norm="ortho", axes=(-2, -1)), grid, 4.0)
    for k in (1, 3, 4, 16, 33):
        for j in range(0, 65, k):
            part = slice(j, j + k)
            assert np.array_equal(sobolev_nodes(x[part], grid, s), whole[part])
            assert np.array_equal(
                lp_nodes(np.fft.ifft2(x[part], norm="ortho", axes=(-2, -1)), grid, 4.0),
                phys[part])
    for j in (0, 17, 64):
        assert sobolev_nodes(x[j:j + 1], grid, s)[0] == whole[j]
        assert sobolev_nodes(x[j], grid, s) == whole[j]
    assert np.array_equal(sobolev_nodes(x.reshape(5, 13, n, n), grid, s).ravel(), whole)


@pytest.mark.parametrize("kind", ["complex", "real", "zero"])
def test_norm_kernels_match_the_abs_and_pow_forms(kind):
    """|f|^2 as re^2 + im^2 and |f|^4 as its square give the norms of the
    np.abs (hypot) and pow forms to rounding, from 1e-100 to 1e60; a
    caller's scratch planes change no bit."""
    grid = make_grid(32, 4.0 * math.pi)
    rng = np.random.default_rng(5)
    shape = (3, 32, 32)
    for exponent in (-100, -50, -20, -5, 0, 5, 20, 40, 60):
        scale = 10.0 ** exponent
        if kind == "complex":
            x = scale * rng.uniform(0.5, 2.0, shape) * np.exp(2j * np.pi * rng.random(shape))
        elif kind == "real":
            x = scale * rng.standard_normal(shape)
        else:
            x = np.zeros(shape, dtype=complex)
        planes = np.empty((2,) + shape)
        for s in (0.0, 1.0):
            weight = grid.abs_xi ** (2.0 * s)
            if s:
                weight[0, 0] = 0.0
            expect = grid.dx * np.sqrt(np.sum(weight * np.abs(x) ** 2, axis=(-2, -1)))
            got = sobolev_nodes(x, grid, s)
            sums = _sobolev_sums(x, _sobolev_weight(grid, s))
            assert np.array_equal(_sobolev_sums(x, _sobolev_weight(grid, s), planes), sums)
            assert np.allclose(got, expect, rtol=1e-14, atol=0.0), (exponent, s)
        expect = (np.sum(np.abs(x) ** 4.0, axis=(-2, -1)) * grid.dx**2) ** 0.25
        got = lp_nodes(x, grid, 4.0)
        assert np.array_equal(lp_nodes(x, grid, 4.0, scratch=planes), got)
        assert np.allclose(got, expect, rtol=1e-14, atol=0.0), exponent
        if kind == "zero":
            assert not got.any()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_save_load_round_trip_physical(seed):
    g = make_grid(8, 2.0 * math.pi)
    rng = np.random.default_rng(seed)
    f = Field(g, rng.standard_normal((8, 8)), "physical")
    path = "/tmp/picardlab_test_field.field"
    save_field(f, path, name="probe")
    back = load_field(path)
    assert back.grid == g
    assert back.representation == "physical"
    assert np.array_equal(back.values, f.values)


def test_save_load_round_trip_spectral(grid64, tmp_path):
    rng = np.random.default_rng(3)
    f = as_spectral(Field(grid64, rng.standard_normal((64, 64)), "physical"))
    p = tmp_path / "f.field"
    save_field(f, p)
    back = load_field(p)
    assert back.representation == "spectral"
    assert np.array_equal(back.values, f.values)


def _field_file(n_points, payload: bytes) -> bytes:
    header = {"n_points": n_points, "box_length": 16.0 * math.pi,
              "representation": "physical", "name": ""}
    return json.dumps(header, sort_keys=True).encode("ascii") + b"\n" + payload


def test_parse_field_checks_the_payload_before_building_the_grid():
    """A 1024^2 header over a 16-byte payload is refused without the five
    1024 x 1024 float arrays of its grid (about 50 MB)."""
    data = _field_file(1024, b"\0" * 16)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="payload has 16 bytes, expected 8388608"):
            parse_field(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n_points", [64.9, 64.0, "64", True])
def test_parse_field_rejects_a_non_integer_n_points(n_points):
    with pytest.raises(ValueError, match="n_points must be an integer"):
        parse_field(_field_file(n_points, b"\0" * (64 * 64 * 8)))


def test_field_values_read_only(grid64):
    f = Field(grid64, np.zeros((64, 64)), "physical")
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_as_physical_identity(grid64):
    f = Field(grid64, np.ones((64, 64)), "physical")
    assert as_physical(f) is f
