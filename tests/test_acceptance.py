"""Acceptance gate: twelve criteria, one printed pass/fail line each.

Each test prints exactly one line of the form

    [PASS] criterion N: <what was measured>

(or [FAIL] with the same detail) and then asserts.  Heavy Monte Carlo
criteria sit at the end of the file; the full gate is budgeted to run
serially well inside the stated limits.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from picardlab import (
    ExperimentConfig,
    Field,
    TimeGrid,
    band_limited_field,
    c_star,
    c_star_upper,
    c_tau,
    enumerate_trees,
    exact_moment,
    free_evolution,
    i_tau_oracle,
    khinchine_ratio,
    lp_norm,
    make_grid,
    picard_iterate,
    reconstruct_iterate,
    sobolev_norm,
    stirling2,
    stirling_refined_bound_check,
    surjection_count,
)
from picardlab.harness import (
    emit_report,
    interval_scaling_study,
    run_experiment,
    tail_study,
)
from picardlab.moments import _enumerated_sums, _moment_formula
from picardlab.multipliers import apply_multiplier, m01, symbol_array
from picardlab.picard import duhamel, series_to_physical, FieldSeries
from picardlab.randomization import active_blocks, draw_rademacher, randomize

from conftest import two_block_datum


def _verdict(capsys, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {text}", flush=True)
    assert ok, text


# --------------------------------------------------------------------------
# 1-3: exact tree combinatorics
# --------------------------------------------------------------------------

def test_criterion_1_tree_closed_form(capsys):
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for j in range(1, 8):
        for tree in enumerate_trees(j):
            count += 1
            worst = max(worst, abs(i_tau_oracle(tree, 1.0) - 1.0 / c_tau(tree)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and count == 197 and elapsed <= 60.0
    _verdict(capsys, ok,
             f"criterion 1: max |I_tau(1) - 1/C_tau| = {worst:.3e} over "
             f"{count} trees with j <= 7 leaves ({elapsed:.1f} s)")


def test_criterion_2_tree_counts(capsys):
    counts = {j: len(enumerate_trees(j)) for j in range(1, 13)}
    catalan = {j: math.comb(2 * (j - 1), j - 1) // j for j in range(1, 13)}
    ok = counts == catalan
    _verdict(capsys, ok,
             f"criterion 2: enumeration counts equal Catalan(j-1) for j <= 12 "
             f"(j=12: {counts[12]} trees)")


def test_criterion_3_c_star_bound(capsys):
    bounds = {n: c_star_upper(n).value for n in (1, 2, 3)}
    stars = {n: c_star(2**n) for n in (1, 2, 3)}
    bound_ok = (bounds == {1: 1, 2: 3, 3: 63}
                and all(stars[n] <= bounds[n] for n in (1, 2, 3)))
    identity_ok = all(c_star_upper(n).exponent_identity for n in range(0, 21))
    ok = bound_ok and identity_ok
    _verdict(capsys, ok,
             f"criterion 3: c_star(2^n) = {tuple(stars.values())} <= "
             f"{tuple(bounds.values())}, exponent identity exact for n <= 20")


# --------------------------------------------------------------------------
# 5-6: exact moment and partition combinatorics
# --------------------------------------------------------------------------

def test_criterion_5_khinchine_identities(capsys):
    rng = np.random.default_rng(55)
    worst_rel = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 11))
        c = rng.standard_normal(k)
        for p in (2, 4, 6, 8):
            enum = float(np.mean(np.abs(_enumerated_sums(c)) ** p))
            formula = _moment_formula(c, p)
            worst_rel = max(worst_rel,
                            abs(enum - formula) / max(abs(formula), 1e-300))
    identities_ok = worst_rel <= 1e-12
    ratios_ok = True
    for trial in range(200):
        k = int(rng.integers(1, 11))
        c = tuple(rng.standard_normal(k) * float(rng.uniform(0.1, 10.0)))
        ratios_ok &= khinchine_ratio(c, (2, 4, 6, 8)[trial % 4]) <= 1.0 + 1e-9
    values_ok = (exact_moment((1.0, 1.0), 4) == pytest.approx(8.0, rel=1e-14)
                 and exact_moment((1.0, 1.0, 1.0), 4) == pytest.approx(21.0, rel=1e-14))
    ok = identities_ok and ratios_ok and values_ok
    _verdict(capsys, ok,
             f"criterion 5: enumeration vs multinomial rel err {worst_rel:.2e} "
             f"(K <= 10, p in 2/4/6/8), 200 Khinchine ratios <= 1, "
             f"E=8 and E=21 reproduced")


def test_criterion_6_stirling_suite(capsys):
    values_ok = stirling2(4, 2) == 7 and surjection_count(4, 2) == 14 <= 16
    bounds_ok = True
    for n in range(1, 21):
        for r in range(1, n + 1):
            count = surjection_count(n, r)  # asserts both bounds internally
            bounds_ok &= count <= r**n
    refined_ok = all(
        stirling_refined_bound_check(j, r).refined_ok is True
        and stirling_refined_bound_check(j, r).binomial_ok
        for j in range(2, 21) for r in range(1, j))
    ok = values_ok and bounds_ok and refined_ok
    _verdict(capsys, ok,
             "criterion 6: S(4,2)=7, 2!S(4,2)=14<=16, surjection bounds and "
             "refined Stirling bound exact for all r <= N <= 20")


# --------------------------------------------------------------------------
# 7-8: multipliers and Duhamel quadrature
# --------------------------------------------------------------------------

def test_criterion_7_multiplier_suite(capsys):
    grid = make_grid(64, 8.0 * math.pi)
    sym_max = max(
        float(np.max(np.abs(symbol_array(m01(tau, d), grid))))
        for tau in (0.0, 0.3, 0.8, 1.7) for d in ("x1", "x2", "t"))
    symbols_ok = sym_max <= 1.0 + 1e-15

    kind = m01(0.8, "x1")
    contraction_ok = True
    rng = np.random.default_rng(7)
    for _ in range(100):
        f = Field(grid, rng.standard_normal((64, 64)), "physical")
        out = apply_multiplier(f, kind)
        contraction_ok &= (grid.dx * float(np.linalg.norm(out.values))
                           <= lp_norm(f, 2) * (1.0 + 1e-12))

    phi0 = band_limited_field(grid, band=3.0, seed=8)
    data = randomize(phi0, None, draw_rademacher(21, active_blocks(phi0), 3))
    tg = TimeGrid(t_final=1.0, n_steps=128)
    u, du_dt, _ = free_evolution(data, tg)
    w = grid.abs_xi[None, :, :] ** 2
    energy = grid.dx**2 * np.sum(
        w * np.abs(u.values) ** 2 + np.abs(du_dt.values) ** 2, axis=(1, 2))
    drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
    energy_ok = drift <= 1e-10

    ok = symbols_ok and contraction_ok and energy_ok
    _verdict(capsys, ok,
             f"criterion 7: max |m01 symbol| = {sym_max:.12f} <= 1, L2 "
             f"contraction on 100 fields, energy drift {drift:.2e} <= 1e-10 "
             f"over 128 steps")


def test_criterion_8_duhamel_convergence(capsys):
    grid = make_grid(64, 8.0 * math.pi)

    def err(n_steps):
        tg = TimeGrid(t_final=1.0, n_steps=n_steps)
        src = FieldSeries(grid, tg,
                          np.broadcast_to(np.cos(grid.x1), (tg.n_nodes, 64, 64)),
                          "physical")
        out = series_to_physical(duhamel(src, tg, d_choice="x1")).values
        worst = 0.0
        for m, t in enumerate(tg.times):
            expect = -(1.0 - math.cos(t)) * np.sin(grid.x1)
            worst = max(worst, float(np.max(np.abs(out[m] - expect))))
        return worst

    e128, e256 = err(128), err(256)
    order = math.log2(e128 / e256)
    ok = e256 <= 1e-6 and order >= 1.9
    _verdict(capsys, ok,
             f"criterion 8: closed-form Duhamel error {e256:.2e} <= 1e-6 at "
             f"256 steps, observed order {order:.3f} >= 1.9")


# --------------------------------------------------------------------------
# 4: the central oracle-equivalence test
# --------------------------------------------------------------------------

def _rel_linf_l2(a, b):
    num = np.linalg.norm(a - b, axis=(1, 2)).max()
    den = np.linalg.norm(b, axis=(1, 2)).max()
    return float(num / den)


def test_criterion_4_oracle_equivalence(capsys):
    start = time.perf_counter()
    grid = make_grid(64, 8.0 * math.pi)
    phi0 = two_block_datum(grid)
    data = randomize(phi0, None, draw_rademacher(99, active_blocks(phi0), 1))
    tg = TimeGrid(t_final=0.5, n_steps=128)
    rels = {}
    for n in (1, 2):
        rec = reconstruct_iterate(n, data, tg)
        direct = picard_iterate(n, data, tg)
        rels[n] = _rel_linf_l2(rec.values, direct.du.values)
    elapsed = time.perf_counter() - start
    ok = rels[1] <= 1e-6 and rels[2] <= 1e-5 and elapsed <= 300.0
    _verdict(capsys, ok,
             f"criterion 4: tree-vs-direct relative Linf-L2 discrepancy "
             f"n=1: {rels[1]:.2e} <= 1e-6, n=2: {rels[2]:.2e} <= 1e-5 "
             f"({elapsed:.0f} s)")


# --------------------------------------------------------------------------
# 9-12: Monte Carlo studies
# --------------------------------------------------------------------------

REFERENCE = ExperimentConfig(
    n_points=128,
    box_length=16.0 * math.pi,
    t_final=0.2,
    n_steps=64,
    n_max=3,
    samples=64,
    base_seed=2026,
    band=2.0,
    h1_norm=1.0,
)


def test_criterion_9_monte_carlo_boundedness(capsys):
    start = time.perf_counter()
    report = run_experiment(REFERENCE)
    elapsed = time.perf_counter() - start
    worst_ratio = max(v.ratio for v in report.moment_verdicts)
    ok = (report.finite_fraction == 1.0
          and all(v.passed for v in report.moment_verdicts)
          and report.verdicts["small_regime"]
          and elapsed <= 1800.0)
    _verdict(capsys, ok,
             f"criterion 9: 128^2 grid, M=64, n <= 3: finite fraction "
             f"{report.finite_fraction:.3f}, worst moment ratio "
             f"{worst_ratio:.3f} <= 1, C_cal*|phi0|*T = "
             f"{report.c_cal * report.phi0_h1 * REFERENCE.t_final:.3f} < 0.5 "
             f"({elapsed:.0f} s)")


def test_criterion_10_interval_scaling(capsys):
    config = replace(REFERENCE, n_points=64, n_steps=32, n_max=1, samples=128,
                     interval_list=(0.2, 0.1, 0.05, 0.025))
    result = interval_scaling_study(config)
    slopes = {n: result.slopes[n] for n in (0, 1)}
    ok = all(0.4 <= s <= 0.6 for s in slopes.values())
    _verdict(capsys, ok,
             f"criterion 10: log-median vs log-T slopes n=0: "
             f"{slopes[0]:.3f}, n=1: {slopes[1]:.3f}, both in [0.4, 0.6] "
             f"(M=128, 4 halved intervals)")


def test_criterion_11_tail_domination(capsys):
    config = replace(REFERENCE, n_points=64, n_steps=32, n_max=1, samples=1024)
    result = tail_study(config, n=1)
    n_checked = sum(result.checked)
    dominated = all(e <= b for e, b, c in
                    zip(result.empirical, result.bound, result.checked) if c)
    ok = result.passed and dominated and n_checked > 0
    _verdict(capsys, ok,
             f"criterion 11: n=1, M=1024: empirical tail <= calibrated bound "
             f"at all {n_checked}/{len(result.lam)} grid points with bound <= 1")


def test_criterion_12_determinism(capsys, tmp_path, monkeypatch):
    config = replace(REFERENCE, n_points=64, n_steps=32, n_max=2, samples=8)
    one_batch = replace(config, samples=3)
    blobs = {}
    # a serial run twice, two workers and the default count; and one batch,
    # serial and at the default count, which on two CPUs or more splits its
    # levels with a forked helper
    for tag, run_config, workers in (("serial_a", config, "1"), ("serial_b", config, "1"),
                                     ("pool", config, "2"), ("default", config, None),
                                     ("one_serial", one_batch, "1"),
                                     ("one_default", one_batch, None)):
        if workers is None:
            monkeypatch.delenv("PICARDLAB_WORKERS", raising=False)
        else:
            monkeypatch.setenv("PICARDLAB_WORKERS", workers)
        emit_report(run_experiment(run_config), tmp_path / tag)
        blobs[tag] = (tmp_path / tag / "rows.csv").read_bytes()
    monkeypatch.delenv("PICARDLAB_WORKERS", raising=False)
    ok = (blobs["serial_a"] == blobs["serial_b"] == blobs["pool"] == blobs["default"]
          and blobs["one_serial"] == blobs["one_default"])
    _verdict(capsys, ok,
             f"criterion 12: rows.csv byte-identical across repeated runs and "
             f"worker counts ({len(blobs['serial_a'])} bytes; one batch "
             f"{len(blobs['one_serial'])} bytes)")
