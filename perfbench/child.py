"""One workload in one fresh process: set-up, timed calls, checks, probes.

Started by ``run.py``; not meant to be run by hand.  An untraced process
makes exactly one timed call, so every timed call pays the cold caches a
``picardlab simulate`` user pays; a traced process alternates untraced and
traced calls for ``--seconds``.  The process prints one JSON object on
stdout when it ends: one record per call (duration, failures, rows.csv
digest) and its peak RSS.  ``ready`` in that object is the
CLOCK_MONOTONIC reading taken when set-up finished, which ``run.py``
subtracts from its own reading taken just before it started the process.

The library is reached only through public functions: the datum builders,
``run_experiment``, ``emit_report``, ``reconstruct_iterate`` and
``picard_iterate`` (plus the picard functions the traced run probes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from workloads import MIN_CALLS, NORM_RTOL, ORACLE_TOL, SPECS

NORM_KEYS = ("linf_h1_u", "linf_l2_dudt", "l2t_l4_du")
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def two_block_datum(grid, seed: int = 42):
    """Real datum on the unit blocks (1,0), (0,1) and their conjugates.

    The same field as the criterion-4 fixture ``two_block_datum`` of
    ``tests/conftest.py`` (kept here so that set-up does not import pytest):
    five random modes on plateau interiors, conjugate-symmetrized, unit
    homogeneous H^1.  ``selftest.py`` checks that the two agree bit for bit.
    """
    import numpy as np
    from picardlab import Field, sobolev_norm

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
    return Field(grid=grid, values=hat / sobolev_norm(f, 1.0), representation="spectral")


# ---------------------------------------------------------------------------
# Set-up: grid, datum, active blocks and time grid from public functions
# ---------------------------------------------------------------------------

def build_inputs(spec: dict, k: int) -> dict:
    from picardlab import (TimeGrid, band_limited_field, draw_rademacher,
                           make_grid, randomize, sobolev_norm)
    from picardlab.randomization import active_blocks

    grid = make_grid(spec["n_points"], spec["box_length"])
    tg = TimeGrid(t_final=spec["t_final"], n_steps=spec["n_steps"])
    state = {"spec": spec, "grid": grid, "tg": tg}
    if spec["kind"] == "mc":
        from picardlab import ExperimentConfig

        phi0 = band_limited_field(grid, band=spec["band"], seed=spec["data_seed"],
                                  h1_norm=spec["h1_norm"])
        state["config"] = ExperimentConfig(
            n_points=spec["n_points"], box_length=spec["box_length"],
            t_final=spec["t_final"], n_steps=spec["n_steps"], n_max=spec["n_max"],
            samples=spec["samples"], base_seed=workloads.MC_BASE_SEED + k,
            d_choice=spec["d_choice"], band=spec["band"], h1_norm=spec["h1_norm"],
            data_seed=spec["data_seed"])
    else:
        phi0 = two_block_datum(grid)
    blocks = active_blocks(phi0)
    state.update(phi0=phi0, blocks=blocks, phi0_h1=sobolev_norm(phi0, 1.0))
    if spec["kind"] == "oracle":
        if len(blocks) != 4:
            raise RuntimeError(f"oracle datum has {len(blocks)} active blocks, expected 4")
        draw = draw_rademacher(workloads.ORACLE_DRAW_SEED, blocks,
                               sample_index=workloads.ORACLE_DRAW_INDEX + k)
        state["data"] = randomize(phi0, None, draw)
    return state


# ---------------------------------------------------------------------------
# One timed call per kind, and its checks against the stored reference
# ---------------------------------------------------------------------------

def mc_call(state: dict, out_dir: Path) -> tuple[float, dict]:
    from picardlab import emit_report, run_experiment

    start = time.perf_counter()
    report = run_experiment(state["config"])
    written = emit_report(report, out_dir)
    elapsed = time.perf_counter() - start
    rows_csv = (out_dir / "rows.csv").read_bytes()
    emit_bytes = sum(Path(p).stat().st_size for p in written)
    return elapsed, {"report": report, "rows_csv": rows_csv, "emit_bytes": emit_bytes}


def mc_norms(report) -> list:
    """Reference layout: per sample, per level, the three tracked norms."""
    out: list = []
    for row in report.rows:
        if row.n == 0:
            out.append([])
        out[-1].append([row.linf_h1_u, row.linf_l2_dudt, row.l2t_l4_du])
    return out


def _close(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= NORM_RTOL * abs(ref)


def check_mc(result: dict, ref: list) -> list[list]:
    """``[sample, message]`` per failing sample; empty when the call is correct.

    rows.csv is compared across calls by ``run.py``, which sees every call.
    """
    report = result["report"]
    if not report.all_pass:
        return [[idx, f"verdicts failed: {report.verdicts}"]
                for idx in range(report.config.samples)]
    got = mc_norms(report)
    failures = []
    for idx in range(report.config.samples):
        levels = got[idx] if idx < len(got) else []
        finite = all(r.finite for r in report.rows if r.sample_index == idx)
        if not finite or len(levels) != len(ref[idx]):
            failures.append([idx, "not finite or missing levels"])
            continue
        for n, (norms, ref_norms) in enumerate(zip(levels, ref[idx])):
            bad = [key for key, v, r in zip(NORM_KEYS, norms, ref_norms) if not _close(v, r)]
            if bad:
                failures.append([idx, f"level {n}: {bad} differ from the reference"])
                break
    return failures


def oracle_call(state: dict) -> tuple[float, dict]:
    from picardlab import picard_iterate, reconstruct_iterate

    spec, data, tg = state["spec"], state["data"], state["tg"]
    start = time.perf_counter()
    out = {}
    for n in spec["levels"]:
        tree = reconstruct_iterate(n, data, tg, d_choice=spec["d_choice"])
        direct = picard_iterate(n, data, tg, d_choice=spec["d_choice"])
        out[n] = (tree, direct)
    return time.perf_counter() - start, out


def discrepancy(tree_values, direct_values) -> float:
    """Relative Linf-in-time L2-in-space distance, as in criterion 4."""
    import numpy as np

    num = np.linalg.norm(tree_values - direct_values, axis=(1, 2)).max()
    den = np.linalg.norm(direct_values, axis=(1, 2)).max()
    return float(num / den)


def oracle_norms(result: dict) -> dict:
    return {str(n): [direct.norms[key] for key in NORM_KEYS]
            for n, (_, direct) in result.items()}


def check_oracle(result: dict, ref: dict) -> list[list]:
    """``[level index, message]`` per failing level; empty when the call is correct."""
    failures = []
    got = oracle_norms(result)
    for idx, (n, (tree, direct)) in enumerate(result.items()):
        rel = discrepancy(tree.values, direct.du.values)
        bad = [key for key, v, r in zip(NORM_KEYS, got[str(n)], ref[str(n)])
               if not _close(v, r)]
        if not rel <= ORACLE_TOL or bad:
            failures.append([idx, f"level {n}: discrepancy {rel:.3e}, norms off: {bad}"])
    return failures


def one_call(state: dict, ref, out_dir: Path, index: int) -> dict:
    """Run and check one timed call; return its record for run.py."""
    spec = state["spec"]
    if spec["kind"] == "mc":
        call_dir = out_dir / f"call{index}"
        elapsed, result = mc_call(state, call_dir)
        shutil.rmtree(call_dir)
        return {"duration": elapsed, "units": spec["samples"],
                "failures": check_mc(result, ref),
                "rows_sha256": hashlib.sha256(result["rows_csv"]).hexdigest(),
                "emit_bytes": result["emit_bytes"]}
    elapsed, result = oracle_call(state)
    return {"duration": elapsed, "units": len(spec["levels"]),
            "failures": check_oracle(result, ref), "rows_sha256": None}


# ---------------------------------------------------------------------------
# Traced-run extras: probes on sample 0's arrays and computed sizes
# ---------------------------------------------------------------------------

def _timed(fn, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(statistics.median(times))


def picard_probes(state: dict) -> dict[str, float]:
    """Median time of single public picard calls on the workload's real arrays.

    A function that no longer exists reads 0.
    """
    import picardlab.picard as picard
    from picardlab import draw_rademacher, randomize

    spec, grid, tg = state["spec"], state["grid"], state["tg"]
    data = state.get("data")
    if data is None:
        draw = draw_rademacher(state["config"].base_seed, state["blocks"], sample_index=0)
        data = randomize(state["phi0"], None, draw)
    names = ("free_evolution", "product_dealias", "FieldSeries", "duhamel", "space_time_norm")
    fns = {name: getattr(picard, name, None) for name in names}
    out = {f"picard.{key}_call_s": 0.0 for key in
           ("free_evolution", "product", "fieldseries", "duhamel", "space_time_norm")}
    if fns["free_evolution"] is None:
        return out
    d = spec["d_choice"]
    du = fns["free_evolution"](data, tg, d)[2]
    out["picard.free_evolution_call_s"] = _timed(lambda: fns["free_evolution"](data, tg, d))
    if fns["space_time_norm"] is not None:
        out["picard.space_time_norm_call_s"] = _timed(
            lambda: fns["space_time_norm"](du, 2.0, 4.0))
    if fns["product_dealias"] is None or fns["FieldSeries"] is None:
        return out
    src = fns["product_dealias"](du.values, du.values, grid)
    out["picard.product_call_s"] = _timed(
        lambda: fns["product_dealias"](du.values, du.values, grid))
    out["picard.fieldseries_call_s"] = _timed(
        lambda: fns["FieldSeries"](grid, tg, src, "spectral"))
    if fns["duhamel"] is not None:
        series = fns["FieldSeries"](grid, tg, src, "spectral")
        out["picard.duhamel_call_s"] = _timed(lambda: fns["duhamel"](series, tg, d))
    return out


def terms_requested(state: dict) -> int:
    """Tree terms reconstruct_iterate asks for: trees x block tuples, all levels."""
    import picardlab.trees as trees

    trees_at_level = getattr(trees, "trees_at_level", None)
    if state["spec"]["kind"] != "oracle" or trees_at_level is None:
        return 0
    b = len(state["blocks"])
    return sum(len(trees_at_level(j, n)) * b**j
               for n in state["spec"]["levels"] for j in range(1, 2**n + 1))


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once set-up is done")
    parser.add_argument("--trace", action="store_true",
                        help="alternate untraced and traced calls for --seconds")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = SPECS[args.workload]
    k = workloads.input_set(args.seed)

    tracer = None
    if args.trace:
        import picardlab  # noqa: F401  (loads every module the tracer patches)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    state = build_inputs(spec, k)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    ref = json.loads(REFERENCE.read_text())["workloads"][args.workload][str(k)]
    args.out.mkdir(parents=True, exist_ok=True)
    calls: list[dict] = []
    if tracer is None:
        # One call per process: every timed call starts with cold caches.
        calls.append(one_call(state, ref, args.out, 0))
    else:
        # Untraced and traced calls alternate in one process, so the overhead
        # ratio compares calls made under the same machine conditions.
        loop_start = time.perf_counter()
        while True:
            for traced in (False, True):
                if traced:
                    tracer.call = sum(c["traced"] for c in calls)
                    tracer.install()
                else:
                    tracer.uninstall()
                record = one_call(state, ref, args.out, len(calls))
                record["traced"] = traced
                calls.append(record)
            spent = time.perf_counter() - loop_start
            untraced = [c["duration"] for c in calls if not c["traced"]]
            if len(untraced) >= MIN_CALLS and spent + spent / len(untraced) > args.seconds:
                break

    out = {
        "ready": ready,
        "calls": calls,
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
    }
    if tracer is not None:
        from tracing import layer_metrics

        tracer.uninstall()
        tracer.dump(args.out / "spans.json")
        traced = [c for c in calls if c["traced"]]
        layers = layer_metrics(tracer.spans, len(traced))
        layers.update(picard_probes(state))
        layers["picard.series_mb"] = workloads.series_bytes(spec) / 1e6
        emit_bytes = [c["emit_bytes"] for c in traced if "emit_bytes" in c]
        layers["harness.emit_bytes"] = float(statistics.median(emit_bytes)) if emit_bytes else 0.0
        requested = terms_requested(state)
        layers["trees.terms_requested"] = float(requested)
        products = layers.get("trees.product_calls", 0.0)
        layers["trees.reuse_ratio"] = requested / products if products else 0.0
        out["layers"] = layers
        out["missing"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
