"""picardlab benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload ref128 --seed 0 --seconds 35 --trace 0

The library is built from the checkout's own ``src/`` (``PYTHONPATH=src``);
there is nothing to compile.  Each measurement runs in a fresh child process
(``child.py``) with BLAS threads pinned to 1 and ``PICARDLAB_WORKERS`` unset,
so set-up time, peak memory and cold caches are what a ``picardlab
simulate`` user pays.

``--trace 0`` prints the end-to-end metrics: ``SETUP_REPEATS`` set-up-only
processes, then one process per timed call (set-up, one cold call) until
``--seconds`` are spent.  ``wall_s`` is the median call duration and
``samples_per_s`` the work of one call divided by that same median.
``--trace 1`` prints the per-layer metrics: one process that alternates
untraced and traced calls; the ratio of their median wall times gives the
tracing overhead.  Every call's outputs are checked, and rows.csv must be
byte-identical across the calls of a run; ``attempted`` and ``failed``
count samples (or oracle levels) and their share is printed as
``fail_frac``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 when the run completed (even with failed checks, which the
JSON reports), 1 when a measuring process failed or overran, 2 when the
checkout or arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import MIN_CALLS, SETUP_REPEATS, SPECS

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "harness.run_s": "s",
    "harness.self_s": "s",
    "harness.samples": "count",
    "harness.sample_s_p50": "s",
    "harness.sample_s_p90": "s",
    "harness.emit_s": "s",
    "harness.emit_bytes": "bytes",
    "randomization.draw_s": "s",
    "randomization.randomize_s": "s",
    "randomization.calls": "count",
    "picard.chain_s": "s",
    "picard.step_s": "s",
    "picard.step_calls": "count",
    "picard.product_s": "s",
    "picard.product_calls": "count",
    "picard.step_self_s": "s",
    "picard.duhamel_call_s": "s",
    "picard.product_call_s": "s",
    "picard.free_evolution_call_s": "s",
    "picard.space_time_norm_call_s": "s",
    "picard.fieldseries_call_s": "s",
    "picard.series_mb": "MB",
    "picard.direct_s": "s",
    "trees.reconstruct_s.n1": "s",
    "trees.reconstruct_s.n2": "s",
    "trees.product_calls": "count",
    "trees.free_calls": "count",
    "trees.terms_requested": "count",
    "trees.reuse_ratio": "ratio",
    "trees.self_s": "s",
    "grid.sobolev_s": "s",
    "grid.sobolev_calls": "count",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """A measuring process failed, overran or printed no result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("PICARDLAB_WORKERS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(argv: list[str], root: Path, deadline: float) -> dict:
    """Run child.py to completion; its set-up time is measured from here."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "child.py"), *argv]
    with subprocess.Popen(cmd, cwd=root, env=child_env(root),
                          stdout=subprocess.PIPE) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"measuring process overran the {DEADLINE_S:.0f} s budget")
    if proc.returncode != 0:
        raise BenchError(f"measuring process exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("measuring process printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def cache_sizes() -> dict:
    """L2 and L3 sizes of cpu0 as the kernel reports them (read-only)."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                sizes[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def environment(spec: dict) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cache": cache_sizes(),
        "series_mb": workloads.series_bytes(spec) / 1e6,
        "blas_threads": 1,
        "workers_env": "unset",
    }


def tally(calls: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed samples (or levels) over all calls, and messages.

    A call whose rows.csv differs from the first call's fails in every sample.
    """
    first = calls[0]["rows_sha256"]
    attempted = failed = 0
    messages = []
    for i, call in enumerate(calls):
        bad = {unit: message for unit, message in call["failures"]}
        if call["rows_sha256"] != first:
            for unit in range(call["units"]):
                bad.setdefault(unit, "rows.csv bytes differ from the first call's")
        attempted += call["units"]
        failed += len(bad)
        messages += [f"call {i} unit {unit}: {msg}" for unit, msg in sorted(bad.items())]
    return attempted, failed, messages


def measure(args, root: Path, out: Path) -> tuple[dict, int, int]:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if not args.trace:
        setups = [run_child(base + ["--setup-only"], root, deadline)["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        calls, rss = [], []
        while True:
            run = run_child(base + ["--out", str(out / "run")], root, deadline)
            setups.append(run["setup_s"])
            calls += run["calls"]
            rss.append(run["peak_rss_bytes"])
            spent = time.monotonic() - start
            if len(calls) >= MIN_CALLS and spent + spent / len(calls) > args.seconds:
                break
        wall_s = statistics.median(c["duration"] for c in calls)
        metrics = {
            "wall_s": wall_s,
            "samples_per_s": calls[0]["units"] / wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss) / 1e6,
        }
    else:
        run = run_child(base + ["--trace", "--seconds", str(args.seconds),
                                "--out", str(out / "traced")], root, deadline)
        calls = run["calls"]
        metrics = dict(run["layers"])
        # calls[0] is the process's one cold call; the ratio compares warm calls.
        metrics["trace.overhead_frac"] = (
            statistics.median(c["duration"] for c in calls if c["traced"])
            / statistics.median(c["duration"] for c in calls[1:] if not c["traced"]) - 1.0)
        if run["missing"]:
            print(f"# traced names missing from picardlab: {run['missing']}",
                  file=sys.stderr)
    attempted, failed, messages = tally(calls)
    for message in messages[:10]:
        print(f"# check failed: {message}", file=sys.stderr)
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "picardlab" / "__init__.py").is_file():
        print("error: run from a picardlab checkout root (src/picardlab is missing)",
              file=sys.stderr)
        return 2

    out = root / OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, attempted, failed = measure(args, root, out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # keep only the traced run's spans.json
        shutil.rmtree(out / "run", ignore_errors=True)
        if out.is_dir() and not any(out.iterdir()):
            out.rmdir()

    spec = SPECS[args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    print("# env " + json.dumps(environment(spec), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} "
          f"(input set {workloads.input_set(args.seed)}), fail_frac "
          f"{failed / attempted:.4g} ({failed}/{attempted})")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
