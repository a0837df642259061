"""Toy-size self-test of the benchmark itself.

Run from the repository root (takes about half a minute):

    python3 perfbench/selftest.py

It runs ``run.py`` on the toy workloads (32^2 grid, 4 samples, n <= 1; the
4-block oracle at n = 1) and checks that

1. every run is correct and prints every metric named in BENCHMARK.json,
   with its unit: the end-to-end metrics with ``--trace 0`` and the
   per-layer metrics with ``--trace 1``;
2. a stored reference norm perturbed by one part in 1e9 makes the run
   report failures (fail_frac above 0) on each toy workload;
3. in a directory holding only BENCHMARK.json and the benchmark's files the
   run exits non-zero without printing a result;
4. the oracle datum built by ``child.py`` is bit for bit the criterion-4
   fixture ``two_block_datum`` of ``tests/conftest.py``.

The perturbed reference of check 2 is written into a copy of the benchmark's
directory, whose ``run.py`` then runs against this checkout.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = ROOT / ".perfbench_out" / "selftest"
PERTURBATION = 1.0 + 1e-9


def bench(cwd: Path, workload: str, trace: int,
          bench_dir: Path | None = None) -> subprocess.CompletedProcess:
    bench_dir = bench_dir or cwd / "perfbench"
    cmd = [sys.executable, str(bench_dir / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(ok: bool, text: str, failures: list[str]) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {text}")
    if not ok:
        failures.append(text)


def same_oracle_datum() -> bool:
    """Whether child.py builds the criterion-4 datum of the test suite."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from picardlab import make_grid

    import child

    spec = importlib.util.spec_from_file_location("conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    grid = make_grid(64, 8.0 * math.pi)
    return np.array_equal(child.two_block_datum(grid).values,
                          conftest.two_block_datum(grid).values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)

    for workload in ("toy_mc", "toy_oracle"):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = last_json(bench(ROOT, workload, trace))
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{workload} trace {trace}: every {group} metric "
                  f"printed with its unit", failures)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace {trace}: correct, {result['failed']}/"
                  f"{result['attempted']} failed", failures)

    perturbed = SCRATCH / "perturbed" / "perfbench"
    shutil.copytree(HERE, perturbed, ignore=shutil.ignore_patterns("__pycache__"))
    reference = json.loads((HERE / "reference.json").read_text())
    reference["workloads"]["toy_mc"]["0"][0][1][2] *= PERTURBATION
    reference["workloads"]["toy_oracle"]["0"]["1"][0] *= PERTURBATION
    (perturbed / "reference.json").write_text(json.dumps(reference))
    for workload in ("toy_mc", "toy_oracle"):
        result = last_json(bench(ROOT, workload, 0, bench_dir=perturbed))
        check(result["failed"] > 0 and not result["correct"],
              f"{workload}: perturbed reference norm gives fail_frac "
              f"{result['failed']}/{result['attempted']} > 0", failures)

    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench(bare, "toy_mc", 0)
    printed = any(line.startswith("{") for line in proc.stdout.splitlines())
    check(proc.returncode != 0 and not printed,
          f"without src/picardlab: exit code {proc.returncode}, no result printed",
          failures)

    check(same_oracle_datum(), "child.two_block_datum equals the tests/conftest.py "
          "fixture", failures)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed" if not failures else f"selftest FAILED: {len(failures)} check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
