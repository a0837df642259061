"""Regenerate reference.json: the tracked norms of every workload and input set.

Run from the repository root at the commit whose numbers are the reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

It refuses to write a reference in which any Monte Carlo verdict fails or
any tree-vs-direct discrepancy exceeds the benchmark's tolerance.  Norms are
stored with ``repr`` precision, so the check in ``child.py`` compares against
the exact floats the reference commit produced.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import child
import workloads
from workloads import INPUT_SETS, ORACLE_TOL, SPECS


def reference_for(spec: dict, k: int):
    state = child.build_inputs(spec, k)
    if spec["kind"] == "mc":
        from picardlab import run_experiment

        report = run_experiment(state["config"])
        if not report.all_pass or report.finite_fraction != 1.0:
            raise SystemExit(f"input set {k}: verdicts fail: {report.verdicts}")
        return child.mc_norms(report)
    _, result = child.oracle_call(state)
    for n, (tree, direct) in result.items():
        rel = child.discrepancy(tree.values, direct.du.values)
        if not rel <= ORACLE_TOL:
            raise SystemExit(f"input set {k} level {n}: discrepancy {rel:.3e}")
    return child.oracle_norms(result)


def main() -> int:
    out = {"input_sets": INPUT_SETS, "mc_base_seed": workloads.MC_BASE_SEED,
           "oracle_draw": [workloads.ORACLE_DRAW_SEED, workloads.ORACLE_DRAW_INDEX],
           "workloads": {}}
    for name, spec in SPECS.items():
        start = time.perf_counter()
        out["workloads"][name] = {str(k): reference_for(spec, k) for k in range(INPUT_SETS)}
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
