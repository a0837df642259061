"""Command-line entry point: verification suites and experiment runs.

Subcommands: trees (iterated-integral calculus checks), moments (sign-sum and
partition combinatorics checks), simulate (Monte Carlo iterate run), scaling
(interval scaling study), tails (tail domination study), report (re-read a
written summary and print its verdicts).  Exit code 0 iff every verdict of the
invoked suite passes; 1 on verdict failure; 2 on configuration errors,
a run too large for memory included.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .harness import (
    SLOPE_RANGE,
    WORKERS_ENV,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    WorkerLostError,
    emit_report,
    emit_scaling,
    emit_tail,
    interval_scaling_study,
    load_config,
    run_experiment,
    tail_study,
)

__all__ = ["main"]


def _verdict_line(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    return ok


def _run_trees(args) -> int:
    from .trees import (
        c_star,
        c_star_upper,
        c_tau,
        enumerate_trees,
        i_tau_oracle,
    )

    ok = True
    counts_ok = all(len(enumerate_trees(j)) == math.comb(2 * (j - 1), j - 1) // j
                    for j in range(1, 13))
    ok &= _verdict_line("tree counts = Catalan(j-1), j <= 12", counts_ok)

    worst = 0.0
    for j in range(1, 8):
        for tree in enumerate_trees(j):
            worst = max(worst, abs(i_tau_oracle(tree, 1.0) - 1.0 / c_tau(tree)))
    ok &= _verdict_line("I_tau(1) = 1/C_tau on all 197 trees, j <= 7",
                        worst <= 1e-9, f"worst residual {worst:.3e}")

    star_ok = all(c_star(2**n) <= c_star_upper(n).value for n in (1, 2, 3))
    star_ok &= [c_star_upper(n).value for n in (1, 2, 3)] == [1, 3, 63]
    ok &= _verdict_line("C* bound at j = 2^n, n in {1,2,3} (caps 1, 3, 63)", star_ok)

    ident_ok = all(c_star_upper(n).exponent_identity for n in range(1, 21))
    ok &= _verdict_line("exponent identity sum k 2^(n-k) = 2^(n+1)-n-2, n <= 20",
                        ident_ok)
    return 0 if ok else 1


def _run_moments(args) -> int:
    from .moments import (
        MomentBound,
        bell_number,
        exact_moment,
        khinchine_ratio,
        partition_classes,
        stirling2,
        stirling_refined_bound_check,
        surjection_count,
        tail_from_moments,
    )

    ok = True
    ok &= _verdict_line("E(e1+e2)^4 = 8, E(e1+e2+e3)^4 = 21",
                        exact_moment((1, 1), 4) == 8.0
                        and exact_moment((1, 1, 1), 4) == 21.0)

    rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(11)))
    sweep_ok = True
    for _ in range(40):
        k = int(rng.integers(2, 11))
        c = tuple(rng.standard_normal(k))
        for p in (2, 4, 6, 8):
            exact_moment(c, p)  # raises if enumeration and formula disagree
            sweep_ok &= khinchine_ratio(c, p) <= 1.0
    ok &= _verdict_line("enumeration = multinomial formula; ratio <= 1 "
                        "(40 vectors x p in {2,4,6,8})", sweep_ok)

    stir_ok = stirling2(4, 2) == 7 and surjection_count(4, 2) == 14
    for n_items in range(1, 21):
        for r in range(1, n_items + 1):
            surjection_count(n_items, r)  # raises if a bound fails
    ok &= _verdict_line("S(4,2) = 7; surjection bounds, r <= N <= 20", stir_ok)

    refined_ok = all(stirling_refined_bound_check(j, r).ok
                     for j in range(1, 21) for r in range(1, j + 1))
    ok &= _verdict_line("refined Stirling + binomial bounds, r <= j <= 20",
                        refined_ok)

    part_ok = True
    for j in range(1, 13):
        per_r: dict[int, int] = {}
        for cls in partition_classes(j):
            per_r[cls.r] = per_r.get(cls.r, 0) + cls.count
        part_ok &= all(per_r[r] == stirling2(j, r) for r in per_r)
        part_ok &= sum(per_r.values()) == bell_number(j)
    ok &= _verdict_line("partition classes reconcile with S(j,r) and Bell, j <= 12",
                        part_ok)

    mb = MomentBound(c=1.0, alpha=1.0, n_scale=1.0, k=1.0)
    plug = tail_from_moments(mb, 4.0 * math.e)
    tail_ok = abs(plug - math.exp(2.0) * math.exp(-16.0)) <= 1e-15
    tail_ok &= tail_from_moments(mb, 8.0) < tail_from_moments(mb, 4.0)
    ok &= _verdict_line("tail rule: p* = 16 plug-in; monotone in lambda", tail_ok,
                        f"bound {plug:.3e}")
    return 0 if ok else 1


def _config_from_args(args) -> ExperimentConfig:
    overrides = {
        "base_seed": args.seed,
        "samples": args.samples,
        "n_max": args.n_max,
        "n_points": args.grid,
        "box_length": args.box,
        "t_final": args.t,
        "n_steps": args.steps,
    }
    if args.config:
        return load_config(args.config, **overrides)
    return ExperimentConfig(**{k: v for k, v in overrides.items() if v is not None})


def _exists(path: Path) -> bool:
    """``path.exists()``; a path the system cannot even look up (a name too
    long, say) is a ConfigError naming it."""
    try:
        return path.exists()
    except OSError as exc:
        raise ConfigError(f"cannot look up {str(path)!r}: {exc.strerror or exc}") from exc


def _out_dir(args) -> Path | None:
    """The ``--out`` directory of a run, checked before the run starts: if it,
    or the nearest of its parents that exists, is not a directory, writing
    the results could only fail once the run is done."""
    if not args.out:
        return None
    out = Path(args.out)
    existing = next(p for p in (out, *out.parents) if _exists(p))
    if not existing.is_dir():
        raise ConfigError(f"--out {args.out!r}: {str(existing)!r} is not a directory")
    return out


def _dump_fields(report: ExperimentReport, out: Path) -> None:
    """Save the run's fixed datum and its sample-0 iterate snapshot at t = T."""
    from .grid import Field, save_field
    from .harness import _sample_data
    from .picard import picard_iterate

    run, config = report.run, report.config
    save_field(run.phi0, out / "phi0.field")
    if not run.blocks:
        return
    rec = picard_iterate(config.n_max, _sample_data(run, 0), run.tg,
                         d_choice=config.d_choice)
    for tag, series in (("u", rec.u), ("du", rec.du)):
        snap = Field(grid=run.phi0.grid, values=series.values[-1], representation="spectral")
        save_field(snap, out / f"{tag}_n{config.n_max}.field",
                   name=f"{tag}_n{config.n_max}_sample0_tfinal")


def _run_simulate(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    report = run_experiment(config)
    print(f"config {report.run.config_hash}: M={config.samples}, n_max={config.n_max}, "
          f"grid {config.n_points}^2, T={config.t_final}")
    print(f"calibrated C = {report.c_cal:.6g}, ||phi0||_H1 = {report.phi0_h1:.6g}, "
          f"finite fraction = {report.finite_fraction:.4f}")
    ok = True
    ok &= _verdict_line("all samples finite", report.verdicts["all_samples_finite"])
    worst = max((v.ratio for v in report.moment_verdicts), default=0.0)
    ok &= _verdict_line("moment ratios <= 1 (calibrated bound)",
                        report.verdicts["moment_ratios"], f"worst ratio {worst:.4f}")
    ok &= _verdict_line("small-interval regime", report.verdicts["small_regime"])
    if out is not None:
        paths = emit_report(report, out)
        if args.partial:
            _dump_fields(report, out)
        print(f"wrote {len(paths)} files to {out}")
    return 0 if ok else 1


def _run_scaling(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    if not config.interval_list:
        t = config.t_final
        config = replace(config, interval_list=(t, t / 2, t / 4, t / 8))
    scaling = interval_scaling_study(config)
    lo, hi = SLOPE_RANGE
    ok = True
    for n in sorted(scaling.slopes):
        detail = f"slope {scaling.slopes[n]:.4f}"
        if n <= 1:
            ok &= _verdict_line(f"n={n} scaling slope in [{lo}, {hi}]",
                                scaling.slope_ok(n), detail)
        else:
            print(f"[INFO] n={n} {detail}")
    if out is not None:
        emit_scaling(scaling, out)
    return 0 if ok else 1


def _run_tails(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    n = args.n_max if args.n_max is not None else 1
    tail = tail_study(replace(config, n_max=n), n)
    n_checked = sum(tail.checked)
    ok = _verdict_line(
        f"empirical tail <= calibrated bound at n={n}", tail.passed,
        f"{n_checked}/{len(tail.lam)} nonvacuous grid points")
    if out is not None:
        emit_tail(tail, out)
    return 0 if ok else 1


_SUMMARY_KEYS = ("config_hash", "version", "base_seed", "verdicts", "all_pass")


def _run_report(args) -> int:
    if not args.out:
        raise ConfigError("report needs --out pointing at a finished run")
    path = Path(args.out) / "summary.json"
    if not _exists(path):
        raise ConfigError(f"no summary.json under {args.out}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON
        raise ConfigError(f"cannot read summary {path}: {exc}") from exc
    if (not isinstance(payload, dict) or any(k not in payload for k in _SUMMARY_KEYS)
            or not isinstance(payload["verdicts"], dict)):
        raise ConfigError(f"{path} is not a picardlab summary (needs the keys "
                          f"{', '.join(_SUMMARY_KEYS)}, verdicts an object)")
    print(f"run {payload['config_hash']} (version {payload['version']}), "
          f"seed {payload['base_seed']}")
    ok = True
    for name, verdict in sorted(payload["verdicts"].items()):
        ok &= _verdict_line(name, bool(verdict))
    return 0 if ok and payload["all_pass"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="picardlab",
        description="Randomized wave-iterate laboratory: verification suites "
                    "and Monte Carlo experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "trees": ("iterated-integral and tree-count verification", _run_trees),
        "moments": ("sign-sum moment and partition verification", _run_moments),
        "simulate": ("Monte Carlo iterate run with moment verdicts", _run_simulate),
        "scaling": ("interval scaling study over halved T", _run_scaling),
        "tails": ("tail domination study", _run_tails),
        "report": ("print verdicts from a written summary.json", _run_report),
    }
    for name, (help_text, handler) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="base seed")
        p.add_argument("--samples", type=int, default=None, help="Monte Carlo samples")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--n-max", dest="n_max", type=int, default=None,
                       help="max iterate order (tails: the studied level)")
        p.add_argument("--grid", type=int, default=None, help="grid points per axis")
        p.add_argument("--box", type=float, default=None, help="box side length")
        p.add_argument("--t", type=float, default=None, help="final time")
        p.add_argument("--steps", type=int, default=None, help="time steps")
        p.add_argument("--partial", action="store_true",
                       help="also dump field snapshots (simulate)")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        # a run configured by a file names the file in every config error
        prefix = f"{args.config}: " if args.config and args.config not in str(exc) else ""
        print(f"[ERROR] {prefix}{exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a grid or step count too large for this machine is a config error
        detail = f": {exc}" if str(exc) else ""
        print(f"[ERROR] the run does not fit in memory{detail}", file=sys.stderr)
        return 2
    except WorkerLostError as exc:  # most often the out-of-memory killer's SIGKILL
        print(f"[ERROR] {exc}; {WORKERS_ENV}=1 runs every sample in this process",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
