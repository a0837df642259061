"""Span tracer that wraps picardlab's public functions from outside.

Nothing inside ``src/`` changes: :meth:`Tracer.install` replaces every
binding of a traced function in every loaded ``picardlab`` module (the
defining module, the package namespace and ``from .x import y`` copies in
sibling modules) with a wrapper that records a span.  A name that no longer
exists is skipped, so its spans and counts read 0 instead of failing.

Spans are kept in memory as ``[name, start, end, parent, call, tag]`` rows
and written once, by :meth:`Tracer.dump`, when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (module, public function) pairs wrapped by the tracer; the span name is
# "<module>.<function>".
TRACED = (
    ("harness", "run_experiment"),
    ("harness", "emit_report"),
    ("randomization", "draw_rademacher"),
    ("randomization", "randomize"),
    ("picard", "picard_chain"),
    ("picard", "picard_iterate"),
    ("picard", "iterate_from_previous"),
    ("picard", "product_dealias"),
    ("picard", "free_derivative_hat"),
    ("trees", "reconstruct_iterate"),
    ("grid", "sobolev_norm"),
)

NAME, START, END, PARENT, CALL, TAG = range(6)
SETUP_CALL = -1


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.call = SETUP_CALL
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tag = args[0] if name == "trees.reconstruct_iterate" and args else None
            row = [name, time.perf_counter(), 0.0, parent, tracer.call, tag]
            tracer.spans.append(row)
            tracer._stack.append(idx)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._stack.pop()
                row[END] = time.perf_counter()

        return wrapper

    def install(self) -> None:
        self.missing = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "picardlab" or key.startswith("picardlab."))]
        for mod_name, func_name in TRACED:
            home = sys.modules.get(f"picardlab.{mod_name}")
            original = getattr(home, func_name, None) if home is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{func_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "call", "tag"],
                       "missing": self.missing, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------

def _dur(row) -> float:
    return row[END] - row[START]


def _under(spans, row, ancestor: str) -> bool:
    parent = row[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == ancestor:
            return True
        parent = spans[parent][PARENT]
    return False


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _quantile(values, q: float) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1])


def _sample_durations(spans, run_row) -> list[float]:
    """Per-sample times inside one run_experiment span.

    A sample starts at its draw_rademacher call; it ends where the next one
    starts, and the last ends with the last picard span of the run.
    """
    inner = [r for r in spans if r[CALL] == run_row[CALL]
             and run_row[START] <= r[START] and r[END] <= run_row[END]]
    starts = [r[START] for r in inner if r[NAME] == "randomization.draw_rademacher"]
    if not starts:
        return []
    engine_ends = [r[END] for r in inner if r[NAME].startswith("picard.")]
    last_end = max(engine_ends) if engine_ends else starts[-1]
    bounds = starts + [max(last_end, starts[-1])]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def layer_metrics(spans, n_calls: int) -> dict[str, float]:
    """Per-call busy times and counts of each layer, medians over calls."""
    per_call = []
    samples: list[float] = []
    for call in range(n_calls):
        rows = [r for r in spans if r[CALL] == call]

        def total(name: str) -> float:
            return sum(_dur(r) for r in rows if r[NAME] == name)

        def count(name: str) -> int:
            return sum(1 for r in rows if r[NAME] == name)

        runs = [r for r in rows if r[NAME] == "harness.run_experiment"]
        call_samples = [d for r in runs for d in _sample_durations(spans, r)]
        samples.extend(call_samples)
        products = [r for r in rows if r[NAME] == "picard.product_dealias"]
        tree_products = [r for r in products if _under(spans, r, "trees.reconstruct_iterate")]
        step_products = [r for r in products
                         if _under(spans, r, "picard.iterate_from_previous")]
        engine_products = [r for r in products
                           if not _under(spans, r, "trees.reconstruct_iterate")]
        tree_free = [r for r in rows if r[NAME] == "picard.free_derivative_hat"
                     and _under(spans, r, "trees.reconstruct_iterate")]
        recon = [r for r in rows if r[NAME] == "trees.reconstruct_iterate"]
        step_s = total("picard.iterate_from_previous")
        per_call.append({
            "harness.run_s": total("harness.run_experiment"),
            "harness.self_s": total("harness.run_experiment") - sum(call_samples),
            "harness.emit_s": total("harness.emit_report"),
            "randomization.draw_s": total("randomization.draw_rademacher"),
            "randomization.randomize_s": total("randomization.randomize"),
            "randomization.calls": (count("randomization.draw_rademacher")
                                    + count("randomization.randomize")),
            "picard.chain_s": total("picard.picard_chain"),
            "picard.step_s": step_s,
            "picard.step_calls": count("picard.iterate_from_previous"),
            "picard.product_s": sum(_dur(r) for r in engine_products),
            "picard.product_calls": len(engine_products),
            "picard.step_self_s": step_s - sum(_dur(r) for r in step_products),
            "picard.direct_s": total("picard.picard_iterate"),
            "trees.reconstruct_s.n1": sum(_dur(r) for r in recon if r[TAG] == 1),
            "trees.reconstruct_s.n2": sum(_dur(r) for r in recon if r[TAG] == 2),
            "trees.product_calls": len(tree_products),
            "trees.free_calls": len(tree_free),
            "trees.self_s": (sum(_dur(r) for r in recon)
                             - sum(_dur(r) for r in tree_products + tree_free)),
        })
    out = {key: _median(c[key] for c in per_call) for key in per_call[0]}
    out["harness.sample_s_p50"] = _quantile(samples, 0.50)
    out["harness.sample_s_p90"] = _quantile(samples, 0.90)
    out["harness.samples"] = float(len(samples))
    setup = [r for r in spans if r[CALL] == SETUP_CALL and r[NAME] == "grid.sobolev_norm"]
    out["grid.sobolev_s"] = sum(_dur(r) for r in setup)
    out["grid.sobolev_calls"] = float(len(setup))
    return out
