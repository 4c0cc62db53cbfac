"""Per-layer tracing of mfgflow from outside the package.

The package resolves its collaborators through module attributes at
call time (`run_flow` calls `flow.solve_payoff`, `solve_nonlinear` calls
`elliptic.neumann_laplacian`, ...).  `Tracer` replaces those attributes
with wrappers that record one span per call while a root span is open,
and puts the originals back on exit.  Calls made outside a root (the
correctness checks) pass straight through.  The package is not edited.

A span is [name, start, end, parent index, run id, exception name,
info]; spans stay in memory until the run ends and per-layer numbers
are derived from them.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name).  The span name's prefix is the layer.
TARGETS = (
    ("mfgflow", "run_flow", "flow.run_flow"),
    ("mfgflow.diagnostics", "run_flow", "flow.run_flow"),
    ("mfgflow.flow", "solve_payoff", "elliptic.solve_payoff"),
    ("mfgflow.elliptic", "neumann_laplacian", "elliptic.neumann_laplacian"),
    ("mfgflow.elliptic", "splu", "elliptic.splu"),
    ("mfgflow.flow", "solve_eikonal", "eikonal.solve_eikonal"),
    ("mfgflow.flow", "extract_target", "eikonal.extract_target"),
    ("mfgflow.flow", "select_lowest_income", "flow.select"),
    ("mfgflow.flow", "select_farthest", "flow.select"),
    ("mfgflow.flow", "redistribute", "flow.redistribute"),
    ("mfgflow.flow", "nash_gap", "flow.nash_gap"),
    ("mfgflow.flow", "IterationRecord", "flow.record"),
    ("mfgflow", "stress_test", "diagnostics.stress_test"),
    ("mfgflow", "refinement_study", "diagnostics.refinement_study"),
    ("mfgflow", "nash_certificate", "diagnostics.nash_certificate"),
    ("mfgflow", "build_model", "presets.build_model"),
    ("mfgflow", "normalize", "measures.normalize"),
    ("mfgflow.diagnostics", "random_density", "measures.random_density"),
)

NAME, START, END, PARENT, RUN, ERROR, INFO = range(7)


def _info(span_name, kwargs, out):
    """Per-call data a metric needs beyond timing."""
    if span_name == "flow.record":
        return (kwargs["j"], kwargs["halvings"])
    if span_name == "flow.run_flow":
        return out.iterations
    return None


def originals_in_place() -> bool:
    """True when no traced attribute is currently a tracer wrapper."""
    return not any(
        hasattr(getattr(importlib.import_module(mod), attr), "__perfbench_span__")
        for mod, attr, _ in TARGETS
    )


class Tracer:
    """Installs the wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._run = None
        self._saved: list[tuple] = []

    def __enter__(self):
        try:
            for mod, attr, span_name in TARGETS:
                module = importlib.import_module(mod)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span_name, original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    @contextmanager
    def root(self, name: str, run):
        """Open a root span; only calls inside a root are recorded."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self._run = run
        with self._span(name, -1):
            yield

    @contextmanager
    def _span(self, name, parent):
        span = [name, time.perf_counter(), 0.0, parent, self._run, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        except BaseException as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, span_name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            with tracer._span(span_name, tracer._stack[-1]) as span:
                out = fn(*args, **kwargs)
            span[INFO] = _info(span_name, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__perfbench_span__ = span_name
        return wrapper


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer counts and times (seconds) of one traced round.

    `spans` holds the spans of one round only.  Besides the metrics it
    returns the two cross-check quantities "check.result_iterations"
    (sum of FlowResult.iterations seen at run_flow boundaries) and
    "check.trial_solves" (payoff solves that follow a successful
    redistribution inside a run_flow), plus "check.flows".
    """
    children: dict[int, list[int]] = {}
    for idx, span in enumerate(spans):
        children.setdefault(span[PARENT], []).append(idx)

    def dur(idx):
        return spans[idx][END] - spans[idx][START]

    def self_time(idx):
        return dur(idx) - sum(dur(c) for c in children.get(idx, ()))

    by_name: dict[str, list[int]] = {}
    for idx, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(idx)

    def total(name):
        return sum(dur(i) for i in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    runs = by_name.get("flow.run_flow", [])
    trial_solves = 0
    for r in runs:
        previous = None
        for c in children.get(r, ()):
            name = spans[c][NAME]
            if name == "elliptic.solve_payoff" and previous == "flow.redistribute":
                trial_solves += 1
            previous = name if spans[c][ERROR] is None else None

    payoff = by_name.get("elliptic.solve_payoff", [])
    payoff_s = total("elliptic.solve_payoff")
    eikonal_s = total("eikonal.solve_eikonal")
    records = [spans[i][INFO] for i in by_name.get("flow.record", [])]
    accepted = sum(1 for j, _ in records if j >= 1)
    trials = count("flow.select")
    shortfall = sum(1 for i in by_name.get("flow.redistribute", []) if spans[i][ERROR])
    top_level_measures = [
        i for i, s in enumerate(spans)
        if s[NAME].startswith("measures.")
        and not spans[s[PARENT]][NAME].startswith("measures.")
    ]
    return {
        "elliptic.payoff_calls": len(payoff),
        "elliptic.payoff_s": payoff_s,
        "elliptic.payoff_self_s": sum(self_time(i) for i in payoff),
        "elliptic.payoff_ms_per_call": 1e3 * payoff_s / max(len(payoff), 1),
        "elliptic.solver_errors": sum(
            1 for i in payoff if spans[i][ERROR] == "SolverError"
        ),
        "elliptic.laplacian_builds": count("elliptic.neumann_laplacian"),
        "elliptic.laplacian_s": total("elliptic.neumann_laplacian"),
        "elliptic.factorizations": count("elliptic.splu"),
        "elliptic.factor_s": total("elliptic.splu"),
        "eikonal.calls": count("eikonal.solve_eikonal"),
        "eikonal.solve_s": eikonal_s,
        "eikonal.ms_per_call": 1e3 * eikonal_s / max(count("eikonal.solve_eikonal"), 1),
        "eikonal.target_s": total("eikonal.extract_target"),
        "flow.trials": trials,
        "flow.accepted": accepted,
        "flow.halvings": sum(h for j, h in records if j >= 1),
        "flow.accept_ratio": accepted / max(trials, 1),
        "flow.rejected_shortfall": shortfall,
        "flow.rejected_overlap": trials - shortfall - trial_solves,
        "flow.rejected_no_decrease": trial_solves - accepted,
        "flow.select_s": total("flow.select"),
        "flow.redistribute_s": total("flow.redistribute"),
        "flow.nash_gap_s": total("flow.nash_gap"),
        "flow.self_s": sum(self_time(i) for i in runs),
        "diagnostics.self_s": sum(
            self_time(i) for i, s in enumerate(spans) if s[NAME].startswith("diagnostics.")
        ),
        "presets.build_model_s": total("presets.build_model"),
        "measures.density_s": sum(dur(i) for i in top_level_measures),
        "check.flows": len(runs),
        "check.result_iterations": sum(spans[i][INFO] for i in runs),
        "check.trial_solves": trial_solves,
    }
