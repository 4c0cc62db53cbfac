"""Measurement loop of the benchmark: set-up probes, timed rounds, metrics.

A run repeats rounds until --seconds have passed (at least two).  An
untraced run times the workload's set-up in fresh child processes
(process start, imports, grids, models and initial densities, up to the
first flow call), about SETUP_PROBES times spread evenly over the run;
setup_s is the median of these samples.
Every round then builds the workload afresh in this process and calls
each item once, in a fixed order, timing each call.  The sum over items
of each item's median call time is the run's wall time to equilibrium,
so a burst of contention spoils one sample of one item rather than the
result.  Every output is checked after its timer has stopped.

A shared host changes speed by up to a factor of two, over seconds to
minutes and for every process alike (BASELINE.md has the evidence); a
run is too short to average that out.  So an untraced run also times a
fixed reference kernel, which does not use mfgflow, for about REF_SHARE
of the time after every item.  setup_s and solve_s are reported at the
reference speed: each item call is scaled by REF_NOMINAL_S over the
median reference time of its round, and the median set-up probe by the
median of these round scales.  A change to mfgflow moves them in the
same proportion as the wall times; the raw wall times and the median
scale are printed on the info line.

With --trace 1 untraced and traced rounds alternate.  Traced rounds run
under tracing.Tracer and give the per-layer metrics; untraced rounds run
with the package's original attributes and give the base for
trace.overhead_frac.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60.0
REF_SHARE = 0.04
# Median reference_kernel time on the machine BASELINE.md describes.
REF_NOMINAL_S = 0.0037
_REF_N = 1000
_REF_A = sp.diags([-np.ones(_REF_N - 1), 2.1 * np.ones(_REF_N), -np.ones(_REF_N - 1)],
                  [-1, 0, 1], format="csc")
_REF_B = np.linspace(0.0, 1.0, _REF_N)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# Counts a traced round must reproduce exactly on every traced round.
COUNT_METRICS = tuple(m["name"] for m in SPEC["per_layer"] if m["unit"] == "count")


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: v for k, v in os.environ.items()
                    if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
    }


def reference_kernel() -> float:
    """A fixed mix like mfgflow's own work, independent of mfgflow.

    Sparse solves with a rebuilt matrix (as in the payoff solves) and a
    heap-driven shortest-path sweep (as in fast marching).
    """
    x = _REF_B
    for _ in range(3):
        x = spla.spsolve((_REF_A + sp.diags(0.01 * np.abs(x))).tocsc(), _REF_B)
    dist = [math.inf] * _REF_N
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, i = heapq.heappop(heap)
        if d > dist[i]:
            continue
        for j in (i - 1, i + 1):
            if 0 <= j < _REF_N and d + 1.0 < dist[j]:
                dist[j] = d + 1.0
                heapq.heappush(heap, (dist[j], j))
    return float(x[np.argsort(x)[0]]) + dist[-1]


def time_reference(seconds: float, samples: list[float]) -> None:
    """Time the reference kernel about seconds·REF_SHARE long (at least once)."""
    for _ in range(max(1, round(seconds * REF_SHARE / REF_NOMINAL_S))):
        start = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - start)


def setup_probe(workload: str, seed: int, size: str) -> float:
    """Wall time of one fresh process from spawn until its set-up is done."""
    cmd = [sys.executable, str(RUN_PY), "--setup-probe", "--workload", workload,
           "--seed", str(seed), "--size", size]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_round(workload, seed, sizes, tracer=None, run=None, ref_samples=None):
    """Build the workload and call every item once.

    Returns (item names, per-item seconds, per-item outcomes).  When a
    tracer is given, set-up and each item run under their own root
    spans.  When ref_samples is given, the reference kernel is timed
    after each item and its times are appended there.
    """
    if tracer is None:
        items = workloads.build(workload, seed, sizes)
    else:
        with tracer.root("setup", run):
            items = workloads.build(workload, seed, sizes)
    times, outcomes = [], []
    for item in items:
        out, error = None, None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = item.run()
            else:
                with tracer.root(item.name, run):
                    out = item.run()
        except Exception as exc:  # a failing flow is a result, not a crash
            error = exc
        times.append(time.perf_counter() - start)
        if ref_samples is not None:
            time_reference(times[-1], ref_samples)
        if error is None:
            try:
                outcome = item.check(out)
            except Exception as exc:  # output too malformed to check
                error = exc
        if error is not None:
            outcome = workloads.failed_outcome(item, error)
        for problem in outcome.problems:
            print(f"FAIL {workload} {item.name}: {problem}", file=sys.stderr)
        outcomes.append(outcome)
    return [item.name for item in items], times, outcomes


def item_medians(rounds) -> list[float]:
    """Median call time of each item over the given rounds."""
    return [statistics.median(samples) for samples in zip(*(t for t, _ in rounds))]


def solve_time(rounds) -> float:
    return sum(item_medians(rounds))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """One benchmark run; returns the result object printed as JSON."""
    sizes = workloads.SIZES[size]
    run_start = time.perf_counter()
    deadline = run_start + seconds
    metrics = {}
    setups = []
    if not trace:
        setup_probe(workload, seed, size)  # warm-up: byte-compiles, fills the page cache

    plain, traced, spans_by_round = [], [], []
    scales = []  # reference scale of each untraced round
    while True:
        use_trace = trace and len(traced) < len(plain)
        round_start = time.perf_counter()
        if not trace:
            # spread over the run, so one slow spell of a shared host
            # does not decide setup_s
            elapsed = (round_start - run_start) / seconds if seconds else 0.0
            due = 1 + SETUP_PROBES * elapsed
            while len(setups) < due:
                setups.append(setup_probe(workload, seed, size))
        if use_trace:
            with tracing.Tracer() as tracer:
                names, times, outcomes = run_round(
                    workload, seed, sizes, tracer, run=len(traced)
                )
            spans_by_round.append(tracer.spans)
            traced.append((times, outcomes))
        else:
            if not tracing.originals_in_place():
                raise RuntimeError("untraced round would run with tracer wrappers")
            refs = None if trace else []
            names, times, outcomes = run_round(workload, seed, sizes, ref_samples=refs)
            plain.append((times, outcomes))
            scales.append(REF_NOMINAL_S / statistics.median(refs) if refs else 1.0)
        round_s = time.perf_counter() - round_start
        enough = len(traced) >= 1 if trace else len(plain) >= 2
        if enough and time.perf_counter() + round_s > deadline:
            break

    every_round = plain + traced
    outcomes = [o for _, outs in every_round for o in outs]
    attempted = sum(o.flows for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    fingerprints = {tuple(o.fingerprint for o in outs) for _, outs in every_round}
    correct = failed == 0 and len(fingerprints) == 1
    if len(fingerprints) != 1:
        print(f"FAIL {workload}: rounds disagree on their results", file=sys.stderr)

    first_outs = plain[0][1]
    info = {
        "workload": workload,
        "seed": seed,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "iterations": {n: o.accepted for n, o in zip(names, first_outs)},
        "item_median_s": dict(zip(names, item_medians(plain))),
        "machine": machine(),
    }
    if not trace:
        info["wall_setup_s"] = statistics.median(setups)
        info["wall_solve_s"] = solve_time(plain)
        info["reference_scale"] = statistics.median(scales)
        metrics["setup_s"] = info["wall_setup_s"] * info["reference_scale"]
        metrics["solve_s"] = solve_time(
            [([t * scale for t in times], outs) for (times, outs), scale in zip(plain, scales)]
        )
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["passed_frac"] = (attempted - failed) / attempted
        metrics["converged_frac"] = sum(o.converged for o in outcomes) / attempted
        info["setup_samples"] = setups
    else:
        layers, problems = traced_metrics(spans_by_round, first_outs)
        for problem in problems:
            print(f"FAIL {workload} trace: {problem}", file=sys.stderr)
        correct = correct and not problems
        metrics.update(layers)
        untraced_s = solve_time(plain)
        metrics["trace.overhead_frac"] = (solve_time(traced) - untraced_s) / untraced_s
        info["spans"] = str(write_spans(workload, seed, spans_by_round))
    print("info: " + json.dumps(info))
    section = SPEC["per_layer" if trace else "end_to_end"]
    wanted = [m["name"] for m in section]
    if set(metrics) != set(wanted):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in wanted},
    }


def traced_metrics(spans_by_round, outcomes):
    """Median per-layer metrics over traced rounds, and cross-check problems."""
    per_round = [tracing.layer_metrics(spans) for spans in spans_by_round]
    problems = []
    first = per_round[0]
    for other in per_round[1:]:
        for name in COUNT_METRICS:
            if other[name] != first[name]:
                problems.append(f"{name} differs between traced rounds")
    flows = sum(o.flows for o in outcomes)
    if first["check.flows"] != flows:
        problems.append(f"traced {first['check.flows']} run_flow calls, expected {flows}")
    if first["flow.accepted"] != first["check.result_iterations"]:
        problems.append("flow.accepted differs from the sum of FlowResult.iterations")
    visible = [o.accepted for o in outcomes if o.accepted is not None]
    if len(visible) == len(outcomes) and sum(visible) != first["flow.accepted"]:
        problems.append("flow.accepted differs from the untraced iteration counts")
    if first["elliptic.payoff_calls"] != flows + first["check.trial_solves"]:
        problems.append("elliptic.payoff_calls is not flows plus trial solves")
    layers = {}
    for name in first:
        if name.startswith("check."):
            continue
        if name in COUNT_METRICS:
            layers[name] = first[name]
        else:
            layers[name] = statistics.median(r[name] for r in per_round)
    return layers, problems


def write_spans(workload: str, seed: int, spans_by_round) -> Path:
    """Write every traced round's spans; parent indices are per round."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload}-seed{seed}.json"
    fields = ["name", "start", "end", "parent", "run", "error", "info"]
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "fields": fields,
                   "rounds": spans_by_round}, fh)
    return path
