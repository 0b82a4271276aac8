"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (needs only the Python standard library and
NumPy; the program is imported from ``src/``)::

    python3 perfbench/run.py --workload paper-dashboard --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``paper-dashboard``,
``store-sweep`` and ``serve-mixed``.  Every run prints a fingerprint, the
workload's own metrics by name, the program's counts, and as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``), reported by every workload.  Times are
scaled to a reference host speed by a kernel timed between operations
(``calibration.py``); the unscaled ones are printed with the workload's
own metrics (``dashboard_s``, ``sweep_write_s``, ``serve_rps``, ...):

* ``setup_s`` -- median time from process start to ready for the first
  operation (imports, service construction, store open; for
  ``serve-mixed`` the daemon bind), over several fresh processes;
* ``peak_rss_mb`` -- peak resident memory of the process doing the work
  (the daemon for ``serve-mixed``);
* ``cold_ms`` -- time of the work answered by evaluation: the median
  cycle's cold dashboard, or cold sweep in user-mode CPU time (see
  ``workloads.py``); the median request for a point neither seeded nor
  asked before;
* ``rate_per_s`` -- grid points answered per second of that time (cold
  and warm sweep together on ``store-sweep``; the median daemon on
  ``serve-mixed``).

No tail latency is gated: a run holds only ~6 cold dashboards or cold
sweeps, whose tail would be their maximum, and ``serve-mixed`` prints its
``serve_p99_ms``.  Operations that fail, are refused or answer wrongly
count in ``failed``; ``error_ratio`` is printed with the workload's own
metrics, and so is ``warm_ms`` on ``serve-mixed``.

``--trace 1`` alternates untraced and traced cycles.  Traced cycles wrap
the layers' public functions (``tracing.py``) and report, averaged per
cycle (a cold dashboard, a cold + warm sweep, a daemon serving 2,000
requests), each layer's calls, inclusive time and self time, the
program's counts, and ``trace.overhead_ms``: traced minus untraced
``cold_ms``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_ms": "ms",
    "rate_per_s": "1/s",
}

#: Traced spans and how their time is named: ``s`` gives ``<span>_s``,
#: ``busy`` gives ``<span>.busy_s`` (totals per cycle), ``ms`` gives
#: ``<span>_ms`` (mean per call).  Each also gets self time and calls.
SPANS = (
    *(
        (f"api.backends.{name}", "busy")
        for name in (
            "simulator", "mva-forkjoin", "mva-tripathi", "aria", "herodotou", "vianna",
        )
    ),
    ("core.mva_solver.solve", "s"),
    ("core.timeline.place", "s"),
    ("core.overlap", "s"),
    ("queueing.mva_overlap.solve", "s"),
    ("core.precedence.build", "s"),
    ("core.estimators.estimate.fork-join", "s"),
    ("core.estimators.estimate.tripathi", "s"),
    ("queueing.distributions.maximum_of", "busy"),
    ("hadoop.simulator.run", "s"),
    ("api.service.evaluate_suite", "s"),
    ("api.sweep.plan", "s"),
    ("api.store.open", "s"),
    ("api.store.put", "s"),
    ("api.store.get_many", "s"),
    ("api.store.get", "ms"),
    ("api.service.evaluate_point", "ms"),
    ("api.scenario.from_dict", "ms"),
    ("serve.http.parse", "ms"),
    ("serve.admit_wait", "ms"),
    ("serve.encode", "ms"),
)

#: Per-layer counts: (metric, source key in the cycle's counts, better).
COUNTS = (
    ("core.mva_solver.iterations", "mva_iterations", "lower"),
    ("api.service.batch_calls", "batch_calls", "lower"),
    ("api.service.batch_fallbacks", "batch_fallbacks", "lower"),
    ("api.service.evaluations", "evaluations", "lower"),
    ("api.service.memory_hits", "memory_hits", "higher"),
    ("api.service.store_hits", "store_hits", "higher"),
    ("api.service.coalesced", "coalesced", "higher"),
    ("api.store.records", "store_records", "higher"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    specs = []
    for base, style in SPANS:
        if style == "ms":
            specs += [(f"{base}_ms", "ms", "lower"), (f"{base}.self_ms", "ms", "lower")]
        else:
            total = f"{base}.busy_s" if style == "busy" else f"{base}_s"
            specs += [(total, "s", "lower"), (f"{base}.self_s", "s", "lower")]
        specs.append((f"{base}.calls", "count", "lower"))
    specs.append(("queueing.distributions.maximum_of.distinct_ratio", "ratio", "higher"))
    specs += [(name, "count", better) for name, _, better in COUNTS]
    specs += [
        ("api.service.hit_ratio", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_ms", "ms", "lower"),
    ]
    return specs


def cycle_layers(cycle: dict) -> dict[str, float]:
    """Per-layer values of one traced cycle."""
    spans, counts = cycle["spans"], cycle["counts"]
    values: dict[str, float] = {}
    for base, style in SPANS:
        span = spans.get(base, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        calls = span["calls"]
        if style == "ms":
            values[f"{base}_ms"] = 1e3 * span["total_s"] / calls if calls else 0.0
            values[f"{base}.self_ms"] = 1e3 * span["self_s"] / calls if calls else 0.0
        else:
            total = f"{base}.busy_s" if style == "busy" else f"{base}_s"
            values[total] = span["total_s"]
            values[f"{base}.self_s"] = span["self_s"]
        values[f"{base}.calls"] = calls
    maximum_of = spans.get("queueing.distributions.maximum_of", {}).get("calls", 0)
    distinct = cycle["distinct"].get("queueing.distributions.maximum_of", 0)
    values["queueing.distributions.maximum_of.distinct_ratio"] = (
        distinct / maximum_of if maximum_of else 0.0
    )
    for name, key, _ in COUNTS:
        values[name] = counts.get(key, 0)
    answered = sum(counts.get(k, 0) for k in ("memory_hits", "store_hits", "coalesced"))
    attempts = answered + counts.get("evaluations", 0)
    values["api.service.hit_ratio"] = answered / attempts if attempts else 0.0
    values["trace.spans"] = sum(span["calls"] for span in spans.values())
    return values


def end_to_end(outcome) -> dict[str, float]:
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "peak_rss_mb": statistics.median(outcome.rss_mb),
        "cold_ms": outcome.cold_ms,
        "rate_per_s": outcome.rate_per_s,
    }


def per_layer(outcome) -> dict[str, float]:
    cycles = [cycle_layers(cycle) for cycle in outcome.layers]
    values = {name: statistics.fmean(c[name] for c in cycles) for name in cycles[0]}
    values["trace.overhead_ms"] = outcome.traced_cold_ms - outcome.cold_ms
    return values


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(args, outcome) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "store_engine": outcome.store_engine,
        "grid_points": outcome.grid_points,
    }


def _print_profile(outcome) -> None:
    """Spans of the traced cycles by self time, as shares of the cycle's time."""
    cycle_s = statistics.fmean(cycle["cycle_s"] for cycle in outcome.layers)
    totals: dict[str, list[float]] = {}
    for cycle in outcome.layers:
        for name, span in cycle["spans"].items():
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += span["calls"] / len(outcome.layers)
            entry[1] += span["total_s"] / len(outcome.layers)
            entry[2] += span["self_s"] / len(outcome.layers)
    print(f"profile per traced cycle ({cycle_s:.4f} s of operations; a span waiting on")
    print("worker threads counts the wait as self time, their spans being roots):")
    for name, (calls, total, own) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        print(
            f"  {name:<40} calls {calls:>10.1f}  total {total:>9.4f} s  "
            f"self {own:>9.4f} s  self/cycle {own / cycle_s:>7.1%}"
        )


def run(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Context

    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        outcome = WORKLOADS[args.workload](
            Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), scratch=scratch)
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is using it
    tally = outcome.tally
    print("fingerprint " + json.dumps(fingerprint(args, outcome), sort_keys=True))
    named = {
        **outcome.named,
        "setup_s": (statistics.median(outcome.setup_s), "s", f"median of {len(outcome.setup_s)}"),
        "peak_rss_mb": (statistics.median(outcome.rss_mb), "MB", "peak resident set"),
        "error_ratio": (
            tally.error_ratio,
            "ratio",
            f"{tally.failed} failed, {tally.refused} refused, {tally.wrong} wrong "
            f"of {tally.attempted}",
        ),
    }
    for name, (value, unit, note) in named.items():
        print(f"metric {name} = {value:.6g} {unit} ({note})")
    print("counts per cycle " + json.dumps(outcome.counts, sort_keys=True))
    e2e = end_to_end(outcome)
    for name, value in e2e.items():
        print(f"end-to-end {name} = {value:.6g} {END_TO_END[name]}")
    if args.trace:
        _print_profile(outcome)
        values = per_layer(outcome)
        units = {name: unit for name, unit, _ in per_layer_specs()}
    else:
        values, units = e2e, END_TO_END
    result = {
        "correct": tally.errors == 0,
        "attempted": tally.attempted,
        "failed": tally.errors,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("paper-dashboard", "store-sweep", "serve-mixed")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
