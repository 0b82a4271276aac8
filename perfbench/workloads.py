"""The benchmark's three workloads.

Each workload generates its inputs from the seed, measures repeated cycles
until the run's time is spent, checks every answer, and returns a
:class:`Outcome`.  Every cycle starts cold (a fresh service, a fresh store
or a fresh daemon), so the cycles are alike.  Each in-process cycle runs
in its own function, so only one cycle's objects are alive at a time and
the process's peak memory is one cycle's.

Gated times are scaled to a reference host speed (``calibration.py``):
the in-process workloads split a cycle into short operations, the same
ones in the same order every cycle, and time the reference kernel before
each, so the kernel samples the host's speed as often as the operations
do; each cycle's times are scaled by that cycle's kernel mean, and the
run reports the median cycle.  Raw times are printed beside them.

* ``paper-dashboard`` -- a cold dashboard of the 17-scenario paper grid
  with all six backends (no store, the CLI's default execution and batch
  settings), run as one ``run_dashboard`` per scenario on a fresh
  service.  The model layers do nearly all the work.  Unlike one
  whole-grid call, MVA warm starts never cross scenarios.
* ``store-sweep`` -- a >= 10k-point nodes x input-size x jobs grid swept
  with ``aria`` + ``herodotou`` into a fresh store (bulk writes), then
  re-planned and replayed by a fresh service on the freshly opened store
  (bulk reads), both through one scheduler per phase in
  ``SWEEP_CHUNKS`` slices of the grid.  The store dominates; the
  vectorised models do little.  Its gated times are user-mode CPU time,
  not wall time: the kernel-mode time of creating 10k record files swung
  from 0.3 s to 2.3 s between identical cycles on the tuning host
  (ext4 in a VM), with the user-mode time steady, whether or not earlier
  stores were deleted or memory pre-touched.  The wall and the rest are
  printed (``sweep_write_s``, ``sweep_write_sys_s``).
* ``serve-mixed`` -- ``repro serve`` in its own process over a half
  pre-seeded store, driven closed-loop by 2 client threads (one connection
  each at a time; the daemon answers ``Connection: close``) with seeded
  random ``POST /predict`` calls over a ~400-scenario pool, sent in
  ``SERVE_SEGMENTS`` parts with the load paused for the reference kernel
  between them.  HTTP, JSON, admission and the cache/store lookups set
  the latency.

A *cold* operation is answered by evaluation, a *warm* one from the cache
or the store.  In ``serve-mixed`` a request is cold when its point was
neither pre-seeded nor requested before in that daemon's life.
"""

from __future__ import annotations

import functools
import gc
import http.client
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibration import SAMPLES_PER_PROBE, kernel_seconds, scaled
from measure import Tally, percentile, tail
from tracing import SpanRecorder, all_targets, install, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launcher.py"
#: Totals of every (scenario, backend) cell of a cold paper dashboard, and
#: under ``provenance`` the commit and call they were recorded with.
REFERENCE = HERE / "reference_paper_dashboard.json"

#: Set-up probes per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Cycles every run makes, however short ``--seconds`` is.
MIN_CYCLES = 2
#: Relative tolerance of analytic totals against the recorded reference.
#: Loose enough for warm-start removal (moves totals by ~1e-9) and a new
#: quadrature, far inside the accuracy baseline's 2-point drift bands.
REFERENCE_REL_TOL = 1e-3
STATIC_BACKENDS = ("aria", "herodotou")
SWEEP_NODES = 25
SWEEP_SIZES = 50
SWEEP_JOBS = (1, 2, 3, 4)
#: Slices the sweep's grid is written and replayed in (~0.2 s each).
SWEEP_CHUNKS = 20
SERVE_POOL = 400
SERVE_CLIENTS = 2
SERVE_REQUESTS = 2000
#: Parts each daemon's requests are sent in, the reference kernel timed
#: before each part (the load pauses for it).
SERVE_SEGMENTS = 20
WORKLOAD_NAMES = ("wordcount", "terasort", "grep")


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    scratch: Path


@dataclass
class Outcome:
    """What one run of a workload measured."""

    #: Scaled time of the work answered by evaluation: a cold dashboard or
    #: a cold sweep (median cycle), a request for a new point (median).
    cold_ms: float = 0.0
    #: Points answered per second of scaled operation time.
    rate_per_s: float = 0.0
    #: ``cold_ms`` over the traced cycles of ``--trace 1``.
    traced_cold_ms: float = 0.0
    #: Scaled set-up times.
    setup_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    #: The workload's own metrics by name: ``name -> (value, unit, note)``.
    named: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    #: The program's counts per cycle (service stats, records, iterations).
    counts: dict[str, float] = field(default_factory=dict)
    #: Traced runs: per-layer aggregates of each traced cycle.
    layers: list[dict] = field(default_factory=list)
    grid_points: int = 0
    store_engine: str = "none"


def _cycles(ctx: Context):
    """Cycle indices until the run's time is spent (at least MIN_CYCLES)."""
    deadline = time.perf_counter() + ctx.seconds
    cycle = 0
    while cycle < MIN_CYCLES or time.perf_counter() < deadline:
        yield cycle
        cycle += 1


def _traced(ctx: Context, cycle: int) -> bool:
    # Traced runs alternate untraced and traced cycles, so the same run
    # measures the tracing overhead.
    return ctx.trace and cycle % 2 == 1


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _kernels(count: int = SAMPLES_PER_PROBE) -> list[float]:
    return [kernel_seconds() for _ in range(count)]


class SetupProbe:
    """Times fresh processes from start until ready for the first operation.

    Workloads take one sample per cycle, so the samples spread over the
    whole run like the operations they accompany.  Each is scaled by the
    reference kernel timed just before it.
    """

    def __init__(self, ctx: Context, module: str, backends, with_store: bool) -> None:
        store = str(ctx.scratch / "probe-store") if with_store else "-"
        self._command = [sys.executable, str(LAUNCHER), "probe", module, store, *backends]
        self.times: list[float] = []
        self.raw: list[float] = []

    def sample(self) -> None:
        command = self._command
        kernel = _kernels()
        start = time.perf_counter()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        self.raw.append(elapsed)
        self.times.append(scaled(elapsed, kernel))

    def finish(self, out: "Outcome") -> None:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        out.setup_s = self.times
        out.named["setup_raw_s"] = (
            statistics.median(self.raw), "s", f"median of {len(self.raw)}, unscaled, not gated"
        )


def _mean_counts(per_cycle: list[dict[str, float]]) -> dict[str, float]:
    keys = sorted({key for counts in per_cycle for key in counts})
    return {key: statistics.fmean(c.get(key, 0) for c in per_cycle) for key in keys}


class _Tracer:
    """Installs a fresh recorder for one traced in-process cycle."""

    def __init__(self, enabled: bool) -> None:
        self.recorder = SpanRecorder() if enabled else None
        self._restore = None

    def __enter__(self) -> "_Tracer":
        if self.recorder is not None:
            self._restore = install(self.recorder, all_targets())
        return self

    def __exit__(self, *exc) -> None:
        if self._restore is not None:
            self._restore()

    def summary(self) -> dict | None:
        if self.recorder is None:
            return None
        return {
            "spans": summarize(self.recorder.spans),
            "distinct": {n: len(keys) for n, keys in self.recorder.distinct.items()},
        }


# -- paper-dashboard ------------------------------------------------------------


def paper_suite(seed: int):
    """The paper grid and the six backends, in a seed-shuffled order.

    Every result is a function of its scenario alone, so the order is the
    only thing the seed may change without invalidating the reference.
    """
    from repro.api.dashboard import DASHBOARD_BACKENDS, paper_grid
    from repro.api.scenario import ScenarioSuite

    rng = random.Random(seed)
    grid = paper_grid()
    scenarios = list(grid.scenarios)
    rng.shuffle(scenarios)
    backends = list(DASHBOARD_BACKENDS)
    rng.shuffle(backends)
    suite = ScenarioSuite(name=grid.name, scenarios=tuple(scenarios), description=grid.description)
    return suite, backends


def _check_dashboard(run, suite, backends, reference, tally: Tally) -> None:
    rows = run.outcome.result.rows
    for scenario, row in zip(suite.scenarios, rows):
        expected = reference[scenario.cache_key()]
        for name in backends:
            result = row.get(name)
            if result is None or not result.ok:
                tally.add("failed")
            elif name == "simulator":
                tally.add("ok" if result.total_seconds == expected[name] else "wrong")
            else:
                error = abs(result.total_seconds - expected[name]) / abs(expected[name])
                tally.add("ok" if error <= REFERENCE_REL_TOL else "wrong")
    if not run.report.complete:
        tally.add("wrong")


def _dashboard_cycle(suite, backends, reference, tally: Tally, traced: bool):
    """One cold dashboard, a scenario at a time.

    Returns its seconds, the kernel times taken before each scenario, the
    program's counts and the trace.
    """
    from repro.api.dashboard import run_dashboard
    from repro.api.scenario import ScenarioSuite
    from repro.api.service import PredictionService

    # The previous cycle's cyclic garbage goes first, so the peak is one cycle's.
    gc.collect()
    seconds, kernel, counts = 0.0, [], {}
    with _Tracer(traced) as tracer:
        for scenario in suite.scenarios:
            one = ScenarioSuite(name=suite.name, scenarios=(scenario,))
            service = PredictionService(backends=backends, execution="thread")
            kernel.append(kernel_seconds())
            start = time.perf_counter()
            run = run_dashboard(one, backends=backends, service=service)
            seconds += time.perf_counter() - start
            _check_dashboard(run, one, backends, reference, tally)
            stats = service.stats().to_dict()
            stats["mva_iterations"] = sum(
                result.metadata.get("iterations", 0)
                for row in run.outcome.result.rows
                for result in row.values()
            )
            for key, value in stats.items():
                counts[key] = counts.get(key, 0) + value
    return seconds, kernel, counts, tracer.summary()


def paper_dashboard(ctx: Context) -> Outcome:
    suite, backends = paper_suite(ctx.seed)
    reference = json.loads(REFERENCE.read_text())["totals"]
    out = Outcome(grid_points=len(suite.scenarios) * len(backends))
    setup = SetupProbe(ctx, "repro.api.dashboard", backends, with_store=False)
    counts, cold_s, raw_s, traced_s = [], [], [], []
    for cycle in _cycles(ctx):
        setup.sample()
        traced = _traced(ctx, cycle)
        seconds, kernel, cycle_counts, summary = _dashboard_cycle(
            suite, backends, reference, out.tally, traced
        )
        if traced:
            traced_s.append(scaled(seconds, kernel))
            out.layers.append({**summary, "counts": cycle_counts, "cycle_s": seconds})
            continue
        counts.append(cycle_counts)
        cold_s.append(scaled(seconds, kernel))
        raw_s.append(seconds)
    out.cold_ms = statistics.median(cold_s) * 1e3
    out.rate_per_s = out.grid_points / statistics.median(cold_s)
    if traced_s:
        out.traced_cold_ms = statistics.median(traced_s) * 1e3
    setup.finish(out)
    out.rss_mb = [_self_rss_mb()]
    out.counts = _mean_counts(counts)
    out.named["dashboard_s"] = (
        statistics.median(raw_s), "s", f"median of {len(raw_s)} cold dashboards, unscaled"
    )
    return out


# -- store-sweep ----------------------------------------------------------------


def sweep_suite(seed: int):
    """A seeded nodes x input-size x jobs grid of >= 5,000 scenarios."""
    from repro.api.scenario import Scenario, ScenarioSuite

    rng = random.Random(seed)
    base = Scenario(workload="wordcount")
    nodes = sorted(rng.sample(range(2, 65), SWEEP_NODES))
    sizes = sorted(rng.sample(range(1, 257), SWEEP_SIZES))
    scenarios = [
        base.with_updates(num_nodes=n, input_size_bytes=size << 28, num_jobs=jobs)
        for n in nodes
        for size in sizes
        for jobs in SWEEP_JOBS
    ]
    rng.shuffle(scenarios)
    return ScenarioSuite(name="store-sweep", scenarios=tuple(scenarios))


def _same(left, right) -> bool:
    return (
        left.total_seconds == right.total_seconds
        and left.phases == right.phases
        and left.metadata == right.metadata
    )


def _count_records(store_dir: Path) -> int:
    records = store_dir / "records"
    if not records.is_dir():
        return 0
    return sum(len(os.listdir(shard)) for shard in records.iterdir())


def _chunks(suite, count: int):
    """``suite`` in ``count`` consecutive slices."""
    from repro.api.scenario import ScenarioSuite

    scenarios = suite.scenarios
    bounds = [len(scenarios) * k // count for k in range(count + 1)]
    return [
        ScenarioSuite(name=f"{suite.name}-{k}", scenarios=scenarios[bounds[k] : bounds[k + 1]])
        for k in range(count)
    ]


def _user_s() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def _timed(steps, kernel: list[float]):
    """Run each step, timing the reference kernel into ``kernel`` before it.

    Returns the steps' results, their wall seconds and their user-mode CPU
    seconds (all threads), each in total.
    """
    results, wall, user = [], 0.0, 0.0
    for step in steps:
        kernel.append(kernel_seconds())
        start, cpu = time.perf_counter(), _user_s()
        results.append(step())
        wall += time.perf_counter() - start
        user += _user_s() - cpu
    return results, wall, user


def _sweep_cycle(chunks, backends, grid_points: int, store_dir: Path, tally: Tally, traced: bool):
    """A cold sweep into ``store_dir`` and its warm replay by a fresh service.

    Each phase opens the store, then runs the grid slice by slice through
    one scheduler.  Returns each phase's wall and user-mode CPU seconds as
    ``{"write_s", "read_s", "write_user_s", "read_user_s"}``, the kernel
    times taken between steps, the program's counts and the trace.
    """
    from repro.api.service import PredictionService
    from repro.api.sweep import SweepScheduler

    def opened():
        return SweepScheduler(PredictionService(backends=backends, store=store_dir))

    def replay(scheduler, chunk):
        return scheduler.run(chunk, backends, plan=scheduler.plan(chunk, backends))

    # The previous cycle's cyclic garbage goes first, so the peak is one cycle's.
    gc.collect()
    kernel: list[float] = []
    with _Tracer(traced) as tracer:
        (scheduler,), *opening = _timed([opened], kernel)
        steps = [functools.partial(scheduler.run, chunk, backends) for chunk in chunks]
        colds, *writing = _timed(steps, kernel)
        (scheduler,), *reopening = _timed([opened], kernel)
        steps = [functools.partial(replay, scheduler, chunk) for chunk in chunks]
        warms, *reading = _timed(steps, kernel)
    evaluations = [sum(run.stats.evaluations for run in runs) for runs in (colds, warms)]
    if evaluations != [grid_points, 0]:
        tally.add("wrong")
    for cold, warm in zip(colds, warms):
        for cold_row, warm_row in zip(cold.result.rows, warm.result.rows):
            for name in backends:
                if name not in cold_row or not cold_row[name].ok:
                    tally.add("failed")
                elif name not in warm_row or not warm_row[name].ok:
                    tally.add("failed")
                else:
                    tally.add("ok" if _same(cold_row[name], warm_row[name]) else "wrong")
    counts: dict[str, float] = {}
    for run in (*colds, *warms):
        for key, value in run.stats.to_dict().items():
            counts[key] = counts.get(key, 0) + value
    counts["warm_evaluations"] = evaluations[1]
    counts["store_records"] = _count_records(store_dir)
    times = {
        "write_s": opening[0] + writing[0],
        "read_s": reopening[0] + reading[0],
        "write_user_s": opening[1] + writing[1],
        "read_user_s": reopening[1] + reading[1],
    }
    return times, kernel, counts, tracer.summary()


def store_sweep(ctx: Context) -> Outcome:
    from repro.api.store import detect_store_format

    suite = sweep_suite(ctx.seed)
    chunks = _chunks(suite, SWEEP_CHUNKS)
    backends = list(STATIC_BACKENDS)
    out = Outcome(grid_points=len(suite.scenarios) * len(backends))
    setup = SetupProbe(ctx, "repro.api.sweep", backends, with_store=True)
    counts, writes, cycles, traced_writes, walls = [], [], [], [], []
    for cycle in _cycles(ctx):
        setup.sample()
        traced = _traced(ctx, cycle)
        # Stores are removed with the scratch directory when the run ends:
        # deleting 10k files mid-run slows the next cycle's writes.
        store_dir = ctx.scratch / f"store-{cycle}"
        times, kernel, cycle_counts, summary = _sweep_cycle(
            chunks, backends, out.grid_points, store_dir, out.tally, traced
        )
        out.store_engine = detect_store_format(store_dir) or "none"
        user = scaled(times["write_user_s"], kernel)
        if traced:
            traced_writes.append(user)
            cycle_s = times["write_s"] + times["read_s"]
            out.layers.append({**summary, "counts": cycle_counts, "cycle_s": cycle_s})
            continue
        counts.append(cycle_counts)
        writes.append(user)
        cycles.append(scaled(times["write_user_s"] + times["read_user_s"], kernel))
        walls.append(times)
    out.cold_ms = statistics.median(writes) * 1e3
    out.rate_per_s = 2 * out.grid_points / statistics.median(cycles)
    if traced_writes:
        out.traced_cold_ms = statistics.median(traced_writes) * 1e3
    setup.finish(out)
    out.rss_mb = [_self_rss_mb()]
    out.counts = _mean_counts(counts)
    note = f"median of {len(walls)} cycles, unscaled"
    for name, phase in (("sweep_write_s", "cold sweeps"), ("sweep_read_s", "warm replays")):
        value = statistics.median(times[name.removeprefix("sweep_")] for times in walls)
        out.named[name] = (value, "s", f"{phase}, {note}")
    out.named["sweep_write_sys_s"] = (
        statistics.median(t["write_s"] - t["write_user_s"] for t in walls), "s",
        f"cold sweeps' wall time outside user mode, {note}, not gated",
    )
    return out


# -- serve-mixed ----------------------------------------------------------------


def serve_pool(seed: int):
    """~400 seeded scenarios x the static backends, and the seeded half."""
    from repro.api.scenario import Scenario

    rng = random.Random(seed)
    scenarios, seen = [], set()
    while len(scenarios) < SERVE_POOL:
        scenario = Scenario(
            workload=rng.choice(WORKLOAD_NAMES),
            num_nodes=rng.randint(2, 32),
            input_size_bytes=rng.randint(1, 128) << 28,
            num_reduces=rng.randint(1, 16),
            num_jobs=rng.randint(1, 4),
        )
        if scenario.cache_key() not in seen:
            seen.add(scenario.cache_key())
            scenarios.append(scenario)
    points = [(s, name) for s in scenarios for name in STATIC_BACKENDS]
    seeded = set(rng.sample(range(len(points)), len(points) // 2))
    return points, seeded


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


class Daemon:
    """``repro serve`` in its own process, started through the launcher."""

    def __init__(self, store_dir: Path, trace_out: Path | None) -> None:
        command = [
            sys.executable, str(LAUNCHER), "serve", str(trace_out or ""),
            "serve", "--port", "0", "--store", str(store_dir),
        ]
        for name in STATIC_BACKENDS:
            command += ["--backend", name]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.lines: list[str] = []
        self.port: int | None = None
        self.ready = threading.Event()
        self.ready_s = 0.0
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.lines.append(line)
            if self.port is None and line.startswith("serving on http://"):
                self.ready_s = time.perf_counter() - self.started
                self.port = int(line.strip().rsplit(":", 1)[1])
                self.ready.set()
        self.ready.set()

    def wait_ready(self, timeout: float = 60.0) -> None:
        if not self.ready.wait(timeout) or self.port is None:
            raise RuntimeError("daemon did not start: " + "".join(self.lines[-20:]))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def get(self, path: str) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return json.loads(response.read())
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGTERM (the daemon drains), then wait; kill if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self._reader.join(timeout=10)
        if self.proc.returncode != 0:
            raise RuntimeError("daemon exited with " + str(self.proc.returncode))


def _drive(port: int, bodies: list[bytes], sequence: list[int], seeded: set[int], requested):
    """Closed-loop load: each client sends its next request after the reply.

    ``requested`` holds the points the daemon was asked for before; a
    request is cold when its point is neither seeded nor in it.
    """
    lock = threading.Lock()
    samples: list[tuple[int, bool, float, int | None, bytes]] = []
    barrier = threading.Barrier(SERVE_CLIENTS + 1)

    def client(jobs: list[int]) -> None:
        barrier.wait()
        for index in jobs:
            with lock:
                cold = index not in seeded and index not in requested
                requested.add(index)
            start = time.perf_counter()
            try:
                connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                try:
                    connection.request(
                        "POST", "/predict", body=bodies[index],
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    status, data = response.status, response.read()
                finally:
                    connection.close()
            except OSError:
                status, data = None, b""
            samples.append((index, cold, time.perf_counter() - start, status, data))

    threads = [
        threading.Thread(target=client, args=(sequence[k::SERVE_CLIENTS],))
        for k in range(SERVE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return samples, time.perf_counter() - start


def serve_mixed(ctx: Context) -> Outcome:
    from repro.api.service import PredictionService
    from repro.api.store import detect_store_format

    points, seeded = serve_pool(ctx.seed)
    backends = list(STATIC_BACKENDS)
    template = ctx.scratch / "seeded-store"
    seeding = PredictionService(backends=backends, store=template)
    plain = PredictionService(backends=backends)
    expected = []
    for index, (scenario, name) in enumerate(points):
        service = seeding if index in seeded else plain
        expected.append(_canonical(service.evaluate(scenario, name).to_dict()))
    bodies = [
        json.dumps({"scenario": scenario.to_dict(), "backend": name}).encode()
        for scenario, name in points
    ]
    out = Outcome(grid_points=len(points))
    counts, rates, cold_ms, traced_cold_ms = [], [], [], []
    raw_setup, raw_rates, latencies, warm_ms = [], [], [], []
    for cycle in _cycles(ctx):
        traced = _traced(ctx, cycle)
        rng = random.Random(f"{ctx.seed}:{cycle}")
        sequence = [rng.randrange(len(points)) for _ in range(SERVE_REQUESTS)]
        store_dir = ctx.scratch / f"serve-{cycle}"
        shutil.copytree(template, store_dir)
        trace_out = ctx.scratch / f"trace-{cycle}.json" if traced else None
        kernel = _kernels()
        daemon = Daemon(store_dir, trace_out)
        samples, elapsed, requested = [], 0.0, set()
        try:
            daemon.wait_ready()
            setup_s = scaled(daemon.ready_s, kernel)
            for part in range(SERVE_SEGMENTS):
                kernel.append(kernel_seconds())
                size = SERVE_REQUESTS // SERVE_SEGMENTS
                jobs = sequence[part * size : (part + 1) * size]
                part_samples, part_s = _drive(daemon.port, bodies, jobs, seeded, requested)
                samples += part_samples
                elapsed += part_s
            stats = daemon.get("/stats")
            rss = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        out.store_engine = detect_store_format(store_dir) or "none"
        cycle_counts = {**stats["service"], "store_records": _count_records(store_dir)}
        cycle_counts["cold_requests"] = sum(1 for sample in samples if sample[1])
        for index, _, _, status, data in samples:
            if status == 200:
                try:
                    same = _canonical(json.loads(data)["result"]) == expected[index]
                except (ValueError, KeyError, TypeError):
                    same = False
                out.tally.add("ok" if same else "wrong")
            else:
                out.tally.add("refused" if status in (429, 503) else "failed")
        if traced:
            traced_cold_ms += [scaled(s, kernel) * 1e3 for _, cold, s, _, _ in samples if cold]
            summary = json.loads(trace_out.read_text())
            out.layers.append({**summary, "counts": cycle_counts, "cycle_s": elapsed})
            continue
        counts.append(cycle_counts)
        out.setup_s.append(setup_s)
        raw_setup.append(daemon.ready_s)
        out.rss_mb.append(rss)
        for _, cold, seconds, _, _ in samples:
            if cold:
                cold_ms.append(scaled(seconds, kernel) * 1e3)
            else:
                warm_ms.append(seconds * 1e3)
            latencies.append(seconds * 1e3)
        rates.append(len(samples) / scaled(elapsed, kernel))
        raw_rates.append(len(samples) / elapsed)
    out.counts = _mean_counts(counts)
    out.cold_ms = statistics.median(cold_ms)
    out.rate_per_s = statistics.median(rates)
    if traced_cold_ms:
        out.traced_cold_ms = statistics.median(traced_cold_ms)
    out.named["setup_raw_s"] = (
        statistics.median(raw_setup), "s", f"median of {len(raw_setup)}, unscaled, not gated"
    )
    n = len(latencies)
    note = f"{n} requests, median of {len(raw_rates)} daemons, unscaled"
    out.named["serve_rps"] = (statistics.median(raw_rates), "req/s", note)
    out.named["serve_p50_ms"] = (percentile(latencies, 50), "ms", f"{n} requests")
    value, label = tail(latencies)
    out.named["serve_p99_ms"] = (value, "ms", f"{label} of {n} requests")
    out.named["warm_ms"] = (
        statistics.median(warm_ms), "ms", f"median of {len(warm_ms)} cache/store answers, not gated"
    )
    return out


WORKLOADS = {
    "paper-dashboard": paper_dashboard,
    "store-sweep": store_sweep,
    "serve-mixed": serve_mixed,
}
