"""The four benchmark workloads.

Each workload is a function ``(ctx) -> Outcome``.  Untraced (``ctx.trace``
false) it fills the end-to-end metrics; traced it runs the same work with
spans on and fills the per-layer ledger, including the tracing overhead
against untraced units of the same work in the same run.

A *unit* is one timed piece of work: a sweep pass, or a ``serve_zipf``
*episode* — a fresh store and a fresh ``repro serve`` process answering one
seeded request sequence, so that every episode sees the same share of cold
misses however fast the host is.  Latency is what a caller waits for: a
pass on the sweep workloads, one ``/v1/run`` request on ``serve_zipf``.
Unit walls and latencies are reported raw and normalized to a reference
host speed (see :mod:`speed`).
"""

from __future__ import annotations

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
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from spans import Hooks, Ledger, Recorder
from speed import Sampler

HERE = os.path.dirname(os.path.abspath(__file__))

PAPER_PROGRAMS = ("ARC2D", "BDNA", "DYFESM", "FLO52", "SPEC77", "TRFD")
PAPER_LATENCIES = (1, 50, 100)
PAPER_MACHINES = ("ref", "dva", "dva-nobypass")

AXIS_PROGRAMS = ("TRFD", "DYFESM", "BDNA")
AXIS_LATENCIES = (1, 100)
AXES = (("lanes", (1, 4)), ("ports", (1, 2)), ("avdq", (4, 256)), ("vadq", (2, 16)))
POOL_JOBS = 2

SERVE_LATENCIES = (1, 10, 50, 100)
SERVE_MACHINES = (
    "ref", "dva", "dva-nobypass", "ref@lanes=2", "dva@lanes=2", "dva@ports=2",
    "dva@avdq=16", "dva@iq=4",
)
SERVE_ZIPF_S = 1.1
SERVE_EPISODE_REQUESTS = 1000
SERVE_CONNECTIONS = 2
SERVE_JOBS = 1

CLUSTER_WORKERS = 2

SETUP_PROBES = 5
MIN_UNITS = 3  # sweep passes per measured phase, at the least
TAIL_BEYOND = 10  # samples a reported tail percentile must have beyond it

# Seconds between host-speed samples taken by a background thread while this
# process waits; sparser on serve_zipf, whose clients need the same lock.
SAMPLE_PERIOD = 0.05
PROBE_SAMPLE_PERIOD = 0.02
SERVE_SAMPLE_PERIOD = 0.1


def axis_label(machine: str, overrides: Sequence[Tuple[str, object]]) -> str:
    """The reference-table name of a machine with axis overrides."""
    if not overrides:
        return machine
    return machine + "@" + ",".join(f"{k}={v}" for k, v in sorted(overrides))


def serve_items() -> List[Tuple[str, int, str]]:
    return [(p, lat, m) for p in PAPER_PROGRAMS for lat in SERVE_LATENCIES for m in SERVE_MACHINES]


def serve_sequence(seed: int, episode: int) -> List[Tuple[str, int, str]]:
    """The requests of one episode: seeded Zipf draws over :func:`serve_items`."""
    rng = random.Random(f"serve/{seed}/{episode}")
    items = serve_items()
    rng.shuffle(items)  # which cells are popular is part of the input
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S for rank in range(len(items))]
    return rng.choices(items, weights=weights, k=SERVE_EPISODE_REQUESTS)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``values`` by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def tail_quantile(samples: int) -> float:
    """The highest quantile, up to p99, with at least 10 samples beyond it (at least p50)."""
    return max(0.5, min(0.99, 1.0 - TAIL_BEYOND / samples))


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it has reaped, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    raw: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, float] = field(default_factory=dict)
    parallelism: Dict[str, int] = field(default_factory=dict)


class Context:
    """What every workload gets: seed, budget, scratch space and the checks."""

    def __init__(self, scratch: str, seed: int, seconds: float, trace: bool,
                 golden: Dict[str, Dict[str, int]], reference: Dict[str, Dict[str, int]]) -> None:
        self.scratch = scratch
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.golden = golden
        self.reference = reference
        self.errors: List[str] = []
        self.span_dir = self.fresh_dir("spans")
        self.recorder = Recorder(self.span_dir, owner_pid=os.getpid())
        self.child_env = dict(os.environ)

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix + "-", dir=self.scratch)

    def traced_env(self) -> Dict[str, str]:
        """Environment for a child interpreter that records spans."""
        env = dict(self.child_env)
        env["PYTHONPATH"] = os.path.join(HERE, "hook") + os.pathsep + env["PYTHONPATH"]
        env["PERFBENCH_SPAN_DIR"] = self.span_dir
        return env

    # -- correctness -------------------------------------------------------------------

    def check(self, program: str, latency: int, machine: str, values: Dict[str, object]) -> bool:
        """One cell against the golden snapshot or the reference table."""
        key = f"{program}/{latency}/{machine}"
        expected = self.golden.get(key) or self.reference.get(key)
        if expected is None:
            self.errors.append(f"{key}: no expected values recorded")
            return False
        actual = {name: values.get(name) for name in expected}
        if actual != expected:
            self.errors.append(f"{key}: expected {expected}, got {actual}")
            return False
        return True

    def check_sweep(self, sweep, cells) -> int:
        """Failures among a sweep's results, matched to the cells that asked for them."""
        failed = 0
        results = list(sweep)
        if len(results) != len(cells):
            self.errors.append(f"sweep returned {len(results)} results for {len(cells)} cells")
            return len(cells)
        for (program, latency, machine), result in zip(cells, results):
            if (result.program, result.latency) != (program, latency):
                self.errors.append(
                    f"{program}/{latency}/{machine}: result is for "
                    f"{result.program}/{result.latency}")
                failed += 1
            elif not self.check(program, latency, machine, result.detail):
                failed += 1
        return failed

    # -- set-up ------------------------------------------------------------------------

    def probe(self, command: List[str], ready: Callable[[str], bool],
              stop: Callable[[subprocess.Popen], None]) -> Tuple[float, float]:
        """(raw, normalized) seconds from process start until ``ready`` accepts a line."""
        speed = Sampler(period=PROBE_SAMPLE_PERIOD)
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=self.child_env)
        try:
            try:
                line = proc.stdout.readline()
                wall = time.perf_counter() - start
            finally:
                factor = speed.finish()
            if not ready(line):
                raise RuntimeError(f"set-up probe {command[1:]} printed {line!r}")
            stop(proc)
        finally:
            reap(proc)
        return wall, wall * factor


def reap(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """Make sure ``proc`` has ended: interrupt, then kill, and always wait."""
    try:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    finally:
        if proc.stdout is not None:
            proc.stdout.close()


def python_probe(ctx: Context, *args: str) -> Callable[[], Tuple[float, float]]:
    """A set-up probe of ``perfbench/probe.py`` with ``args``."""
    command = [sys.executable, os.path.join(HERE, "probe.py"), *args]
    return lambda: ctx.probe(command, lambda line: line.strip() == "ready", lambda p: p.wait())


# -- phases ----------------------------------------------------------------------------


Unit = Callable[[Sampler], float]
Walls = List[Tuple[float, float]]


def timed(unit: Unit, period: float) -> Tuple[float, float]:
    """Run ``unit`` (which returns its wall); (raw, normalized) wall seconds."""
    speed = Sampler(period)
    try:
        wall = unit(speed)
    finally:
        factor = speed.finish()
    return wall, wall * factor


def run_units(budget: float, unit: Unit, period: float, minimum: int = MIN_UNITS) -> Walls:
    """Run ``unit`` until ``budget`` raw seconds are measured; (raw, normalized) walls."""
    walls: Walls = []
    while len(walls) < minimum or sum(raw for raw, _ in walls) < budget:
        walls.append(timed(unit, period))
    return walls


def measure(budget: float, unit: Unit, probe: Callable[[], Tuple[float, float]],
            period: float) -> Tuple[Walls, Walls]:
    """The end-to-end measurement of a sweep workload: unit walls and set-up probes.

    One unit runs first, unmeasured, so every measured pass sees a warm
    process (the cold start is what ``setup_s`` measures).  The set-up probes
    run between the first units, so they see the same host conditions.
    """
    unit(Sampler())
    walls: Walls = []
    setup: Walls = []
    while len(walls) < MIN_UNITS or sum(raw for raw, _ in walls) < budget:
        if len(setup) < SETUP_PROBES:
            setup.append(probe())
        walls.append(timed(unit, period))
    while len(setup) < SETUP_PROBES:
        setup.append(probe())
    return walls, setup


def alternate(budget: float, plain: Unit, traced: Unit, period: float
              ) -> Tuple[Walls, Walls]:
    """Interleave untraced and traced units, so both see the same host conditions.

    One untraced unit runs first and is not counted: the first unit of a
    process is slower, and would otherwise weigh on one side only.
    """
    timed(plain, period)
    plain_walls: Walls = []
    traced_walls: Walls = []
    while len(traced_walls) < MIN_UNITS or sum(r for r, _ in plain_walls + traced_walls) < budget:
        plain_walls.append(timed(plain, period))
        traced_walls.append(timed(traced, period))
    return plain_walls, traced_walls


def timing_metrics(out: Outcome, cells: List[int], units: Walls, latencies: Walls,
                   setup: Walls) -> None:
    """The end-to-end timings, normalized (``metrics``) and raw (``raw``).

    ``units`` are (raw, normalized) walls of the measured units, which
    completed ``cells[i]`` cells each; ``latencies`` are the (raw,
    normalized) latencies a caller waited for.
    """
    tail = tail_quantile(len(latencies))
    for index, into in ((1, out.metrics), (0, out.raw)):
        waits = [latency[index] for latency in latencies]
        into["cells_per_s"] = statistics.median(n / unit[index] for n, unit in zip(cells, units))
        into["p50_ms"] = 1000.0 * statistics.median(waits)
        into["tail_ms"] = 1000.0 * nearest_rank(waits, tail)
        into["setup_s"] = statistics.median(probe[index] for probe in setup)
    out.samples.update(latencies=len(latencies), setup_probes=len(setup), tail_quantile=tail,
                       beyond_tail=len(latencies) - int(-(-len(latencies) * tail // 1)))


def sweep_metrics(out: Outcome, cells_per_unit: int, walls: Walls, setup: Walls) -> None:
    """Sweep workloads: a caller waits for a whole pass."""
    timing_metrics(out, [cells_per_unit] * len(walls), walls, walls, setup)
    out.samples.update(passes=len(walls))


def ledger_metrics(spans, traced_walls: Walls, plain_walls: Walls) -> Dict[str, float]:
    """Every per-layer metric that spans give, per unit (pass or episode).

    Span times are raw host time; the tracing overhead compares normalized
    walls of traced and untraced units.
    """
    ledger = Ledger(spans, os.getpid())
    per = 1.0 / len(traced_walls)
    m: Dict[str, float] = {
        "trace.build_ms": ledger.ms("trace.build") * per,
        "trace.builds": ledger.calls["trace.build"] * per,
        "trace.share": ledger.share("trace.build"),
        "core.assemble_ms": ledger.ms("core.assemble") * per,
        "core.assemble_share": ledger.share("core.assemble"),
        "core.dispatch_self_ms": ledger.ms("core.run", "core.run_batch", "core.simulate") * per,
        "store.key_ms": ledger.ms("store.key") * per,
        "store.get_ms": ledger.ms("store.get") * per,
        "store.gets": ledger.calls["store.get"] * per,
        "store.hit_ratio": (ledger.counts["store.get"] / ledger.calls["store.get"]
                            if ledger.calls["store.get"] else 0.0),
        "store.put_ms": ledger.ms("store.put") * per,
        "store.puts": ledger.calls["store.put"] * per,
        "store.index_ms": ledger.ms("store.index") * per,
        "cluster.prepare_ms": ledger.ms("cluster.prepare") * per,
        "cluster.wait_ms": ledger.ms("cluster.wait") * per,
        "cluster.assemble_ms": ledger.ms("cluster.assemble") * per,
        "bench.tracing_overhead": (statistics.median(n for _, n in traced_walls)
                                   / statistics.median(n for _, n in plain_walls)),
        "bench.accounted_share": ledger.own_self_s / sum(r for r, _ in traced_walls),
    }
    for machine in ("refarch", "dva"):
        name = f"{machine}.run"
        kinstr = ledger.counts[name] / 1000.0
        m[f"{machine}.run_ms"] = ledger.ms(name) * per
        m[f"{machine}.runs"] = ledger.calls[name] * per
        m[f"{machine}.us_per_kinstr"] = 1e6 * ledger.self_s[name] / kinstr if kinstr else 0.0
    return m


# -- paper_grid_cold -------------------------------------------------------------------


def paper_grid_cold(ctx: Context) -> Outcome:
    """The golden 54-cell grid through a fresh serial Runner and store per pass."""
    from repro import ResultStore, Runner, SweepSpec

    rng = random.Random(f"paper/{ctx.seed}")
    out = Outcome(parallelism={"runner_jobs": 1})

    def one_pass(speed: Sampler) -> float:
        spec = SweepSpec(
            programs=tuple(rng.sample(PAPER_PROGRAMS, len(PAPER_PROGRAMS))),
            latencies=tuple(rng.sample(PAPER_LATENCIES, len(PAPER_LATENCIES))),
            architectures=tuple(rng.sample(PAPER_MACHINES, len(PAPER_MACHINES))),
        )
        cells = [(c.program, c.latency, c.architecture) for c in spec.cells()]
        store_dir = ctx.fresh_dir("store")
        start = time.perf_counter()
        sampling = speed.spent
        with Runner(jobs=1, store=ResultStore(store_dir)) as runner:
            sweep = runner.run(spec)
        # The cells run in this thread, so host-speed sampling paused them.
        wall = time.perf_counter() - start - (speed.spent - sampling)
        shutil.rmtree(store_dir)
        out.attempted += len(cells)
        out.failed += ctx.check_sweep(sweep, cells)
        return wall

    cells = len(PAPER_PROGRAMS) * len(PAPER_LATENCIES) * len(PAPER_MACHINES)
    if not ctx.trace:
        probe_store = ctx.fresh_dir("probe")
        walls, setup = measure(ctx.seconds, one_pass, python_probe(ctx, "sweep", probe_store),
                               SAMPLE_PERIOD)
        sweep_metrics(out, cells, walls, setup)
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        return out

    hooks = Hooks(ctx.recorder)

    def traced_pass(speed: Sampler) -> float:
        hooks.install()
        try:
            return one_pass(speed)
        finally:
            hooks.uninstall()

    # Speed samples only around each pass (period 0): a sampler thread would
    # run inside the spans of the cells it pauses.
    plain, traced = alternate(ctx.seconds, one_pass, traced_pass, 0.0)
    out.metrics.update(ledger_metrics(ctx.recorder.drain(), traced, plain))
    out.samples.update(traced_passes=len(traced), untraced_passes=len(plain))
    return out


# -- axis_sweep_pool -------------------------------------------------------------------


def axis_sweep_pool(ctx: Context) -> Outcome:
    """A storeless DVA design-space grid, pass after pass on one long-lived pool."""
    from repro import Runner, SweepSpec

    rng = random.Random(f"axis/{ctx.seed}")

    def make_spec() -> "SweepSpec":
        return SweepSpec(
            programs=tuple(rng.sample(AXIS_PROGRAMS, len(AXIS_PROGRAMS))),
            latencies=tuple(rng.sample(AXIS_LATENCIES, len(AXIS_LATENCIES))),
            architectures=("dva",),
            axes=tuple((name, tuple(rng.sample(values, len(values)))) for name, values in AXES),
        )

    cells_per_pass = len(make_spec())

    def one_pass(runner: "Runner") -> float:
        spec = make_spec()
        cells = [(c.program, c.latency, axis_label(c.architecture, c.overrides))
                 for c in spec.cells()]
        start = time.perf_counter()
        sweep = runner.run(spec)
        wall = time.perf_counter() - start
        out.attempted += len(cells)
        out.failed += ctx.check_sweep(sweep, cells)
        return wall

    with Runner(jobs=POOL_JOBS) as runner:
        out = Outcome(parallelism={"pool_jobs_requested": POOL_JOBS,
                                   "pool_jobs_effective": runner.effective_jobs})
        if not ctx.trace:
            walls, setup = measure(ctx.seconds, lambda speed: one_pass(runner),
                                   python_probe(ctx, "pool"), SAMPLE_PERIOD)
            sweep_metrics(out, cells_per_pass, walls, setup)
            runner.close()  # reap the workers, so their peak memory is counted
            out.metrics["peak_rss_mb"] = peak_rss_mb()
            return out
        plain = run_units(ctx.seconds / 2, lambda speed: one_pass(runner), SAMPLE_PERIOD)

    # A pool forked with the hooks installed records spans in its workers.
    hooks = Hooks(ctx.recorder).install()
    try:
        with Runner(jobs=POOL_JOBS) as runner:
            traced = run_units(ctx.seconds / 2, lambda speed: one_pass(runner), SAMPLE_PERIOD)
        out.metrics.update(ledger_metrics(ctx.recorder.drain(), traced, plain))
        # The same grid once more, serially: its cell work over the pooled
        # wall says how much of the pool's capacity did useful work.
        with Runner(jobs=1) as serial:
            one_pass(serial)
        serial_ledger = Ledger(ctx.recorder.drain(), os.getpid())
    finally:
        hooks.uninstall()
    serial_work = serial_ledger.self_s["core.simulate"] + sum(
        serial_ledger.self_s[name] for name in ("refarch.run", "dva.run", "core.assemble"))
    out.metrics["core.pool_efficiency"] = serial_work / (
        out.parallelism["pool_jobs_effective"] * statistics.median(r for r, _ in plain))
    out.samples.update(traced_passes=len(traced), untraced_passes=len(plain))
    return out


# -- serve_zipf ------------------------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess on an ephemeral port with its own store."""

    def __init__(self, ctx: Context, traced: bool) -> None:
        self.store_dir = ctx.fresh_dir("serve-store")
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--jobs", str(SERVE_JOBS), "--store-dir", self.store_dir]
        env = ctx.traced_env() if traced else ctx.child_env
        # The server's stderr goes to a log, shown only if the episode failed.
        self.log_path = self.store_dir + ".log"
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=log,
                                         text=True, env=env)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serving on http://"):
                raise RuntimeError(f"repro serve printed {line!r}")
            address = line.split("http://", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
        except BaseException:
            self.close()
            raise

    def get(self, path: str) -> Dict[str, object]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def log(self) -> str:
        with open(self.log_path) as handle:
            return handle.read()

    def close(self) -> None:
        reap(self.proc)
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def drive(ctx: Context, server: Server, sequence: List[Tuple[str, int, str]]
          ) -> Tuple[float, List[Tuple[float, bool]], int]:
    """Closed loop: each connection sends its next request when the last returns.

    Returns the episode's wall, (latency, cached) per successful request, and
    the number of failed requests (errors, non-200, wrong answers).
    """
    lock = threading.Lock()
    position = iter(range(len(sequence)))
    replies: List[Tuple[float, bool]] = []
    failures = [0]
    crashes: List[BaseException] = []

    def client() -> None:
        conn = http.client.HTTPConnection(server.host, server.port, timeout=120)
        headers = {"Content-Type": "application/json"}
        try:
            while True:
                with lock:
                    index = next(position, None)
                if index is None:
                    return
                program, latency, machine = sequence[index]
                body = json.dumps({"program": program, "latency": latency, "arch": machine})
                start = time.perf_counter()
                try:
                    conn.request("POST", "/v1/run", body, headers)
                    response = conn.getresponse()
                    payload = response.read()
                    elapsed = time.perf_counter() - start
                    ok = response.status == 200
                    if ok:
                        reply = json.loads(payload)
                        ok = ctx.check(program, latency, machine, reply["summary"])
                    else:
                        ctx.errors.append(
                            f"/v1/run {body}: HTTP {response.status} {payload[:200]!r}")
                except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
                    ctx.errors.append(f"/v1/run {body}: {exc!r}")
                    conn.close()
                    ok = False
                with lock:
                    if ok:
                        replies.append((elapsed, bool(reply["cached"])))
                    else:
                        failures[0] += 1
        except BaseException as exc:  # reported by the caller after join
            crashes.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, daemon=True) for _ in range(SERVE_CONNECTIONS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if crashes:
        raise crashes[0]
    return wall, replies, failures[0]


def serve_zipf(ctx: Context) -> Outcome:
    """Seeded Zipf ``POST /v1/run`` traffic against ``repro serve --jobs 1``."""
    out = Outcome(parallelism={"server_jobs": SERVE_JOBS,
                               "client_connections": SERVE_CONNECTIONS,
                               "processes": 2})

    def episode(index: int, traced: bool, counters: Optional[Dict[str, int]] = None
                ) -> Tuple[float, float, List[Tuple[float, bool]]]:
        """One episode: raw wall, speed factor and (latency, cached) per good reply."""
        sequence = serve_sequence(ctx.seed, index)
        with Server(ctx, traced) as server:
            speed = Sampler(period=SERVE_SAMPLE_PERIOD)
            try:
                wall, replies, failed = drive(ctx, server, sequence)
            finally:
                factor = speed.finish()
            if failed:
                ctx.errors.append("repro serve stderr:\n" + server.log()[-4000:])
            if counters is not None:
                stats = server.get("/v1/stats")["service"]["scheduler"]
                for name, value in stats.items():
                    counters[name] = counters.get(name, 0) + int(value)
        out.attempted += len(sequence)
        out.failed += failed
        return wall, factor, replies

    if not ctx.trace:
        probe_store = ctx.fresh_dir("probe")
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--jobs", str(SERVE_JOBS), "--store-dir", probe_store]

        def probe() -> Tuple[float, float]:
            return ctx.probe(command, lambda line: line.startswith("serving on http://"), reap)

        units: Walls = []
        setup: Walls = []
        cells: List[int] = []
        latencies: List[Tuple[float, float]] = []
        while len(units) < 2 or sum(raw for raw, _ in units) < ctx.seconds:
            if len(setup) < SETUP_PROBES:
                setup.append(probe())
            wall, factor, replies = episode(len(units), False)
            units.append((wall, wall * factor))
            cells.append(len(replies))
            latencies.extend((latency, latency * factor) for latency, _cached in replies)
        while len(setup) < SETUP_PROBES:
            setup.append(probe())
        timing_metrics(out, cells, units, latencies, setup)
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        out.samples.update(episodes=len(units))
        return out

    traced_replies: List[Tuple[float, bool]] = []
    counters: Dict[str, int] = {}
    plain: Walls = []
    traced: Walls = []
    # The same episode index in both phases: identical requests, traced or not.
    while len(traced) < 1 or sum(r for r, _ in plain + traced) < ctx.seconds:
        wall, factor, replies = episode(len(plain), False)
        plain.append((wall, wall * factor))
        wall, factor, replies = episode(len(traced), True, counters)
        traced.append((wall, wall * factor))
        traced_replies.extend(replies)
    out.metrics.update(ledger_metrics(ctx.recorder.drain(), traced, plain))
    hits = [latency for latency, cached in traced_replies if cached]
    misses = [latency for latency, cached in traced_replies if not cached]
    per = 1.0 / len(traced)
    out.metrics.update({
        "service.hit_p50_ms": 1000.0 * statistics.median(hits) if hits else 0.0,
        "service.miss_p50_ms": 1000.0 * statistics.median(misses) if misses else 0.0,
        "service.store_hits": counters.get("store_hits", 0) * per,
        "service.inflight_joins": counters.get("inflight_joins", 0) * per,
        "service.batches": counters.get("batches_dispatched", 0) * per,
        "service.simulated": counters.get("simulated", 0) * per,
    })
    out.samples.update(traced_episodes=len(traced), untraced_episodes=len(plain),
                       hit_replies=len(hits), miss_replies=len(misses))
    return out


# -- cluster_grid_cold -----------------------------------------------------------------


def cluster_grid_cold(ctx: Context) -> Outcome:
    """The golden grid through ``run_distributed(workers=2)`` into a fresh store per pass."""
    from repro import ResultStore, SweepSpec
    from repro.cluster import ClusterCoordinator, cluster_status

    rng = random.Random(f"cluster/{ctx.seed}")
    out = Outcome(parallelism={"cluster_workers": CLUSTER_WORKERS})
    workers: List[List[int]] = []  # per pass: cells completed by each worker
    stolen = [0]
    claimed = [0]

    def one_pass(_speed: Optional[Sampler] = None, traced: bool = False) -> float:
        spec = SweepSpec(
            programs=tuple(rng.sample(PAPER_PROGRAMS, len(PAPER_PROGRAMS))),
            latencies=tuple(rng.sample(PAPER_LATENCIES, len(PAPER_LATENCIES))),
            architectures=tuple(rng.sample(PAPER_MACHINES, len(PAPER_MACHINES))),
        )
        cells = [(c.program, c.latency, c.architecture) for c in spec.cells()]
        store_dir = ctx.fresh_dir("cluster-store")
        store = ResultStore(store_dir)
        start = time.perf_counter()
        sweep = ClusterCoordinator(store).run_distributed(spec, workers=CLUSTER_WORKERS)
        wall = time.perf_counter() - start
        if traced:
            for status in cluster_status(store)["sweeps"]:
                workers.append([int(w["completed"]) for w in status["workers"]])
                claimed[0] += sum(int(w["claimed"]) for w in status["workers"])
                stolen[0] += sum(int(w["stolen"]) for w in status["workers"])
        shutil.rmtree(store_dir)
        out.attempted += len(cells)
        out.failed += ctx.check_sweep(sweep, cells)
        return wall

    cells = len(PAPER_PROGRAMS) * len(PAPER_LATENCIES) * len(PAPER_MACHINES)
    if not ctx.trace:
        probe_store = ctx.fresh_dir("probe")
        walls, setup = measure(ctx.seconds, one_pass, python_probe(ctx, "cluster", probe_store),
                               SAMPLE_PERIOD)
        sweep_metrics(out, cells, walls, setup)
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        return out

    hooks = Hooks(ctx.recorder)

    def traced_pass(_speed: Sampler) -> float:
        # spawn_worker passes this process's environment on to the workers.
        saved = dict(os.environ)
        os.environ.update(ctx.traced_env())
        hooks.install()
        try:
            return one_pass(traced=True)
        finally:
            hooks.uninstall()
            os.environ.clear()
            os.environ.update(saved)

    plain, traced = alternate(ctx.seconds, one_pass, traced_pass, SAMPLE_PERIOD)
    out.metrics.update(ledger_metrics(ctx.recorder.drain(), traced, plain))
    per = 1.0 / len(traced)
    completed = [sum(counts) for counts in workers]
    skews = [max(counts) / max(min(counts), 1) for counts in workers if counts]
    out.metrics.update({
        "cluster.claimed": claimed[0] * per,
        "cluster.stolen": stolen[0] * per,
        "cluster.useful_ratio": cells * len(traced) / sum(completed) if sum(completed) else 0.0,
        "cluster.worker_skew": statistics.median(skews) if skews else 0.0,
    })
    out.samples.update(traced_passes=len(traced), untraced_passes=len(plain))
    return out


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "paper_grid_cold": paper_grid_cold,
    "axis_sweep_pool": axis_sweep_pool,
    "serve_zipf": serve_zipf,
    "cluster_grid_cold": cluster_grid_cold,
}
