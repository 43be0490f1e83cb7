"""The four workloads of the stack benchmark and their correctness checks.

Every workload is made only from ``--seed``: the seed drives the trace
generators, the request order and the fresh service recipes, while the
application mixes and run sizes are fixed, so runs with different seeds
do the same amount and kind of work.  A run repeats fixed-size rounds
while they fit in its time and reports medians over rounds; peak memory
is read after the first round, so no figure depends on how many rounds
a faster or slower build gets through.  Every timing is scaled by the
host speed measured around it (:func:`host_speed`).

Modelled caches start empty and the statistics cover one pass of every
trace, as in the paper.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import heapq
import json
import multiprocessing
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from stack.layers import ENGINES, SCHEMES
from stack.spans import CLIENT_SPAN, REQUEST_SPAN, ROUND_SPAN, NullTracer, \
    install

#: Pool width for run_many and the service: the 2 CPUs of the reference
#: host, fixed so that runs on other hosts do the same work.
WORKERS = 2

#: Two fixed 8-application mixes that together cover 16 of the 18
#: application families.
MIX_A = ("bwaves.1", "cactus.2", "deepsjeng.3", "exchange2.1",
         "fotonik3d.2", "gcc.3", "lbm.1", "leela.2")
MIX_B = ("mcf.3", "omnetpp.1", "wrf.2", "xalancbmk.3",
         "bwaves.3", "gcc.1", "lbm.2", "cactus.1")
CORES = 8


@dataclass(frozen=True)
class Size:
    """Amount of work in one round of each workload."""

    cold_accesses: int        # per core, sweep-cold
    stream_accesses: int      # per core, stream-ckpt
    stream_chunk: int         # tracebin records per chunk
    stream_checkpoint: int    # accesses between checkpoints
    stream_telemetry: int     # accesses between telemetry samples
    warm_mixes: int           # mixes per sweep-warm pass
    warm_accesses: int        # per core, sweep-warm
    hot: int                  # pre-stored service recipes
    service_accesses: int     # per core, every service recipe
    hits: int                 # service requests per round for hot recipes
    fresh: int                # unique new recipes per round
    coalesced: int            # new recipes per round sent by both threads


SIZES = {
    "full": Size(
        cold_accesses=1000, stream_accesses=25000, stream_chunk=16384,
        stream_checkpoint=65536, stream_telemetry=10000, warm_mixes=16,
        warm_accesses=600, hot=8, service_accesses=1000, hits=50,
        fresh=8, coalesced=1,
    ),
    "smoke": Size(
        cold_accesses=200, stream_accesses=2000, stream_chunk=1024,
        stream_checkpoint=4096, stream_telemetry=1000, warm_mixes=2,
        warm_accesses=100, hot=2, service_accesses=100, hits=6,
        fresh=2, coalesced=1,
    ),
}


@dataclass
class Run:
    """One benchmark run: its seed, size and scratch space."""

    seed: int
    size: Size
    root: Path        # repository checkout
    work_dir: Path    # scratch inside the checkout, removed afterwards

    def new_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.work_dir))


@dataclass
class Round:
    """What one round did and how long it took."""

    index: int
    wall_s: float
    recipes: int
    accesses: int
    latencies: list           # (request class, milliseconds)
    failed: int = 0
    traced: bool = False
    speed: float = 1.0        # host speed during the round, see host_speed

    @property
    def reference_s(self) -> float:
        """The round's wall time scaled to the reference host's speed."""
        return self.wall_s * self.speed


@dataclass
class Timed:
    """The timed phase of a run, plus what the checks need."""

    rounds: list
    peak_rss_mb: float
    stats: list               # SimStats dicts of the first round
    evidence: Any = None


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

#: Calls per second of :func:`_calibration_kernel` on the reference host
#: (the 2-CPU container the committed baseline was measured on) when no
#: other tenant loads it.
REFERENCE_RATE = 700.0


def _calibration_kernel(n: int = 2000) -> int:
    """Fixed pure-Python work of the kinds the simulator does: integer
    arithmetic, dict updates and heap operations.  It calls no code of
    the program, so no change to the program can move it."""
    table: dict = {}
    heap: list = []
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 1023] = table.get(x & 1023, 0) + 1
        heapq.heappush(heap, (x & 0xFFFF, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return x


def _kernel_rate(seconds: float) -> float:
    calls = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        _calibration_kernel()
        calls += 1
    return calls / (time.perf_counter() - start)


def host_speed(parallel: bool, seconds: float = 0.05) -> float:
    """The host's speed right now relative to the reference host.

    On a shared host, other tenants slow a CPU by up to 40% for tens of
    seconds at a time, and the two CPUs of a container are slowed
    independently.  Timings are multiplied by the speed measured around
    them, which turns them into the time the reference host would have
    taken and removes most of that drift.  Work done in this one process
    is calibrated where the process runs; work spread over a worker pool
    (``parallel``) by the mean speed of every CPU the process may use."""
    if not parallel:
        return _kernel_rate(seconds) / REFERENCE_RATE
    cpus = os.sched_getaffinity(0)
    rates = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            rates.append(_kernel_rate(seconds))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(rates) / REFERENCE_RATE


def _stats_dict(result: Any) -> dict:
    return dataclasses.asdict(result.stats)


def stats_digest(stats: list) -> str:
    """Order-independent digest of a list of SimStats dicts."""
    lines = sorted(json.dumps(s, sort_keys=True) for s in stats)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _vm_hwm_kb(pid: str = "self") -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def _peak_rss_mb() -> float:
    """Peak resident memory of this process and its finished children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(_vm_hwm_kb(), children) / 1024.0


def synth_mix(apps: tuple, accesses: int, seed: int, name: str):
    """One multi-programmed mix: core ``i`` runs ``apps[i]`` in its own
    address range (as :mod:`repro.workloads.mixes` lays cores out)."""
    import repro.workloads
    from repro.sim.trace import Workload
    from repro.workloads.mixes import CORE_ADDR_STRIDE

    traces = [
        repro.workloads.build_trace(
            app, accesses, base_addr=(core + 1) * CORE_ADDR_STRIDE,
            seed=seed * 7919 + core, name=app,
        )
        for core, app in enumerate(apps)
    ]
    return Workload(traces, name=name)


def in_child(fn: Callable, *args: Any) -> Any:
    """Run ``fn(*args)`` in a forked child process and return its result.

    The child starts with this process's memory -- set-up state and any
    installed span wrappers, with nothing to pickle -- but its own
    peak-memory counter, memo and open spans.  The benchmark process
    runs no threads when it forks, so forking is safe here."""
    # Garbage from set-up would otherwise count towards the child's peak
    # memory, by an amount that depends on when the collector last ran.
    gc.collect()
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_main, args=(send, fn, args))
    child.start()
    send.close()
    try:
        ok, value = receive.recv()
    except EOFError:
        ok, value = False, f"child exited with code {child.exitcode}"
    finally:
        receive.close()
        child.join()
    if not ok:
        raise RuntimeError(f"benchmark child failed: {value}")
    return value


def _child_main(send, fn, args) -> None:
    try:
        send.send((True, fn(*args)))
    except BaseException as exc:  # reported to the parent, which raises
        import traceback

        send.send((False, f"{exc!r}\n{traceback.format_exc()}"))
    finally:
        send.close()


def more_rounds(rounds: list, started: float, seconds: float,
                least: int) -> bool:
    """Whether another round fits in ``seconds``: a round is started only
    when a typical round still ends in time, so runs do not overshoot."""
    if len(rounds) < least:
        return True
    typical = statistics.median(r.wall_s for r in rounds) + 0.05
    return time.monotonic() - started + typical <= seconds


def run_rounds(seconds: float, tracer, one_round: Callable,
               parallel: bool) -> tuple:
    """Call ``one_round(index, tracer_or_null)`` while rounds fit in
    ``seconds``.

    With a tracer, odd rounds are traced and even rounds are not, so the
    two kinds interleave and their medians give the tracing overhead.
    Returns the rounds and the peak memory read after the first one."""
    rounds: list = []
    peak = 0.0
    started = time.monotonic()
    least = 2 if tracer is not None else 1
    before = host_speed(parallel)
    while more_rounds(rounds, started, seconds, least):
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        uninstall = install(tracer) if traced else None
        try:
            rounds.append(one_round(index, tracer if traced else NullTracer()))
        finally:
            if uninstall is not None:
                uninstall()
        if index == 0:
            peak = _peak_rss_mb()
        after = host_speed(parallel)
        rounds[-1].traced = traced
        rounds[-1].speed = (before + after) / 2
        before = after
    return rounds, peak


@contextlib.contextmanager
def timed_round(tracer, index: int):
    """Time the body; the result dict receives ``wall_s``."""
    out: dict = {}
    with tracer.span(ROUND_SPAN, round=index):
        t0 = time.monotonic()
        yield out
        out["wall_s"] = time.monotonic() - t0


def _set_cache(path: Path) -> None:
    # The result cache and the ledger both follow REPRO_CACHE_DIR.
    os.environ["REPRO_CACHE_DIR"] = str(path)


def _config(engine: str):
    from repro.params import scaled_config

    return scaled_config("256KB").replace(engine=engine)


# ---------------------------------------------------------------------------
# sweep-cold
# ---------------------------------------------------------------------------


class SweepCold:
    name = "sweep-cold"
    parallel = True

    def setup(self, run: Run):
        size = run.size
        return [synth_mix(MIX_A, size.cold_accesses, run.seed, "mix-a"),
                synth_mix(MIX_B, size.cold_accesses, run.seed + 1, "mix-b")]

    def teardown(self, state) -> None:
        pass

    def measure(self, run: Run, mixes, seconds: float, tracer) -> Timed:
        return in_child(self._measure, run, mixes, seconds, tracer)

    def _measure(self, run: Run, mixes, seconds: float, tracer) -> Timed:
        from repro.sim import parallel
        from repro.sim.trace import Workload

        configs = {engine: _config(engine) for engine in ENGINES}
        first: list = []

        def one_round(index: int, t) -> Round:
            cache = run.new_dir("cold-")
            _set_cache(cache)
            parallel.clear_memo()
            with timed_round(t, index) as clock:
                # Fresh Workload objects, so every round hashes its keys.
                # Object-engine recipes first: the slowest work starts
                # first, so neither worker idles long at the end.
                recipes = [
                    parallel.make_recipe(Workload(list(mix.traces), mix.name),
                                         scheme, config=configs[engine])
                    for engine in ("object", "fast") for mix in mixes
                    for scheme in SCHEMES
                ]
                results = parallel.run_many(recipes, jobs=WORKERS)
            if index == 0:
                first.extend(
                    (r.workload.name, r.config.engine, r.scheme,
                     _stats_dict(res))
                    for r, res in zip(recipes, results)
                )
            shutil.rmtree(cache)
            return Round(index, clock["wall_s"], len(results),
                         sum(res.stats.total_accesses for res in results),
                         [("sweep", clock["wall_s"] * 1e3)])

        rounds, peak = run_rounds(seconds, tracer, one_round, self.parallel)
        return Timed(rounds, peak, [c[3] for c in first], evidence=first)

    def check(self, run: Run, state, timed: Timed) -> list:
        failures = []
        cells: dict = {}
        for mix, engine, scheme, stats in timed.evidence:
            cells.setdefault((mix, scheme), {})[engine] = stats
        for (mix, scheme), by_engine in sorted(cells.items()):
            if by_engine["object"] != by_engine["fast"]:
                fast, obj = by_engine["fast"], by_engine["object"]
                diff = sorted(k for k in fast if fast[k] != obj[k])
                failures.append(f"{mix}/{scheme}: object and fast engines "
                                f"differ in {diff}")
            if scheme.startswith("ziv:"):
                for engine, stats in by_engine.items():
                    for counter in ("inclusion_victims_llc",
                                    "back_invalidations_llc"):
                        if stats[counter]:
                            failures.append(
                                f"{mix}/{scheme}/{engine}: {counter} = "
                                f"{stats[counter]}, ZIV must keep it 0")
        return failures


# ---------------------------------------------------------------------------
# stream-ckpt
# ---------------------------------------------------------------------------


@dataclass
class StreamState:
    directory: Path
    ref: Any


class StreamCkpt:
    name = "stream-ckpt"
    parallel = False

    def setup(self, run: Run) -> StreamState:
        from repro.sim.tracebin import make_trace_ref, save_workload_bin

        directory = run.new_dir("stream-")
        path = directory / "mix-a.tracebin"
        workload = synth_mix(MIX_A, run.size.stream_accesses, run.seed,
                             "mix-a")
        save_workload_bin(workload, path,
                          chunk_records=run.size.stream_chunk)
        return StreamState(directory, make_trace_ref(path))

    def teardown(self, state: StreamState) -> None:
        shutil.rmtree(state.directory, ignore_errors=True)

    def measure(self, run: Run, state: StreamState, seconds: float,
                tracer) -> Timed:
        return in_child(self._measure, run, state, seconds, tracer)

    def _measure(self, run: Run, state: StreamState, seconds: float,
                 tracer) -> Timed:
        from repro.params import TelemetryParams
        from repro.sim import engine

        config = _config("fast")
        telemetry = TelemetryParams(enabled=True,
                                    interval=run.size.stream_telemetry)
        first: list = []

        def one_round(index: int, t) -> Round:
            scratch = run.new_dir("ckpt-")
            _set_cache(scratch)
            with timed_round(t, index) as clock:
                result = engine.run_workload(
                    config, state.ref, "inclusive", telemetry=telemetry,
                    checkpoint_path=scratch / "run.ckpt",
                    checkpoint_every=run.size.stream_checkpoint,
                )
            if index == 0:
                first.append(_stats_dict(result))
            shutil.rmtree(scratch)
            return Round(index, clock["wall_s"], 1,
                         result.stats.total_accesses,
                         [("stream", clock["wall_s"] * 1e3)])

        rounds, peak = run_rounds(seconds, tracer, one_round, self.parallel)
        return Timed(rounds, peak, first)

    def check(self, run: Run, state: StreamState, timed: Timed) -> list:
        # The in-memory reference runs in its own process, so holding the
        # whole trace in memory never counts towards the streamed run.
        reference = in_child(self._in_memory, run, state)
        if timed.stats[0] != reference:
            diff = sorted(k for k in reference
                          if reference[k] != timed.stats[0][k])
            return [f"streamed stats differ from an in-memory run in {diff}"]
        return []

    @staticmethod
    def _in_memory(run: Run, state: StreamState) -> dict:
        from repro.sim.engine import run_workload
        from repro.sim.tracebin import load_workload_bin

        _set_cache(run.new_dir("verify-"))
        workload = load_workload_bin(state.ref.path)
        return _stats_dict(run_workload(_config("fast"), workload,
                                        "inclusive"))


# ---------------------------------------------------------------------------
# sweep-warm
# ---------------------------------------------------------------------------


@dataclass
class WarmState:
    cache: Path
    stats: list


class SweepWarm:
    name = "sweep-warm"
    parallel = False

    def _recipes(self, run: Run) -> list:
        from repro.sim import parallel
        from repro.workloads import ALL_PROFILE_NAMES

        config = _config("fast")
        size = run.size
        recipes = []
        for m in range(size.warm_mixes):
            apps = tuple(
                ALL_PROFILE_NAMES[(m * CORES + c) % len(ALL_PROFILE_NAMES)]
                for c in range(CORES))
            mix = synth_mix(apps, size.warm_accesses, run.seed * 100 + m,
                            f"warm-{m:02d}")
            recipes.extend(parallel.make_recipe(mix, scheme, config=config)
                           for scheme in SCHEMES)
        return recipes

    def setup(self, run: Run) -> WarmState:
        from repro.sim import parallel

        cache = run.new_dir("warm-")
        _set_cache(cache)
        results = parallel.run_many(self._recipes(run), jobs=WORKERS)
        parallel.clear_memo()
        return WarmState(cache, [_stats_dict(r) for r in results])

    def teardown(self, state: WarmState) -> None:
        shutil.rmtree(state.cache, ignore_errors=True)

    def measure(self, run: Run, state: WarmState, seconds: float,
                tracer) -> Timed:
        return in_child(self._measure, run, state, seconds, tracer)

    def _measure(self, run: Run, state: WarmState, seconds: float,
                 tracer) -> Timed:
        from repro.sim import parallel

        _set_cache(state.cache)
        first: list = []

        def one_round(index: int, t) -> Round:
            with timed_round(t, index) as clock:
                parallel.clear_memo()
                results = parallel.run_many(self._recipes(run), jobs=WORKERS)
            if index == 0:
                first.extend(_stats_dict(r) for r in results)
            return Round(index, clock["wall_s"], len(results),
                         sum(r.stats.total_accesses for r in results),
                         [("pass", clock["wall_s"] * 1e3)])

        rounds, peak = run_rounds(seconds, tracer, one_round, self.parallel)
        return Timed(rounds, peak, first)

    def check(self, run: Run, state: WarmState, timed: Timed) -> list:
        from repro.obs.ledger import read_ledger

        failures = []
        if timed.stats != state.stats:
            failures.append("results read from the disk cache differ from "
                            "the results that filled it")
        sources: dict = {}
        for record in read_ledger(state.cache / "ledger.jsonl"):
            sources[record.source] = sources.get(record.source, 0) + 1
        expected = {"run": len(state.stats),
                    "disk": len(state.stats) * len(timed.rounds)}
        if sources != expected:
            failures.append(f"ledger sources {sources}, expected {expected}: "
                            f"every pass must resolve from the disk cache")
        return failures


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------


def _profile_recipe(app: str, scheme: str, seed: int, accesses: int,
                    config: dict) -> dict:
    return {
        "workload": {"kind": "profile", "app": app, "cores": CORES,
                     "accesses": accesses, "seed": seed},
        "scheme": scheme,
        "config": config,
    }


@dataclass
class Server:
    """One ``repro serve`` process and the cache directory it owns."""

    proc: subprocess.Popen
    url: str
    cache: Path

    def stop(self) -> None:
        """SIGINT lets the server shut its worker pool down; the process
        group is killed if that does not finish in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()


def start_server(run: Run, spans_dir: Optional[Path] = None) -> Server:
    cache = run.new_dir("service-")
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache),
               PYTHONPATH=str(run.root / "src"))
    if spans_dir is None:
        cmd = [sys.executable, "-u", "-m", "repro", "serve"]
    else:
        cmd = [sys.executable, "-u",
               str(Path(__file__).resolve().parent / "serve_traced.py"),
               "--spans", str(spans_dir)]
    cmd += ["--port", "0", "--workers", str(WORKERS)]
    proc = subprocess.Popen(cmd, env=env, cwd=run.root, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    banner = proc.stdout.readline()
    match = re.search(r"http://\S+", banner)
    if match is None:
        Server(proc, "", cache).stop()
        raise RuntimeError(f"service did not start: {banner!r}")
    return Server(proc, match.group(0), cache)


@dataclass
class Op:
    kind: str              # hit | fresh | coalesced | metrics
    body: Optional[dict] = None


@dataclass
class ServiceState:
    server: Server
    hot: list              # recipe dicts stored during setup
    config: dict
    extra: list = field(default_factory=list)   # servers of traced phases


class ServiceMixed:
    name = "service-mixed"
    parallel = True

    def _hot(self, run: Run, config: dict) -> list:
        return [_profile_recipe(MIX_A[i % len(MIX_A)],
                                SCHEMES[i % len(SCHEMES)], run.seed,
                                run.size.service_accesses, config)
                for i in range(run.size.hot)]

    def _start(self, run: Run, config: dict,
               spans_dir: Optional[Path] = None) -> Server:
        from repro.service.client import ServiceClient

        server = start_server(run, spans_dir)
        try:
            client = ServiceClient(server.url, timeout=120)
            for body in self._hot(run, config):
                client.result_bytes(client.submit(body)["id"], timeout=60)
        except BaseException:
            server.stop()
            raise
        return server

    def setup(self, run: Run) -> ServiceState:
        from repro.config_io import config_to_dict

        config = config_to_dict(_config("fast"))
        return ServiceState(self._start(run, config), self._hot(run, config),
                            config)

    def teardown(self, state: ServiceState) -> None:
        for server in [state.server] + state.extra:
            server.stop()

    def _plan(self, run: Run, config: dict, index: int) -> list:
        """The two clients' request lists for one round."""
        from repro.workloads import ALL_PROFILE_NAMES

        size = run.size
        rng = random.Random(f"{run.seed}:{index}")
        hot = self._hot(run, config)
        ops = [Op("hit", hot[rng.randrange(len(hot))])
               for _ in range(size.hits)]

        def fresh(i: int) -> dict:
            app = ALL_PROFILE_NAMES[(index * size.fresh + i)
                                    % len(ALL_PROFILE_NAMES)]
            # Seeds above every hot seed and unique per round and slot.
            seed = run.seed * 100_000 + index * 100 + i + 1
            return _profile_recipe(app, SCHEMES[i % len(SCHEMES)], seed,
                                   size.service_accesses, config)

        ops += [Op("fresh", fresh(i)) for i in range(size.fresh)]
        rng.shuffle(ops)
        lanes = [ops[0::2], ops[1::2]]
        for j in range(size.coalesced):
            shared = Op("coalesced", fresh(50 + j))
            for lane in lanes:
                lane.insert((j + 1) * len(lane) // (size.coalesced + 1),
                            shared)
        lanes[0].insert(len(lanes[0]) // 2, Op("metrics"))
        return lanes

    def _round(self, run: Run, server: Server, config: dict, index: int,
               tracer, payloads: dict) -> Round:
        from repro.service.client import ServiceClient, ServiceError

        lanes = self._plan(run, config, index)
        barrier = threading.Barrier(len(lanes))
        lock = threading.Lock()

        def client_loop(lane: list) -> tuple:
            client = ServiceClient(server.url, timeout=120)
            latencies, failed, done = [], 0, 0
            with tracer.span(CLIENT_SPAN, round=index):
                for op in lane:
                    try:
                        if op.kind == "coalesced":
                            barrier.wait(timeout=60)
                        t0 = time.monotonic()
                        if op.kind == "metrics":
                            with tracer.span(REQUEST_SPAN, route="metrics"):
                                client.metrics()
                            continue
                        with tracer.span(REQUEST_SPAN, route="submit") as sub:
                            view = client.submit(op.body)
                        sub["rid"] = view["id"]
                        with tracer.span(REQUEST_SPAN, route="result",
                                         rid=view["id"]):
                            payload = client.result_bytes(view["id"],
                                                          timeout=60)
                        latencies.append(
                            (op.kind, (time.monotonic() - t0) * 1e3))
                        done += 1
                    except (ServiceError, OSError,
                            threading.BrokenBarrierError):
                        failed += 1
                        continue
                    with lock:
                        entry = payloads.setdefault(view["key"], {
                            "body": op.body, "kind": op.kind,
                            "round": index, "payloads": set(),
                            "sources": set()})
                        entry["payloads"].add(payload)
                        entry["sources"].add(view["source"])
            return latencies, failed, done

        t0 = time.monotonic()
        with ThreadPoolExecutor(max_workers=len(lanes)) as pool:
            outcomes = [f.result() for f in
                        [pool.submit(client_loop, lane) for lane in lanes]]
        wall = time.monotonic() - t0
        done = sum(o[2] for o in outcomes)
        return Round(index, wall, done,
                     done * CORES * run.size.service_accesses,
                     [lat for o in outcomes for lat in o[0]],
                     failed=sum(o[1] for o in outcomes))

    def _phase(self, run: Run, server: Server, config: dict,
               seconds: float, tracer, traced: bool, payloads: dict) -> tuple:
        rounds: list = []
        peak = 0.0
        started = time.monotonic()
        before = host_speed(self.parallel)
        while more_rounds(rounds, started, seconds, 1):
            t = tracer if traced else NullTracer()
            rounds.append(self._round(run, server, config, len(rounds), t,
                                      payloads))
            if len(rounds) == 1:
                peak = _vm_hwm_kb(str(server.proc.pid)) / 1024.0
            after = host_speed(self.parallel)
            rounds[-1].traced = traced
            rounds[-1].speed = (before + after) / 2
            before = after
        return rounds, peak

    def measure(self, run: Run, state: ServiceState, seconds: float,
                tracer) -> Timed:
        payloads: dict = {}
        if tracer is None:
            rounds, peak = self._phase(run, state.server, state.config,
                                       seconds, None, False, payloads)
        else:
            # The server is traced from its start, so the untraced and
            # traced rounds run on two servers, one after the other.
            rounds, peak = self._phase(run, state.server, state.config,
                                       seconds / 2, None, False, payloads)
            traced_server = self._start(run, state.config, tracer.out_dir)
            state.extra.append(traced_server)
            more, _ = self._phase(run, traced_server, state.config,
                                  seconds / 2, tracer, True, {})
            rounds += more
        # The first round's new recipes are the same for every build.
        first = [json.loads(next(iter(e["payloads"])))["stats"]
                 for e in payloads.values()
                 if e["kind"] != "hit" and e["round"] == 0]
        return Timed(rounds, peak, first, evidence=payloads)

    def check(self, run: Run, state: ServiceState, timed: Timed) -> list:
        from repro.config_io import recipe_from_dict
        from repro.obs.ledger import read_ledger
        from repro.service.api import result_to_json

        failures = []
        payloads = timed.evidence
        for key, entry in sorted(payloads.items()):
            if len(entry["payloads"]) != 1:
                failures.append(f"{len(entry['payloads'])} different "
                                f"payloads for recipe {key[:12]}")
            if entry["kind"] == "hit" and not entry["sources"] <= {
                    "memo", "disk"}:
                failures.append(f"hits on {key[:12]} resolved from "
                                f"{sorted(entry['sources'])}, not storage")
        hot = {}
        for body in state.hot:
            recipe = recipe_from_dict(body)
            hot[recipe.key()] = recipe
        new = sorted(k for k, e in payloads.items() if e["kind"] != "hit")
        sample = random.Random(run.seed).sample(
            new, min(len(new), max(1, len(new) // 10)))
        checked = [(k, r) for k, r in sorted(hot.items()) if k in payloads]
        checked += [(k, recipe_from_dict(payloads[k]["body"])) for k in sample]
        for key, recipe in checked:
            local = result_to_json(recipe.execute())
            if local not in payloads[key]["payloads"]:
                failures.append(f"payload for {key[:12]} differs from a "
                                f"local run of the same recipe")
        # Only the untraced server's ledger: its keys are the evidence.
        state.server.stop()
        runs: dict = {}
        for record in read_ledger(state.server.cache / "ledger.jsonl"):
            if record.source == "run":
                runs[record.recipe_key] = runs.get(record.recipe_key, 0) + 1
        twice = sorted(k[:12] for k, n in runs.items() if n != 1)
        if twice:
            failures.append(f"ledger records more than one run for {twice}")
        executed = set(payloads) | set(hot)
        if set(runs) != executed:
            failures.append(f"ledger ran {len(runs)} distinct recipes, "
                            f"the server resolved {len(executed)}")
        return failures


WORKLOADS = {w.name: w for w in (SweepCold(), StreamCkpt(), SweepWarm(),
                                 ServiceMixed())}
