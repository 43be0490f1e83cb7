"""The job layer of the simulation service: submit, dedup, execute.

The ROADMAP's service item names the refactor this module embodies:
**submission, execution and result storage as separable layers**.
Storage is :mod:`repro.sim.parallel`'s memo + disk cache, reached
through its public seam (``lookup_result``/``publish_result``/
``record_resolution``); execution is the same ``_execute_recipe`` pure
function ``run_many`` runs, submitted to a persistent pool built by the
same ``parallel.process_pool``; and submission is this module's
:class:`JobManager`.

Dedup semantics (the service's core guarantee):

* a submission whose key is already **stored** resolves immediately
  (``source`` ``"memo"``/``"disk"``, no execution);
* a submission whose key is already **in flight** coalesces onto the
  running job -- it completes when the primary completes, sharing the
  single execution;
* otherwise the submission becomes the **primary** job for its key and
  is dispatched to the pool.

Every resolution appends exactly one run-ledger record: ``"run"`` for
the primary's fresh execution, ``"memo"``/``"disk"`` for coalesced and
cache-resolved submissions -- so N concurrent clients submitting one
recipe leave one fresh record and N-1 cache-hit records, and the
ledger *proves* the single execution.  A job whose result cannot be
stored (a full disk) fails with its coalesced waiters and leaves no
record, so no ``run`` record ever lacks its cache entry.  A record the
ledger cannot take fails nothing: the result is stored and served,
and ``/metrics`` counts the miss.

Subscribers observe the job stream through a monotonically numbered
event log (:meth:`JobManager.events_since`); terminal events carry a
:class:`~repro.sim.telemetry.RunProgress` heartbeat, the same shape
``run_many`` passes to its ``heartbeat`` locally.

What the manager keeps does not grow with the jobs it serves: the
newest :data:`KEPT_JOBS` terminal jobs, :data:`KEPT_EVENTS` events and
the payloads of as many keys as ``parallel.MEMO_ENTRIES`` keeps results
for, oldest first out, plus every job still ``queued`` or ``running``.
"""

from __future__ import annotations

import collections
import concurrent.futures
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.sim import parallel

#: The lifecycle state machine.  ``queued -> running -> done|failed``
#: for primary jobs; coalesced jobs skip ``running`` (they never own an
#: execution) and cache-resolved jobs are born ``done``.
JOB_STATES = ("queued", "running", "done", "failed")

#: Submission outcomes counted for ``/metrics``.
OUTCOMES = ("fresh", "coalesced", "memo", "disk", "failed", "rejected")

#: Bounds on what the manager keeps: terminal (``done``/``failed``)
#: jobs, and events.  Enough that a client's request right after its
#: job completes still finds it.
KEPT_JOBS = 4096
KEPT_EVENTS = 8192


@dataclass
class Job:
    """One submission and its resolution state (internal; JSON views go
    through :meth:`view`)."""

    id: str
    key: str
    recipe: Any
    state: str = "queued"
    source: str = ""
    error: str = ""
    coalesced_into: str = ""
    submitted_ts: float = 0.0
    started_ts: float = 0.0
    finished_ts: float = 0.0
    wall_s: float = 0.0
    accesses: int = 0

    @property
    def label(self) -> str:
        r = self.recipe
        return f"{r.scheme}/{r.policy}: {r.workload.name}"

    def view(self) -> dict:
        """JSON-ready snapshot of this job."""
        r = self.recipe
        return {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "source": self.source,
            "error": self.error,
            "coalesced_into": self.coalesced_into,
            "scheme": r.scheme,
            "policy": r.policy,
            "scheduling": r.scheduling,
            "workload": r.workload.name,
            "engine": r.config.engine,
            "submitted_ts": self.submitted_ts,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
            "wall_s": self.wall_s,
            "accesses": self.accesses,
        }


@dataclass
class _Tally:
    """Fleet accounting for RunProgress heartbeats (the per-outcome
    counts are ``JobManager._outcomes``)."""

    submitted: int = 0
    completed: int = 0
    simulated: int = 0
    accesses: int = 0
    fresh_accesses: int = 0
    fresh_wall_s: float = 0.0
    started_ts: float = field(default_factory=time.time)


class JobManager:
    """Accepts recipe submissions, deduplicates them by content key,
    executes misses on a worker pool, and records every resolution in
    the run ledger.

    ``mode="process"`` (the default) executes on a process pool from
    ``parallel.process_pool``, the builder ``run_many`` uses (start
    method ``REPRO_MP_START``); ``mode="thread"`` executes
    in-process on a thread pool -- same semantics, no fork cost, the
    right choice for tests, docs and tiny workloads."""

    def __init__(self, workers: Optional[int] = None,
                 mode: str = "process") -> None:
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown worker mode {mode!r}")
        self.mode = mode
        self.workers = workers if workers else (os.cpu_count() or 1)
        # One lock owns every mutable field below; the contract comments
        # are machine-checked by `repro lint` (lock-discipline).
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._jobs: "dict[str, Job]" = {}  # repro-lint: guarded-by[_lock]
        # Terminal job ids, oldest first.
        self._finished: "collections.deque[str]" = collections.deque()  # repro-lint: guarded-by[_lock]
        self._inflight: "dict[str, str]" = {}  # repro-lint: guarded-by[_lock] (key -> primary job id)
        self._waiters: "dict[str, list[str]]" = {}  # repro-lint: guarded-by[_lock] (key -> coalesced ids)
        self._events: "collections.deque[dict]" = collections.deque()  # repro-lint: guarded-by[_lock]
        self._next_seq = 1  # repro-lint: guarded-by[_lock]
        self._job_ids = itertools.count(1)  # repro-lint: guarded-by[_lock]
        self._tally = _Tally()  # repro-lint: guarded-by[_lock]
        self._outcomes = {name: 0 for name in OUTCOMES}  # repro-lint: guarded-by[_lock]
        self._ledger_failures = 0  # repro-lint: guarded-by[_lock]
        self._last_progress: Optional[dict] = None  # repro-lint: guarded-by[_lock]
        self._payloads = collections.OrderedDict()  # repro-lint: guarded-by[_lock] (key -> result payload)
        self._executor: Optional[concurrent.futures.Executor] = None  # repro-lint: guarded-by[_lock]
        self._closed = False  # repro-lint: guarded-by[_lock]

    # -- executor ----------------------------------------------------------

    def _ensure_executor(self) -> concurrent.futures.Executor:  # repro-lint: holds[_lock]
        if self._executor is None:
            if self.mode == "process":
                self._executor = parallel.process_pool(self.workers)
            else:
                self._executor = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-service",
                )
        return self._executor

    # -- submission --------------------------------------------------------

    def submit(self, recipe: Any) -> dict:
        """Submit one recipe; returns the job's view immediately (the
        job may already be ``done`` when the result was cached)."""
        key = recipe.key()
        # Submission timestamps are job metadata for /jobs views; they
        # never enter a SimResult or a cache key.
        now = time.time()  # repro-lint: ignore[determinism]
        with self._lock:
            if self._closed:
                raise RuntimeError("job manager is closed")
            job = Job(id=f"j{next(self._job_ids)}", key=key,
                      recipe=recipe, submitted_ts=now)
            self._jobs[job.id] = job
            self._tally.submitted += 1
            hit = parallel.lookup_result(key)
            if hit is not None:
                result, source = hit
                self._resolve(job, result, source, 0.0)
                self._publish("done", job)
                return job.view()
            primary = self._inflight.get(key)
            if primary is not None:
                job.coalesced_into = primary
                self._outcomes["coalesced"] += 1
                self._waiters.setdefault(key, []).append(job.id)
                self._publish("queued", job)
                return job.view()
            self._inflight[key] = job.id
            job.state = "running"
            job.started_ts = now
            self._outcomes["fresh"] += 1
            # Publish BEFORE dispatching: a tiny job can complete before
            # add_done_callback registers, which runs _on_future inline
            # in this thread (the RLock is reentrant) -- publishing
            # afterwards would order 'running' after 'done'.
            self._publish("running", job)
            try:
                executor = self._ensure_executor()
                # Pickled by name: a process worker runs the execution
                # layer it inherited.
                future = executor.submit(parallel._execute_recipe,
                                         (key, recipe))
            except BaseException as exc:  # noqa: BLE001 - must unwedge key
                # A dispatch failure (broken process pool, interpreter
                # shutdown) must not strand the key: the stale _inflight
                # entry would make every later submission of this recipe
                # coalesce onto a primary that can never finish.  A pool
                # that refuses work stays broken: drop it, so the next
                # dispatch builds a new one.
                self._executor = None
                self._on_error(key, exc)
                return job.view()
            future.add_done_callback(
                lambda f, key=key, pool=executor: self._on_future(key, f,
                                                                  pool)
            )
            return job.view()

    def record_rejection(self) -> None:
        """Count one rejected submission (a 400 at the HTTP layer)."""
        with self._lock:
            self._outcomes["rejected"] += 1

    # -- completion --------------------------------------------------------

    def _on_future(self, key: str, future: "concurrent.futures.Future",
                   pool: concurrent.futures.Executor) -> None:
        with self._lock:
            try:
                _key, result, wall_s = future.result()
                # Disk first, then memo: a failed write (a full disk)
                # stores nothing, and fails the job like a failed run.
                parallel.publish_result(key, result)
            except BaseException as exc:  # noqa: BLE001 - job must record it
                if (isinstance(exc, concurrent.futures.BrokenExecutor)
                        and self._executor is pool):
                    # A worker died (an OOM kill, a crash) and took the
                    # pool with it.  Drop the pool before failing the
                    # jobs, so a client that sees the failure and
                    # resubmits gets a new one; a pool built since then
                    # is left alone.
                    self._executor = None
                self._on_error(key, exc)
                return
            primary_id = self._inflight.pop(key, None)
            waiting = self._waiters.pop(key, [])
            if primary_id is not None:
                primary = self._jobs[primary_id]
                self._resolve(primary, result, "run", wall_s)
                self._publish("done", primary)
            for jid in waiting:
                waiter = self._jobs[jid]
                self._resolve(waiter, result, "memo", 0.0)
                self._publish("done", waiter)
            self._cond.notify_all()

    def _on_error(self, key: str, exc: BaseException) -> None:
        message = f"{type(exc).__name__}: {exc}"
        with self._lock:
            primary_id = self._inflight.pop(key, None)
            waiting = self._waiters.pop(key, [])
            for jid in ([primary_id] if primary_id else []) + waiting:
                job = self._jobs[jid]
                job.state = "failed"
                job.error = message
                # Failure timestamp: job metadata, not simulation state.
                job.finished_ts = time.time()  # repro-lint: ignore[determinism]
                self._outcomes["failed"] += 1
                self._publish("failed", job)
            self._cond.notify_all()

    def _resolve(self, job: Job, result: Any, source: str,  # repro-lint: holds[_lock]
                 wall_s: float) -> None:
        """Complete one job from a result (lock held): ledger record,
        tallies, state."""
        job.state = "done"
        job.source = source
        # Completion timestamp: job metadata, not simulation state.
        job.finished_ts = time.time()  # repro-lint: ignore[determinism]
        job.wall_s = wall_s
        job.accesses = result.stats.total_accesses
        if not parallel.record_resolution(job.recipe, job.key, result,
                                          source, wall_s):
            self._ledger_failures += 1
        t = self._tally
        t.completed += 1
        t.accesses += job.accesses
        if source == "run":
            t.simulated += 1
            t.fresh_accesses += job.accesses
            t.fresh_wall_s += wall_s
        else:
            self._outcomes[source] += 1
        self._cond.notify_all()

    # -- progress / events -------------------------------------------------

    def _progress(self, job: Job) -> dict:  # repro-lint: holds[_lock]
        """A heartbeat for one resolved job (lock held): the fields of a
        :class:`~repro.sim.telemetry.RunProgress`, as a dict."""
        t = self._tally
        rate = (
            t.fresh_accesses / t.fresh_wall_s if t.fresh_wall_s > 0
            else 0.0
        )
        return {
            "completed": t.completed,
            "total": t.submitted,
            "label": job.label,
            "source": job.source or "failed",
            "from_memo": self._outcomes["memo"],
            "from_disk": self._outcomes["disk"],
            "simulated": t.simulated,
            # Heartbeat wall time: progress reporting, never cached.
            "elapsed_s": time.time() - t.started_ts,  # repro-lint: ignore[determinism]
            "accesses": t.accesses,
            "accesses_per_s": rate,
            "eta_s": None,
            "key": job.key,
            "engine": job.recipe.config.engine,
        }

    def _publish(self, kind: str, job: Job) -> None:  # repro-lint: holds[_lock]
        """Append one event to the subscriber log (lock held); a
        terminal event also files its job among the kept terminal jobs.
        Past their bounds, the oldest event and terminal job go."""
        event = {
            "seq": self._next_seq,
            # Event timestamp for SSE consumers; ordering comes from
            # `seq`, so the clock is cosmetic.
            "ts": time.time(),  # repro-lint: ignore[determinism]
            "kind": kind,
            "job": job.view(),
        }
        if kind in ("done", "failed"):
            progress = self._progress(job)
            event["progress"] = progress
            self._last_progress = progress
            self._finished.append(job.id)
            if len(self._finished) > KEPT_JOBS:
                del self._jobs[self._finished.popleft()]
        self._events.append(event)
        if len(self._events) > KEPT_EVENTS:
            self._events.popleft()
        self._next_seq += 1
        self._cond.notify_all()

    def events_since(self, seq: int = 0, timeout: float = 0.0) \
            -> "tuple[list[dict], int, int]":
        """Events with ``seq`` greater than the cursor, the next cursor
        value, and how many events after the cursor were dropped before
        this read (the log keeps the newest :data:`KEPT_EVENTS`).
        ``timeout`` > 0 long-polls until at least one new event arrives
        (or the deadline passes)."""
        with self._cond:
            if timeout > 0:
                self._cond.wait_for(
                    lambda: self._next_seq > seq + 1 or self._closed,
                    timeout=timeout,
                )
            # Sequence numbers count up by one from 1, so the events
            # after the cursor are the newest `behind` ever published.
            behind = self._next_seq - 1 - max(seq, 0)
            kept = len(self._events)
            fresh = list(itertools.islice(reversed(self._events),
                                          min(max(behind, 0), kept)))
            fresh.reverse()
            return fresh, self._next_seq - 1, max(behind - kept, 0)

    # -- inspection --------------------------------------------------------

    def get(self, job_id: str) -> Optional[dict]:
        """A kept job's view; None for an id never issued or dropped."""
        with self._lock:
            job = self._jobs.get(job_id)
            return job.view() if job is not None else None

    def jobs(self) -> "list[dict]":
        with self._lock:
            return [job.view() for job in self._jobs.values()]

    def state_counts(self) -> "dict[str, int]":
        """How many kept jobs are in each state (states with none are
        left out): every queued and running job, and the newest
        :data:`KEPT_JOBS` terminal ones."""
        with self._lock:
            return dict(collections.Counter(
                job.state for job in self._jobs.values()
            ))

    def wait(self, job_id: str, timeout: float = 60.0) -> Optional[dict]:
        """Block until the job reaches a terminal state (or the timeout
        passes); returns the job's view, None for unknown ids."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            self._cond.wait_for(
                lambda: job.state in ("done", "failed"), timeout=timeout
            )
            return job.view()

    def result(self, job_id: str) -> Optional[Any]:
        """The :class:`~repro.sim.engine.SimResult` of a ``done`` job
        (None otherwise)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != "done":
                return None
            hit = parallel.lookup_result(job.key)
            return hit[0] if hit is not None else None

    def payload(self, key: str,
                serialize: Callable[[Any], bytes]) -> Optional[bytes]:
        """The payload of the stored result for a recipe key (a ``done``
        job's ``key``), ``serialize(result)``: fixed by the key, so
        serialized once per key while it is among the newest
        ``parallel.MEMO_ENTRIES``.  None when the result is no longer
        stored, even if its payload was served before.  It looks up the
        key, not a job, so a job dropped from the kept ones still has
        its payload."""
        with self._lock:
            hit = parallel.lookup_result(key)
            if hit is None:
                return None
            payload = self._payloads.get(key)
        if payload is None:
            # Outside the lock: a large result must not hold up other
            # submissions while it serializes.
            payload = serialize(hit[0])
            with self._lock:
                parallel._remember(self._payloads, key, payload,
                                   parallel.MEMO_ENTRIES)
        return payload

    # -- metrics -----------------------------------------------------------

    def fill_registry(self, registry: Any) -> None:
        """Add the service-level metrics to a
        :class:`~repro.obs.registry.MetricsRegistry`."""
        registry.counter(
            "repro_service_jobs_total",
            "service submissions by outcome (fresh executions, "
            "coalesced/memo/disk dedup hits, failures, rejections)",
        )
        registry.gauge("repro_service_jobs_inflight",
                       "keys currently executing on the worker pool")
        registry.gauge("repro_service_workers",
                       "configured worker-pool width")
        registry.counter(
            "repro_service_ledger_append_failures_total",
            "resolutions whose run-ledger record could not be written "
            "(the job still completes)",
        )
        with self._lock:
            for outcome in OUTCOMES:
                registry.inc(
                    "repro_service_jobs_total", {"outcome": outcome},
                    self._outcomes[outcome],
                )
            registry.inc("repro_service_ledger_append_failures_total",
                         None, self._ledger_failures)
            registry.set("repro_service_jobs_inflight", None,
                         len(self._inflight))
            registry.set("repro_service_workers", None, self.workers)
            if self._last_progress is not None:
                from repro.sim.telemetry import RunProgress

                registry.observe_progress(
                    RunProgress(**self._last_progress)
                )

    # -- shutdown ----------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Shut the worker pool down; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor = self._executor
            self._executor = None
            self._cond.notify_all()
        if executor is not None:
            executor.shutdown(wait=wait)
