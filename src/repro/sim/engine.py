"""The simulation driver.

Two scheduling modes:

* ``"timing"`` (default) -- each core is an in-order front end: gap
  instructions retire at the configured base CPI, then the memory access
  blocks for its hierarchy latency.  Cores interleave by readiness (the
  core with the smallest next-ready cycle issues next), which makes shared
  LLC/DRAM contention order realistic.

* ``"lockstep"`` -- cores interleave round-robin by access *index*,
  ignoring latencies.  This is the canonical global stream that defines
  the Belady MIN oracle (paper footnote 2): the interleaving must not
  depend on the LLC policy under study, otherwise MIN is ill-defined.
  Used for the Fig. 2 inclusion-victim counts.

Each core replays its trace once ("the representative segment"); as in the
paper, statistics cover exactly one pass of every trace.

:meth:`Simulation.run` is one segment driver for both modes and both
engines.  Every periodic consumer -- audit sweeps, telemetry samples,
checkpoints, progress heartbeats, ``stop_after`` -- counts accesses, so
the driver runs a *segment* of accesses up to the next position where
any of them is due, does the boundary work there, and repeats.  A
segment is the fast engine's fused kernel
(:meth:`~repro.sim.fast.FastHierarchy.run_segment`) in both scheduling
modes, and the generic per-access loop (:meth:`Simulation._run_segment`)
for the object engine.  The fast engine has no per-access entry point:
it runs only under this driver.  A plain run is one segment.

Every run times its phases into :attr:`SimResult.phases` with one
clock read per phase transition, never per access: ``decode`` (setup
and the first trace windows), ``access_loop`` (the segments),
``audit`` and ``telemetry`` (the sweeps and samples between them),
``checkpoint`` (boundary work: checkpoint load and save, heartbeats,
``stop_after``) and ``flush`` (end-of-run statistics).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.sim.audit import AuditReport, InvariantAuditor
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    SimCheckpoint,
    SimulationInterrupted,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.stats import SimStats
from repro.sim.telemetry import (
    StreamProgress,
    TelemetryCollector,
    TelemetryResult,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.energy.model import EnergyModel
from repro.sim.trace import Workload


@dataclass
class SimResult:
    """Outcome of one simulation run.

    Carries the statistics, the energy ledger, any scheme-specific
    extras (e.g. the ZIV relocation-interval histogram) and the invariant
    audit report (when auditing was enabled) -- but not the hierarchy
    itself, so results stay small enough to cache in bulk.

    ``phases`` maps each run phase to the wall seconds it took (see the
    module docstring).  It is measurement, not outcome: it never enters
    a comparison, a service payload or a cache key, and a cached copy
    keeps the phase times of the run that produced it."""

    stats: SimStats
    cycles: int
    scheme: str
    policy: str
    workload: str
    energy: Optional["EnergyModel"] = None
    scheme_stats: Optional[dict] = None
    audit: Optional[AuditReport] = None
    telemetry: Optional[TelemetryResult] = None
    phases: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def ipc_per_core(self) -> list[float]:
        return [c.ipc for c in self.stats.cores]

    def core_cycles(self, core: int) -> int:
        return self.stats.cores[core].cycles


class Simulation:
    """Drives a workload through a :class:`CacheHierarchy`.

    The hierarchy's configuration says whether the run audits
    (``config.audit``) and samples (``config.telemetry``); nothing else
    is consulted, so a run does what its recipe's cache key says."""

    def __init__(
        self,
        hierarchy: "CacheHierarchy",
        workload: Workload,
        scheduling: str = "timing",
        llc_policy_name: Optional[str] = None,
    ) -> None:
        if scheduling not in ("timing", "lockstep"):
            raise ValueError(f"unknown scheduling mode {scheduling!r}")
        if workload.cores != hierarchy.config.cores:
            raise ValueError(
                f"workload has {workload.cores} cores, hierarchy expects "
                f"{hierarchy.config.cores}"
            )
        self.hierarchy = hierarchy
        self.workload = workload
        self.scheduling = scheduling
        self.llc_policy_name = llc_policy_name or hierarchy.llc.policy_name

    def run(
        self,
        *,
        checkpoint_path=None,
        checkpoint_every: Optional[int] = None,
        resume_from=None,
        stop_after: Optional[int] = None,
        progress=None,
    ) -> SimResult:
        """Run the workload to completion (or to a checkpoint).

        Streaming/checkpointing keywords (all optional; the plain
        ``run()`` call is unchanged):

        * ``checkpoint_path`` -- save a :class:`SimCheckpoint` here at
          every boundary (atomically; the previous one is replaced).
        * ``checkpoint_every`` -- boundary cadence in accesses.  Defaults
          to the workload's ``chunk_records`` (binary traces) or 65536.
          No boundary fires at completion, in either scheduling mode.
        * ``resume_from`` -- a checkpoint path or :class:`SimCheckpoint`
          to continue from; the workload fingerprint and scheduling mode
          must match.  The resumed run is bit-identical to an
          uninterrupted one.
        * ``stop_after`` -- interrupt at the first boundary at or beyond
          this many total accesses: state is saved to ``checkpoint_path``
          (required) and :class:`SimulationInterrupted` is raised.  Used
          to shard a long trace across sessions/workers.
        * ``progress`` -- callable receiving a
          :class:`~repro.sim.telemetry.StreamProgress` at every boundary.
        """
        if stop_after is not None and checkpoint_path is None:
            raise ValueError("stop_after requires checkpoint_path")
        if checkpoint_every is None:
            checkpoint_every = (
                getattr(self.workload, "chunk_records", 0) or 65536
            )
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        phases: dict[str, float] = {}
        # Phase timing is measurement: it feeds SimResult.phases and the
        # ledger, never a counter or a cache key.
        mark = time.perf_counter()  # repro-lint: ignore[determinism]

        def lap(phase: str) -> None:
            """Charge the time since the previous lap to ``phase``."""
            nonlocal mark
            # Phase timing measurement (see ``mark`` above).
            now = time.perf_counter()  # repro-lint: ignore[determinism]
            phases[phase] = phases.get(phase, 0.0) + (now - mark)
            mark = now

        state = None
        if resume_from is not None:
            ck = (
                resume_from
                if isinstance(resume_from, SimCheckpoint)
                else load_checkpoint(resume_from)
            )
            ck.validate(self.workload.fingerprint(), self.scheduling)
            # The checkpoint's hierarchy/auditor/collector were pickled
            # together, so the collector still observes *this* hierarchy.
            self.hierarchy = ck.hierarchy
            auditor = ck.auditor
            collector = ck.collector
            state = ck.scheduler_state
            lap("checkpoint")
        else:
            config = self.hierarchy.config
            auditor = (
                InvariantAuditor(self.hierarchy, config.audit)
                if config.audit.enabled
                else None
            )
            collector = (
                TelemetryCollector(self.hierarchy, config.telemetry)
                if config.telemetry.enabled
                else None
            )
        if collector is not None:
            collector.bind()
        h = self.hierarchy
        cursor = _Cursor(self.workload, self.scheduling, state)
        # The fast engine's fused kernel runs its segments in both modes;
        # the object engine takes the generic per-access loop.
        segment = getattr(h, "run_segment", None) or self._run_segment
        total = self.workload.total_accesses()
        # Every periodic consumer counts accesses, so a segment runs to
        # the next position where any of them is due: an audit sweep
        # (after every ``interval``-th access, the last one included), a
        # telemetry sample, or a boundary (checkpoint, heartbeat and the
        # ``stop_after`` test).  Samples and boundaries never fire at
        # completion; ``finalize`` takes the tail sample.
        audit_every = auditor.params.interval if auditor is not None else 0
        sample_every = (
            collector.params.interval if collector is not None else 0
        )
        boundary_every = checkpoint_every if (
            checkpoint_path is not None
            or stop_after is not None
            or progress is not None
        ) else 0
        periods = [p for p in (audit_every, sample_every, boundary_every)
                   if p]

        def boundary(pos: int) -> None:
            # The checkpoint is saved *before* a ``stop_after`` interrupt
            # is raised, so the caller can always resume from its path.
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, SimCheckpoint(
                    version=CHECKPOINT_VERSION,
                    workload_fingerprint=self.workload.fingerprint(),
                    scheduling=self.scheduling,
                    accesses_done=pos,
                    scheduler_state=cursor.state(),
                    hierarchy=h,
                    auditor=auditor,
                    collector=collector,
                ))
            if progress is not None:
                progress(StreamProgress(
                    accesses_done=pos,
                    total_accesses=total,
                    chunk=pos // boundary_every,
                    chunks=(total + boundary_every - 1) // boundary_every,
                    checkpointed=checkpoint_path is not None,
                    label=getattr(self.workload, "name", ""),
                    engine=getattr(h, "engine_name", "object"),
                ))
            if stop_after is not None and pos >= stop_after:
                raise SimulationInterrupted(checkpoint_path, pos, total)

        segment(cursor, cursor.pos)  # empty: loads the first windows
        lap("decode")
        while cursor.pos < total:
            pos = cursor.pos
            stop = min([total] + [(pos // p + 1) * p for p in periods])
            segment(cursor, stop)
            lap("access_loop")
            if audit_every and stop % audit_every == 0:
                auditor.sweep(stop - 1)
                lap("audit")
            if stop == total:
                break
            if sample_every and stop % sample_every == 0:
                collector.sample(stop)
                lap("telemetry")
            if boundary_every and stop % boundary_every == 0:
                boundary(stop)
                lap("checkpoint")
        if cursor.lockstep:
            for cs in h.stats.cores:
                cs.cycles = total  # lockstep mode carries no timing meaning
            cycles = total
        else:
            cycles = max(cursor.finish, default=0)
        h.finalize_stats()
        report = auditor.finalize() if auditor is not None else None
        telemetry_result = (
            collector.finalize(h.stats.total_accesses)
            if collector is not None
            else None
        )
        lap("flush")
        return SimResult(
            stats=h.stats,
            cycles=cycles,
            scheme=h.scheme.name,
            policy=self.llc_policy_name,
            workload=self.workload.name,
            energy=h.energy,
            scheme_stats=h.scheme.on_stats(),
            audit=report,
            telemetry=telemetry_result,
            phases=phases,
        )

    def _run_segment(self, cursor: "_Cursor", stop: int) -> None:
        """Object-engine segment loop: accesses ``cursor.pos`` up to
        ``stop`` through ``CacheHierarchy.access``, in either scheduling
        mode.  (The fast engine's kernel is the fused twin of this loop:
        :meth:`~repro.sim.fast.FastHierarchy.run_segment`.)  Records come
        from each core's column window (:func:`_load_window`), refilled
        where a streamed trace's window ends."""
        h = self.hierarchy
        traces = cursor.traces
        if cursor.decoded is None:
            n = len(traces)
            cursor.decoded = ([()] * n, [()] * n, [()] * n, [()] * n,
                              [0] * n, [0] * n)
            for _ready, core, idx in cursor.heap:
                _load_window(cursor.decoded, traces[core], core, idx)
        gaps_t, addrs_t, writes_t, pcs_t, base_t, end_t = cursor.decoded
        access = h.access
        core_stats = h.stats.cores
        base_cpi = h.config.core.base_cpi
        heap = cursor.heap
        finish = cursor.finish
        lockstep = cursor.lockstep
        telemetry = h.telemetry
        heappush = heapq.heappush
        heappop = heapq.heappop
        for pos in range(cursor.pos, stop):
            ready, core, idx = heappop(heap)
            i = idx - base_t[core]
            gap = gaps_t[core][i]
            issue = pos if lockstep else ready + int(gap * base_cpi)
            if telemetry is not None:
                telemetry.access_index = pos
            done = issue + access(
                core,
                addrs_t[core][i],
                writes_t[core][i],
                pcs_t[core][i],
                cycle=issue,
                global_pos=pos,
            )
            cs = core_stats[core]
            cs.instructions += gap + 1
            idx += 1
            if idx == end_t[core] and idx < len(traces[core]):
                # a streamed trace's window ran out: read the next one
                _load_window(cursor.decoded, traces[core], core, idx)
            if idx < end_t[core]:
                heappush(heap, (idx if lockstep else done, core, idx))
            else:
                finish[core] = done
                cs.cycles = done
        cursor.pos = stop


def _load_window(decoded: tuple, trace, core: int, start: int) -> None:
    """Point ``core``'s slots of the object loop's ``decoded`` columns
    ``(gaps, addrs, writes, pcs, base, end)`` at the window holding
    record ``start``: an in-memory trace's whole columns, or the bounded
    window a streamed trace unpacks at ``start``
    (:meth:`~repro.sim.tracebin.BinCoreTrace.window`).  ``base`` and
    ``end`` are the window's first and past-the-last record indices."""
    gaps_t, addrs_t, writes_t, pcs_t, base_t, end_t = decoded
    window = getattr(trace, "window", None)
    if window is None:
        columns, base = (trace.gaps, trace.addrs, trace.writes, trace.pcs), 0
    else:
        columns, base = window(start), start
    gaps_t[core], addrs_t[core], writes_t[core], pcs_t[core] = columns
    base_t[core] = base
    end_t[core] = base + len(columns[1])


class _Cursor:
    """Scheduler position between segments (what checkpoints capture).

    ``heap`` holds one ``(ready, core, next_index)`` entry per core with
    records left.  Timing mode keys it by the cycle the core is ready;
    lockstep keys it by the access index, which pops the canonical
    round-robin order (paper footnote 2; ``trace.interleave_records``).
    Entries are unique per core, so the pop order after a checkpoint's
    re-heapify replays the uninterrupted order.  ``decoded`` belongs to
    the segment loop that runs the cursor (its per-run decode state)."""

    __slots__ = ("traces", "lockstep", "heap", "finish", "pos", "decoded")

    def __init__(self, workload: Workload, scheduling: str,
                 state: Optional[dict]) -> None:
        self.traces = list(workload)
        self.lockstep = scheduling == "lockstep"
        self.decoded = None
        if state is None:
            # Cores with an empty trace never issue: they finish
            # instantly with cycles=0 and must not seed the heap.
            self.heap = [
                (0, core, 0) for core, t in enumerate(workload) if len(t)
            ]
            self.finish = [0] * workload.cores
            self.pos = 0
        else:
            self.heap = [tuple(e) for e in state["heap"]]
            heapq.heapify(self.heap)
            self.finish = list(state["finish"])
            self.pos = state["global_pos"]

    def state(self) -> dict:
        return {
            "heap": list(self.heap),
            "finish": list(self.finish),
            "global_pos": self.pos,
        }


def run_workload(
    config,
    workload,
    scheme_name: str,
    llc_policy: str = "lru",
    scheduling: str = "timing",
    policy_kwargs: Optional[dict] = None,
    audit=None,
    telemetry=None,
    checkpoint_path=None,
    checkpoint_every: Optional[int] = None,
    resume_from=None,
    stop_after: Optional[int] = None,
    progress=None,
) -> SimResult:
    """Convenience one-call runner: run the recipe
    :func:`~repro.sim.parallel.make_recipe` builds from these arguments,
    here and now.

    The run takes the recipe path without its result cache: the
    workload resolves once (a :class:`~repro.sim.tracebin.TraceRef`
    opens and verifies its file, closed after the run; a
    :class:`~repro.workloads.SynthRef` synthesizes), ``make_recipe``
    turns ``audit``/``telemetry`` and the ``REPRO_AUDIT`` environment
    variable into config fields, and :meth:`RunRecipe.execute
    <repro.sim.parallel.RunRecipe.execute>` builds the hierarchy that
    ``config.engine`` names.  A ``"belady"`` run is lock-step and builds
    its own next-use oracle from the canonical stream.  The
    checkpoint/streaming keywords (``checkpoint_path``,
    ``checkpoint_every``, ``resume_from``, ``stop_after``, ``progress``)
    pass straight through to :meth:`Simulation.run`.

    Every completed call appends one ``"direct"`` provenance record to
    the run ledger under the recipe's key and config digest (see
    :mod:`repro.obs.ledger`; ``REPRO_LEDGER=off`` opts out).
    Interrupted runs (``stop_after`` checkpoints) do not append -- the
    resumed completion does, carrying its checkpoint lineage in
    ``resumed_from``."""
    from repro.sim.parallel import make_recipe, record_resolution
    from repro.sim.tracebin import TraceRef, resolve_workload

    resolved = resolve_workload(workload)
    try:
        recipe = make_recipe(
            resolved, scheme_name, llc_policy, scheduling, config=config,
            policy_kwargs=policy_kwargs, audit=audit, telemetry=telemetry,
        )
        key = recipe.key()
        # Ledger wall time is observability-only (it feeds the JSONL
        # record, never the SimResult).
        t0 = time.perf_counter()  # repro-lint: ignore[determinism]
        result = recipe.execute(
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
            stop_after=stop_after,
            progress=progress,
        )
        wall_s = time.perf_counter() - t0  # repro-lint: ignore[determinism]
    finally:
        if isinstance(workload, TraceRef):
            resolved.close()
    record_resolution(
        recipe, key, result, "direct", wall_s,
        resumed_from=(
            "" if resume_from is None
            else "<checkpoint object>"
            if isinstance(resume_from, SimCheckpoint)
            else str(resume_from)
        ),
    )
    return result
