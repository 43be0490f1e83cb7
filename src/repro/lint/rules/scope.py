"""Shared rule scopes."""

from __future__ import annotations

#: Directories whose code feeds cached simulation results.  Workloads,
#: security harnesses and experiment drivers intentionally sit outside:
#: they use seeded RNG by construction and never run inside the engine's
#: per-access loop.  Scope matching is by path component, so ``sim``
#: already covers nested packages; ``fast`` is listed explicitly so the
#: array-state engine (``repro.sim.fast``) stays covered even if it is
#: ever promoted to a top-level package.
SIMULATOR_SCOPE = frozenset(
    ("cache", "core", "coherence", "hierarchy", "schemes", "sim", "fast")
)

#: Directories holding threaded / forked code: the HTTP job service,
#: the observability writers it shares with the CLI, and the parallel
#: runner whose pool workers the service dispatches to.
#: ``lock-discipline`` only engages classes that construct a ``threading``
#: lock, so including all of ``sim`` costs nothing (the simulator core
#: is single-threaded by design and must stay that way).
CONCURRENCY_SCOPE = frozenset(("service", "obs", "sim"))

#: Where bitwise determinism is enforced.  PR 10 widened this beyond
#: the simulator: the service serves cached results whose byte-identity
#: contract is only as strong as the code around the cache, and the
#: observability layer's wall-clock use must be *visible* (each read
#: carries a rationale suppression) rather than assumed harmless.
DETERMINISM_SCOPE = SIMULATOR_SCOPE | frozenset(("service", "obs"))
