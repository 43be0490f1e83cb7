"""SynthRef: a synthesized workload named by its generator spec.

The profile and multi-threaded generators are deterministic functions
of ``(app, cores, accesses, seed)``, so a recipe can carry those values
in place of the records, as :class:`~repro.sim.tracebin.TraceRef`
carries a path in place of a trace file's records.  The records then
exist only where the recipe executes."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.config_io import RecipeError
from repro.sim.trace import Workload
from repro.workloads.mixes import homogeneous_mix
from repro.workloads.multithreaded import MT_APP_NAMES, multithreaded_workload
from repro.workloads.profiles import ALL_PROFILE_NAMES

#: kind -> (generator, known apps, prefix of the generated workload's
#: name).
_KINDS = {
    "profile": (homogeneous_mix, ALL_PROFILE_NAMES, "homo-"),
    "mt": (multithreaded_workload, MT_APP_NAMES, "mt-"),
}


@dataclass(frozen=True)
class SynthRef:
    """Spec of one synthesized workload: a homogeneous mix of a named
    profile (``kind="profile"``) or a multi-threaded app (``"mt"``).

    :meth:`fingerprint` equals the fingerprint of the workload
    :meth:`resolve` builds, so a recipe carrying the ref has the cache
    key of one carrying the records."""

    kind: str
    app: str
    cores: int = 8
    accesses: int = 20000
    seed: int = 0

    def __post_init__(self) -> None:
        # A RecipeError is a ValueError whose ``field`` names the bad
        # field, which the service reports as ``workload.<field>``.
        if self.kind not in _KINDS:
            raise RecipeError(f"unknown synthesized-workload kind "
                              f"{self.kind!r}; known: {sorted(_KINDS)}",
                              field="kind")
        known = _KINDS[self.kind][1]
        if self.app not in known:
            raise RecipeError(f"unknown {self.kind!r} app {self.app!r}; "
                              f"known: {known}", field="app")
        if self.cores < 1:
            raise RecipeError(f"a workload needs at least one core, "
                              f"got cores={self.cores}", field="cores")
        if self.accesses < 0:
            raise RecipeError(f"accesses must be >= 0, got "
                              f"accesses={self.accesses}", field="accesses")

    @classmethod
    def parse(cls, spec: str, cores: int, accesses: int,
              seed: int = 0) -> "SynthRef":
        """The command-line form: a profile name, or ``mt:<app>``."""
        if spec.startswith("mt:"):
            return cls("mt", spec[3:], cores, accesses, seed)
        return cls("profile", spec, cores, accesses, seed)

    @property
    def name(self) -> str:
        return _KINDS[self.kind][2] + self.app

    def resolve(self) -> Workload:
        """Synthesize the workload; it holds no resources to close."""
        build = _KINDS[self.kind][0]
        return build(self.app, cores=self.cores, n_accesses=self.accesses,
                     seed=self.seed)

    def fingerprint(self) -> str:
        """Duck-types :meth:`Workload.fingerprint` for the cache key."""
        return _fingerprint(self)


@functools.lru_cache(maxsize=1024)
def _fingerprint(ref: SynthRef) -> str:
    """Synthesize once per spec per process; only the hash is kept."""
    return ref.resolve().fingerprint()
