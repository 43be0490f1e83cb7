"""The other two TLA techniques: TLH and ECI (Jaleel et al., MICRO 2010).

The paper's Related Work describes all three Temporal-Locality-Aware
inclusive-cache techniques; QBS (the best, and the one the paper evaluates)
lives in :mod:`repro.schemes.qbs`.  For completeness and for ablation
benches we also implement:

* **TLH (temporal locality hints)** -- the private caches send hints about
  their hits so the LLC's recency state tracks true temporal locality.
  The cost is enormous hint bandwidth; we model an ideal (every L1/L2 hit
  hints) and a sampled variant via ``hint_rate``.
* **ECI (early core invalidation)** -- on an LLC replacement the *next*
  victim candidate is invalidated early from the core caches (while
  keeping its LLC copy), so a still-live block earns an LLC hit before it
  reaches the victim position and can be protected.  ECI trades extra
  (early) inclusion victims for fewer fatal ones.
"""

from __future__ import annotations

import random

from repro.cache.set_assoc import AccessContext
from repro.schemes.inclusive import InclusiveScheme


class TLHScheme(InclusiveScheme):
    """Inclusive LLC with temporal-locality hints from the private caches.

    The hierarchy calls :meth:`on_private_hit` for every private-cache hit
    (the hint); the scheme promotes the LLC copy's replacement state with
    probability ``hint_rate``."""

    name = "tlh"
    wants_private_hit_hints = True

    def __init__(self, hint_rate: float = 1.0, seed: int = 0x71A) -> None:
        super().__init__()
        if not 0.0 <= hint_rate <= 1.0:
            raise ValueError("hint_rate must be within [0, 1]")
        self.hint_rate = hint_rate
        self._rng = random.Random(seed)
        self.hints_sent = 0

    def on_private_hit(self, addr: int, ctx: AccessContext) -> None:
        if self.hint_rate < 1.0 and self._rng.random() >= self.hint_rate:
            return
        bank, set_idx, way = self.cmp.llc.location(addr)
        if way >= 0:
            self.cmp.llc.banks[bank].policy.on_hit(set_idx, way, ctx)
            self.hints_sent += 1

    def on_stats(self) -> dict:
        return {"hints_sent": self.hints_sent}


class ECIScheme(InclusiveScheme):
    """Inclusive LLC with early core invalidation.

    After the normal (back-invalidating) replacement, the next victim
    candidate's private copies are invalidated early.  If the block is
    still live, the core's next access to it hits in the LLC, refreshing
    its replacement state and saving it from the real eviction that would
    otherwise follow."""

    name = "eci"

    def __init__(self) -> None:
        super().__init__()
        self.early_invalidations = 0

    def after_replacement(
        self, bank: int, set_idx: int, way: int, ctx: AccessContext
    ) -> None:
        cache = self.cmp.llc.banks[bank]
        for candidate_way in cache.ranked_victims(set_idx, ctx):
            if candidate_way == way:
                continue
            candidate = cache.blocks[set_idx][candidate_way]
            if self.cmp.privately_cached(candidate.addr):
                # Early invalidation: kill the private copies but KEEP the
                # LLC copy so a live block can still earn an LLC hit.
                self.cmp.back_invalidate(candidate.addr)
                candidate.not_in_prc = True
                self.early_invalidations += 1
            break

    def on_stats(self) -> dict:
        return {"early_invalidations": self.early_invalidations}
