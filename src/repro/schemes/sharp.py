"""SHARP victim selection (Yan et al., ISCA 2017).

SHARP's three-step LLC victim search (paper Section II):

1. prefer a block with **no** private copies;
2. else a block cached privately **only by the requesting core**;
3. else a **random** block (incrementing an alarm counter) -- this step
   generates inclusion victims, so SHARP cannot guarantee freedom from
   them.

Within steps 1 and 2 candidates are considered in the baseline policy's
victimisation order, as the paper prescribes for its evaluation.
"""

from __future__ import annotations

import random

from repro.cache.set_assoc import AccessContext
from repro.schemes.base import InclusionScheme


class SHARPScheme(InclusionScheme):
    name = "sharp"
    inclusive = True

    def __init__(self, seed: int = 0x5A4B) -> None:
        super().__init__()
        self._rng = random.Random(seed)

    def victim(self, bank: int, set_idx: int, ctx: AccessContext) -> int:
        cmp = self.cmp
        cache = cmp.llc.banks[bank]
        candidates = list(cache.ranked_victims(set_idx, ctx))
        requester_mask = 1 << ctx.core
        chosen = -1
        # Step 1: not resident in any private cache.
        for way in candidates:
            if not cmp.privately_cached(cache.blocks[set_idx][way].addr):
                chosen = way
                break
        if chosen < 0:
            # Step 2: resident only in the requesting core's private cache.
            for way in candidates:
                sharers = cmp.sharer_mask(cache.blocks[set_idx][way].addr)
                if sharers == requester_mask:
                    chosen = way
                    break
        if chosen < 0:
            # Step 3: random victim; raises the alarm counter.
            chosen = self._rng.choice(candidates)
            cmp.stats.sharp_alarms += 1
        cmp.back_invalidate(cache.blocks[set_idx][chosen].addr)
        return chosen
