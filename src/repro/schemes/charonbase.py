"""CHARonBase: CHAR-assisted in-set victim choice (paper Section V-A).

If the baseline policy's victim has privately cached copies, victimise
instead the LikelyDead block (per CHAR's inference) that the baseline
policy ranks highest; if the target set holds no LikelyDead block, fall
back to the baseline victim -- possibly generating inclusion victims.  The
paper uses this design to show that a *local* dead-block-assisted choice is
not enough: ZIV's global relocation-set selection beats it as the L2 grows.
"""

from __future__ import annotations

from repro.cache.set_assoc import AccessContext
from repro.schemes.base import InclusionScheme


class CHAROnBaseScheme(InclusionScheme):
    name = "charonbase"
    inclusive = True
    needs_char = True

    def victim(self, bank: int, set_idx: int, ctx: AccessContext) -> int:
        cmp = self.cmp
        cache = cmp.llc.banks[bank]
        chosen = cache.policy.victim(set_idx, ctx)
        if cmp.privately_cached(cache.blocks[set_idx][chosen].addr):
            for way in cache.ranked_victims(set_idx, ctx):
                if cache.blocks[set_idx][way].likely_dead:
                    chosen = way
                    break
        cmp.back_invalidate(cache.blocks[set_idx][chosen].addr)
        return chosen
