"""Query-based selection (QBS) from the TLA study (Jaleel et al., MICRO 2010).

QBS queries the private caches before evicting an LLC victim candidate: if
the candidate is privately resident, it is moved to the MRU position and
the next candidate is considered.  The paper notes that with an up-to-date
sparse directory the "query" is a directory lookup (III-A), and that QBS
generalises to any baseline policy by walking candidates in the policy's
victimisation order.  QBS offers **no guarantee**: if every candidate is
privately cached, the baseline victim is evicted and inclusion victims are
generated (these fall out as ``qbs_failures``).
"""

from __future__ import annotations

from repro.cache.set_assoc import AccessContext
from repro.schemes.base import InclusionScheme


class QBSScheme(InclusionScheme):
    name = "qbs"
    inclusive = True

    def victim(self, bank: int, set_idx: int, ctx: AccessContext) -> int:
        cmp = self.cmp
        cache = cmp.llc.banks[bank]
        candidates = list(cache.ranked_victims(set_idx, ctx))
        for way in candidates:
            if not cmp.privately_cached(cache.blocks[set_idx][way].addr):
                return way
            # Query says resident: protect the block by promotion and try
            # the next candidate.
            cache.promote(set_idx, way, ctx)
            cmp.stats.qbs_retries += 1
        # Every block in the set is privately cached: fall back to the
        # baseline victim and pay the inclusion victims.
        cmp.stats.qbs_failures += 1
        cmp.back_invalidate(cache.blocks[set_idx][candidates[0]].addr)
        return candidates[0]
