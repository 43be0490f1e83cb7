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

from repro.cache.block import CacheBlock
from repro.cache.set_assoc import AccessContext
from repro.schemes.base import InclusionScheme


class QBSScheme(InclusionScheme):
    name = "qbs"
    inclusive = True

    def install(self, addr: int, ctx: AccessContext) -> CacheBlock:
        cmp = self.cmp
        bank = cmp.llc.bank_of(addr)
        set_idx = cmp.llc.set_of(addr)
        cache = cmp.llc.banks[bank]
        way = cache.find_invalid_way(set_idx)
        if way >= 0:
            return self._install_into(bank, set_idx, way, addr, ctx)

        candidates = list(cache.ranked_victims(set_idx, ctx))
        chosen = -1
        for way in candidates:
            victim = cache.blocks[set_idx][way]
            if cmp.privately_cached(victim.addr):
                # Query says resident: protect the block by promotion and
                # try the next candidate.
                cache.promote(set_idx, way, ctx)
                cmp.stats.qbs_retries += 1
            else:
                chosen = way
                break
        if chosen < 0:
            # Every block in the set is privately cached: fall back to the
            # baseline victim and pay the inclusion victims.
            chosen = candidates[0]
            cmp.stats.qbs_failures += 1
            victim = cache.blocks[set_idx][chosen]
            cmp.back_invalidate(victim.addr)
        self._evict_clean_or_writeback(bank, set_idx, chosen, ctx)
        return self._install_into(bank, set_idx, chosen, addr, ctx)
