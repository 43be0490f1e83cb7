"""Baseline inclusive LLC: evictions back-invalidate private copies."""

from __future__ import annotations

from repro.cache.set_assoc import AccessContext
from repro.schemes.base import InclusionScheme


class InclusiveScheme(InclusionScheme):
    """The classic inclusive LLC (paper Section I).

    On a fill, the baseline replacement policy picks the victim from the
    target set; if the victim has privately cached copies, they are
    forcefully invalidated (back-invalidation), producing inclusion
    victims.
    """

    name = "inclusive"
    inclusive = True

    def victim(self, bank: int, set_idx: int, ctx: AccessContext) -> int:
        cache = self.cmp.llc.banks[bank]
        way = cache.policy.victim(set_idx, ctx)
        self.cmp.back_invalidate(cache.blocks[set_idx][way].addr)
        return way
