"""Replacement-policy strategies for :class:`SetAssociativeCache`.

The paper evaluates two baseline LLC policies -- LRU and Hawkeye -- plus an
offline Belady MIN oracle for the motivation study, and uses 1-bit NRU in
the sparse directory.  SRRIP/BRRIP/DRRIP are included because Hawkeye is
built on the RRPV substrate and because they make useful ablation baselines.
"""

from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.nru import NRUPolicy
from repro.cache.replacement.random_policy import RandomPolicy
from repro.cache.replacement.srrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy
from repro.cache.replacement.classic import (
    BIPPolicy,
    FIFOPolicy,
    LIPPolicy,
    TreePLRUPolicy,
)
from repro.cache.replacement.ship import SHiPPolicy
from repro.cache.replacement.hawkeye import HawkeyePolicy
from repro.cache.replacement.belady import BeladyPolicy, NextUseOracle

__all__ = [
    "ReplacementPolicy",
    "LRUPolicy",
    "NRUPolicy",
    "RandomPolicy",
    "SRRIPPolicy",
    "BRRIPPolicy",
    "DRRIPPolicy",
    "FIFOPolicy",
    "TreePLRUPolicy",
    "LIPPolicy",
    "BIPPolicy",
    "SHiPPolicy",
    "HawkeyePolicy",
    "BeladyPolicy",
    "NextUseOracle",
    "POLICIES",
    "make_policy",
]

#: The policies :func:`make_policy` builds by name.  ``belady`` is not
#: among them: the LLC builds it around a next-use oracle.
POLICIES = {
    "lru": LRUPolicy,
    "nru": NRUPolicy,
    "random": RandomPolicy,
    "srrip": SRRIPPolicy,
    "brrip": BRRIPPolicy,
    "drrip": DRRIPPolicy,
    "fifo": FIFOPolicy,
    "plru": TreePLRUPolicy,
    "lip": LIPPolicy,
    "bip": BIPPolicy,
    "ship": SHiPPolicy,
    "hawkeye": HawkeyePolicy,
}


def make_policy(name: str, **kwargs) -> ReplacementPolicy:
    """Build a replacement policy by name ("lru", "hawkeye", ...)."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; known: {sorted(POLICIES)}"
        ) from None
    return cls(**kwargs)
