"""Non-inclusive LLC: evictions leave private copies alone."""

from __future__ import annotations

from repro.schemes.base import InclusionScheme


class NonInclusiveScheme(InclusionScheme):
    """The paper's non-inclusive comparison point (Section I).

    Implements the first inclusion action (allocate on fill) but not the
    second (no back-invalidation): its victim is the baseline policy's,
    whatever the private caches hold.  The hierarchy handles the resulting
    "fourth case" -- directory hit with LLC miss -- by forwarding data from
    a sharer core, which is exactly the coherence complication the paper
    credits inclusive designs with avoiding.
    """

    name = "noninclusive"
    inclusive = False
