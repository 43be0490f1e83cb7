"""Golden regression values.

Exact counter values for fixed workload seeds and configurations.  These
pin the simulator's behaviour bit-for-bit: any refactor (especially
performance work) that changes a number here has changed *semantics*, not
just speed.  If a change is intentional, regenerate with
``python tests/test_golden.py``.
"""

import pytest

from repro.params import scaled_config
from repro.sim.engine import run_workload
from repro.workloads import (
    heterogeneous_mixes,
    homogeneous_mix,
    multithreaded_workload,
)

# (workload, scheme, policy) -> (cycles, llc_hits, llc_misses, l2_misses,
#                                inclusion_victims_llc, relocations,
#                                eviction_notices)
GOLDEN = {
    ("homo", "inclusive", "lru"): (285683, 2790, 8517, 11307, 168, 0, 10182),
    ("homo", "noninclusive", "hawkeye"): (194557, 6911, 4361, 11272, 0, 0, 10207),
    ("homo", "ziv:likelydead", "lru"): (299689, 1950, 9322, 11272, 0, 170, 10217),
    ("homo", "ziv:mrlikelydead", "hawkeye"): (202707, 5695, 5580, 11275, 0, 1477, 10151),
    ("homo", "qbs", "lru"): (300371, 2098, 9176, 11274, 0, 0, 10220),
    ("homo", "sharp", "hawkeye"): (220191, 5381, 5890, 11271, 0, 0, 10212),
    ("homo", "charonbase", "lru"): (294719, 2243, 9055, 11298, 176, 0, 10182),
    ("homo", "tlh", "lru"): (272292, 3315, 7957, 11272, 106, 0, 10224),
    ("homo", "eci", "lru"): (299354, 2290, 9025, 11315, 243, 0, 10162),
    ("homo", "ziv:notinprc", "lru"): (316574, 1060, 10212, 11272, 0, 8, 10219),
    ("homo", "ziv:lrunotinprc", "lru"): (306266, 1933, 9342, 11275, 0, 215, 10188),
    ("homo", "ziv:maxrrpvnotinprc", "hawkeye"): (203742, 5603, 5669, 11272, 0, 1619, 10231),
    # Lock-step (the oracle's only mode), so cycles count the accesses.
    ("homo", "ziv:oracle", "lru"): (12000, 1069, 10207, 11276, 0, 112, 10184),
    ("hetero", "inclusive", "lru"): (340709, 165, 5822, 5987, 492, 0, 5102),
    ("hetero", "noninclusive", "hawkeye"): (314354, 757, 5216, 5973, 0, 0, 5110),
    ("hetero", "ziv:likelydead", "lru"): (339232, 178, 5795, 5973, 0, 86, 5110),
    ("hetero", "ziv:mrlikelydead", "hawkeye"): (332873, 429, 5544, 5973, 0, 2436, 5110),
    ("hetero", "qbs", "lru"): (340885, 166, 5808, 5974, 0, 0, 5109),
    ("hetero", "sharp", "hawkeye"): (330916, 454, 5519, 5973, 0, 0, 5110),
    ("mt", "inclusive", "lru"): (122306, 8079, 2677, 10756, 37, 0, 9096),
    ("mt", "noninclusive", "hawkeye"): (112815, 8200, 2553, 10753, 0, 0, 9258),
    ("mt", "ziv:likelydead", "lru"): (119630, 8096, 2645, 10741, 0, 31, 9134),
    ("mt", "ziv:mrlikelydead", "hawkeye"): (112902, 8204, 2552, 10756, 0, 131, 9245),
    ("mt", "qbs", "lru"): (121095, 8074, 2666, 10740, 0, 0, 9132),
    ("mt", "sharp", "hawkeye"): (117281, 8144, 2603, 10747, 0, 0, 9185),
}


def _workload(name):
    if name == "homo":
        return homogeneous_mix("xalancbmk.2", cores=8, n_accesses=1500,
                               seed=42)
    if name == "hetero":
        return heterogeneous_mixes(n_mixes=1, cores=8, n_accesses=1500,
                                   seed=9)[0]
    return multithreaded_workload("applu", cores=8, n_accesses=1500, seed=3)


def _measure(key):
    wl_name, scheme, policy = key
    r = run_workload(scaled_config("512KB"), _workload(wl_name), scheme,
                     llc_policy=policy)
    s = r.stats
    return (
        r.cycles,
        s.llc_hits,
        s.llc_misses,
        s.l2_misses,
        s.inclusion_victims_llc,
        s.relocations,
        s.eviction_notices,
    )


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "-".join(k))
def test_golden(key):
    assert _measure(key) == GOLDEN[key]


def regenerate() -> None:  # pragma: no cover - maintenance helper
    for key in sorted(GOLDEN):
        print(f"    {key}: {_measure(key)},")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
