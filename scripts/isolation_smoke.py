#!/usr/bin/env python3
"""CI shared-data isolation smoke: the paper's title claim at scale.

In lock-step scheduling under a ZeroDEV directory, each core's private
counters ``(l1_hits, l1_misses, l2_hits, l2_misses)`` under every ZIV
rule, and under the oracle design, must equal its counters under a
non-inclusive LLC on the same workload: the access order is fixed, no
LLC eviction back-invalidates, and the coherence traffic from shared
data is the same under both LLCs.  ``tests/test_isolation.py`` checks
this at a miniature geometry; this script checks it at
``scaled_config("256KB")`` on 8 cores of ``canneal`` and on two
heterogeneous 8-core mixes (20,000 accesses per core).  An inclusive LLC
is the control: its inclusion victims must make some core differ.  The
``canneal`` cells must also make relocated hits, the path the relation
guards; the mixes make none, since no core touches another's blocks.

Exits non-zero on the first failed check:

    PYTHONPATH=src python scripts/isolation_smoke.py
"""

from __future__ import annotations

import sys

from repro.params import scaled_config
from repro.sim.parallel import make_recipe
from repro.workloads import heterogeneous_mixes, multithreaded_workload

#: Every ZIV rule under the LLC policy it was designed for, then the
#: oracle design.
CELLS = (
    ("ziv:notinprc", "lru"),
    ("ziv:lrunotinprc", "lru"),
    ("ziv:maxrrpvnotinprc", "srrip"),
    ("ziv:likelydead", "lru"),
    ("ziv:mrlikelydead", "hawkeye"),
    ("ziv:oracle", "lru"),
)


def private_counts(result) -> list[tuple]:
    return [(c.l1_hits, c.l1_misses, c.l2_hits, c.l2_misses)
            for c in result.stats.cores]


def check(workload, config, relocated_floor: bool) -> list[str]:
    """Run every cell and the control on ``workload``; the failures.
    ``relocated_floor`` asks the cells for at least one relocated hit."""

    def run(scheme, policy="lru"):
        return make_recipe(workload, scheme, policy, scheduling="lockstep",
                           config=config).execute()

    base = private_counts(run("noninclusive"))

    def differing(result) -> int:
        return sum(a != b for a, b in zip(private_counts(result), base))

    failures = []
    relocated_hits = 0
    for scheme, policy in CELLS:
        result = run(scheme, policy)
        differ = differing(result)
        relocated_hits += result.stats.relocated_hits
        print(f"{workload.name} {scheme}/{policy}: {differ} of {len(base)} "
              f"cores differ, {result.stats.relocated_hits} relocated hits, "
              f"{result.stats.inclusion_victims_llc} inclusion victims")
        if differ or result.stats.inclusion_victims_llc:
            failures.append(f"{workload.name} {scheme}/{policy} does not "
                            f"isolate the cores")
    if relocated_floor and relocated_hits == 0:
        failures.append(f"no {workload.name} cell made a relocated hit")

    control = run("inclusive")
    differ = differing(control)
    print(f"{workload.name} inclusive/lru (control): {differ} of {len(base)} "
          f"cores differ, {control.stats.inclusion_victims_llc} inclusion "
          f"victims")
    if not differ or not control.stats.inclusion_victims_llc:
        failures.append(f"the {workload.name} inclusive control matched the "
                        f"non-inclusive run on every core")
    return failures


def main() -> int:
    config = scaled_config("256KB", directory_mode="zerodev")
    failures = check(multithreaded_workload("canneal", cores=8,
                                            n_accesses=5000, seed=7),
                     config, relocated_floor=True)
    for mix in heterogeneous_mixes(n_mixes=2, cores=8, n_accesses=20000,
                                   seed=7):
        failures += check(mix, config, relocated_floor=False)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
