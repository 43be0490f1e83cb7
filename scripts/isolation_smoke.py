#!/usr/bin/env python3
"""CI shared-data isolation smoke: the paper's title claim at scale.

In lock-step scheduling under a ZeroDEV directory, each core's private
counters ``(l1_hits, l1_misses, l2_hits, l2_misses)`` under every ZIV
rule, and under the oracle design, must equal its counters under a
non-inclusive LLC on the same workload: the access order is fixed, no
LLC eviction back-invalidates, and the coherence traffic from shared
data is the same under both LLCs.  ``tests/test_isolation.py`` checks
this at a miniature geometry; this script checks it at
``scaled_config("256KB")`` on 8 cores of ``canneal``.  An inclusive LLC
is the control: its inclusion victims must make some core differ.  The
cells must also make relocated hits, the path the relation guards.

Exits non-zero on the first failed check:

    PYTHONPATH=src python scripts/isolation_smoke.py
"""

from __future__ import annotations

import sys

from repro.params import scaled_config
from repro.sim.parallel import make_recipe
from repro.workloads import multithreaded_workload

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


def main() -> int:
    workload = multithreaded_workload("canneal", cores=8, n_accesses=5000,
                                      seed=7)
    config = scaled_config("256KB", directory_mode="zerodev")

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
        print(f"{scheme}/{policy}: {differ} of {len(base)} cores differ, "
              f"{result.stats.relocated_hits} relocated hits, "
              f"{result.stats.inclusion_victims_llc} inclusion victims")
        if differ or result.stats.inclusion_victims_llc:
            failures.append(f"{scheme}/{policy} does not isolate the cores")
    if relocated_hits == 0:
        failures.append("no cell made a relocated hit")

    control = run("inclusive")
    differ = differing(control)
    print(f"inclusive/lru (control): {differ} of {len(base)} cores differ, "
          f"{control.stats.inclusion_victims_llc} inclusion victims")
    if not differ or not control.stats.inclusion_victims_llc:
        failures.append("the inclusive control matched the non-inclusive "
                        "run on every core")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
