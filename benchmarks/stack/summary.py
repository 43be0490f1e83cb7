"""Medians, quartiles and the comparison rule for sets of benchmark runs.

A set of runs is several runs of one workload, each with its own seed.
Two sets are compared metric by metric with the rule of the
``choosing-metrics`` guide (section 8) and each metric's bound:

* ``regressed``  -- the new median is worse than the base median by more
  than the bound;
* ``unresolved`` -- the base runs spread wider than the bound (quartile
  distance over median) and not every new run beats every base run;
* ``improved``   -- the new side wins at least nine tenths of the run
  pairs and the medians differ by more than the base quartile distance;
* ``unchanged``  -- anything else.
"""

from __future__ import annotations

import statistics


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(values: list) -> dict:
    q1, median, q3 = quartiles(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}


def _better(a: float, b: float, better: str) -> bool:
    return a > b if better == "higher" else a < b


def verdict(base: list, new: list, better: str, bound: float) -> dict:
    """Compare two lists of one metric's values (runs in the same order)."""
    b = describe(base)
    n = describe(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (n["median"] - b["median"]) / b["median"]
    pairs = list(zip(base, new))
    wins = sum(1 for old, cur in pairs if _better(cur, old, better))
    all_better = all(_better(cur, old, better) for cur in new for old in base)
    if worse > bound:
        label = "regressed"
    elif b["spread"] > bound and not all_better:
        label = "unresolved"
    elif (wins >= 0.9 * len(pairs) and worse < 0
          and abs(n["median"] - b["median"]) > b["q3"] - b["q1"]):
        label = "improved"
    else:
        label = "unchanged"
    return {"verdict": label, "base": b, "new": n, "worse": worse,
            "wins": wins, "pairs": len(pairs)}


def compare(base: dict, new: dict, spec: dict) -> list:
    """Rows ``(workload, metric, verdict dict)`` for every end-to-end
    metric of every workload present in both result files."""
    rows = []
    for workload in sorted(set(base["runs"]) & set(new["runs"])):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old = [r["metrics"][name]["value"] for r in base["runs"][workload]]
            cur = [r["metrics"][name]["value"] for r in new["runs"][workload]]
            rows.append((workload, name,
                         verdict(old, cur, metric["better"], metric["bound"])))
    return rows
