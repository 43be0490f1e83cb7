"""Check: simulator code must be bitwise deterministic.

The persistent result cache (:mod:`repro.sim.parallel`) serves a cached
``SimResult`` whenever a recipe's content hash matches -- which is only
sound if re-running the simulation would reproduce the result bit for
bit.  Three constructs silently break that:

* **module-level ``random`` calls** (``random.random()``,
  ``random.Random()`` with no seed, ``random.shuffle(...)``): state is
  shared, unseeded and process-global.  Every RNG in simulator code must
  be a ``random.Random(seed)`` instance.
* **wall-clock reads** (``time.time()``, ``time.perf_counter()``,
  ``datetime.now()``): any value derived from them differs across runs.
* **iteration over set displays/constructors**: for strings (and any
  object using the default hash) iteration order depends on
  ``PYTHONHASHSEED``, so ``for x in {...}`` can reorder evictions
  between two runs of the same recipe.

Pure wall-clock *reporting* (progress heartbeats that never touch a
``SimResult``) is the intended use of the per-line suppression comment.
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping, Optional

#: ``random.<fn>`` calls that hit the module-global, unseeded RNG.
GLOBAL_RANDOM_FUNCS = frozenset(
    (
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    )
)

#: ``time.<fn>`` wall-clock reads.
CLOCK_FUNCS = frozenset(
    (
        "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns",
        "process_time", "process_time_ns", "time", "time_ns",
    )
)

#: ``datetime``-style "now" constructors.
DATE_FUNCS = frozenset(("now", "today", "utcnow"))


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_message(node: ast.Call, name: str) -> Optional[str]:
    head, _, tail = name.rpartition(".")
    if head == "random" and tail in GLOBAL_RANDOM_FUNCS:
        return (
            f"call to module-level random.{tail}() uses the shared "
            f"unseeded RNG and poisons result-cache determinism; "
            f"use a random.Random(seed) instance"
        )
    if name == "random.Random" and not node.args and not node.keywords:
        return (
            "random.Random() without a seed draws entropy from the "
            "OS; pass an explicit seed"
        )
    if head.split(".")[-1] == "time" and tail in CLOCK_FUNCS:
        return (
            f"wall-clock read {name}() makes simulation output "
            f"run-dependent; derive timing from simulated cycles"
        )
    if tail in DATE_FUNCS and "datetime" in head.split("."):
        return (
            f"{name}() reads the wall clock; simulation state must "
            f"not depend on real time"
        )
    return None


def _iter_message(it: ast.expr) -> Optional[str]:
    if isinstance(it, (ast.Set, ast.SetComp)):
        bad = "a set display"
    elif (
        isinstance(it, ast.Call)
        and isinstance(it.func, ast.Name)
        and it.func.id in ("set", "frozenset")
    ):
        bad = f"{it.func.id}(...)"
    else:
        return None
    return (
        f"iteration over {bad}: set order depends on "
        f"PYTHONHASHSEED for str keys; iterate a sorted() or "
        f"insertion-ordered sequence instead"
    )


def check_determinism(
    tree: ast.Module, markers: Mapping[int, Mapping[str, tuple[str, ...]]]
) -> Iterator[tuple[int, str]]:
    """``(line, message)`` for every unseeded RNG, wall-clock read and
    set-order iteration in ``tree``; ``markers`` are not consulted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            message = None if name is None else _call_message(node, name)
            if message is not None:
                yield node.lineno, message
        elif isinstance(node, (ast.For, ast.comprehension)):
            message = _iter_message(node.iter)
            if message is not None:
                yield node.iter.lineno, message
