"""SystemConfig (de)serialisation.

Lets users describe machines in JSON instead of Python -- the equivalent
of Multi2Sim's configuration files.  Round-trips every field of
:class:`~repro.params.SystemConfig` and validates through the dataclass
constructors, so a malformed file fails with the same
:class:`~repro.params.ConfigError` diagnostics as Python construction.

Example::

    {
      "cores": 8,
      "l1":  {"sets": 2,  "ways": 8, "latency": 1},
      "l2":  {"sets": 16, "ways": 8, "latency": 5},
      "llc": {"banks": 8, "sets_per_bank": 16, "ways": 16},
      "directory": {"sets": 32, "ways": 8},
      "directory_mode": "mesi"
    }
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path
from typing import Any, get_type_hints

from repro.params import (
    ENGINES,
    ConfigError,
    SystemConfig,
    fast_supports,
)


class RecipeError(ConfigError):
    """A configuration/recipe dict was rejected.

    ``field`` names the offending key as a dotted path into the
    submitted object (``"config.engine"``, ``"workload.app"``; ``""``
    when the error has no single attributable key).  The simulation
    service surfaces it in structured JSON rejections, so remote
    clients learn *which* part of a submission to fix without parsing
    prose."""

    def __init__(self, message: str, field: str = "") -> None:
        super().__init__(message)
        self.field = field


def _prefixed(err: "RecipeError", prefix: str) -> "RecipeError":
    """Re-root a :class:`RecipeError` under an enclosing key."""
    field = f"{prefix}.{err.field}" if err.field else prefix
    return RecipeError(str(err), field)


#: Section name -> class for every dataclass-typed ``SystemConfig``
#: field, and every top-level key a config dict may carry.  Both derive
#: from the dataclass, so a new field round-trips (and reaches the
#: recipe cache key) with no edit here.
_SECTIONS: dict[str, type[Any]] = {
    name: hint
    for name, hint in get_type_hints(SystemConfig).items()
    if isinstance(hint, type) and dataclasses.is_dataclass(hint)
}
_CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(SystemConfig))


def config_to_dict(config: SystemConfig) -> dict[str, Any]:
    """Nested plain-dict form of a configuration."""
    return dataclasses.asdict(config)


def _config_json(config: SystemConfig) -> str:
    """Canonical JSON text of a configuration (sorted keys): its share of
    every recipe key and ledger ``config_digest``.

    Serialised once per process per configuration.  The memo is keyed by
    value *and* by ``repr``, because configurations that compare equal
    can serialise apart (``1`` against ``1.0``).  Callers get immutable
    text, never the dict it was made from."""
    return _config_json_memo(config, repr(config))


@functools.lru_cache(maxsize=256)
def _config_json_memo(config: SystemConfig, _exact: str) -> str:
    return json.dumps(config_to_dict(config), sort_keys=True)


def config_from_dict(data: dict[str, Any]) -> SystemConfig:
    """Build a :class:`SystemConfig` from a nested dict.

    Unknown keys raise :class:`ConfigError` (catching typos beats silently
    ignoring them).  Errors attributable to one key raise the
    :class:`RecipeError` subclass with ``field`` naming it, so the
    simulation service can reject submissions with a structured pointer
    at the offending key rather than prose alone."""
    if not isinstance(data, dict):
        raise RecipeError("configuration must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise RecipeError(
            f"unknown configuration keys: {sorted(unknown)}",
            field=sorted(unknown)[0],
        )
    engine = data.get("engine")
    if engine is not None and engine not in ENGINES:
        raise RecipeError(
            f"unknown engine {engine!r}; known: {list(ENGINES)}",
            field="engine",
        )
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        cls = _SECTIONS.get(key)
        if cls is None:
            kwargs[key] = value
            continue
        if not isinstance(value, dict):
            raise RecipeError(f"section {key!r} must be an object",
                              field=key)
        field_names = {f.name for f in dataclasses.fields(cls)}
        bad = set(value) - field_names
        if bad:
            raise RecipeError(
                f"unknown keys in section {key!r}: {sorted(bad)}",
                field=f"{key}.{sorted(bad)[0]}",
            )
        try:
            kwargs[key] = cls(**value)
        except TypeError as exc:
            raise RecipeError(f"section {key!r}: {exc}",
                              field=key) from exc
    try:
        return SystemConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def save_config(config: SystemConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2))


def load_config(path: str | Path) -> SystemConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)


def trace_ref_to_dict(ref: Any) -> dict[str, Any]:
    """Plain-dict form of a :class:`~repro.sim.tracebin.TraceRef`, so
    recipe submissions can name on-disk traces in JSON (path + content
    fingerprint + workload name) instead of shipping records."""
    return {
        "path": ref.path,
        "fingerprint": ref.fingerprint(),
        "name": ref.name,
    }


def trace_ref_from_dict(data: dict[str, Any]) -> Any:
    """Rebuild a :class:`~repro.sim.tracebin.TraceRef` from its dict
    form.  ``path`` and ``fingerprint`` are required; resolution (and
    fingerprint verification) happens later, at execution time."""
    from repro.sim.tracebin import TraceRef

    if not isinstance(data, dict):
        raise ConfigError("trace reference must be a JSON object")
    unknown = set(data) - {"path", "fingerprint", "name"}
    if unknown:
        raise ConfigError(
            f"unknown trace-reference keys: {sorted(unknown)}"
        )
    missing = {"path", "fingerprint"} - set(data)
    if missing:
        raise ConfigError(
            f"trace reference needs keys: {sorted(missing)}"
        )
    return TraceRef(
        data["path"], data["fingerprint"], name=data.get("name", "")
    )


# ---------------------------------------------------------------------------
# Workload + recipe dict forms (the simulation service's wire format)
# ---------------------------------------------------------------------------

#: Recognised ``workload.kind`` values and the keys each form accepts.
_WORKLOAD_KINDS: dict[str, frozenset[str]] = {
    "records": frozenset({"kind", "name", "cores"}),
    "trace": frozenset({"kind", "path", "fingerprint", "name"}),
    "profile": frozenset({"kind", "app", "cores", "accesses", "seed"}),
    "mt": frozenset({"kind", "app", "cores", "accesses", "seed"}),
}


def workload_to_dict(workload: Any) -> dict[str, Any]:
    """Plain-dict form of a workload for JSON submission.

    :class:`~repro.sim.tracebin.TraceRef` serialises as its path +
    fingerprint stand-in (``kind="trace"``) and a
    :class:`~repro.workloads.SynthRef` as its generator spec
    (``kind="profile"``/``"mt"``), neither shipping records; an
    in-memory :class:`~repro.sim.trace.Workload` serialises every
    record (``kind="records"``).  Either way a remote server
    reconstructs a workload with the identical content fingerprint --
    and therefore the identical result-cache key."""
    from repro.sim.tracebin import TraceRef
    from repro.workloads import SynthRef

    if isinstance(workload, TraceRef):
        out: dict[str, Any] = {"kind": "trace"}
        out.update(trace_ref_to_dict(workload))
        return out
    if isinstance(workload, SynthRef):
        return dataclasses.asdict(workload)
    return {
        "kind": "records",
        "name": workload.name,
        "cores": [
            {
                "name": trace.name,
                "records": [
                    [r.gap, r.addr, 1 if r.is_write else 0, r.pc]
                    for r in trace
                ],
            }
            for trace in workload.traces
        ],
    }


def _require_keys(data: dict[str, Any], kind: str) -> None:
    allowed = _WORKLOAD_KINDS[kind]
    unknown = set(data) - allowed
    if unknown:
        raise RecipeError(
            f"unknown {kind!r}-workload keys: {sorted(unknown)}",
            field=sorted(unknown)[0],
        )


def workload_from_dict(data: dict[str, Any]) -> Any:
    """Rebuild a workload (or trace reference) from its dict form.

    ``kind="records"`` rebuilds an in-memory workload record by record;
    ``kind="trace"`` yields a :class:`~repro.sim.tracebin.TraceRef`
    (resolved and fingerprint-verified at execution time);
    ``kind="profile"`` / ``kind="mt"`` yield a
    :class:`~repro.workloads.SynthRef`, synthesized deterministically
    where the recipe executes, so submissions name profiles without
    shipping records and parsing one synthesizes nothing."""
    from repro.sim.trace import CoreTrace, Workload

    if not isinstance(data, dict):
        raise RecipeError("workload must be a JSON object")
    kind = data.get("kind", "records")
    if kind not in _WORKLOAD_KINDS:
        raise RecipeError(
            f"unknown workload kind {kind!r}; known: "
            f"{sorted(_WORKLOAD_KINDS)}",
            field="kind",
        )
    _require_keys(data, kind)
    if kind == "trace":
        body = {k: v for k, v in data.items() if k != "kind"}
        return trace_ref_from_dict(body)
    if kind in ("profile", "mt"):
        from repro.workloads import SynthRef

        counts: dict[str, int] = {}
        for key, default in (("cores", 8), ("accesses", 20000), ("seed", 0)):
            try:
                counts[key] = int(data.get(key, default))
            except (ValueError, TypeError) as exc:
                raise RecipeError(f"{key} must be an integer ({exc})",
                                  field=key) from exc
        # SynthRef names the field it rejects.
        return SynthRef(kind, data.get("app"), **counts)
    cores = data.get("cores")
    if not isinstance(cores, list) or not cores:
        raise RecipeError(
            "a 'records' workload needs a non-empty 'cores' list",
            field="cores",
        )
    traces = []
    for i, core in enumerate(cores):
        if not isinstance(core, dict) or "records" not in core:
            raise RecipeError(
                f"core {i} must be an object with a 'records' list",
                field=f"cores.{i}",
            )
        gaps: list[int] = []
        addrs: list[int] = []
        writes: list[bool] = []
        pcs: list[int] = []
        try:
            for g, a, w, pc in core["records"]:
                gaps.append(int(g))
                addrs.append(int(a))
                writes.append(bool(w))
                pcs.append(int(pc))
        except (ValueError, TypeError) as exc:
            raise RecipeError(
                f"core {i}: records must be [gap, addr, is_write, pc] "
                f"quadruples ({exc})",
                field=f"cores.{i}.records",
            ) from exc
        trace = CoreTrace.from_columns(
            gaps, addrs, writes, pcs, name=core.get("name", "app")
        )
        try:
            trace.fingerprint()
        except ValueError as exc:  # a field out of its packed range
            raise RecipeError(f"core {i}: {exc}",
                              field=f"cores.{i}.records") from exc
        traces.append(trace)
    return Workload(traces, name=data.get("name", "mix"))


_RECIPE_KEYS = frozenset({
    "workload", "scheme", "policy", "scheduling",
    "scheme_kwargs", "policy_kwargs", "config",
})


def recipe_to_dict(recipe: Any) -> dict[str, Any]:
    """JSON-ready form of a :class:`~repro.sim.parallel.RunRecipe`.

    The round trip preserves the recipe's content: for any recipe this
    produced, ``recipe_from_dict(recipe_to_dict(r)).key() == r.key()``,
    so a submission resolved remotely shares cache entries (and ledger
    provenance) with the same recipe run locally."""
    return {
        "workload": workload_to_dict(recipe.workload),
        "scheme": recipe.scheme,
        "policy": recipe.policy,
        "scheduling": recipe.scheduling,
        "scheme_kwargs": dict(recipe.scheme_kwargs),
        "policy_kwargs": dict(recipe.policy_kwargs),
        "config": config_to_dict(recipe.config),
    }


def _kwargs_tuple(
    data: dict[str, Any], key: str
) -> tuple[tuple[str, Any], ...]:
    value = data.get(key)
    if value is None:
        return ()
    if not isinstance(value, dict):
        raise RecipeError(f"{key} must be a JSON object", field=key)
    return tuple(sorted(value.items()))


def check_run(
    config: SystemConfig,
    scheme: str,
    policy: str = "lru",
    scheme_kwargs: dict[str, Any] | None = None,
    policy_kwargs: dict[str, Any] | None = None,
) -> None:
    """Reject a run before it starts: the scheme and the policy must
    build, and a ``fast``-engine run must be one
    :func:`repro.params.fast_supports` models.  Raises
    :class:`RecipeError` with ``field`` naming the offending key."""
    from repro.schemes import make_scheme

    try:
        make_scheme(scheme, **(scheme_kwargs or {}))
    except (ValueError, TypeError) as exc:
        raise RecipeError(str(exc), field="scheme") from exc
    if policy != "belady":
        from repro.cache.replacement import make_policy

        try:
            make_policy(policy, **(policy_kwargs or {}))
        except (ValueError, TypeError) as exc:
            raise RecipeError(str(exc), field="policy") from exc
    if config.engine == "fast" and not fast_supports(
        config, scheme, policy, scheme_kwargs, policy_kwargs
    ):
        raise RecipeError(
            f"the fast engine does not model scheme={scheme!r} "
            f"policy={policy!r} with these kwargs and prefetcher; "
            f"use engine 'object'",
            field="config.engine",
        )


def recipe_from_dict(data: dict[str, Any]) -> Any:
    """Build a :class:`~repro.sim.parallel.RunRecipe` from its dict form.

    Validates structurally (unknown/missing keys), then semantically:
    the config constructs through :func:`config_from_dict`,
    :func:`check_run` accepts the scheme, the policy and the engine
    (the fast envelope is checked without loading the engine), and a
    run that :func:`~repro.sim.parallel.needs_oracle` is lock-step
    exactly as :func:`~repro.sim.parallel.make_recipe` makes it.
    Rejections raise :class:`RecipeError` with ``field`` naming the
    offending key."""
    from repro.sim.parallel import RunRecipe, needs_oracle

    if not isinstance(data, dict):
        raise RecipeError("recipe must be a JSON object")
    unknown = set(data) - _RECIPE_KEYS
    if unknown:
        raise RecipeError(
            f"unknown recipe keys: {sorted(unknown)}",
            field=sorted(unknown)[0],
        )
    missing = {"workload", "scheme", "config"} - set(data)
    if missing:
        raise RecipeError(
            f"recipe needs keys: {sorted(missing)}",
            field=sorted(missing)[0],
        )
    try:
        workload = workload_from_dict(data["workload"])
    except RecipeError as exc:
        raise _prefixed(exc, "workload") from exc
    try:
        config = config_from_dict(data["config"])
    except RecipeError as exc:
        raise _prefixed(exc, "config") from exc
    except ConfigError as exc:
        raise RecipeError(str(exc), field="config") from exc
    scheme = data["scheme"]
    scheme_kwargs = _kwargs_tuple(data, "scheme_kwargs")
    if not isinstance(scheme, str):
        raise RecipeError("scheme must be a string", field="scheme")
    policy = data.get("policy", "lru")
    policy_kwargs = _kwargs_tuple(data, "policy_kwargs")
    if not isinstance(policy, str):
        raise RecipeError("policy must be a string", field="policy")
    check_run(config, scheme, policy, dict(scheme_kwargs),
              dict(policy_kwargs))
    scheduling = data.get("scheduling", "timing")
    if scheduling not in ("timing", "lockstep"):
        raise RecipeError(
            f"unknown scheduling mode {scheduling!r}; known: "
            f"['timing', 'lockstep']",
            field="scheduling",
        )
    if needs_oracle(scheme, policy):
        scheduling = "lockstep"
    return RunRecipe(
        workload=workload,
        scheme=scheme,
        config=config,
        policy=policy,
        scheduling=scheduling,
        scheme_kwargs=scheme_kwargs,
        policy_kwargs=policy_kwargs,
    )
