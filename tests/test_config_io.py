"""JSON configuration round-trip and validation, and the recipe cache
key's coverage of every configuration leaf."""

import dataclasses
import hashlib
import json

import pytest

from repro.config_io import (
    RecipeError,
    _config_json,
    config_from_dict,
    config_to_dict,
    load_config,
    recipe_from_dict,
    save_config,
)
from repro.obs.ledger import config_digest
from repro.params import ConfigError, CoreParams, scaled_config
from repro.sim.parallel import CACHE_VERSION, RunRecipe
from repro.sim.trace import CoreTrace, TraceRecord, Workload


class TestRoundTrip:
    def test_dict_roundtrip(self):
        cfg = scaled_config("512KB")
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_file_roundtrip(self, tmp_path):
        cfg = scaled_config("768KB", directory_mode="zerodev")
        path = tmp_path / "machine.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_minimal_config(self):
        cfg = config_from_dict(
            {
                "cores": 2,
                "l1": {"sets": 1, "ways": 2},
                "l2": {"sets": 2, "ways": 4},
                "llc": {"banks": 2, "sets_per_bank": 4, "ways": 4},
                "directory": {"sets": 2, "ways": 8},
            }
        )
        assert cfg.cores == 2
        assert cfg.directory_mode == "mesi"  # defaults apply

    def test_loaded_config_runs(self, tmp_path):
        from repro.sim.engine import run_workload
        from repro.workloads import homogeneous_mix

        path = tmp_path / "m.json"
        save_config(scaled_config("256KB"), path)
        cfg = load_config(path)
        wl = homogeneous_mix("leela.1", cores=cfg.cores, n_accesses=200)
        r = run_workload(cfg, wl, "ziv:notinprc")
        assert r.stats.inclusion_victims_llc == 0


class TestValidation:
    def base(self):
        return config_to_dict(scaled_config("256KB"))

    def test_unknown_top_level_key(self):
        d = self.base()
        d["l4"] = {}
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            config_from_dict(d)

    def test_unknown_section_key(self):
        d = self.base()
        d["l1"]["banks"] = 4
        with pytest.raises(ConfigError, match="unknown keys in section"):
            config_from_dict(d)

    def test_section_must_be_object(self):
        d = self.base()
        d["l1"] = 32
        with pytest.raises(ConfigError, match="must be an object"):
            config_from_dict(d)

    def test_semantic_validation_applies(self):
        d = self.base()
        d["l2"] = {"sets": 512, "ways": 8}  # aggregate L2 >= LLC
        with pytest.raises(ConfigError, match="aggregate private"):
            config_from_dict(d)

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(p)

    def test_non_object_root(self):
        with pytest.raises(ConfigError, match="JSON object"):
            config_from_dict([1, 2])


# ---------------------------------------------------------------------------
# Every leaf reaches the cache key
# ---------------------------------------------------------------------------

#: A valid alternate for each string leaf of ``scaled_config()``.
_STRING_ALTERNATES = {
    ("core", "interconnect_kind"): "mesh",
    ("prefetch", "kind"): "nextline",
    ("telemetry", "events"): "relocation",
    ("telemetry", "min_severity"): "warn",
    ("directory_mode",): "zerodev",
    ("engine",): "fast",
}


def _leaves(obj, path=()):
    """``(path, value)`` for every non-dataclass field, depth first."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, path + (f.name,))
        else:
            yield path + (f.name,), value


def _replace_at(obj, path, value):
    head, *rest = path
    new = _replace_at(getattr(obj, head), rest, value) if rest else value
    return dataclasses.replace(obj, **{head: new})


def _alternates(path, value):
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, (int, float)):
        return [v for v in (value * 2, value + 1) if v != value]
    return [_STRING_ALTERNATES[path]] if path in _STRING_ALTERNATES else []


def _perturbed(config, path, value):
    """``config`` with the leaf at ``path`` changed to the first of its
    alternates the dataclass validation accepts (None if none is)."""
    for alt in _alternates(path, value):
        try:
            return _replace_at(config, path, alt)
        except ConfigError:
            continue
    return None


def leaf_problems(config) -> list[str]:
    """Perturb each leaf of ``config`` in turn; one message for every
    leaf with no valid alternate value, whose change the real recipe
    hash misses, or whose new value the dict form does not round-trip."""
    workload = Workload([CoreTrace([TraceRecord(1, 64, False, 0)])], "leaf")
    base_key = RunRecipe(workload, "inclusive", config).key()
    problems = []
    for path, value in _leaves(config):
        name = ".".join(path)
        changed = _perturbed(config, path, value)
        if changed is None:
            problems.append(f"{name}: no valid alternate value")
            continue
        if RunRecipe(workload, "inclusive", changed).key() == base_key:
            problems.append(f"{name}: recipe key unchanged")
        try:
            round_tripped = config_from_dict(config_to_dict(changed))
        except ConfigError as exc:
            problems.append(f"{name}: {exc}")
            continue
        problems += [
            f"{name}: {f.name} lost in the round trip"
            for f in dataclasses.fields(changed)
            if getattr(round_tripped, f.name) != getattr(changed, f.name)
        ]
    return problems


def test_every_config_leaf_changes_the_recipe_key():
    """No field of the default machine can be missed by the cache key
    or by config_io."""
    assert leaf_problems(scaled_config("256KB")) == []


# ---------------------------------------------------------------------------
# The configuration is serialised once per process, keys unchanged
# ---------------------------------------------------------------------------


def _unmemoised_describe(recipe) -> str:
    """:meth:`RunRecipe.describe` as it was written before the memo."""
    return json.dumps(
        {
            "version": CACHE_VERSION,
            "workload": recipe.workload.fingerprint(),
            "scheme": recipe.scheme,
            "policy": recipe.policy,
            "scheduling": recipe.scheduling,
            "scheme_kwargs": list(recipe.scheme_kwargs),
            "policy_kwargs": list(recipe.policy_kwargs),
            "config": dataclasses.asdict(recipe.config),
        },
        sort_keys=True,
    )


_MEMO_CONFIGS = [
    scaled_config("256KB"),
    scaled_config("512KB").replace(engine="fast"),
    # Equal to each other, serialised apart: the memo must not merge them.
    scaled_config("256KB").replace(core=CoreParams(base_cpi=1)),
    scaled_config("256KB").replace(core=CoreParams(base_cpi=1.0)),
    scaled_config("256KB").replace(core=CoreParams(base_cpi=True)),
]


def test_memoised_config_keeps_keys_and_digests():
    workload = Workload([CoreTrace([TraceRecord(1, 64, False, 0)])], "memo")
    for _pass in range(2):  # the second pass is served by the memo
        for config in _MEMO_CONFIGS:
            recipe = RunRecipe(workload, "ziv:notinprc", config,
                               policy_kwargs=(("k", 1),))
            preimage = _unmemoised_describe(recipe)
            assert recipe.describe() == preimage
            assert recipe.key() == hashlib.sha256(
                preimage.encode()).hexdigest()
            assert config_digest(config) == hashlib.sha256(json.dumps(
                dataclasses.asdict(config), sort_keys=True
            ).encode()).hexdigest()
    keys = {RunRecipe(workload, "inclusive", c).key() for c in _MEMO_CONFIGS}
    assert len(keys) == len(_MEMO_CONFIGS)


def test_config_dict_is_never_shared():
    config = scaled_config("256KB")
    config_to_dict(config)["cores"] = 99
    assert json.loads(_config_json(config))["cores"] == config.cores
    assert config_to_dict(config) is not config_to_dict(config)


# ---------------------------------------------------------------------------
# Synthesized-workload specs: rejections name the field at fault
# ---------------------------------------------------------------------------


def _profile_recipe(**workload):
    spec = {"kind": "profile", "app": "mcf.1", "cores": 2, "accesses": 40,
            "seed": 0}
    spec.update(workload)
    return {"workload": spec, "scheme": "inclusive",
            "config": config_to_dict(scaled_config("256KB", cores=2))}


@pytest.mark.parametrize("change, field", [
    ({"accesses": -5}, "workload.accesses"),
    ({"accesses": "many"}, "workload.accesses"),
    ({"cores": 0}, "workload.cores"),
    ({"cores": None}, "workload.cores"),
    ({"seed": "x"}, "workload.seed"),
    ({"app": "nonesuch"}, "workload.app"),
    ({"app": "canneal"}, "workload.app"),
    ({"kind": "mt", "app": "mcf.1"}, "workload.app"),
    ({"kind": "nonesuch"}, "workload.kind"),
])
def test_synth_spec_rejection_names_the_field(change, field):
    with pytest.raises(RecipeError) as excinfo:
        recipe_from_dict(_profile_recipe(**change))
    assert excinfo.value.field == field


def test_empty_synth_spec_is_still_a_workload():
    recipe = recipe_from_dict(_profile_recipe(accesses=0))
    assert recipe.workload.accesses == 0
    assert recipe.workload.resolve().total_accesses() == 0
