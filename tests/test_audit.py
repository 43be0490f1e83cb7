"""The runtime invariant auditor (repro.sim.audit).

Covers: spec parsing and resolution precedence, clean audited runs over
the scheme x policy grid, corruption injection (the auditor must name the
exact invariant and location), fail-fast and truncation behaviour, engine
integration (sweep cadence, SimResult.audit), the CLI flag, and cache-key
participation (audited and unaudited recipes must never alias).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from tests.conftest import build, tiny_config

from repro.core.property_vector import PropertyVector
from repro.params import AuditParams, ConfigError
from repro.sim.audit import (
    AUDIT_ENV_VAR,
    AuditError,
    AuditReport,
    AuditViolation,
    InvariantAuditor,
    audit_hierarchy,
    audit_params_from_env,
    parse_audit_spec,
    resolve_audit,
)
from repro.sim.engine import run_workload
from repro.sim.parallel import make_recipe
from repro.sim.trace import CoreTrace, TraceRecord, Workload


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def mixing_workload(cores=2, length=150, addrs=48, seed=3):
    """Random traces with a shared address space, small enough to force
    LLC pressure (and hence relocations) on the tiny machine."""
    rng = random.Random(seed)
    traces = [
        CoreTrace(
            [
                TraceRecord(1, rng.randrange(addrs), rng.random() < 0.3,
                            rng.randrange(16))
                for _ in range(length)
            ],
            name=f"mix{c}",
        )
        for c in range(cores)
    ]
    return Workload(traces, name="mixing")


def drive_until(h, pred, limit=2000, seed=3, addrs=48):
    """Drive random accesses until ``pred(h)`` holds; fail if it never
    does (the corruption tests need specific machine states)."""
    rng = random.Random(seed)
    for i in range(limit):
        h.access(rng.randrange(h.config.cores), rng.randrange(addrs),
                 rng.random() < 0.3, pc=i & 0xF, cycle=i, global_pos=i)
        if pred(h):
            return h
    pytest.fail("drive_until: predicate never satisfied")


def relocated_state(scheme="ziv:notinprc"):
    """A ZIV hierarchy paused at a moment with at least one Relocated
    directory entry (and therefore a relocated LLC block)."""
    return drive_until(
        build(scheme),
        lambda h: any(e.relocated for e in h.directory.iter_valid()),
    )


# ---------------------------------------------------------------------------
# Spec parsing and resolution
# ---------------------------------------------------------------------------


class TestSpecParsing:
    def test_none_is_disabled_default(self):
        assert parse_audit_spec(None) == AuditParams()

    def test_empty_and_end_mean_final_sweep_only(self):
        for spec in ("", "end", "final", "END , "):
            p = parse_audit_spec(spec)
            assert p.enabled and p.interval == 0 and not p.fail_fast

    def test_every(self):
        assert parse_audit_spec("every").interval == 1
        assert parse_audit_spec("all").interval == 1

    def test_integer_interval(self):
        assert parse_audit_spec("100").interval == 100

    def test_fail_fast_and_collect(self):
        assert parse_audit_spec("end,fail").fail_fast
        assert parse_audit_spec("100,failfast").fail_fast
        assert not parse_audit_spec("fail,collect").fail_fast

    def test_off(self):
        assert not parse_audit_spec("off").enabled
        assert not parse_audit_spec("none").enabled

    def test_bad_token_raises(self):
        with pytest.raises(ConfigError, match="bad audit spec token"):
            parse_audit_spec("end,bogus")

    def test_interval_validation(self):
        with pytest.raises(ConfigError):
            AuditParams(interval=-1)
        with pytest.raises(ConfigError):
            AuditParams(max_violations=0)


class TestResolution:
    def test_explicit_params_win_over_env(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV_VAR, "every,fail")
        explicit = AuditParams(enabled=False)
        assert resolve_audit(explicit, AuditParams()) == explicit

    def test_explicit_string_is_parsed(self):
        assert resolve_audit("25,fail") == AuditParams(
            enabled=True, interval=25, fail_fast=True
        )

    def test_env_wins_over_config(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV_VAR, "end")
        resolved = resolve_audit(None, AuditParams(enabled=False))
        assert resolved.enabled and resolved.interval == 0

    def test_config_is_the_fallback(self, monkeypatch):
        monkeypatch.delenv(AUDIT_ENV_VAR, raising=False)
        cfg_audit = AuditParams(enabled=True, interval=7)
        assert resolve_audit(None, cfg_audit) == cfg_audit
        assert resolve_audit(None, None) == AuditParams()

    def test_blank_env_is_unset(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV_VAR, "   ")
        assert audit_params_from_env() is None

    def test_bad_type_raises(self):
        with pytest.raises(TypeError):
            resolve_audit(42)


# ---------------------------------------------------------------------------
# Clean audited runs: the scheme x policy grid
# ---------------------------------------------------------------------------


class TestCleanRuns:
    @pytest.mark.parametrize("scheme", ["inclusive", "ziv:notinprc"])
    @pytest.mark.parametrize("policy", ["lru", "srrip", "hawkeye"])
    def test_grid_audits_clean_every_access(self, scheme, policy):
        """The acceptance grid at test scale: auditing after every access
        in fail-fast mode must complete with zero violations."""
        r = run_workload(
            tiny_config(), mixing_workload(), scheme, llc_policy=policy,
            audit="every,fail",
        )
        assert r.audit is not None
        assert r.audit.ok
        assert r.audit.sweeps == r.stats.total_accesses + 1  # + final

    def test_noninclusive_skips_inclusion_check_only(self):
        """A non-inclusive LLC violates inclusion by design; the audit
        must not flag that, while still checking everything else."""
        r = run_workload(
            tiny_config(), mixing_workload(), "noninclusive",
            audit="every,fail",
        )
        assert r.audit.ok

    def test_lockstep_mode_audited(self):
        r = run_workload(
            tiny_config(), mixing_workload(), "ziv:notinprc",
            scheduling="lockstep", audit="every,fail",
        )
        assert r.audit.ok
        assert r.audit.sweeps == r.stats.total_accesses + 1

    def test_interval_cadence(self):
        wl = mixing_workload()
        r = run_workload(
            tiny_config(), wl, "ziv:notinprc", audit="25",
        )
        total = r.stats.total_accesses
        assert r.audit.sweeps == total // 25 + 1  # periodic + final

    def test_end_only_runs_one_sweep(self):
        r = run_workload(
            tiny_config(), mixing_workload(), "ziv:notinprc", audit="end",
        )
        assert r.audit.sweeps == 1

    def test_disabled_leaves_result_unaudited(self, monkeypatch):
        monkeypatch.delenv(AUDIT_ENV_VAR, raising=False)
        r = run_workload(tiny_config(), mixing_workload(), "ziv:notinprc")
        assert r.audit is None


# ---------------------------------------------------------------------------
# Corruption injection: the auditor must name the invariant and location
# ---------------------------------------------------------------------------


class TestCorruptionDetection:
    def test_pv_bit_flip_detected(self):
        """Silently flipping one property-vector bit must surface as a
        ``pv`` violation at exactly that bank and set."""
        h = relocated_state()
        tracker = h.scheme.tracker
        prop = tracker.properties[0]
        pv = tracker.pvs[0][prop]
        set_idx = 1
        pv.bits ^= 1 << set_idx  # corrupt, bypassing set_bit bookkeeping
        found = [v for v in audit_hierarchy(h) if v.invariant == "pv"]
        assert any(
            v.bank == 0 and v.set_idx == set_idx and prop in v.detail
            for v in found
        ), found

    def test_relocation_tuple_corruption_detected(self):
        """Pointing a Relocated entry at the wrong way must surface as a
        ``directory`` violation naming the stale tuple."""
        h = relocated_state()
        entry = next(e for e in h.directory.iter_valid() if e.relocated)
        true_way = entry.reloc_way
        entry.reloc_way = (true_way + 1) % h.llc.geometry.ways
        found = audit_hierarchy(h)
        # Forward check: the tuple no longer reaches the block.
        assert any(
            v.invariant == "directory" and v.addr == entry.addr
            and v.way == entry.reloc_way and "stale" in v.detail
            for v in found
        ), found
        # Reverse check: the orphaned block has no entry pointing at it.
        assert any(
            v.invariant == "directory" and v.way == true_way
            and "pointing back" in v.detail
            for v in found
        ), found

    def test_notinprc_flag_corruption_detected(self):
        h = relocated_state()
        blk = next(
            b
            for bank in h.llc.banks for s in bank.blocks for b in s
            if b.valid and not b.relocated
        )
        blk.not_in_prc = not blk.not_in_prc
        found = audit_hierarchy(h)
        assert any(
            v.invariant == "directory" and v.addr == blk.addr
            and "NotInPrC" in v.detail
            for v in found
        ), found

    def test_sharer_corruption_detected(self):
        h = relocated_state()
        entry = next(
            e for e in h.directory.iter_valid() if e.sharers != 0
        )
        entry.sharers ^= 0b10  # pretend core 1 joined/left
        found = audit_hierarchy(h)
        assert any(
            v.invariant == "conservation" and v.addr == entry.addr
            for v in found
        ), found

    def test_fail_fast_raises_with_violations_attached(self):
        h = relocated_state()
        h.scheme.tracker.pvs[0][h.scheme.tracker.properties[0]].bits ^= 1
        auditor = InvariantAuditor(
            h, AuditParams(enabled=True, fail_fast=True)
        )
        with pytest.raises(AuditError) as exc:
            auditor.sweep(access_index=42)
        err = exc.value
        assert err.violations
        assert all(v.access_index == 42 for v in err.violations)
        assert "pv" in str(err)

    def test_collect_mode_truncates_at_max_violations(self):
        h = relocated_state()
        tracker = h.scheme.tracker
        for prop in tracker.properties:  # corrupt many bits at once
            for bank in range(h.llc.geometry.banks):
                tracker.pvs[bank][prop].bits ^= 0b1111
        auditor = InvariantAuditor(
            h, AuditParams(enabled=True, max_violations=2)
        )
        report = auditor.finalize()
        assert not report.ok
        assert len(report.violations) == 2
        assert report.truncated
        assert "truncated" in report.summary()

    @pytest.mark.parametrize("engine", ["object", "fast"])
    def test_sweep_cadence(self, engine, monkeypatch):
        stamps = []
        sweep = InvariantAuditor.sweep

        def spy(self, access_index=-1):
            stamps.append(access_index)
            return sweep(self, access_index)

        monkeypatch.setattr(InvariantAuditor, "sweep", spy)
        wl = mixing_workload(length=4)  # 8 accesses
        run_workload(tiny_config().replace(engine=engine), wl, "inclusive",
                     audit="3")
        # after the 3rd and 6th accesses (stamped with their index), and
        # the end-of-run sweep
        assert stamps == [2, 5, -1]


# ---------------------------------------------------------------------------
# Violation formatting
# ---------------------------------------------------------------------------


class TestReporting:
    def test_violation_str_names_everything(self):
        v = AuditViolation(
            invariant="directory", detail="stale tuple",
            expected="x", actual="y",
            addr=0x40, bank=1, set_idx=2, way=3, access_index=7,
        )
        s = str(v)
        for fragment in ("directory", "stale tuple", "bank=1", "set=2",
                         "way=3", "addr=0x40", "expected x", "actual y",
                         "@access 7"):
            assert fragment in s

    def test_clean_summary(self):
        report = AuditReport(params=AuditParams(enabled=True), sweeps=4)
        assert report.ok
        assert "OK" in report.summary()
        assert "4 sweep" in report.summary()


# ---------------------------------------------------------------------------
# Cache-key participation (the anti-aliasing guarantee)
# ---------------------------------------------------------------------------


class TestCacheKeys:
    def test_audit_changes_the_recipe_key(self, monkeypatch):
        monkeypatch.delenv(AUDIT_ENV_VAR, raising=False)
        wl = mixing_workload()
        plain = make_recipe(wl, "ziv:notinprc", config=tiny_config())
        audited = make_recipe(
            wl, "ziv:notinprc", config=tiny_config(), audit="end"
        )
        assert plain.key() != audited.key()
        assert '"enabled": true' in audited.describe()

    def test_env_resolved_at_construction_time(self, monkeypatch):
        wl = mixing_workload()
        monkeypatch.setenv(AUDIT_ENV_VAR, "end,fail")
        via_env = make_recipe(wl, "ziv:notinprc", config=tiny_config())
        monkeypatch.delenv(AUDIT_ENV_VAR)
        explicit = make_recipe(
            wl, "ziv:notinprc", config=tiny_config(), audit="end,fail"
        )
        assert via_env.key() == explicit.key()

    def test_worker_never_consults_the_environment(self, monkeypatch):
        """A recipe built without auditing must execute unaudited even if
        REPRO_AUDIT is set in the worker's environment -- otherwise an
        audited result would be stored under an unaudited cache key."""
        monkeypatch.delenv(AUDIT_ENV_VAR, raising=False)
        recipe = make_recipe(
            mixing_workload(length=40), "inclusive", config=tiny_config()
        )
        monkeypatch.setenv(AUDIT_ENV_VAR, "every,fail")
        result = recipe.execute()
        assert result.audit is None

    def test_simulation_runs_what_its_config_says(self, monkeypatch):
        """``REPRO_AUDIT`` becomes a config field in ``make_recipe``
        alone: a hand-built simulation of an unaudited config runs
        unaudited under it, while ``run_workload`` (a recipe front)
        audits."""
        from repro.hierarchy.cmp import CacheHierarchy
        from repro.schemes import make_scheme
        from repro.sim.engine import Simulation

        monkeypatch.setenv(AUDIT_ENV_VAR, "end,fail")
        cfg = tiny_config()
        assert not cfg.audit.enabled
        wl = mixing_workload(length=40)
        h = CacheHierarchy(cfg, make_scheme("ziv:notinprc"))
        assert Simulation(h, wl).run().audit is None
        direct = run_workload(cfg, wl, "ziv:notinprc")
        assert direct.audit is not None and direct.audit.ok
        assert direct.audit.params == AuditParams(enabled=True,
                                                  fail_fast=True)

    def test_sweep_points_resolve_env_at_construction(self, monkeypatch):
        """A figure's grid reads REPRO_AUDIT when it is built, point by
        point, as ``make_recipe`` does: resolved later, under another
        environment, it still runs what it declared."""
        from repro.experiments import fig09_permix_lru as fig

        def points():
            return [r for rs in fig.grid("smoke").values() for r in rs]

        monkeypatch.delenv(AUDIT_ENV_VAR, raising=False)
        plain = points()
        monkeypatch.setenv(AUDIT_ENV_VAR, "end")
        audited = points()
        monkeypatch.delenv(AUDIT_ENV_VAR)
        assert not any(r.config.audit.enabled for r in plain)
        assert all(r.config.audit.enabled for r in audited)
        assert len(plain) == len(audited) > 1
        assert all(p.key() != a.key() for p, a in zip(plain, audited))
        # Resolved as make_recipe resolves it.
        base = audited[0]
        assert base.key() == make_recipe(base.workload, "inclusive", "lru",
                                         l2="256KB", audit="end").key()

    def test_config_io_roundtrip(self):
        from repro.config_io import config_from_dict, config_to_dict

        cfg = tiny_config().replace(
            audit=AuditParams(enabled=True, interval=5, fail_fast=True)
        )
        clone = config_from_dict(config_to_dict(cfg))
        assert clone.audit == cfg.audit


# ---------------------------------------------------------------------------
# nextRS decode vs the naive reference at the PropertyVector level
# ---------------------------------------------------------------------------


class TestNextRSRoundTrip:
    @given(
        width=st.integers(min_value=1, max_value=64),
        data=st.data(),
    )
    def test_peek_matches_naive_over_random_states(self, width, data):
        """decoded nextRS == linear-scan reference for any PV contents and
        any round-robin pointer position (the satellite round-trip)."""
        pv = PropertyVector(width)
        pv.bits = data.draw(
            st.integers(min_value=0, max_value=(1 << width) - 1)
        )
        if data.draw(st.booleans()):
            pv.force_pointer(data.draw(
                st.integers(min_value=0, max_value=width - 1)
            ))
        assert pv.peek_relocation_set() == pv.naive_peek()

    @given(
        width=st.integers(min_value=1, max_value=32),
        ops=st.lists(
            st.tuples(st.integers(min_value=0, max_value=31),
                      st.booleans()),
            max_size=40,
        ),
    )
    def test_agreement_survives_consumption(self, width, ops):
        """Interleaving bit updates with next_relocation_set() keeps the
        decoded pointer in lock-step with the naive reference."""
        pv = PropertyVector(width)
        for set_idx, value in ops:
            pv.set_bit(set_idx % width, value)
            assert pv.peek_relocation_set() == pv.naive_peek()
            consumed = pv.next_relocation_set()
            assert consumed == (-1 if pv.empty else consumed)
            assert pv.peek_relocation_set() == pv.naive_peek()
