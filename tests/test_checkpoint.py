"""Checkpoint/resume: a resumed run must be bit-identical to an
uninterrupted one, on both engines, in both scheduling modes."""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from tests.conftest import tiny_config
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    SimulationInterrupted,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.engine import run_workload
from repro.sim.telemetry import StreamProgress
from repro.sim.trace import CoreTrace, TraceRecord, Workload
from repro.sim.tracebin import open_trace, save_workload_bin


def make_workload(seed=0, cores=2, n=1100, name="ck"):
    rng = random.Random(seed)
    traces = [
        CoreTrace(
            [
                TraceRecord(
                    rng.randrange(0, 4),
                    rng.randrange(0, 512),
                    rng.random() < 0.35,
                    rng.randrange(0, 2048),
                )
                for _ in range(n - 113 * c)
            ],
            f"app{c}",
        )
        for c in range(cores)
    ]
    return Workload(traces, name=name)


def result_signature(r):
    return (
        dataclasses.asdict(r.stats),
        r.cycles,
        r.energy.total_energy_pj() if r.energy is not None else None,
        r.telemetry.series.to_dict() if r.telemetry is not None else None,
        len(r.telemetry.events) if r.telemetry is not None else None,
        r.scheme_stats,
    )


@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize("scheduling", ["timing", "lockstep"])
def test_resumed_run_bit_identical(tmp_path, engine, scheduling):
    wl = make_workload(seed=1)
    config = tiny_config(cores=2).replace(engine=engine)
    kwargs = dict(
        scheme_name="ziv:notinprc",
        scheduling=scheduling,
        telemetry="300",
    )
    base = run_workload(config, wl, **kwargs)
    ckpt = tmp_path / "run.ckpt"
    with pytest.raises(SimulationInterrupted) as exc_info:
        run_workload(
            config, wl,
            checkpoint_path=ckpt,
            checkpoint_every=400,
            stop_after=800,
            **kwargs,
        )
    assert exc_info.value.accesses_done == 800
    assert exc_info.value.checkpoint_path == str(ckpt)
    assert ckpt.exists()
    resumed = run_workload(config, wl, resume_from=ckpt, **kwargs)
    assert result_signature(resumed) == result_signature(base)


@pytest.mark.parametrize("policy", ["srrip", "nru"])
def test_fast_resume_under_each_policy(tmp_path, policy):
    """The fast engine's policy ports are rebound on load: a resumed
    SRRIP or NRU run equals its uninterrupted run."""
    from repro.sim.fast import FastHierarchy

    wl = make_workload(seed=4)
    config = tiny_config(cores=2).replace(engine="fast")
    kwargs = dict(scheme_name="ziv:notinprc", llc_policy=policy,
                  telemetry="300")
    base = run_workload(config, wl, **kwargs)
    ckpt = tmp_path / "run.ckpt"
    with pytest.raises(SimulationInterrupted):
        run_workload(config, wl, checkpoint_path=ckpt, checkpoint_every=400,
                     stop_after=800, **kwargs)
    saved = load_checkpoint(ckpt).hierarchy
    assert isinstance(saved, FastHierarchy) and saved.policy_name == policy
    resumed = run_workload(config, wl, resume_from=ckpt, **kwargs)
    assert result_signature(resumed) == result_signature(base)


@pytest.mark.parametrize("policy", ["lru", "srrip", "nru"])
def test_fast_hierarchy_pickles_no_method_names(policy):
    """A checkpoint holds state, not the policy-port methods, so renaming
    one leaves saved checkpoints loadable; loading rebinds the ports from
    the policy name."""
    from repro.sim.fast import FastHierarchy

    h = FastHierarchy(tiny_config(cores=2), "ziv:notinprc", policy)
    blob = pickle.dumps(h, protocol=pickle.HIGHEST_PROTOCOL)
    for method in ("_touch_pos_lru", "_fill_pos_srrip", "_touch_pos_srrip",
                   "_victim_srrip", "_touch_pos_nru", "_victim_nru"):
        assert method.encode() not in blob, method
    loaded = pickle.loads(blob)
    for port in ("_llc_fill", "_llc_touch", "_victim"):
        bound = getattr(loaded, port)
        if bound is None:  # LRU finds its victim inline
            assert getattr(h, port) is None
        else:
            assert bound.__self__ is loaded
            assert bound.__func__ is getattr(h, port).__func__


@pytest.mark.parametrize("engine,scheduling", [
    ("object", "timing"),
    ("fast", "timing"),
    ("object", "lockstep"),
    ("fast", "lockstep"),
], ids=["object", "fast", "object-lockstep", "fast-lockstep"])
def test_streamed_checkpoint_resume_bit_identical(tmp_path, engine,
                                                  scheduling):
    # The full out-of-core path: binary trace, interrupted streamed run,
    # resumed streamed run, compared against the in-memory run.  A
    # streamed lock-step run is where a core's decode window starts past
    # record 0, so its heap keys must add the window base.
    wl = make_workload(seed=2, n=1500)
    path = tmp_path / "ck.tracebin"
    save_workload_bin(wl, path, chunk_records=256)
    config = tiny_config(cores=2).replace(engine=engine)
    kwargs = dict(scheme_name="ziv:notinprc", telemetry="500",
                  scheduling=scheduling)
    base = run_workload(config, wl, **kwargs)
    ckpt = tmp_path / "run.ckpt"
    with open_trace(path) as bw:
        with pytest.raises(SimulationInterrupted):
            # checkpoint_every defaults to the trace's chunk size
            run_workload(config, bw, checkpoint_path=ckpt,
                         stop_after=1000, **kwargs)
    with open_trace(path) as bw:
        resumed = run_workload(config, bw, resume_from=ckpt, **kwargs)
    assert result_signature(resumed) == result_signature(base)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_resume_across_audit(tmp_path, engine):
    wl = make_workload(seed=3)
    config = tiny_config(cores=2).replace(engine=engine)
    kwargs = dict(scheme_name="ziv:notinprc", audit="250")
    base = run_workload(config, wl, **kwargs)
    ckpt = tmp_path / "run.ckpt"
    with pytest.raises(SimulationInterrupted):
        run_workload(config, wl, checkpoint_path=ckpt,
                     checkpoint_every=300, stop_after=900, **kwargs)
    resumed = run_workload(config, wl, resume_from=ckpt, **kwargs)
    assert dataclasses.asdict(resumed.stats) == dataclasses.asdict(
        base.stats
    )
    assert base.audit is not None and resumed.audit is not None
    assert resumed.audit.ok == base.audit.ok
    assert resumed.audit.violations == base.audit.violations
    assert resumed.audit.sweeps == base.audit.sweeps
    assert base.audit.sweeps == wl.total_accesses() // 250 + 1


@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize("scheduling", ["timing", "lockstep"])
def test_resume_mid_telemetry_interval(tmp_path, engine, scheduling):
    # The checkpoint lands at 900, between the samples at 700 and 1050.
    wl = make_workload(seed=11)
    config = tiny_config(cores=2).replace(engine=engine)
    kwargs = dict(scheme_name="ziv:maxrrpvnotinprc", scheduling=scheduling,
                  telemetry="350,events=all", audit="400")
    base = run_workload(config, wl, **kwargs)
    ckpt = tmp_path / "run.ckpt"
    with pytest.raises(SimulationInterrupted) as exc_info:
        run_workload(config, wl, checkpoint_path=ckpt,
                     checkpoint_every=300, stop_after=900, **kwargs)
    assert exc_info.value.accesses_done % 350
    resumed = run_workload(config, wl, resume_from=ckpt, **kwargs)
    assert result_signature(resumed) == result_signature(base)
    assert resumed.telemetry.events == base.telemetry.events
    assert resumed.telemetry.series.column("access_index") == [
        350, 700, 1050, 1400, 1750, wl.total_accesses()
    ]
    assert resumed.audit.sweeps == base.audit.sweeps


def test_heartbeats_equal_across_schedulings(tmp_path):
    # 2125 accesses with a boundary every 425: the boundary due at
    # completion fires in neither scheduling mode.
    wl = make_workload(seed=12, n=1119)
    assert wl.total_accesses() == 2125
    beats = {}
    for scheduling in ("timing", "lockstep"):
        got: list[StreamProgress] = []
        run_workload(
            tiny_config(cores=2), wl, "inclusive", scheduling=scheduling,
            checkpoint_path=tmp_path / f"{scheduling}.ckpt",
            checkpoint_every=425, progress=got.append,
        )
        beats[scheduling] = [(b.accesses_done, b.chunk) for b in got]
    assert beats["timing"] == beats["lockstep"]
    assert beats["timing"] == [(425, 1), (850, 2), (1275, 3), (1700, 4)]


def test_progress_heartbeats(tmp_path):
    wl = make_workload(seed=4)
    config = tiny_config(cores=2)
    beats: list[StreamProgress] = []
    run_workload(
        config, wl, "inclusive",
        checkpoint_path=tmp_path / "run.ckpt",
        checkpoint_every=500,
        progress=beats.append,
    )
    assert beats
    total = wl.total_accesses()
    assert all(b.total_accesses == total for b in beats)
    assert [b.accesses_done for b in beats] == sorted(
        b.accesses_done for b in beats
    )
    assert all(b.checkpointed for b in beats)
    assert beats[0].chunk == 1
    assert 0.0 < beats[0].fraction <= 1.0
    # Heartbeats name the run they belong to (interleaved-log hygiene).
    assert all(b.label == wl.name for b in beats)
    assert all(b.engine == "object" for b in beats)


def test_progress_without_checkpointing(tmp_path):
    wl = make_workload(seed=5)
    beats = []
    run_workload(
        tiny_config(cores=2), wl, "inclusive",
        checkpoint_every=700, progress=beats.append,
    )
    assert beats and not any(b.checkpointed for b in beats)


def test_stop_after_requires_checkpoint_path():
    wl = make_workload(seed=6, n=50)
    with pytest.raises(ValueError, match="stop_after requires"):
        run_workload(tiny_config(cores=2), wl, "inclusive", stop_after=10)


def test_resume_refuses_wrong_workload(tmp_path):
    config = tiny_config(cores=2)
    ckpt = tmp_path / "run.ckpt"
    with pytest.raises(SimulationInterrupted):
        run_workload(config, make_workload(seed=7), "inclusive",
                     checkpoint_path=ckpt, checkpoint_every=300,
                     stop_after=600)
    with pytest.raises(CheckpointError, match="refusing to mix"):
        run_workload(config, make_workload(seed=8), "inclusive",
                     resume_from=ckpt)


def test_resume_refuses_wrong_scheduling(tmp_path):
    config = tiny_config(cores=2)
    ckpt = tmp_path / "run.ckpt"
    wl = make_workload(seed=9)
    with pytest.raises(SimulationInterrupted):
        run_workload(config, wl, "inclusive", checkpoint_path=ckpt,
                     checkpoint_every=300, stop_after=600)
    with pytest.raises(CheckpointError, match="scheduling"):
        run_workload(config, wl, "inclusive", scheduling="lockstep",
                     resume_from=ckpt)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_resume_refuses_other_version(tmp_path, engine):
    """A checkpoint stamped with another version is refused before any
    access runs: its hierarchy is left exactly where it stopped."""
    config = tiny_config(cores=2).replace(engine=engine)
    ckpt = tmp_path / "run.ckpt"
    wl = make_workload(seed=11)
    with pytest.raises(SimulationInterrupted):
        run_workload(config, wl, "ziv:notinprc", checkpoint_path=ckpt,
                     checkpoint_every=300, stop_after=600)
    stale = dataclasses.replace(
        load_checkpoint(ckpt), version=CHECKPOINT_VERSION - 1
    )
    with pytest.raises(CheckpointError,
                       match=f"version {stale.version} unsupported"):
        run_workload(config, wl, "ziv:notinprc", resume_from=stale)
    assert stale.hierarchy.stats.total_accesses == 600


def test_resume_refuses_a_version_3_checkpoint_by_its_version(tmp_path):
    """A version-3 checkpoint names its workload by the fingerprint of
    its day, which hashed records as decimal text: it is refused for its
    version, not reported as a checkpoint of another workload."""
    config = tiny_config(cores=2)
    ckpt = tmp_path / "run.ckpt"
    wl = make_workload(seed=12)
    with pytest.raises(SimulationInterrupted):
        run_workload(config, wl, "inclusive", checkpoint_path=ckpt,
                     checkpoint_every=300, stop_after=600)
    old = dataclasses.replace(load_checkpoint(ckpt), version=3,
                              workload_fingerprint="0" * 64)
    with pytest.raises(CheckpointError, match="version 3 unsupported"):
        run_workload(config, wl, "inclusive", resume_from=old)


def test_load_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "missing.ckpt")


def test_save_checkpoint_is_atomic(tmp_path):
    # A failed save must leave the previous checkpoint intact.
    config = tiny_config(cores=2)
    ckpt = tmp_path / "run.ckpt"
    with pytest.raises(SimulationInterrupted):
        run_workload(config, make_workload(seed=10), "inclusive",
                     checkpoint_path=ckpt, checkpoint_every=300,
                     stop_after=600)
    before = ckpt.read_bytes()
    with pytest.raises(CheckpointError):
        save_checkpoint(ckpt, object())  # not a SimCheckpoint
    assert ckpt.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []
