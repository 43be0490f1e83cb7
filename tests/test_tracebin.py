"""The chunked binary trace format: round-trips, fingerprints,
corruption detection, streamed-run equivalence, recipe references."""

from __future__ import annotations

import dataclasses
import pickle
import random
import weakref

import pytest

from tests.conftest import tiny_config
from repro.sim.differential import compare_results
from repro.sim.engine import run_workload
from repro.sim.parallel import RunRecipe
from repro.sim.trace import (
    CoreTrace,
    TraceRecord,
    Workload,
    interleave_records,
    lockstep_stream,
)
from repro.sim.tracebin import (
    RECORD_BYTES,
    WINDOW_RECORDS,
    BinWorkload,
    TraceBinReader,
    TraceBinWriter,
    TraceRef,
    convert_din_trace,
    convert_text_trace,
    load_workload_bin,
    make_trace_ref,
    open_trace,
    resolve_workload,
    save_workload_bin,
)
from repro.sim.tracefile import TraceFormatError, save_workload

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # minimal environment: seeded-random fallback below
    HAVE_HYPOTHESIS = False


def make_workload(seed=0, cores=2, n=600, name="wl"):
    rng = random.Random(seed)
    traces = [
        CoreTrace(
            [
                TraceRecord(
                    rng.randrange(0, 8),
                    rng.randrange(0, 2048),
                    rng.random() < 0.3,
                    rng.randrange(0, 1 << 16),
                )
                for _ in range(n + 37 * c)
            ],
            f"app{c}",
        )
        for c in range(cores)
    ]
    return Workload(traces, name=name)


# ---------------------------------------------------------------------------
# Round-trip
# ---------------------------------------------------------------------------


def test_round_trip_exact(tmp_path):
    wl = make_workload(seed=1)
    path = tmp_path / "wl.tracebin"
    fp = save_workload_bin(wl, path, chunk_records=128)
    assert fp == wl.fingerprint()
    back = load_workload_bin(path)
    assert back.name == wl.name
    assert back.cores == wl.cores
    for a, b in zip(back, wl):
        assert a.name == b.name
        assert list(a) == list(b)
    assert back.fingerprint() == wl.fingerprint()


def test_round_trip_preserves_empty_core(tmp_path):
    wl = Workload(
        [CoreTrace([TraceRecord(0, 1, False, 2)], "busy"),
         CoreTrace([], "idle")],
        name="halfidle",
    )
    path = tmp_path / "wl.tracebin"
    save_workload_bin(wl, path)
    back = load_workload_bin(path)
    assert back.cores == 2
    assert len(back[1]) == 0
    assert back[1].name == "idle"
    assert back.fingerprint() == wl.fingerprint()


def test_streaming_view_matches_materialised(tmp_path):
    wl = make_workload(seed=2, n=500)
    path = tmp_path / "wl.tracebin"
    save_workload_bin(wl, path, chunk_records=64)
    with open_trace(path) as bw:
        assert isinstance(bw, BinWorkload)
        assert bw.total_accesses() == wl.total_accesses()
        # sequence protocol over chunk seams, including negative index
        assert bw[0][63] == wl[0][63]
        assert bw[0][64] == wl[0][64]
        assert bw[1][-1] == wl[1][-1]
        with pytest.raises(IndexError):
            bw[0][len(wl[0])]
        # the canonical interleavings the engines consume
        assert lockstep_stream(bw) == lockstep_stream(wl)
        assert list(interleave_records(bw)) == list(interleave_records(wl))
        # per-core metadata
        assert bw[0].fingerprint() == wl[0].fingerprint()
        assert bw[0].instructions == wl[0].instructions
        assert bw[0].footprint() == wl[0].footprint()


def test_indexing_decodes_one_record(tmp_path, monkeypatch):
    # Random access unpacks the one record asked for: no chunk is
    # decoded and nothing is kept on the view.
    wl = make_workload(seed=3, cores=1, n=1000)
    path = tmp_path / "wl.tracebin"
    save_workload_bin(wl, path, chunk_records=50)

    def no_chunks(*args):
        raise AssertionError("indexing must not decode a chunk")

    monkeypatch.setattr(TraceBinReader, "chunk", no_chunks)
    with open_trace(path) as bw:
        trace = bw[0]
        assert [trace[i] for i in range(len(trace))] == wl[0].records
        assert vars(trace).keys() == {"_reader", "_core", "name", "_len"}


def test_binworkload_pickles_by_path(tmp_path):
    wl = make_workload(seed=4, n=120)
    path = tmp_path / "wl.tracebin"
    save_workload_bin(wl, path)
    with open_trace(path) as bw:
        clone = pickle.loads(pickle.dumps(bw))
        try:
            assert clone.fingerprint() == wl.fingerprint()
            assert list(clone[0]) == list(wl[0])
        finally:
            clone.close()


def test_streamed_fast_run_holds_one_window_per_core(tmp_path, monkeypatch):
    # The fast kernel decodes a streamed trace window by window straight
    # from the mapping: no TraceRecord chunks, no whole-trace memo, and
    # never more than one live decode window per core.
    from repro.sim.fast import FastHierarchy

    wl = make_workload(seed=5, n=9000)
    path = tmp_path / "wl.tracebin"
    save_workload_bin(wl, path, chunk_records=5000)
    decode = FastHierarchy._decode
    live: dict = {0: [], 1: []}
    alive_at_decode: dict = {0: [], 1: []}

    class Window(list):
        pass

    def tracked(self, core, *args):
        alive = [ref for ref in live[core] if ref() is not None]
        alive_at_decode[core].append(len(alive))
        cols = Window(decode(self, core, *args))
        assert len(cols) <= WINDOW_RECORDS
        live[core] = alive + [weakref.ref(cols)]
        return cols

    def no_chunks(*args):
        raise AssertionError("streamed fast runs must not decode records")

    monkeypatch.setattr(FastHierarchy, "_decode", tracked)
    monkeypatch.setattr(TraceBinReader, "chunk", no_chunks)
    config = tiny_config(cores=2).replace(engine="fast")
    with open_trace(path) as bw:
        streamed = run_workload(config, bw, "inclusive", telemetry="700",
                                checkpoint_path=tmp_path / "run.ckpt",
                                checkpoint_every=2000)
        assert not any(hasattr(t, "_fast_cols") for t in bw)
    # three windows per core, cut at the chunk seam: 4096, 904, ~4000
    assert alive_at_decode == {0: [0, 1, 1], 1: [0, 1, 1]}
    monkeypatch.undo()
    base = run_workload(config, wl, "inclusive", telemetry="700")
    assert compare_results(base, streamed) == []


def test_streamed_object_run_reads_column_windows(tmp_path, monkeypatch):
    # The object loop reads a streamed trace as the fast kernel does:
    # bounded column windows refilled where one ends, never a decoded
    # chunk or a record.
    from repro.sim.tracebin import BinCoreTrace

    # 10001 and 10038 records: core 0's last chunk holds one record.
    wl = make_workload(seed=7, n=10001)
    path = tmp_path / "wl.tracebin"
    save_workload_bin(wl, path, chunk_records=5000)
    window = BinCoreTrace.window
    starts: dict = {0: [], 1: []}

    def tracked(self, start):
        columns = window(self, start)
        assert len({len(c) for c in columns}) == 1
        assert len(columns[0]) <= WINDOW_RECORDS
        starts[self._core].append(start)
        return columns

    def no_records(*args):
        raise AssertionError("streamed object runs must not decode records")

    monkeypatch.setattr(BinCoreTrace, "window", tracked)
    monkeypatch.setattr(TraceBinReader, "chunk", no_records)
    monkeypatch.setattr(TraceBinReader, "record", no_records)
    config = tiny_config(cores=2)
    with open_trace(path) as bw:
        streamed = run_workload(config, bw, "ziv:notinprc", telemetry="700",
                                checkpoint_path=tmp_path / "run.ckpt",
                                checkpoint_every=2000)
    # one window per refill, cut at WINDOW_RECORDS and at the chunk seam,
    # kept across the segments that boundary work cuts
    assert starts == {0: [0, 4096, 5000, 9096, 10000],
                      1: [0, 4096, 5000, 9096, 10000]}
    monkeypatch.undo()
    base = run_workload(config, wl, "ziv:notinprc", telemetry="700")
    assert compare_results(base, streamed) == []


def test_window_carries_the_pc_column(tmp_path):
    wl = make_workload(seed=8, cores=1, n=300)
    path = tmp_path / "wl.tracebin"
    save_workload_bin(wl, path, chunk_records=128)
    with TraceBinReader(path) as reader:
        gaps, addrs, writes, pcs = reader.window(0, 100)
    assert len(pcs) == 28  # up to the chunk seam
    assert list(zip(gaps, addrs, writes, pcs)) == [
        (r.gap, r.addr, r.is_write, r.pc) for r in wl[0].records[100:128]
    ]


def test_synthesized_mix_with_a_partial_last_chunk(tmp_path):
    # The writer hashes the chunks it writes and verify() the mapped
    # chunks; both must land on the in-memory value when a core's
    # length is not a multiple of the chunk size.
    from repro.workloads import heterogeneous_mixes

    wl = heterogeneous_mixes(n_mixes=1, cores=3, n_accesses=1000, seed=5)[0]
    path = tmp_path / "mix.tracebin"
    assert save_workload_bin(wl, path, chunk_records=384) == \
        wl.fingerprint()
    with TraceBinReader(path) as reader:
        assert reader.fingerprint == wl.fingerprint()
        assert reader.core_counts == [1000] * 3
        assert reader.verify()["chunks"] == 9
    back = load_workload_bin(path)
    assert [(t.gaps, t.addrs, t.writes, t.pcs) for t in back] == \
        [(t.gaps, t.addrs, t.writes, t.pcs) for t in wl]


@pytest.mark.parametrize("chunk_records", [100, 300, 65536])
def test_every_fingerprint_path_agrees(tmp_path, chunk_records):
    # The in-memory fingerprint, the writer's header, verify() and a
    # TraceRef agree on either side of a packing block boundary (255,
    # 256 and 257 records), for an empty core and a write flag of 2,
    # with chunks that cut the blocks.
    traces = [
        CoreTrace.from_columns(list(range(n)), [3 * i for i in range(n)],
                               [i % 3 for i in range(n)], [7] * n,
                               name=f"c{n}")
        for n in (255, 256, 257, 0)
    ]
    wl = Workload(traces, "parity")
    path = tmp_path / "wl.tracebin"
    written = save_workload_bin(wl, path, chunk_records=chunk_records)
    with TraceBinReader(path) as reader:
        verified = reader.verify()["fingerprint"]
        assert reader.core_fingerprints == [t.fingerprint() for t in traces]
    assert written == wl.fingerprint() == verified == \
        make_trace_ref(path).fingerprint()
    assert load_workload_bin(path).fingerprint() == wl.fingerprint()


@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize(
    "scheme",
    ["inclusive", "noninclusive", "ziv:notinprc", "ziv:maxrrpvnotinprc"],
)
def test_streamed_boundary_work_matches_in_memory(tmp_path, scheme, engine):
    # Telemetry samples, audit sweeps and checkpoints cut a streamed run
    # into segments and windows; none of it may change a single field.
    wl = make_workload(seed=6, n=2500)
    path = tmp_path / "wl.tracebin"
    save_workload_bin(wl, path, chunk_records=700)
    config = tiny_config(cores=2).replace(engine=engine)
    kwargs = dict(scheme_name=scheme, telemetry="300,events=all",
                  audit="450,collect")
    base = run_workload(config, wl, **kwargs)
    with open_trace(path) as bw:
        streamed = run_workload(config, bw,
                                checkpoint_path=tmp_path / "run.ckpt",
                                checkpoint_every=1000, **kwargs)
    assert compare_results(base, streamed) == []
    assert streamed.audit.sweeps == wl.total_accesses() // 450 + 1


if HAVE_HYPOTHESIS:

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 2**32 - 1),
                    st.integers(0, 2**64 - 1),
                    st.booleans(),
                    st.integers(0, 2**64 - 1),
                ),
                max_size=40,
            ),
            min_size=1,
            max_size=3,
        ),
        st.integers(1, 17),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_round_trip(tmp_path_factory, cores, chunk_records):
        wl = Workload(
            [
                CoreTrace([TraceRecord(*t) for t in recs], f"c{i}")
                for i, recs in enumerate(cores)
            ],
            name="prop",
        )
        path = tmp_path_factory.mktemp("bin") / "wl.tracebin"
        save_workload_bin(wl, path, chunk_records=chunk_records)
        back = load_workload_bin(path)
        assert [list(t) for t in back] == [list(t) for t in wl]
        assert back.fingerprint() == wl.fingerprint()
        with TraceBinReader(path) as reader:
            reader.verify()

else:  # pragma: no cover - hypothesis always present in CI

    def test_property_round_trip_fallback(tmp_path):
        rng = random.Random(99)
        for trial in range(15):
            wl = make_workload(seed=trial, cores=rng.randrange(1, 4),
                               n=rng.randrange(0, 80))
            path = tmp_path / f"wl{trial}.tracebin"
            save_workload_bin(wl, path,
                              chunk_records=rng.randrange(1, 18))
            back = load_workload_bin(path)
            assert [list(t) for t in back] == [list(t) for t in wl]
            assert back.fingerprint() == wl.fingerprint()


# ---------------------------------------------------------------------------
# Corruption and writer validation
# ---------------------------------------------------------------------------


def test_bit_flip_fails_verification(tmp_path):
    wl = make_workload(seed=5, n=300)
    path = tmp_path / "wl.tracebin"
    save_workload_bin(wl, path, chunk_records=64)
    data = bytearray(path.read_bytes())
    data[128 + 3 * RECORD_BYTES] ^= 0x10  # inside the first chunk
    bad = tmp_path / "bad.tracebin"
    bad.write_bytes(bytes(data))
    with TraceBinReader(bad) as reader:
        with pytest.raises(TraceFormatError, match="CRC mismatch"):
            reader.verify()


def test_truncated_file_fails_loudly(tmp_path):
    wl = make_workload(seed=6, n=200)
    path = tmp_path / "wl.tracebin"
    save_workload_bin(wl, path)
    cut = tmp_path / "cut.tracebin"
    cut.write_bytes(path.read_bytes()[:700])
    with pytest.raises(TraceFormatError):
        TraceBinReader(cut)


def test_not_a_tracebin_file(tmp_path):
    path = tmp_path / "junk.tracebin"
    path.write_bytes(b"not a trace" * 20)
    with pytest.raises(TraceFormatError, match="bad magic"):
        TraceBinReader(path)


def test_version_1_file_is_refused_with_a_remedy(tmp_path):
    # A version-1 header's fingerprint hashed decimal text: no recipe
    # key this build makes can name it, so the reader refuses it.
    path = tmp_path / "wl.tracebin"
    save_workload_bin(make_workload(seed=4, n=50), path)
    data = bytearray(path.read_bytes())
    data[4:6] = (1).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError,
                       match="version 1 .*re-create the file from its "
                             "source"):
        TraceBinReader(path)


def test_writer_rejects_out_of_range_fields(tmp_path):
    with TraceBinWriter(tmp_path / "wl.tracebin") as w:
        with pytest.raises(TraceFormatError, match="out of range"):
            w.write_core([TraceRecord(2**32, 0, False, 0)])
        w.abort()


def test_writer_stores_any_true_flag_as_a_write(tmp_path):
    # The flag byte holds 0 or 1, so a write flag of 2 is written,
    # hashed and read back as a plain write, and the file fingerprints
    # as the trace in memory does.
    wl = Workload([CoreTrace([TraceRecord(0, 1, 2, 3),
                              TraceRecord(1, 2, 0, 3)], "c")], "flags")
    path = tmp_path / "wl.tracebin"
    save_workload_bin(wl, path)
    with TraceBinReader(path) as reader:
        assert reader.verify()["fingerprint"] == wl.fingerprint()
    assert path.read_bytes()[128 + 20] == 1
    assert load_workload_bin(path)[0].writes == [True, False]


def test_writer_needs_a_core(tmp_path):
    w = TraceBinWriter(tmp_path / "wl.tracebin")
    with pytest.raises(TraceFormatError, match="at least one core"):
        w.close()
    assert not (tmp_path / "wl.tracebin").exists()


def test_aborted_writer_leaves_no_file(tmp_path):
    try:
        with TraceBinWriter(tmp_path / "wl.tracebin") as w:
            w.write_core([TraceRecord(0, 1, False, 2)])
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Importers
# ---------------------------------------------------------------------------


def test_text_conversion_matches_in_memory(tmp_path):
    wl = make_workload(seed=7, n=250, name="conv")
    src = tmp_path / "conv.trace.gz"
    save_workload(wl, src)
    info = convert_text_trace(src, tmp_path / "conv.tracebin",
                              chunk_records=100)
    assert info["fingerprint"] == wl.fingerprint()
    back = load_workload_bin(tmp_path / "conv.tracebin")
    assert [list(t) for t in back] == [list(t) for t in wl]
    assert [t.name for t in back] == [t.name for t in wl]


def test_text_conversion_preserves_empty_core(tmp_path):
    wl = Workload(
        [CoreTrace([TraceRecord(1, 2, True, 3)], "busy"),
         CoreTrace([], "idle")],
        name="halfidle",
    )
    src = tmp_path / "halfidle.trace.gz"
    save_workload(wl, src)
    convert_text_trace(src, tmp_path / "halfidle.tracebin")
    back = load_workload_bin(tmp_path / "halfidle.tracebin")
    assert back.cores == 2 and len(back[1]) == 0
    assert back.fingerprint() == wl.fingerprint()


def test_din_import(tmp_path):
    src = tmp_path / "app.din"
    src.write_text(
        "# a comment\n"
        "r 0x1f40\n"
        "w 8192\n"
        "2 0xffc0\n"
        "0 64\n"
    )
    info = convert_din_trace(src, tmp_path / "app.tracebin", block_bits=6)
    assert info["records"] == 4 and info["cores"] == 1
    back = load_workload_bin(tmp_path / "app.tracebin")
    recs = list(back[0])
    assert recs[0].addr == 0x1F40 >> 6 and not recs[0].is_write
    assert recs[1].addr == 8192 >> 6 and recs[1].is_write
    assert recs[2].addr == 0xFFC0 >> 6 and not recs[2].is_write
    assert back.name == "app"


def test_din_import_rejects_bad_label(tmp_path):
    src = tmp_path / "bad.din"
    src.write_text("q 0x40\n")
    with pytest.raises(TraceFormatError, match="unknown access label"):
        convert_din_trace(src, tmp_path / "bad.tracebin")


# ---------------------------------------------------------------------------
# Streamed runs are bit-identical to in-memory runs
# ---------------------------------------------------------------------------


def result_signature(r):
    return (
        dataclasses.asdict(r.stats),
        r.cycles,
        r.energy.total_energy_pj() if r.energy is not None else None,
        r.telemetry.series.to_dict() if r.telemetry is not None else None,
        r.scheme_stats,
    )


@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize("scheduling", ["timing", "lockstep"])
def test_streamed_run_bit_identical(tmp_path, engine, scheduling):
    wl = make_workload(seed=8, n=900, name="stream")
    path = tmp_path / "stream.tracebin"
    save_workload_bin(wl, path, chunk_records=256)
    config = tiny_config(cores=2).replace(engine=engine)
    kwargs = dict(
        scheme_name="ziv:notinprc",
        scheduling=scheduling,
        telemetry="400",
    )
    base = run_workload(config, wl, **kwargs)
    with open_trace(path) as bw:
        streamed = run_workload(config, bw, **kwargs)
    assert result_signature(streamed) == result_signature(base)


# ---------------------------------------------------------------------------
# TraceRef: the recipe-layer reference
# ---------------------------------------------------------------------------


def test_trace_ref_shares_cache_key_with_in_memory(tmp_path):
    wl = make_workload(seed=9, n=150, name="ref")
    path = tmp_path / "ref.tracebin"
    save_workload_bin(wl, path)
    ref = make_trace_ref(path)
    config = tiny_config(cores=2)
    by_ref = RunRecipe(workload=ref, scheme="inclusive", config=config)
    in_mem = RunRecipe(workload=wl, scheme="inclusive", config=config)
    # Same content -> same key: sound because streamed and in-memory
    # runs are bit-identical (test_streamed_run_bit_identical).
    assert by_ref.key() == in_mem.key()
    assert result_signature(by_ref.execute()) == result_signature(
        in_mem.execute()
    )


def test_trace_ref_detects_changed_file(tmp_path):
    wl = make_workload(seed=10, n=80)
    path = tmp_path / "wl.tracebin"
    save_workload_bin(wl, path)
    ref = make_trace_ref(path)
    save_workload_bin(make_workload(seed=11, n=80), path)
    with pytest.raises(TraceFormatError, match="does not match"):
        ref.resolve()


def test_trace_ref_pickles_small(tmp_path):
    wl = make_workload(seed=12, n=5000)
    path = tmp_path / "wl.tracebin"
    save_workload_bin(wl, path)
    ref = make_trace_ref(path)
    blob = pickle.dumps(ref)
    assert len(blob) < 1024  # path + fingerprint, never the records
    clone = pickle.loads(blob)
    assert clone == ref and clone.fingerprint() == wl.fingerprint()


def test_resolve_workload_passthrough(tmp_path):
    wl = make_workload(seed=13, n=10)
    assert resolve_workload(wl) is wl
    path = tmp_path / "wl.tracebin"
    save_workload_bin(wl, path)
    resolved = resolve_workload(make_trace_ref(path))
    try:
        assert isinstance(resolved, BinWorkload)
        assert resolved.fingerprint() == wl.fingerprint()
    finally:
        resolved.close()


def test_trace_ref_config_io_round_trip(tmp_path):
    from repro.config_io import trace_ref_from_dict, trace_ref_to_dict

    wl = make_workload(seed=14, n=20)
    path = tmp_path / "wl.tracebin"
    save_workload_bin(wl, path)
    ref = make_trace_ref(path)
    clone = trace_ref_from_dict(trace_ref_to_dict(ref))
    assert isinstance(clone, TraceRef)
    assert clone == ref
