"""Trace containers and the canonical lock-step stream."""

import hashlib
import pickle

import pytest

from repro.sim.trace import (
    PACK_BLOCK,
    CoreTrace,
    TraceRecord,
    Workload,
    interleave_records,
    lockstep_stream,
)


def trace(addrs, name="t"):
    return CoreTrace([TraceRecord(1, a, False, 0) for a in addrs], name)


def packed(r: TraceRecord) -> bytes:
    """One record of the fingerprint preimage, built by hand: gap u32,
    addr u64, pc u64, the write flag as one 0/1 byte and 3 zero bytes,
    little-endian."""
    return (r.gap.to_bytes(4, "little") + r.addr.to_bytes(8, "little")
            + r.pc.to_bytes(8, "little") + bytes([bool(r.is_write), 0, 0, 0]))


class TestCoreTrace:
    def test_len_iter_getitem(self):
        t = trace([1, 2, 3])
        assert len(t) == 3
        assert [r.addr for r in t] == [1, 2, 3]
        assert t[1].addr == 2

    def test_instructions_counts_gaps(self):
        t = trace([1, 2])
        assert t.instructions == 4  # (gap 1 + access) x 2

    def test_footprint(self):
        assert trace([1, 2, 2, 3]).footprint() == 3

    def test_record_equality(self):
        assert TraceRecord(1, 2, False, 3) == TraceRecord(1, 2, False, 3)
        assert TraceRecord(1, 2, False, 3) != TraceRecord(1, 2, True, 3)


class TestWorkload:
    def test_requires_traces(self):
        with pytest.raises(ValueError):
            Workload([], "empty")

    def test_cores_and_total(self):
        wl = Workload([trace([1]), trace([2, 3])], "w")
        assert wl.cores == 2
        assert wl.total_accesses() == 3

    def test_describe(self):
        wl = Workload([trace([1], "a"), trace([2], "b")], "mix")
        assert "a" in wl.describe() and "mix" in wl.describe()


class TestLockstep:
    def test_round_robin_order(self):
        wl = Workload([trace([1, 2]), trace([10, 20])], "w")
        assert lockstep_stream(wl) == [1, 10, 2, 20]

    def test_uneven_lengths(self):
        wl = Workload([trace([1, 2, 3]), trace([10])], "w")
        assert lockstep_stream(wl) == [1, 10, 2, 3]

    def test_interleave_records_pairs(self):
        wl = Workload([trace([1]), trace([10])], "w")
        assert [(c, r.addr) for c, r in interleave_records(wl)] == [
            (0, 1),
            (1, 10),
        ]


class TestColumns:
    """A trace is four parallel columns; records are a view built on
    demand."""

    def data(self):
        return ([3, 0, 7], [64, 65, 64], [False, True, False], [9, 9, 12])

    def test_records_and_columns_build_the_same_trace(self):
        gaps, addrs, writes, pcs = self.data()
        records = [TraceRecord(*r) for r in zip(gaps, addrs, writes, pcs)]
        by_records = CoreTrace(records, "t")
        by_columns = CoreTrace.from_columns(*self.data(), name="t")
        for t in (by_records, by_columns):
            assert (t.gaps, t.addrs, t.writes, t.pcs) == self.data()
            assert t.records == records
            assert list(t) == records and t[2] == records[2]
            assert len(t) == 3 and t.instructions == 13
            assert t.footprint() == 2
        assert by_records.fingerprint() == by_columns.fingerprint()

    def test_fingerprint_preimage_is_unchanged(self):
        t = CoreTrace.from_columns(*self.data(), name="t")
        preimage = b"t" + b"".join(map(packed, t.records))
        assert t.fingerprint() == hashlib.sha256(preimage).hexdigest() == \
            "f84357d4373ff60bb3615ad85a154de6c6a9b51852461b18177b5dc941355776"

    def test_long_fingerprint_hashes_in_slices(self):
        # Whole blocks and a tail hash as one stream of packed records,
        # on either side of a block boundary; a write flag of 2 packs
        # as 1.
        for n in (PACK_BLOCK - 1, PACK_BLOCK, PACK_BLOCK + 1,
                  2 * PACK_BLOCK + 5):
            t = CoreTrace.from_columns(list(range(n)), list(range(n)),
                                       [i % 3 for i in range(n)],
                                       [7] * n, name="long")
            h = hashlib.sha256(b"long")
            for r in t.records:
                h.update(packed(r))
            assert t.fingerprint() == h.hexdigest(), n

    @pytest.mark.parametrize("at,field,value", [
        (1, "gaps", 2**32), (PACK_BLOCK + 44, "addrs", -1),
        (2 * PACK_BLOCK + 3, "pcs", 2**64),
    ])
    def test_fingerprint_rejects_a_field_out_of_range(self, at, field,
                                                      value):
        n = 2 * PACK_BLOCK + 5
        columns = {"gaps": [0] * n, "addrs": [1] * n,
                   "writes": [False] * n, "pcs": [2] * n}
        columns[field][at] = value
        t = CoreTrace.from_columns(**columns, name="big")
        with pytest.raises(ValueError,
                           match=rf"record {at} of trace 'big': field out "
                                 rf"of range"):
            t.fingerprint()

    def test_pickle_carries_the_columns_only(self):
        for t in (CoreTrace([TraceRecord(*r) for r in zip(*self.data())]),
                  CoreTrace.from_columns(*self.data())):
            t._fast_cols = {"memo": [1, 2, 3]}
            back = pickle.loads(pickle.dumps(t))
            assert vars(back).keys() == {"name", "gaps", "addrs", "writes",
                                         "pcs"}
            assert back.records == t.records
            assert back.fingerprint() == t.fingerprint()

    def test_columns_must_line_up(self):
        gaps, addrs, writes, pcs = self.data()
        with pytest.raises(ValueError, match="differ in length"):
            CoreTrace.from_columns(gaps, addrs[:2], writes, pcs)


def test_no_record_is_built_on_the_hot_path(monkeypatch, tmp_path):
    """Synthesizing a mix, keying a recipe on it and running it on both
    engines build no TraceRecord."""
    from repro.sim.engine import run_workload
    from repro.sim.parallel import make_recipe
    from repro.workloads import homogeneous_mix, multithreaded_workload
    from tests.conftest import tiny_config

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    def refuse(self, *args):
        raise AssertionError("a TraceRecord was built")

    monkeypatch.setattr(TraceRecord, "__init__", refuse)
    for workload in (homogeneous_mix("mcf.1", cores=2, n_accesses=300),
                     multithreaded_workload("vips", cores=2,
                                            n_accesses=300)):
        for engine in ("object", "fast"):
            config = tiny_config(cores=2).replace(engine=engine)
            assert make_recipe(workload, "ziv:notinprc", config=config).key()
            result = run_workload(config, workload, "ziv:notinprc")
            assert result.stats.total_accesses == 600
