"""Trace containers.

A *core trace* is a sequence of memory accesses annotated with the number
of non-memory instructions since the previous access (the "gap"), the block
address, a read/write flag, and the PC of the access (consumed by Hawkeye's
predictor).  Traces stand in for the paper's SimPoint segments of SPEC CPU
2017 / PARSEC / TPC-E executions.

A :class:`CoreTrace` holds the four fields as parallel columns, from the
generators (:mod:`repro.workloads`) through the content fingerprint to
both engines' decode: no hot path builds a :class:`TraceRecord`.  Records
are built on demand for tools and tests.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, Iterator, Sequence


class TraceRecord:
    """One memory access of one core."""

    __slots__ = ("gap", "addr", "is_write", "pc")

    def __init__(self, gap: int, addr: int, is_write: bool, pc: int) -> None:
        self.gap = gap
        self.addr = addr
        self.is_write = is_write
        self.pc = pc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rw = "W" if self.is_write else "R"
        return f"<{rw} {self.addr:#x} gap={self.gap} pc={self.pc:#x}>"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TraceRecord)
            and self.gap == other.gap
            and self.addr == other.addr
            and self.is_write == other.is_write
            and self.pc == other.pc
        )


#: One packed record, little-endian: gap ``u32``, block address ``u64``,
#: PC ``u64``, the write flag as 0 or 1 (any true value packs as 1),
#: 3 pad bytes -- 24 bytes.  A trace's fingerprint hashes its records in
#: this layout, and a tracebin file (:mod:`repro.sim.tracebin`) stores
#: them in it, so a file's chunks are its fingerprint preimage.
RECORD = struct.Struct("<IQQ?3x")

#: Records per :data:`_BLOCK` call of :func:`packed_records`.  One fixed
#: block ``Struct`` (33 KB) serves every length; the tail packs record
#: by record.
PACK_BLOCK = 256
_BLOCK = struct.Struct("<" + RECORD.format[1:] * PACK_BLOCK)


def packed_records(gaps: Sequence[int], addrs: Sequence[int],
                   writes: Sequence, pcs: Sequence[int], first: int = 0,
                   owner: str = "trace") -> Iterator[bytes]:
    """The records of four parallel columns in the :data:`RECORD`
    layout: one ``bytes`` block per :data:`PACK_BLOCK` records, then the
    tail.  The one packer: :meth:`CoreTrace.fingerprint` hashes its
    blocks and the tracebin writer joins them into the chunk it writes
    and hashes.

    A field outside its range raises :class:`ValueError` naming the
    record as ``record <first + i> of <owner>``."""
    n = len(addrs)
    full = n - n % PACK_BLOCK
    flat: list = [0] * (4 * PACK_BLOCK) if full else []
    try:
        for lo in range(0, full, PACK_BLOCK):
            hi = lo + PACK_BLOCK
            flat[0::4] = gaps[lo:hi]
            flat[1::4] = addrs[lo:hi]
            flat[2::4] = pcs[lo:hi]
            flat[3::4] = writes[lo:hi]
            yield _BLOCK.pack(*flat)
        yield b"".join(map(RECORD.pack, gaps[full:], addrs[full:],
                           pcs[full:], writes[full:]))
    except struct.error:
        # Find the record at fault, for the message.
        for i, fields in enumerate(zip(gaps, addrs, pcs, writes)):
            try:
                RECORD.pack(*fields)
            except struct.error as exc:
                raise ValueError(
                    f"record {first + i} of {owner}: field out of range "
                    f"(gap < 2**32, addr and pc < 2**64 required): {exc}"
                ) from exc
        raise


class CoreTrace:
    """The access stream of one core: four parallel columns.

    ``gaps``, ``addrs``, ``writes`` and ``pcs`` hold one entry per access,
    in order.  A trace is immutable after construction: the engines
    memoise per-trace decode work (the fast engine's ``_fast_cols``)
    on that promise, so never mutate a column in place.

    ``CoreTrace(records, name)`` splits :class:`TraceRecord` objects into
    columns; :meth:`from_columns` adopts ready-made columns without a
    record in sight.  ``records``, iteration and indexing build records
    on demand (for tools and tests); nothing caches them, since every
    pool worker would keep one list per trace it touched.  A pickle
    carries the name and the columns only."""

    def __init__(self, records: Iterable[TraceRecord],
                 name: str = "app") -> None:
        records = list(records)
        self.name = name
        self.gaps = [r.gap for r in records]
        self.addrs = [r.addr for r in records]
        self.writes = [r.is_write for r in records]
        self.pcs = [r.pc for r in records]

    @classmethod
    def from_columns(cls, gaps: list, addrs: list, writes: list,
                     pcs: list, name: str = "app") -> "CoreTrace":
        """A trace over the given columns, which it adopts (not copies):
        the caller must not touch them afterwards."""
        if not len(gaps) == len(addrs) == len(writes) == len(pcs):
            raise ValueError(
                f"trace columns differ in length: gaps {len(gaps)}, addrs "
                f"{len(addrs)}, writes {len(writes)}, pcs {len(pcs)}"
            )
        trace = cls.__new__(cls)
        trace.name = name
        trace.gaps = gaps
        trace.addrs = addrs
        trace.writes = writes
        trace.pcs = pcs
        return trace

    def __getstate__(self) -> dict:
        # Columns only: engine memos stay in the process that built them.
        return {"name": self.name, "gaps": self.gaps, "addrs": self.addrs,
                "writes": self.writes, "pcs": self.pcs}

    def __len__(self) -> int:
        return len(self.addrs)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(TraceRecord, self.gaps, self.addrs, self.writes, self.pcs)

    def __getitem__(self, i: int) -> TraceRecord:
        return TraceRecord(self.gaps[i], self.addrs[i], self.writes[i],
                           self.pcs[i])

    @property
    def records(self) -> list[TraceRecord]:
        """The records, built afresh on every read."""
        return list(self)

    @property
    def instructions(self) -> int:
        """Total dynamic instructions represented (gaps + the accesses)."""
        return sum(self.gaps) + len(self.gaps)

    def footprint(self) -> int:
        """Number of distinct blocks touched."""
        return len(set(self.addrs))

    def fingerprint(self) -> str:
        """Content hash of the trace: SHA-256 of the name, then every
        record packed in the :data:`RECORD` layout.

        Stable across processes and sessions -- the building block of the
        persistent result-cache keys in :mod:`repro.sim.parallel`.  A
        field out of its packed range raises :class:`ValueError`."""
        h = hashlib.sha256(self.name.encode())
        for block in packed_records(self.gaps, self.addrs, self.writes,
                                    self.pcs, owner=f"trace {self.name!r}"):
            h.update(block)
        return h.hexdigest()


class Workload:
    """A multi-core workload: one trace per core."""

    def __init__(self, traces: Sequence[CoreTrace], name: str = "mix") -> None:
        if not traces:
            raise ValueError("a workload needs at least one core trace")
        self.traces = list(traces)
        self.name = name

    @property
    def cores(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[CoreTrace]:
        return iter(self.traces)

    def __getitem__(self, core: int) -> CoreTrace:
        return self.traces[core]

    def total_accesses(self) -> int:
        return sum(len(t) for t in self.traces)

    def fingerprint(self) -> str:
        """Content hash of the whole workload (cached after first call).

        Identifies the workload in persistent result-cache keys: two
        workloads with identical names and records hash identically no
        matter which process generated them."""
        fp = getattr(self, "_fingerprint", None)
        if fp is None:
            h = hashlib.sha256()
            h.update(self.name.encode())
            for t in self.traces:
                h.update(t.fingerprint().encode())
            fp = self._fingerprint = h.hexdigest()
        return fp

    def describe(self) -> str:
        apps = ", ".join(t.name for t in self.traces)
        return f"{self.name}[{apps}]"


def _round_robin(streams: list) -> Iterator[tuple[int, object]]:
    """``(core, item)`` pairs of per-core iterables in lock-step order:
    one item of every unfinished core per step, cores in order."""
    lengths = [len(s) for s in streams]
    iters = [iter(s) for s in streams]
    for i in range(max(lengths)):
        for core, it in enumerate(iters):
            if i < lengths[core]:
                yield core, next(it)


def lockstep_stream(workload: Workload) -> list[int]:
    """Canonical global access stream: round-robin by access index.

    This is the fixed interleaving used to define the Belady MIN oracle
    (paper footnote 2: MIN consumes the global L1 access stream, which is
    independent of LLC policy for a given schedule).  The engine's
    ``lockstep`` scheduling mode replays accesses in exactly this order.
    A streamed trace has no address column and gives its addresses in
    one pass over its records.
    """
    columns = [
        t.addrs if isinstance(t, CoreTrace) else [r.addr for r in t]
        for t in workload
    ]
    return [addr for _core, addr in _round_robin(columns)]


def interleave_records(
    workload: Workload,
) -> Iterator[tuple[int, TraceRecord]]:
    """(core, record) pairs in the canonical lock-step order."""
    return _round_robin(list(workload))
