"""The chunked **binary** trace format: out-of-core workloads.

The gzip text format (:mod:`repro.sim.tracefile`) must be materialised
whole, so memory bounds trace length.  This module defines ``tracebin``,
a compact on-disk format built for the paper's multi-billion-access
TPC-E/SPEC segments:

* **Fixed-width little-endian records** (24 bytes: gap ``u32``, block
  address ``u64``, PC ``u64``, write flag ``u8`` as 0 or 1, 3 pad
  bytes: :data:`repro.sim.trace.RECORD`), grouped *per core* so no
  record needs a core id.
* **Chunked layout with a seekable index** -- each core's stream is
  split into chunks of ``chunk_records`` records; a per-chunk index
  entry (file offset, record count, CRC-32 of the raw bytes) lets
  readers seek to any chunk and detect bit-level corruption locally.
* **Memory-mapped access** -- :class:`TraceBinReader` maps the file and
  decodes bounded windows; :class:`BinWorkload` wraps it in the
  :class:`~repro.sim.trace.Workload` interface, so peak resident memory
  is bounded by the window size, not the trace length.  Both engines
  skip record objects altogether: they unpack windows of
  :data:`WINDOW_RECORDS` records per core straight from the mapping into
  the four trace columns (:meth:`BinCoreTrace.window`).
* **Streaming content fingerprint** -- the header stores the workload's
  :meth:`Workload.fingerprint`.  A core's fingerprint is SHA-256 over
  its name and its records in the body layout, so the writer hashes the
  chunk bytes it writes and :meth:`TraceBinReader.verify` hashes the
  mapped chunks without decoding them.  A streamed binary trace and the
  same workload held in memory hash identically and share recipe-cache
  entries (:mod:`repro.sim.parallel`).

Importers convert the existing gzip text format
(:func:`convert_text_trace`) and a SimpleScalar/Dinero-style external
format (:func:`convert_din_trace`) without materialising the source:
records spool through per-core temporary files, so conversion is
out-of-core too.  :class:`TraceRef` is the picklable path+fingerprint
reference a :class:`~repro.sim.parallel.RunRecipe` carries instead of
the records themselves.

File layout (all little-endian)::

    header   (128 B)   magic 'ZIVT', version, cores, chunk_records,
                       total_records, index/meta offsets, fingerprint
    body               chunks of packed records, core 0 first
    meta     (JSON)    workload name, per-core names/counts/fingerprints
    index    (16 B/ch) offset u64, record count u32, crc32 u32

The header is patched last, so a crashed writer leaves a file whose
magic never validates -- readers fail loudly, not with silent
truncation.  See ``docs/TRACES.md`` for the full walk-through.
"""

from __future__ import annotations

import functools
import io
import json
import mmap
import os
import struct
import tempfile
import zlib
from hashlib import sha256
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.sim.trace import (
    RECORD,
    CoreTrace,
    TraceRecord,
    Workload,
    packed_records,
)
from repro.sim.tracefile import (
    TraceFormatError,
    default_workload_name,
    scan_workload,
)

MAGIC = b"ZIVT"
#: 2: the write flag byte holds 0 or 1 and the fingerprint hashes the
#: packed records; a version-1 file's fingerprint hashed decimal text.
FORMAT_VERSION = 2

#: Default records per chunk (24 B/record -> 1.5 MiB chunks).
DEFAULT_CHUNK_RECORDS = 65536

_HEADER = struct.Struct("<4sHHIIIQQQQ64s12x")  # 128 bytes
assert _HEADER.size == 128
RECORD_BYTES = RECORD.size
_INDEX_ENTRY = struct.Struct("<QII")  # offset, count, crc32

#: Most records of one core a streamed decode window holds, whatever
#: the file's ``chunk_records``.
WINDOW_RECORDS = 4096


@functools.lru_cache(maxsize=4)
def _window_struct(n: int) -> struct.Struct:
    """``n`` packed records unpacked in one call (one flat tuple)."""
    return struct.Struct("<" + RECORD.format[1:] * n)


# ---------------------------------------------------------------------------
# Fingerprinting (mirrors trace.CoreTrace/Workload exactly)
# ---------------------------------------------------------------------------


def _workload_fingerprint(name: str, core_digests: Iterable[str]) -> str:
    """Streaming replica of :meth:`Workload.fingerprint`."""
    h = sha256()
    h.update(name.encode())
    for digest in core_digests:
        h.update(digest.encode())
    return h.hexdigest()


def _column_batches(records, n: int) -> Iterator[tuple]:
    """``(gaps, addrs, writes, pcs)`` of ``n`` records at a time: slices
    of a :class:`CoreTrace`'s columns, or columns gathered from any
    iterable of records."""
    if isinstance(records, CoreTrace):
        for lo in range(0, len(records), n):
            yield (records.gaps[lo:lo + n], records.addrs[lo:lo + n],
                   records.writes[lo:lo + n], records.pcs[lo:lo + n])
        return
    batch: tuple = ([], [], [], [])
    gaps, addrs, writes, pcs = batch
    for r in records:
        gaps.append(r.gap)
        addrs.append(r.addr)
        writes.append(r.is_write)
        pcs.append(r.pc)
        if len(addrs) == n:
            yield batch
            batch = ([], [], [], [])
            gaps, addrs, writes, pcs = batch
    if addrs:
        yield batch


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class TraceBinWriter:
    """Streaming writer: cores in order, records per core in order.

    Call :meth:`write_core` once per core (dense core ids are implied by
    call order) with a :class:`CoreTrace`, whose columns it writes chunk
    by chunk, or any iterable of records -- a list, or a lazy generator
    draining a multi-gigabyte source.  Nothing beyond one chunk's
    columns and packed bytes is held in memory.  The file appears at
    ``path`` atomically on :meth:`close` (temp file + rename); an
    abandoned writer leaves no partial file behind.
    """

    def __init__(
        self,
        path,
        name: str = "mix",
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
    ) -> None:
        if chunk_records <= 0:
            raise TraceFormatError(
                f"chunk_records must be positive, got {chunk_records}"
            )
        self.path = Path(path)
        self.name = name
        self.chunk_records = chunk_records
        self.core_names: list[str] = []
        self.core_counts: list[int] = []
        self.core_digests: list[str] = []
        self._index: list[tuple[int, int, int]] = []  # offset, count, crc
        self._closed = False
        directory = self.path.resolve().parent
        fd, self._tmp = tempfile.mkstemp(
            dir=directory, suffix=".tracebin.tmp"
        )
        self._f = os.fdopen(fd, "wb")
        self._f.write(b"\0" * _HEADER.size)
        self._offset = _HEADER.size

    # -- streaming ---------------------------------------------------------

    def write_core(self, records: Iterable, name: Optional[str] = None) -> int:
        """Append one core's record stream; returns its record count."""
        if self._closed:
            raise TraceFormatError("writer is closed")
        core = len(self.core_names)
        if name is None:
            name = f"core{core}"
        h = sha256(name.encode())
        count = 0
        for gaps, addrs, writes, pcs in _column_batches(
            records, self.chunk_records
        ):
            # Packed once: the chunk's bytes are also its share of the
            # core's fingerprint preimage.
            try:
                data = b"".join(packed_records(
                    gaps, addrs, writes, pcs, first=count,
                    owner=f"core {core}",
                ))
            except ValueError as exc:
                raise TraceFormatError(str(exc)) from exc
            self._index.append((self._offset, len(addrs), zlib.crc32(data)))
            self._f.write(data)
            self._offset += len(data)
            h.update(data)
            count += len(addrs)
        self.core_names.append(name)
        self.core_counts.append(count)
        self.core_digests.append(h.hexdigest())
        return count

    # -- finalisation ------------------------------------------------------

    def close(self) -> str:
        """Write meta + index, patch the header, publish the file.

        Returns the workload fingerprint (also stored in the header)."""
        if self._closed:
            raise TraceFormatError("writer is closed")
        if not self.core_names:
            self.abort()
            raise TraceFormatError("a trace needs at least one core")
        self._closed = True
        fingerprint = _workload_fingerprint(self.name, self.core_digests)
        meta = json.dumps({
            "name": self.name,
            "core_names": self.core_names,
            "core_counts": self.core_counts,
            "core_fingerprints": self.core_digests,
        }, sort_keys=True).encode()
        meta_offset = self._offset
        self._f.write(meta)
        index_offset = meta_offset + len(meta)
        pack = _INDEX_ENTRY.pack
        for offset, count, crc in self._index:
            self._f.write(pack(offset, count, crc))
        self._f.seek(0)
        self._f.write(_HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            _HEADER.size,
            0,
            len(self.core_names),
            self.chunk_records,
            sum(self.core_counts),
            index_offset,
            meta_offset,
            len(meta),
            fingerprint.encode(),
        ))
        self._f.flush()
        os.fsync(self._f.fileno())
        self._f.close()
        os.replace(self._tmp, self.path)
        return fingerprint

    def abort(self) -> None:
        """Discard the partial file (idempotent)."""
        self._closed = True
        try:
            self._f.close()
        except OSError:
            pass
        try:
            os.unlink(self._tmp)
        except OSError:
            pass

    def __enter__(self) -> "TraceBinWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            if not self._closed:
                self.close()
        else:
            self.abort()


def save_workload_bin(
    workload: Workload,
    path,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> str:
    """Write an in-memory workload to ``path``; returns the fingerprint."""
    with TraceBinWriter(
        path, name=workload.name, chunk_records=chunk_records
    ) as w:
        for trace in workload:
            w.write_core(trace, name=trace.name)
        return w.close()


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


class TraceBinReader:
    """Memory-mapped random access to a tracebin file.

    Decodes one chunk at a time; the OS pages the mapping, so resident
    memory tracks the chunks actually touched, not the file size."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        try:
            self._f = open(self.path, "rb")
        except OSError as exc:
            raise TraceFormatError(f"{path}: cannot open ({exc})") from exc
        try:
            self._mm = mmap.mmap(
                self._f.fileno(), 0, access=mmap.ACCESS_READ
            )
        except (ValueError, OSError) as exc:
            self._f.close()
            raise TraceFormatError(
                f"{path}: cannot map ({exc}); empty or unreadable file"
            ) from exc
        try:
            self._parse()
        except TraceFormatError:
            self.close()
            raise

    def _parse(self) -> None:
        mm = self._mm
        if len(mm) < _HEADER.size:
            raise TraceFormatError(
                f"{self.path}: too short for a tracebin header "
                f"({len(mm)} bytes)"
            )
        (
            magic, version, header_size, _flags, cores, chunk_records,
            total_records, index_offset, meta_offset, meta_size, fp_raw,
        ) = _HEADER.unpack_from(mm, 0)
        if magic != MAGIC:
            raise TraceFormatError(
                f"{self.path}: bad magic {magic!r} (not a tracebin file, "
                f"or an interrupted write)"
            )
        if version != FORMAT_VERSION:
            raise TraceFormatError(
                f"{self.path}: format version {version} unsupported "
                f"(reader speaks {FORMAT_VERSION}); re-create the file "
                f"from its source, e.g. with `repro trace convert`"
            )
        self.cores = cores
        self.chunk_records = chunk_records
        self.total_records = total_records
        self.fingerprint = fp_raw.decode()
        if meta_offset + meta_size > len(mm):
            raise TraceFormatError(f"{self.path}: meta block out of bounds")
        try:
            meta = json.loads(mm[meta_offset:meta_offset + meta_size])
        except ValueError as exc:
            raise TraceFormatError(
                f"{self.path}: corrupt meta block ({exc})"
            ) from exc
        self.name = meta["name"]
        self.core_names = list(meta["core_names"])
        self.core_counts = [int(n) for n in meta["core_counts"]]
        self.core_fingerprints = list(meta["core_fingerprints"])
        if not (len(self.core_names) == len(self.core_counts)
                == len(self.core_fingerprints) == cores):
            raise TraceFormatError(
                f"{self.path}: meta core tables disagree with header "
                f"({cores} cores)"
            )
        if sum(self.core_counts) != total_records:
            raise TraceFormatError(
                f"{self.path}: per-core counts sum to "
                f"{sum(self.core_counts)}, header says {total_records}"
            )
        # Index: chunks in file order, core 0 first.  Split per core.
        n_chunks = sum(
            (n + chunk_records - 1) // chunk_records for n in self.core_counts
        )
        need = index_offset + n_chunks * _INDEX_ENTRY.size
        if need > len(mm):
            raise TraceFormatError(
                f"{self.path}: index out of bounds (truncated file?)"
            )
        entries = list(_INDEX_ENTRY.iter_unpack(
            mm[index_offset:index_offset + n_chunks * _INDEX_ENTRY.size]
        ))
        self._chunks: list[list[tuple[int, int, int]]] = []
        at = 0
        for core, n in enumerate(self.core_counts):
            k = (n + chunk_records - 1) // chunk_records
            core_chunks = entries[at:at + k]
            at += k
            if sum(c[1] for c in core_chunks) != n:
                raise TraceFormatError(
                    f"{self.path}: core {core} chunk counts disagree with "
                    f"its record count {n}"
                )
            self._chunks.append(core_chunks)

    # -- chunk access ------------------------------------------------------

    def chunk_bytes(self, core: int, ci: int) -> bytes:
        offset, count, _crc = self._chunks[core][ci]
        return self._mm[offset:offset + count * RECORD_BYTES]

    def chunk(self, core: int, ci: int) -> list[TraceRecord]:
        """Decode one chunk into :class:`TraceRecord` objects."""
        return [
            TraceRecord(gap, addr, is_write, pc)
            for gap, addr, pc, is_write in RECORD.iter_unpack(
                self.chunk_bytes(core, ci)
            )
        ]

    def window(self, core: int, start: int) -> tuple[tuple, tuple, tuple,
                                                      tuple]:
        """Columns ``(gaps, addrs, writes, pcs)`` of one core's records
        from ``start``: at most :data:`WINDOW_RECORDS` of them, never past
        the end of the chunk holding ``start``, unpacked straight from the
        mapping."""
        ci, off = divmod(start, self.chunk_records)
        offset, count, _crc = self._chunks[core][ci]
        return self._columns(offset + off * RECORD_BYTES,
                             min(WINDOW_RECORDS, count - off))

    def _columns(self, at: int, n: int) -> tuple[tuple, tuple, tuple,
                                                 tuple]:
        """The four columns of ``n`` packed records at byte ``at``."""
        flat = _window_struct(n).unpack_from(self._mm, at)
        return flat[0::4], flat[1::4], flat[3::4], flat[2::4]

    def record(self, core: int, i: int) -> TraceRecord:
        """Record ``i`` of one core, unpacked on its own."""
        ci, off = divmod(i, self.chunk_records)
        offset, _count, _crc = self._chunks[core][ci]
        gap, addr, pc, is_write = RECORD.unpack_from(
            self._mm, offset + off * RECORD_BYTES
        )
        return TraceRecord(gap, addr, is_write, pc)

    def records(self, core: int) -> Iterator[TraceRecord]:
        """All records of one core, chunk by chunk."""
        for ci in range(len(self._chunks[core])):
            yield from self.chunk(core, ci)

    # -- verification ------------------------------------------------------

    def verify(self) -> dict:
        """Recompute every chunk CRC and the content fingerprint.

        The body is the fingerprint preimage, so each mapped chunk is
        hashed as it lies, after its CRC check, with no decode.  Raises
        :class:`TraceFormatError` naming the first corrupt chunk (bit
        flips are localised by the per-chunk CRC-32) or the fingerprint
        mismatch; returns a summary dict when clean."""
        chunks_checked = 0
        digests = []
        for core in range(self.cores):
            h = sha256(self.core_names[core].encode())
            for ci, (offset, count, crc) in enumerate(self._chunks[core]):
                data = self._mm[offset:offset + count * RECORD_BYTES]
                if zlib.crc32(data) != crc:
                    raise TraceFormatError(
                        f"{self.path}: CRC mismatch in chunk {ci} of core "
                        f"{core} (offset {offset}): the file is corrupt"
                    )
                h.update(data)
                chunks_checked += 1
            digest = h.hexdigest()
            if digest != self.core_fingerprints[core]:
                raise TraceFormatError(
                    f"{self.path}: core {core} content fingerprint "
                    f"mismatch (records altered without CRC damage?)"
                )
            digests.append(digest)
        recomputed = _workload_fingerprint(self.name, digests)
        if recomputed != self.fingerprint:
            raise TraceFormatError(
                f"{self.path}: workload fingerprint mismatch "
                f"(header {self.fingerprint[:12]}..., content "
                f"{recomputed[:12]}...)"
            )
        return {
            "chunks": chunks_checked,
            "records": self.total_records,
            "fingerprint": self.fingerprint,
        }

    def info(self) -> dict:
        """Header/meta summary (no record decoding)."""
        return {
            "path": str(self.path),
            "name": self.name,
            "cores": self.cores,
            "core_names": list(self.core_names),
            "records": self.total_records,
            "chunk_records": self.chunk_records,
            "chunks": sum(len(c) for c in self._chunks),
            "bytes": len(self._mm),
            "bytes_per_record": (
                len(self._mm) / self.total_records
                if self.total_records else 0.0
            ),
            "fingerprint": self.fingerprint,
        }

    def close(self) -> None:
        try:
            self._mm.close()
        finally:
            self._f.close()

    def __enter__(self) -> "TraceBinReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Workload views (duck-typed CoreTrace/Workload over the reader)
# ---------------------------------------------------------------------------


class BinCoreTrace:
    """Lazy :class:`CoreTrace` stand-in over one core of a reader.

    The engines read it through :meth:`window`, bounded column windows
    unpacked straight from the mapping.  Tools get the sequence protocol
    (``len``, iteration chunk by chunk, and indexing, which unpacks the
    one record asked for), so nothing but the current window is ever
    decoded."""

    def __init__(self, reader: TraceBinReader, core: int) -> None:
        self._reader = reader
        self._core = core
        self.name = reader.core_names[core]
        self._len = reader.core_counts[core]

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[TraceRecord]:
        return self._reader.records(self._core)

    def __getitem__(self, i: int) -> TraceRecord:
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(i)
        return self._reader.record(self._core, i)

    # -- CoreTrace API -----------------------------------------------------

    @property
    def instructions(self) -> int:
        return sum(r.gap + 1 for r in self)

    def footprint(self) -> int:
        return len({r.addr for r in self})

    def fingerprint(self) -> str:
        return self._reader.core_fingerprints[self._core]

    def window(self, start: int) -> tuple[tuple, tuple, list, tuple]:
        """Columns ``(gaps, addrs, writes, pcs)`` of the decode window
        starting at record ``start`` (see :meth:`TraceBinReader.window`)."""
        return self._reader.window(self._core, start)


class BinWorkload(Workload):
    """A :class:`Workload` streamed from a tracebin file.

    Drop-in for the engines and the recipe layer: same iteration,
    ``cores``, ``total_accesses`` and -- crucially -- the same
    :meth:`fingerprint` as the materialised workload, served from the
    header in O(1).  Pickling re-opens the file by path in the receiving
    process, so recipes and pool workers can carry one without shipping
    records."""

    def __init__(self, reader: TraceBinReader) -> None:
        self.reader = reader
        traces = [BinCoreTrace(reader, c) for c in range(reader.cores)]
        super().__init__(traces, name=reader.name)
        self._fingerprint = reader.fingerprint
        self.chunk_records = reader.chunk_records
        self.path = reader.path

    def total_accesses(self) -> int:
        return self.reader.total_records

    def fingerprint(self) -> str:
        return self._fingerprint

    def close(self) -> None:
        self.reader.close()

    def __enter__(self) -> "BinWorkload":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __reduce__(self):
        return (open_trace, (str(self.path),))


def open_trace(path) -> BinWorkload:
    """Open a tracebin file as a streaming, memory-bounded workload."""
    return BinWorkload(TraceBinReader(path))


def load_workload_bin(path) -> Workload:
    """Fully materialise a tracebin file as a plain :class:`Workload`
    (convenience for small traces and tests)."""
    with TraceBinReader(path) as reader:
        traces = []
        for core in range(reader.cores):
            gaps: list = []
            addrs: list = []
            writes: list = []
            pcs: list = []
            while len(gaps) < reader.core_counts[core]:
                g, a, w, p = reader.window(core, len(gaps))
                gaps += g
                addrs += a
                writes += w
                pcs += p
            traces.append(CoreTrace.from_columns(
                gaps, addrs, writes, pcs, name=reader.core_names[core]
            ))
        return Workload(traces, name=reader.name)


# ---------------------------------------------------------------------------
# TraceRef: the recipe-layer reference
# ---------------------------------------------------------------------------


class TraceRef:
    """Path + fingerprint reference to an on-disk tracebin workload.

    What a :class:`~repro.sim.parallel.RunRecipe` carries instead of the
    records: the fingerprint joins the recipe cache key exactly like an
    in-memory workload's (same preimage -- see
    :func:`_workload_fingerprint`), and :meth:`resolve` re-opens and
    *verifies* the file in the executing process, so a cached result can
    never alias a trace whose bytes changed under the same path."""

    __slots__ = ("path", "name", "_fingerprint")

    def __init__(self, path, fingerprint: str, name: str = "") -> None:
        self.path = str(path)
        self.name = name or default_workload_name(path)
        self._fingerprint = fingerprint

    def fingerprint(self) -> str:
        """Duck-types :meth:`Workload.fingerprint` for the cache key."""
        return self._fingerprint

    def resolve(self) -> BinWorkload:
        """Open the file; fails loudly when its content fingerprint no
        longer matches this reference."""
        wl = open_trace(self.path)
        if wl.fingerprint() != self._fingerprint:
            wl.close()
            raise TraceFormatError(
                f"{self.path}: trace fingerprint "
                f"{wl.fingerprint()[:12]}... does not match the "
                f"reference {self._fingerprint[:12]}...; the file changed "
                f"since the reference was taken"
            )
        return wl

    def __repr__(self) -> str:
        return (
            f"TraceRef({self.path!r}, {self._fingerprint[:12]}..., "
            f"name={self.name!r})"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TraceRef)
            and self.path == other.path
            and self.name == other.name
            and self._fingerprint == other._fingerprint
        )

    def __hash__(self) -> int:
        return hash((self.path, self.name, self._fingerprint))

    def __reduce__(self):
        return (TraceRef, (self.path, self._fingerprint, self.name))


def make_trace_ref(path) -> TraceRef:
    """Build a :class:`TraceRef` from a tracebin file's header."""
    with TraceBinReader(path) as reader:
        return TraceRef(path, reader.fingerprint, name=reader.name)


def resolve_workload(workload):
    """Normalise a workload argument: a reference resolves where the
    run executes -- a :class:`TraceRef` opens (and verifies) its file, a
    :class:`~repro.workloads.SynthRef` synthesizes its workload -- and
    anything Workload-shaped passes through."""
    from repro.workloads.ref import SynthRef

    if isinstance(workload, (TraceRef, SynthRef)):
        return workload.resolve()
    return workload


# ---------------------------------------------------------------------------
# Importers
# ---------------------------------------------------------------------------


class _CoreSpool:
    """Per-core temporary spool of packed records (out-of-core grouping).

    Text traces interleave cores arbitrarily; the binary layout groups
    them.  Records spool to per-core temp files as they are parsed, then
    replay into the writer one core at a time -- memory stays bounded by
    one buffered chunk regardless of source size."""

    def __init__(self) -> None:
        self._files: dict[int, io.BufferedRandom] = {}
        self.counts: dict[int, int] = {}

    def append(self, core: int, record: TraceRecord) -> None:
        f = self._files.get(core)
        if f is None:
            f = self._files[core] = tempfile.TemporaryFile()
            self.counts[core] = 0
        f.write(RECORD.pack(record.gap, record.addr, record.pc,
                            record.is_write))
        self.counts[core] += 1

    def declare(self, core: int) -> None:
        if core not in self._files:
            self._files[core] = tempfile.TemporaryFile()
            self.counts[core] = 0

    def replay(self, core: int) -> Iterator[TraceRecord]:
        f = self._files[core]
        f.seek(0)
        while True:
            block = f.read(RECORD_BYTES * 4096)
            if not block:
                return
            for gap, addr, pc, is_write in RECORD.iter_unpack(block):
                yield TraceRecord(gap, addr, is_write, pc)

    def close(self) -> None:
        for f in self._files.values():
            f.close()


def convert_text_trace(
    src,
    dst,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> dict:
    """Convert a gzip text trace (:mod:`repro.sim.tracefile`) to tracebin.

    Streams the source once (records spool through per-core temp files),
    enforces the same syntax and dense-core-id rules as
    :func:`~repro.sim.tracefile.load_workload`, and preserves empty
    declared cores.  Returns the written file's :meth:`info` summary."""
    src = Path(src)
    name = default_workload_name(src)
    core_names: dict[int, str] = {}
    spool = _CoreSpool()
    try:
        for event in scan_workload(src):
            kind = event[0]
            if kind == "workload":
                name = event[1]
            elif kind == "core":
                core_names[event[1]] = event[2]
                spool.declare(event[1])
            else:
                spool.append(event[1], event[2])
        if not spool.counts:
            raise TraceFormatError(f"{src}: no records")
        cores = sorted(spool.counts)
        if cores != list(range(len(cores))):
            raise TraceFormatError(
                f"{src}: core ids must be dense from 0, got {cores}"
            )
        with TraceBinWriter(dst, name=name, chunk_records=chunk_records) as w:
            for core in cores:
                w.write_core(
                    spool.replay(core),
                    name=core_names.get(core, f"core{core}"),
                )
            w.close()
    finally:
        spool.close()
    with TraceBinReader(dst) as reader:
        return reader.info()


def convert_din_trace(
    src,
    dst,
    name: Optional[str] = None,
    block_bits: int = 6,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> dict:
    """Convert a SimpleScalar/Dinero-style address trace to tracebin.

    The external format (what ``sim-cache``-era tooling emits) is one
    access per line: a label then a hex or decimal address, whitespace
    separated.  Labels ``0``/``r``/``R`` are reads, ``1``/``w``/``W``
    writes, ``2``/``i``/``I`` instruction fetches (imported as reads).
    ``#``/``//``-prefixed lines are comments.  Byte addresses shift
    right by ``block_bits`` (64-byte blocks by default) to the block
    addresses the simulator uses; the trace is single-core with zero
    gaps and PCs.  Plain or gzip sources both work.  Returns the written
    file's :meth:`info` summary."""
    src = Path(src)
    if name is None:
        name = default_workload_name(src)
        if name.endswith(".din"):
            name = name[:-4]

    def _records() -> Iterator[TraceRecord]:
        import gzip

        opener = gzip.open if src.suffix == ".gz" else open
        try:
            with opener(src, "rt") as f:
                for line_no, line in enumerate(f, start=1):
                    line = line.strip()
                    if (not line or line.startswith("#")
                            or line.startswith("//")):
                        continue
                    parts = line.split()
                    if len(parts) < 2:
                        raise TraceFormatError(
                            f"{src}:{line_no}: expected 'label address', "
                            f"got {line!r}"
                        )
                    label = parts[0].lower()
                    if label in ("0", "r"):
                        is_write = False
                    elif label in ("1", "w"):
                        is_write = True
                    elif label in ("2", "i"):
                        is_write = False
                    else:
                        raise TraceFormatError(
                            f"{src}:{line_no}: unknown access label "
                            f"{parts[0]!r} (expected 0/1/2 or r/w/i)"
                        )
                    raw = parts[1]
                    try:
                        addr = int(raw, 16) if (
                            raw.lower().startswith("0x")
                            or any(c in "abcdef" for c in raw.lower())
                        ) else int(raw)
                    except ValueError as exc:
                        raise TraceFormatError(
                            f"{src}:{line_no}: bad address {raw!r}"
                        ) from exc
                    yield TraceRecord(0, addr >> block_bits, is_write, 0)
        except (EOFError, UnicodeDecodeError, zlib.error) as exc:
            raise TraceFormatError(
                f"{src}: corrupt or truncated trace "
                f"({type(exc).__name__}: {exc})"
            ) from exc

    with TraceBinWriter(dst, name=name, chunk_records=chunk_records) as w:
        if w.write_core(_records(), name=name) == 0:
            w.abort()
            raise TraceFormatError(f"{src}: no records")
        w.close()
    with TraceBinReader(dst) as reader:
        return reader.info()
