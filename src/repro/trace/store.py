"""Zero-copy, memory-mapped on-disk trace store (format v8).

The experiment engine is trace-driven: every sweep re-reads the same
handful of workload traces in every worker process.  Up to format v7
those traces were compressed ``.npz`` archives, so each pool worker
paid a full decompress-and-copy per trace and then held its own private
in-RAM clone.  The v8 store replaces that with a flat binary file that
every process opens through ``np.memmap``: the supervisor and all
workers share one page-cache copy of each trace, opening is O(header)
plus a single streaming checksum pass, and per-worker private memory
for traces drops to ~zero (see docs/TRACES.md and the ``trace_store``
block of ``BENCH_engine.json``).

File layout (little-endian throughout)::

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       8     magic                 b"REPROTRC"
    8       4     version               u32, == STORE_VERSION (8)
    12      4     header_size           u32, == HEADER_SIZE (104)
    16      8     meta_len              u64, metadata block length
    24      8     num_records           u64, ACCESS_DTYPE record count
    32      4     record_itemsize       u32, == ACCESS_DTYPE.itemsize
    36      4     reserved              u32, zero
    40      32    payload_sha           sha256(meta block ‖ record block)
    72      32    header_sha            sha256(header bytes [0:72])
    104     ...   metadata block        UTF-8 JSON (name, kernel, graph,
                                        AddressSpace region table)
    104+m   ...   record block          raw ACCESS_DTYPE array bytes

``header_sha`` authenticates everything the reader must trust before
touching variable-length data (including ``payload_sha`` itself);
``payload_sha`` authenticates the rest of the file.  Both are verified
by :func:`open_trace` — any mismatch, bad magic, size inconsistency or
unparsable metadata raises :class:`TraceStoreError`, and callers
(:func:`repro.experiments.workloads.workload_trace`) quarantine the
file through the same ``results/quarantine`` machinery the results
cache uses and regenerate it exactly once.

Writes are atomic (process-unique temp file + ``os.replace``), so
concurrent ``run_grid`` workers racing to generate the same trace can
never expose a torn file — the last writer wins with identical bytes.

Store activity is counted in module-level telemetry counters
(:data:`COUNTERS`: ``opens``/``maps``/``writes``/``corrupt``/
``regenerated``) — snapshot them with
:func:`counters_snapshot`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
from pathlib import Path

import numpy as np

from repro.telemetry.metrics import Counter
from repro.trace.layout import AddressSpace, Region
from repro.trace.record import ACCESS_DTYPE, Trace

#: On-disk format version.  Kept in lockstep with
#: ``repro.experiments.workloads.TRACE_FORMAT_VERSION`` (the cache-key
#: half of the same contract) by a regression test.
STORE_VERSION = 8

MAGIC = b"REPROTRC"

#: magic, version, header_size, meta_len, num_records, itemsize,
#: reserved, payload_sha, header_sha.
_HEADER = struct.Struct("<8sIIQQII32s32s")
HEADER_SIZE = _HEADER.size                      # 104
assert HEADER_SIZE == 104

#: Byte offset where ``header_sha`` starts (it covers [0:_SHA_OFFSET)).
_SHA_OFFSET = HEADER_SIZE - 32

_CHUNK = 1 << 20                                # checksum read size


class TraceStoreError(ValueError):
    """A store file failed validation (corrupt, truncated, or wrong
    version).  The file is *not* trusted; callers should quarantine it
    and regenerate."""


COUNTERS: dict[str, Counter] = {
    name: Counter(f"trace_store_{name}")
    for name in ("opens", "maps", "writes", "corrupt", "regenerated")
}


def counters_snapshot() -> dict[str, int]:
    """Current value of every store counter (name -> count)."""
    return {name: c.value for name, c in COUNTERS.items()}


def reset_counters() -> None:
    for c in COUNTERS.values():
        c.value = 0


# -- metadata ---------------------------------------------------------------

def _meta_bytes(trace: Trace) -> bytes:
    regions = trace.address_space.regions
    meta = {
        "name": trace.name,
        "kernel": trace.kernel,
        "graph": trace.graph,
        "regions": [
            {"name": r.name, "base": r.base, "elem_size": r.elem_size,
             "num_elems": r.num_elems, "irregular_hint": r.irregular_hint}
            for r in (regions[n] for n in regions)
        ],
    }
    return json.dumps(meta, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _space_from_meta(meta: dict) -> AddressSpace:
    space = AddressSpace()
    for entry in meta["regions"]:
        region = Region(str(entry["name"]), int(entry["base"]),
                        int(entry["elem_size"]), int(entry["num_elems"]),
                        bool(entry["irregular_hint"]))
        space.regions[region.name] = region
        space._starts.append(region.base)
        space._names.append(region.name)
    return space


# -- write ------------------------------------------------------------------

def write_trace(trace: Trace, path: str | os.PathLike) -> None:
    """Serialize a trace to ``path`` atomically in the v8 store format.

    The record block is the raw bytes of the ``ACCESS_DTYPE`` array (a
    contiguous copy is made if the array is a view), so a subsequent
    :func:`open_trace` maps exactly the bytes written here.
    """
    path = Path(path)
    acc = np.ascontiguousarray(trace.accesses)
    if acc.dtype != ACCESS_DTYPE:
        raise TypeError("trace.accesses must have ACCESS_DTYPE")
    meta = _meta_bytes(trace)
    records = acc.tobytes()
    payload_sha = hashlib.sha256(meta + records).digest()
    head = _HEADER.pack(MAGIC, STORE_VERSION, HEADER_SIZE, len(meta),
                        len(acc), ACCESS_DTYPE.itemsize, 0,
                        payload_sha, b"\0" * 32)
    header_sha = hashlib.sha256(head[:_SHA_OFFSET]).digest()
    head = head[:_SHA_OFFSET] + header_sha
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(head)
            fh.write(meta)
            fh.write(records)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    COUNTERS["writes"].inc()


# -- read -------------------------------------------------------------------

def _read_header(fh) -> tuple:
    head = fh.read(HEADER_SIZE)
    if len(head) < HEADER_SIZE:
        raise TraceStoreError(f"truncated header ({len(head)} of "
                              f"{HEADER_SIZE} bytes)")
    (magic, version, header_size, meta_len, num_records, itemsize,
     _reserved, payload_sha, header_sha) = _HEADER.unpack(head)
    if magic != MAGIC:
        raise TraceStoreError(f"bad magic {magic!r}")
    if hashlib.sha256(head[:_SHA_OFFSET]).digest() != header_sha:
        raise TraceStoreError("header checksum mismatch")
    if version != STORE_VERSION:
        raise TraceStoreError(f"unsupported store version {version} "
                              f"(this build reads v{STORE_VERSION})")
    if header_size != HEADER_SIZE:
        raise TraceStoreError(f"bad header size {header_size}")
    if itemsize != ACCESS_DTYPE.itemsize:
        raise TraceStoreError(f"record itemsize {itemsize} != "
                              f"ACCESS_DTYPE itemsize "
                              f"{ACCESS_DTYPE.itemsize}")
    return meta_len, num_records, payload_sha


def read_header(path: str | os.PathLike) -> dict:
    """Validate and return the header of a store file.

    Returns ``{"meta_len", "num_records", "payload_sha"}``; raises
    :class:`TraceStoreError` on any header-level problem (including a
    file-size/record-count mismatch, i.e. truncation).
    """
    path = Path(path)
    with open(path, "rb") as fh:
        meta_len, num_records, payload_sha = _read_header(fh)
    expected = HEADER_SIZE + meta_len + num_records * ACCESS_DTYPE.itemsize
    actual = path.stat().st_size
    if actual != expected:
        raise TraceStoreError(f"file size {actual} != expected "
                              f"{expected} (truncated or padded)")
    return {"meta_len": meta_len, "num_records": num_records,
            "payload_sha": payload_sha.hex()}


def open_trace(path: str | os.PathLike, mapped: bool = True,
               verify_payload: bool = True) -> Trace:
    """Open a v8 store file as a :class:`repro.trace.record.Trace`.

    With ``mapped=True`` (the default) the record block is a *read-only*
    ``np.memmap`` view of the file: no copy is made, and every process
    mapping the same file shares one page-cache instance of the data.
    ``mapped=False`` materializes a private in-RAM copy (used by tests
    and benchmarks comparing the two paths).

    ``verify_payload`` streams the metadata + record blocks through
    sha256 and compares against the header's ``payload_sha`` — one
    sequential read that doubles as page-cache warming.  Any validation
    failure raises :class:`TraceStoreError` and the file should be
    quarantined by the caller.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        meta_len, num_records, payload_sha = _read_header(fh)
        expected = (HEADER_SIZE + meta_len
                    + num_records * ACCESS_DTYPE.itemsize)
        actual = path.stat().st_size
        if actual != expected:
            raise TraceStoreError(f"file size {actual} != expected "
                                  f"{expected} (truncated or padded)")
        meta_raw = fh.read(meta_len)
        if len(meta_raw) != meta_len:
            raise TraceStoreError("truncated metadata block")
        if verify_payload:
            h = hashlib.sha256(meta_raw)
            while True:
                chunk = fh.read(_CHUNK)
                if not chunk:
                    break
                h.update(chunk)
            if h.digest() != payload_sha:
                raise TraceStoreError("payload checksum mismatch")
    try:
        meta = json.loads(meta_raw.decode("utf-8"))
        space = _space_from_meta(meta)
    except (ValueError, KeyError, TypeError) as exc:
        raise TraceStoreError(f"bad metadata block: {exc}") from None
    offset = HEADER_SIZE + meta_len
    if mapped:
        accesses = np.memmap(path, dtype=ACCESS_DTYPE, mode="r",
                             offset=offset, shape=(num_records,))
        COUNTERS["maps"].inc()
    else:
        with open(path, "rb") as fh:
            fh.seek(offset)
            accesses = np.fromfile(fh, dtype=ACCESS_DTYPE,
                                   count=num_records)
    COUNTERS["opens"].inc()
    return Trace(accesses, space, str(meta.get("name", "trace")),
                 str(meta.get("kernel", "")), str(meta.get("graph", "")))


def is_store_file(path: str | os.PathLike) -> bool:
    """Cheap sniff: does ``path`` start with the store magic?"""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


# -- quarantine (shared with the results cache) -----------------------------

def quarantine_file(path: Path, quarantine_dir: Path) -> Path | None:
    """Move an unreadable artifact aside (``.bad`` suffix keeps it out
    of entry globs) so it is regenerated once, not re-missed forever.

    This is the one quarantine primitive in the repository — the
    results cache and the trace store both route through it, so every
    corrupt on-disk artifact lands under the same
    ``results/quarantine/`` directory with the same naming scheme.
    Returns the destination, or ``None`` when the file had to be
    deleted instead (quarantine dir unwritable) or was already gone.
    """
    try:
        quarantine_dir.mkdir(parents=True, exist_ok=True)
        dest = quarantine_dir / (path.name + ".bad")
        if dest.exists():
            dest = quarantine_dir / f"{path.name}.{os.getpid()}.bad"
        shutil.move(str(path), str(dest))
        return dest
    except OSError:
        # Fall back to deleting: never leave a poisoned entry live.
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass
        return None
