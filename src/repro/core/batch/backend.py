"""Batch backend driver: SoA state, kernel dispatch, result rebuild.

:func:`try_run_batch` is the single entry point behind the dispatch
seam in ``SingleCoreSystem.run``.  It either simulates the whole trace
through the compiled structure-of-arrays kernel (``kernel.c``) and
returns a ``SystemStats`` that is bit-identical to what the reference
Python loop would have produced — including post-run cache/predictor/
TLB/DRAM state written back into the live Python objects — or returns
``None``, in which case the caller falls back to the reference path.

Every single-core variant has a kernel path (:data:`_KERNEL_PATHS`),
including the CLP-routed ``sdc_clp`` and the tag-less LP of
``sdc_lp_tagless``.  Fallback rules (any one triggers ``None``; the
reason is :func:`unsupported_reason`):

* the kernel could not be compiled/loaded (no C compiler, load error);
* the variant has no kernel path (a future variant not yet ported);
* invariant checking is armed (``check_every != 0`` — the per-access
  hooks need the Python loop);
* a structure uses a policy/prefetcher outside the supported set
  (inlined LRU, T-OPT Belady, distill LOC+WOC; next-line and SPP
  prefetchers) — notably the generic-LRU differential twin
  (``_lru is None``) falls back, keeping that twin meaningful;
* the system is not fresh (non-empty caches, predictor tables or
  non-zero counters): the kernel starts all stamp clocks from zero.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.config import BLOCK_BITS
from repro.core.batch.build import load_kernel
from repro.core.clp import CLPEntry
from repro.core.lp import LPEntry, LPStats
from repro.core.sdcdir import SDCDirStats
from repro.mem.cache import CacheStats, SetAssocCache
from repro.mem.distill import DistillCache
from repro.mem.dram import DRAMStats
from repro.mem.prefetch import NextLinePrefetcher, SPPPrefetcher
from repro.mem.replacement import BeladyOPT
from repro.mem.tlb import TLBStats
from repro.telemetry.probes import WindowProbe, _Snapshot

NBUF = 87
ICFG_LEN = 80

_I64 = np.int64
_U8 = np.uint8


def _zeros(n, dtype=_I64):
    return np.zeros(max(int(n), 1), dtype=dtype)


def _full(n, value, dtype=_I64):
    return np.full(max(int(n), 1), value, dtype=dtype)


def _column(values, dtype):
    """A trace column as a C-contiguous, aligned array for the kernel.

    The record dtype is packed, so a field view is misaligned; numpy
    counts a one-record view as contiguous and would hand it over
    uncopied (a misaligned int64 load is undefined behaviour in C).
    """
    return np.require(values, dtype=dtype, requirements=("C", "A"))


class _CacheSoA:
    """Flat arrays for one set-associative cache (or a dummy)."""

    def __init__(self, cache: SetAssocCache | None):
        self.cache = cache
        if cache is None:
            self.sets, self.ways = 1, 1
            self.latency, self.mask, self.bits = 0, 0, 0
            soa = None
        else:
            self.sets, self.ways = cache.num_sets, cache.ways
            self.latency = cache.latency
            self.mask, self.bits = cache._set_mask, cache._set_bits
            soa = cache.export_soa()
        n = self.sets * self.ways
        self.tags = soa["tags"] if soa else _full(n, -1)
        self.prio = soa["prio"] if soa else _zeros(n)
        self.seq = soa["seq"] if soa else _zeros(n)
        self.dirty = soa["dirty"] if soa else _zeros(n, _U8)
        self.pf = soa["pf"] if soa else _zeros(n, _U8)
        self.occ = soa["occ"] if soa else _zeros(self.sets)
        self.stats = _zeros(9)

    def geometry(self):
        return [self.sets, self.ways, self.latency, self.mask, self.bits]

    def buffers(self):
        return [self.tags, self.prio, self.seq, self.dirty, self.pf,
                self.occ, self.stats]

    def writeback(self, order: str, clock: int) -> None:
        cache = self.cache
        cache.import_soa(
            {"tags": self.tags, "prio": self.prio, "seq": self.seq,
             "dirty": self.dirty, "pf": self.pf},
            order=order, clock=clock)
        cache.stats = CacheStats(*(int(v) for v in self.stats))


# ---------------------------------------------------------------------------
# Support gating
# ---------------------------------------------------------------------------

def _cache_fresh(cache: SetAssocCache) -> bool:
    return (all(len(s) == 0 for s in cache.sets)
            and cache.stats == CacheStats()
            and getattr(cache.policy, "_clock", 0) == 0)


def _plain_lru_ok(cache: SetAssocCache) -> bool:
    return (cache._lru is not None and cache._policy_bind is None
            and cache._policy_miss is None)


#: Kernel access path per variant: 0 = plain hierarchy, 1 = SDC with
#: LP/CLP/expert routing, 2 = L1D victim cache, 3 = LP bypass.  The
#: kernel would run an unknown path code as the plain hierarchy, so a
#: variant missing here is refused, not mis-run.
_KERNEL_PATHS = {
    "baseline": 0, "topt": 0, "distill": 0, "l1iso": 0, "llc2x": 0,
    "sdc_lp": 1, "sdc_lp_tagless": 1, "sdc_clp": 1, "expert": 1,
    "victim": 2, "lp_bypass": 3,
}

#: Predictor kinds of the kernel's PC table (kernel.c ``PRED_*``).
_PRED_LP, _PRED_CLP = 0, 1


def unsupported_reason(system, trace) -> str | None:
    """Why this run cannot take the batch kernel (None = it can)."""
    if load_kernel() is None:
        return "kernel unavailable"
    if system.variant not in _KERNEL_PATHS:
        return f"variant {system.variant!r} not implemented by the kernel"
    if system._check_every:
        return "invariant checking armed"
    h = system.hierarchy

    for name, cache in (("l1d", h.l1d), ("l2c", h.l2c)):
        if not _plain_lru_ok(cache):
            return f"{name} policy not inlined LRU"
        if not _cache_fresh(cache):
            return f"{name} not fresh"

    llc = h.llc
    if isinstance(llc, DistillCache):
        if not _plain_lru_ok(llc.loc):
            return "distill LOC policy not inlined LRU"
        if not _cache_fresh(llc.loc):
            return "distill LOC not fresh"
        if (llc._clock or llc.woc_hits or llc.usage
                or any(llc.woc) or llc.stats != CacheStats()):
            return "distill WOC not fresh"
    elif isinstance(llc, SetAssocCache):
        if llc._policy_bind is not None or llc._policy_miss is not None:
            return "llc policy needs set binding"
        if llc._lru is None:
            pol = llc.policy
            if not (isinstance(pol, BeladyOPT) and pol.irregular_only):
                return "llc policy unsupported"
        if not _cache_fresh(llc):
            return "llc not fresh"
    else:
        return "unknown llc type"

    for name, extra in (("sdc", system.sdc), ("victim", system.victim)):
        if extra is not None:
            if not _plain_lru_ok(extra):
                return f"{name} policy not inlined LRU"
            if not _cache_fresh(extra):
                return f"{name} not fresh"

    pf1 = h.l1_prefetcher
    if pf1 is not None and (type(pf1) is not NextLinePrefetcher
                            or h._l1_pf_pc is not None):
        return "l1 prefetcher unsupported"
    pf2 = h.l2_prefetcher
    if pf2 is not None:
        if type(pf2) is not SPPPrefetcher:
            return "l2 prefetcher unsupported"
        if pf2.trackers or pf2.patterns or pf2.totals:
            return "l2 prefetcher not fresh"

    if h.dram.stats != DRAMStats() or any(r != -1 for r in h.dram.open_rows):
        return "dram not fresh"

    for name, pred in (("lp", system.lp), ("clp", system.clp)):
        if pred is not None and (pred._clock or pred.stats != LPStats()
                                 or any(pred.sets)):
            return f"{name} not fresh"
    d = system.sdcdir
    if d is not None and (d._clock or d.stats != SDCDirStats()
                          or any(d.sets)):
        return "sdcdir not fresh"
    tlb = system.tlb
    if tlb is not None:
        if (tlb.stats != TLBStats() or tlb.l1._clock or tlb.l2._clock
                or any(tlb.l1.sets) or any(tlb.l2.sets)):
            return "tlb not fresh"

    acc = trace.accesses
    if len(acc):
        blocks = (acc["addr"] >> BLOCK_BITS).astype(np.int64)
        if int(blocks.min()) < 0:
            return "negative block address"
        deps = acc["dep"]
        if int(deps.max(initial=-1)) >= len(acc):
            return "forward dependency index"
    return None


# ---------------------------------------------------------------------------
# Aux arrays (shared trace-keyed memo with the reference path)
# ---------------------------------------------------------------------------

def _aux_arrays(system, trace, blocks):
    """(aux_mode, aux_next, aux_irr, aux_word) for the kernel."""
    from repro.core.system import distill_aux_words, topt_aux_arrays
    if system.variant == "topt":
        nxt, irr = topt_aux_arrays(trace, blocks)
        return 1, np.ascontiguousarray(nxt, dtype=_I64), \
            np.ascontiguousarray(irr, dtype=_U8), _zeros(1)
    if system.variant == "distill":
        words = distill_aux_words(trace)
        return 2, _zeros(1), _zeros(1, _U8), \
            np.ascontiguousarray(words, dtype=_I64)
    return 0, _zeros(1), _zeros(1, _U8), _zeros(1)


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def try_run_batch(system, trace, record_levels=False, warmup=0,
                  flush_sdc_every=None):
    """Run the trace through the C kernel; None when unsupported."""
    if unsupported_reason(system, trace) is not None:
        return None
    lib = load_kernel()
    h = system.hierarchy
    config = system.config
    acc = trace.accesses
    n = len(acc)

    blocks = _column(acc["addr"] >> BLOCK_BITS, _I64)
    pcs = _column(acc["pc"], _I64)
    writes = _column(acc["write"], _U8)
    gaps = _column(acc["gap"], _I64)
    deps = _column(acc["dep"], _I64)
    tlb_on = system.tlb is not None
    pages = _column(acc["addr"] >> 12, _I64) if tlb_on else _zeros(1)

    aux_mode, aux_next, aux_irr, aux_word = _aux_arrays(
        system, trace, blocks)
    expert = system.variant == "expert"
    if expert:
        from repro.core.system import expert_block_mask
        expert_irr = np.ascontiguousarray(
            expert_block_mask(trace, system.expert_regions), dtype=_U8)
    else:
        expert_irr = _zeros(1, _U8)

    llc = h.llc
    distill = isinstance(llc, DistillCache)
    if distill:
        llc_kind = 2
    elif llc._lru is not None:
        llc_kind = 0
    else:
        llc_kind = 1
    path = _KERNEL_PATHS[system.variant]

    c_l1 = _CacheSoA(h.l1d)
    c_l2 = _CacheSoA(h.l2c)
    c_l3 = _CacheSoA(llc.loc if distill else llc)
    c_sd = _CacheSoA(system.sdc)
    c_vc = _CacheSoA(system.victim)

    # Distill WOC (dummy-sized when the LLC is not a distill cache).
    woc_cap = llc.woc_capacity if distill else 1
    woc_slots = woc_cap + 8
    woc_n = (c_l3.sets if distill else 1) * woc_slots
    woc_block = _zeros(woc_n)
    woc_word = _zeros(woc_n)
    woc_stamp = _zeros(woc_n)
    woc_len = _zeros(c_l3.sets if distill else 1)
    dstats = _zeros(9)

    dram = h.dram
    dram_rows = _full(dram._banks, -1)
    dram_stats = _zeros(5)

    # The LP and the CLP share the kernel's PC-table buffers (the CLP
    # keeps its level counter in the s_acc slot); a variant has at
    # most one of them.
    lp, clp = system.lp, system.clp
    pred = lp if lp is not None else clp
    lp_sets = pred.num_sets if pred is not None else 1
    lp_ways = pred.ways if pred is not None else 1
    lp_n = lp_sets * lp_ways
    lp_tag = _full(lp_n, -1)
    lp_addr = _zeros(lp_n)
    lp_sacc = _zeros(lp_n)
    lp_stamp = _zeros(lp_n)
    lp_ord = _zeros(lp_n)
    lp_occ = _zeros(lp_sets)
    lp_stats = _zeros(5)

    sdcdir = system.sdcdir
    dir_sets = sdcdir.num_sets if sdcdir is not None else 1
    dir_ways = sdcdir.ways if sdcdir is not None else 1
    dir_n = dir_sets * dir_ways
    dir_block = _full(dir_n, -1)
    dir_shar = _zeros(dir_n)
    dir_dirtyc = _zeros(dir_n)
    dir_stamp = _zeros(dir_n)
    dir_occ = _zeros(dir_sets)
    dir_stats = _zeros(4)

    tlb = system.tlb
    t1_sets = tlb.l1.num_sets if tlb_on else 1
    t1_ways = tlb.l1.ways if tlb_on else 1
    t2_sets = tlb.l2.num_sets if tlb_on else 1
    t2_ways = tlb.l2.ways if tlb_on else 1
    t1_page = _full(t1_sets * t1_ways, -1)
    t1_stamp = _zeros(t1_sets * t1_ways)
    t1_ord = _zeros(t1_sets * t1_ways)
    t1_occ = _zeros(t1_sets)
    t2_page = _full(t2_sets * t2_ways, -1)
    t2_stamp = _zeros(t2_sets * t2_ways)
    t2_ord = _zeros(t2_sets * t2_ways)
    t2_occ = _zeros(t2_sets)
    tlb_stats = _zeros(4)

    l2_spp = h.l2_prefetcher is not None
    sp_deltas = _zeros(4096 * 127 if l2_spp else 1, np.int8)
    sp_counts = _zeros(4096 * 127 if l2_spp else 1, np.int16)
    sp_len = _zeros(4096 if l2_spp else 1, np.int32)
    sp_tot = _zeros(4096 if l2_spp else 1, np.int32)
    tk_page = _full(16384 if l2_spp else 1, -1)
    tk_off = _zeros(16384 if l2_spp else 1)
    tk_sig = _zeros(16384 if l2_spp else 1)

    tele_every = system._telemetry_every
    tele_capacity = (n // tele_every + 2) if tele_every else 1
    tele = _zeros(tele_capacity * 11)
    misc = _zeros(24)
    dmisc = _zeros(4, np.float64)
    levels = _zeros(n if record_levels else 1, _U8)
    completions = _zeros(n, np.float64)

    core = config.core
    icfg_vals = [0] * ICFG_LEN
    icfg_vals[0:16] = [
        n, path, llc_kind, 1 if pred is not None else 0, 1 if expert else 0,
        min(warmup, n), 1 if warmup else 0, flush_sdc_every or 0,
        tele_every, 1 if record_levels else 0, 1 if tlb_on else 0,
        1 if h.l1_prefetcher is not None else 0, 1 if l2_spp else 0,
        1 if config.sdc.prefetcher is not None else 0,
        aux_mode, config.sdc_miss_dir_latency,
    ]
    icfg_vals[16:21] = c_l1.geometry()
    icfg_vals[21:26] = c_l2.geometry()
    icfg_vals[26:31] = c_l3.geometry()
    icfg_vals[31:36] = c_sd.geometry()
    icfg_vals[36:41] = c_vc.geometry()
    icfg_vals[41] = woc_cap
    icfg_vals[42] = woc_slots
    icfg_vals[43:47] = [
        dir_sets, dir_ways,
        sdcdir._set_mask if sdcdir is not None else 0,
        sdcdir.latency if sdcdir is not None else 0,
    ]
    if lp is not None:
        # The tag-less LP's shift (200) is clamped to 63 in C.
        pred_geom = [lp._tag_shift, lp._set_mask, lp.tau, lp._s_acc_max]
    elif clp is not None:
        pred_geom = [clp._set_bits, clp._set_mask, clp.tau, clp._ctr_max]
    else:
        pred_geom = [0, 0, 0, 0]
    icfg_vals[47:53] = [lp_sets, lp_ways, *pred_geom]
    icfg_vals[53:58] = [dram._banks, dram._row_bits, dram._lat_hit,
                        dram._lat_miss, dram._lat_conflict]
    icfg_vals[58:61] = [t1_sets, t1_ways,
                        tlb.l1._set_mask if tlb_on else 0]
    icfg_vals[61:64] = [t2_sets, t2_ways,
                        tlb.l2._set_mask if tlb_on else 0]
    icfg_vals[64] = tlb.l2.config.latency if tlb_on else 0
    icfg_vals[65] = tlb.walk_latency if tlb_on else 0
    icfg_vals[66] = core.width
    icfg_vals[67] = max(8, core.rob_entries // 4)
    icfg_vals[68] = config.l1d.mshr_entries
    icfg_vals[69] = config.sdc.mshr_entries
    icfg_vals[70] = config.l1d.latency
    icfg_vals[71] = tele_capacity
    icfg_vals[72] = llc.latency
    icfg_vals[73] = _PRED_CLP if clp is not None else _PRED_LP

    usage = _zeros(c_l3.sets * c_l3.ways, _U8)
    buffers = (
        c_l1.buffers() + c_l2.buffers() + c_l3.buffers()
        + c_sd.buffers() + c_vc.buffers()
        + [usage]
        + [woc_block, woc_word, woc_stamp, woc_len, dstats,
           dram_rows, dram_stats,
           lp_tag, lp_addr, lp_sacc, lp_stamp, lp_ord, lp_occ, lp_stats,
           dir_block, dir_shar, dir_dirtyc, dir_stamp, dir_occ, dir_stats,
           t1_page, t1_stamp, t1_ord, t1_occ,
           t2_page, t2_stamp, t2_ord, t2_occ, tlb_stats,
           sp_deltas, sp_counts, sp_len, sp_tot,
           tk_page, tk_off, tk_sig,
           tele, misc, dmisc,
           blocks, pcs, writes, gaps, deps, pages,
           aux_next, aux_irr, aux_word, expert_irr,
           levels, completions]
    )
    assert len(buffers) == NBUF

    icfg_c = (ctypes.c_int64 * ICFG_LEN)(*[int(v) for v in icfg_vals])
    bufs_c = (ctypes.c_void_p * NBUF)(
        *[b.ctypes.data_as(ctypes.c_void_p).value for b in buffers])
    rc = lib.repro_batch_run(icfg_c, bufs_c)
    if rc != 0:
        return None          # caller reruns through the reference path

    # ---- write state and stats back into the Python objects ----------
    c_l1.writeback("prio", int(misc[3]))
    c_l2.writeback("prio", int(misc[4]))
    if distill:
        c_l3.cache = llc.loc
        c_l3.writeback("prio", int(misc[5]))
        llc.stats = CacheStats(*(int(v) for v in dstats))
        llc._clock = int(misc[7])
        llc.woc_hits = int(misc[15])
        for si in range(llc.num_sets):
            base = si * woc_slots
            llc.woc[si] = {
                (int(woc_block[base + k]), int(woc_word[base + k])):
                    int(woc_stamp[base + k])
                for k in range(int(woc_len[si]))}
        llc.usage = {}
        loc = llc.loc
        for si in range(loc.num_sets):
            for w in range(loc.ways):
                j = si * loc.ways + w
                if c_l3.tags[j] >= 0 and usage[j]:
                    llc.usage[loc._join(si, int(c_l3.tags[j]))] = \
                        int(usage[j])
    else:
        c_l3.writeback("prio" if llc_kind == 0 else "seq", int(misc[5]))
        if llc_kind == 1:
            llc.policy._clock = int(misc[6])
    if system.sdc is not None:
        c_sd.writeback("prio", int(misc[8]))
    if system.victim is not None:
        c_vc.writeback("prio", int(misc[9]))

    dram.stats = DRAMStats(*(int(v) for v in dram_stats))
    dram.open_rows = [int(v) for v in dram_rows]

    if pred is not None:
        pred.stats = LPStats(*(int(v) for v in lp_stats))
        pred._clock = int(misc[10])
        for si in range(lp_sets):
            base = si * lp_ways
            slots = sorted(
                (w for w in range(lp_ways) if lp_tag[base + w] >= 0),
                key=lambda w: lp_ord[base + w])
            if lp is not None:
                pred.sets[si] = {
                    int(lp_tag[base + w]): LPEntry(
                        int(lp_addr[base + w]), int(lp_sacc[base + w]),
                        int(lp_stamp[base + w]))
                    for w in slots}
            else:
                pred.sets[si] = {
                    int(lp_tag[base + w]): CLPEntry(
                        int(lp_sacc[base + w]), int(lp_stamp[base + w]))
                    for w in slots}
    if sdcdir is not None:
        st = sdcdir.stats
        st.lookups, st.hits, st.inserts, st.evictions = (
            int(v) for v in dir_stats)
        sdcdir._clock = int(misc[12])
        for si in range(dir_sets):
            base = si * dir_ways
            slots = sorted(
                (w for w in range(dir_ways) if dir_block[base + w] >= 0),
                key=lambda w: dir_stamp[base + w])
            sdcdir.sets[si] = {
                int(dir_block[base + w]): [
                    int(dir_shar[base + w]), int(dir_dirtyc[base + w]),
                    int(dir_stamp[base + w])]
                for w in slots}
    if tlb_on:
        tlb.stats = TLBStats(*(int(v) for v in tlb_stats))
        for level, pg, stmp, order, sets, ways, clock in (
                (tlb.l1, t1_page, t1_stamp, t1_ord, t1_sets, t1_ways,
                 int(misc[13])),
                (tlb.l2, t2_page, t2_stamp, t2_ord, t2_sets, t2_ways,
                 int(misc[14]))):
            level._clock = clock
            for si in range(sets):
                base = si * ways
                slots = sorted(
                    (w for w in range(ways) if pg[base + w] >= 0),
                    key=lambda w: order[base + w])
                level.sets[si] = {int(pg[base + w]): int(stmp[base + w])
                                  for w in slots}
    if l2_spp:
        pf2 = h.l2_prefetcher
        pf2.trackers = {int(tk_page[j]): [int(tk_off[j]), int(tk_sig[j])]
                        for j in range(len(tk_page))
                        if tk_page[j] != -1}
        pf2.patterns, pf2.totals = {}, {}
        for sig in range(4096):
            m = int(sp_len[sig])
            if m or sp_tot[sig]:
                base = sig * 127
                pf2.patterns[sig] = {
                    int(sp_deltas[base + k]): int(sp_counts[base + k])
                    for k in range(m)}
                pf2.totals[sig] = int(sp_tot[sig])

    # ---- assemble the result (mirrors the reference run()'s tail) ----
    from repro.core.system import SystemStats
    timeline = None
    if tele_every:
        probe = WindowProbe(tele_every, lambda: None)
        nrows = int(misc[1])
        for r in range(nrows):
            snap = _Snapshot(*(int(v) for v in tele[r * 11:(r + 1) * 11]))
            probe._snap_fn = (lambda s=snap: s)
            probe.sample()
        timeline = probe.timeline()
    return SystemStats(
        variant=system.variant,
        instructions=int(misc[0]),
        cycles=max(float(dmisc[0]), float(dmisc[1])),
        l1d=h.l1d.stats,
        l2c=h.l2c.stats,
        llc=h.llc.stats,
        sdc=system.sdc.stats if system.sdc else None,
        dram=dram.stats,
        lp=pred.stats if pred is not None else None,
        levels=levels if record_levels else None,
        tlb=tlb.stats if tlb else None,
        timeline=timeline)
