"""The benchmark's workloads: which grid each one runs, and on what.

A workload is one figure-shaped grid, run through ``run_grid`` exactly
as the figure commands run it.  The seed picks the trace window: every
trace of a run is ``length + (seed % WINDOWS) * window_step`` accesses
long.  The trace store keys on length and each window is the tail of
an instrumented run three times that long, so each seed simulates a
different slice of the same kernels on the same graphs, at the same
cost (the ten windows span 1.1% of the length).

Why not a seed-chosen graph per kernel or seed-chosen 4-core mixes:
over all 720 kernel-to-graph assignments of the quick grid, the cold
graph-build plus trace-generation cost spreads by 28% (quartile
distance over median) and the SDC+LP gap by 106%, which no regression
bound of at most 25% can hold.  See README.md.

Why every grid runs on one worker, in-process: on two, which worker
draws the last long cells changes from run to run, and the wall times
of identical ``multicore_mix`` runs clustered at two levels 9% apart;
one worker's wall time is the sum of its cells.  It also lets the
host-speed probe share the grid's one CPU (``probe.py``).  A cold
``fig7 --quick`` grid takes as long on one worker as on two, because
each of two workers builds every graph and trace again.
"""

from __future__ import annotations

from dataclasses import dataclass

# ``repro`` is imported inside the functions that need it: run.py
# imports this module before it has checked that ``src/repro`` exists.

#: Distinct trace windows; seeds map onto them modulo this count.
WINDOWS = 10

#: Geomean SDC+LP speedups the paper reports, in percent.
PAPER_FIG7_SDC_LP = 20.3
PAPER_FIG14_SDC_LP = 20.2

#: ``repro fig7 --quick``: one workload per kernel (repro.cli).
QUICK = ("pr.kron", "cc.friendster", "bfs.urand", "sssp.road",
         "bc.twitter", "tc.web")

#: The first two of the paper-style random 4-core mixes
#: (``multicore_mixes(seed=42)``, the fig14 default).
MIXES = (("bc.kron", "tc.kron", "pr.friendster", "cc.kron"),
         ("cc.kron", "sssp.web", "bc.kron", "tc.road"))

FIG7_VARIANTS = ("baseline", "l1iso", "distill", "topt", "llc2x", "sdc_lp")
ALL_VARIANTS = ("baseline", "sdc_lp", "topt", "distill", "l1iso", "llc2x",
                "expert", "victim", "lp_bypass", "sdc_clp",
                "sdc_lp_tagless")


@dataclass(frozen=True)
class Workload:
    name: str
    tier: str
    length: int
    variants: tuple[str, ...]
    #: Start each measured run from an empty trace and results cache.
    cold: bool
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int
    mixes: tuple[tuple[str, ...], ...] = ()

    @property
    def window_step(self) -> int:
        return self.length // 800

    def trace_length(self, seed: int) -> int:
        return self.length + (seed % WINDOWS) * self.window_step

    def trace_names(self) -> list[str]:
        """Workload traces a run reads, in first-use order."""
        if not self.mixes:
            return list(QUICK)
        return list(dict.fromkeys(w for mix in self.mixes for w in mix))


WORKLOADS = {
    wl.name: wl for wl in (
        # Cold start: graph builds, tracers and result-cache writes.
        Workload("cold_fig7", "medium", 200_000, FIG7_VARIANTS,
                 cold=True, setups=3),
        # Warm traces, cache bypassed: the single-core simulator, batch
        # cells and the variants that fall back to the reference loop.
        Workload("sim_sweep", "small", 40_000, ALL_VARIANTS,
                 cold=False, setups=2),
        # Warm traces, cache bypassed: the 4-core loop (fig14 grid).
        Workload("multicore_mix", "small", 4_000, FIG7_VARIANTS,
                 cold=False, setups=2, mixes=MIXES),
    )
}


def single_core_config(wl: Workload):
    """The system configuration of the workload's single-core cells."""
    import dataclasses

    from repro.experiments.runner import default_config
    cfg = default_config()
    if not wl.mixes:
        return cfg
    # fig14's isolated runs: one core with the whole shared LLC.
    cores = len(wl.mixes[0])
    return dataclasses.replace(
        cfg, llc=cfg.llc.resized(cfg.llc.size_bytes * cores), num_cores=1)


def grid(wl: Workload, seed: int) -> list:
    """The run's cells, built as ``fig7_single_core`` / ``fig14_multicore``
    build theirs (single-core cells first, then the mixes)."""
    import dataclasses

    from repro.experiments.parallel import Job
    from repro.experiments.runner import default_config
    length = wl.trace_length(seed)
    single = single_core_config(wl)
    if not wl.mixes:
        return [Job(name, v, single, wl.tier, length)
                for name in QUICK for v in wl.variants]
    needed = sorted({w for mix in wl.mixes for w in mix})
    multi = dataclasses.replace(default_config(),
                                num_cores=len(wl.mixes[0]))
    return ([Job(name, v, single, wl.tier, length)
             for v in wl.variants for name in needed]
            + [Job(mix, v, multi, wl.tier, length)
               for mix in wl.mixes for v in wl.variants])


def cell_key(job) -> str:
    """Names one cell for the recorded digests: label, tier, length and
    the configuration digest."""
    return f"{job.label}@{job.tier}/{job.length}/{job.config.digest()[:16]}"


def sdc_lp_gap_pp(wl: Workload, jobs: list, results: list) -> float | None:
    """Distance in percentage points between the run's geomean SDC+LP
    speedup and the paper's (Fig. 7 single-core, Fig. 14 4-core).
    ``None`` when a cell it needs failed."""
    from repro.experiments.figures import geomean
    from repro.experiments.runner import speedup
    by = {job.label: r for job, r in zip(jobs, results)}
    if not wl.mixes:
        pairs = [(by.get(f"{n}/baseline"), by.get(f"{n}/sdc_lp"))
                 for n in QUICK]
        if any(None in pair for pair in pairs):
            return None
        ups = [speedup(base, sdc) for base, sdc in pairs]
        return abs(100 * geomean(ups) - PAPER_FIG7_SDC_LP)
    ups = []
    for mix in wl.mixes:
        ws = {}
        for v in ("baseline", "sdc_lp"):
            res = by.get("+".join(mix) + f"/{v}")
            singles = [by.get(f"{n}/{v}") for n in mix]
            if res is None or None in singles:
                return None
            ws[v] = sum(s.ipc / one.ipc if one.ipc else 0.0
                        for s, one in zip(res.per_core, singles))
        ups.append(ws["sdc_lp"] / ws["baseline"] - 1.0
                   if ws["baseline"] else 0.0)
    return abs(100 * geomean(ups) - PAPER_FIG14_SDC_LP)
