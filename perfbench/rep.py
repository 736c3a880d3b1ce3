"""One benchmark step, run by ``run.py`` in a fresh process.

    python3 perfbench/rep.py setup   --workload W --seed N --out F
    python3 perfbench/rep.py measure --workload W --seed N --out F [--spans D]
    python3 perfbench/rep.py record  [--workload W ...] --out perfbench/digests.json

The caller sets ``REPRO_CACHE_DIR`` (a private directory) and puts the
checkout's ``src`` on ``PYTHONPATH``.  ``setup`` compiles the batch
kernel into that cache and, for warm workloads, generates the run's
traces, and writes the compile time to ``F``.  ``measure`` runs the
workload's grid once, in-process, with the batch backend and writes
each cell's payload digest, the SDC+LP gap and the peak RSS to ``F``;
with ``--spans`` it first installs the outside-in tracer.
``record`` runs every cell of the named workloads (all by default) in
every window on the reference engine and writes the digests the
benchmark checks against, keeping the other workloads' digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import plan


def jobs() -> int:
    """Workers that generate traces or record digests: two, or fewer on
    a smaller machine.  Measured grids run on one, in-process."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def digest(result) -> str:
    """Canonical digest of one cell's payload (single- or multi-core)."""
    if hasattr(result, "per_core"):
        payload = {"per_core": [s.to_payload() for s in result.per_core],
                   "llc_accesses": result.llc_accesses,
                   "llc_misses": result.llc_misses}
    else:
        payload = result.to_payload()
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process, which runs the whole grid."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _make_trace(name: str, tier: str, length: int) -> None:
    from repro.experiments.workloads import workload_trace
    workload_trace(name, tier=tier, length=length)


def make_traces(wl: plan.Workload, lengths: list[int]) -> None:
    specs = [(name, wl.tier, n) for name in wl.trace_names() for n in lengths]
    with ProcessPoolExecutor(jobs(), mp_context=get_context("spawn")) as pool:
        list(pool.map(_make_trace, *zip(*specs)))


def setup(wl: plan.Workload, seed: int) -> dict:
    from repro.core.batch import build
    t0 = time.perf_counter()
    if build.compile_kernel() is None:
        raise SystemExit("perfbench: the batch kernel did not compile")
    compile_s = time.perf_counter() - t0
    if not wl.cold:
        make_traces(wl, [wl.trace_length(seed)])
    return {"compile_s": compile_s}


def measure(wl: plan.Workload, seed: int, spans_dir: str | None) -> dict:
    if spans_dir:
        import spans
        spans.install(spans_dir)
    from repro.experiments import parallel
    cells = plan.grid(wl, seed)
    ran = 0

    def progress(p) -> None:
        nonlocal ran
        ran += p.source == "run"

    results = parallel.run_grid(
        cells, jobs=1, use_cache=wl.cold, backend="batch",
        policy=parallel.RunPolicy(allow_partial=True), progress=progress)
    if spans_dir:
        spans.flush()
    return {"cells": {plan.cell_key(job): None if r is None else digest(r)
                      for job, r in zip(cells, results)},
            "sdc_lp_gap_pp": plan.sdc_lp_gap_pp(wl, cells, results),
            "simulated": ran, "main_pid": os.getpid(),
            "peak_rss_mb": peak_rss_mb()}


def record(names: list[str], recorded: dict) -> dict:
    """Digests of every cell any seed can run, from the reference engine.

    Cells of the workloads in ``names`` are simulated again; the other
    workloads keep their digests from ``recorded``.  Keys no workload
    can run any more are dropped.
    """
    from repro.experiments import parallel
    keep, unique = {}, {}
    for wl in plan.WORKLOADS.values():
        windows = range(plan.WINDOWS)
        for job in (j for w in windows for j in plan.grid(wl, w)):
            key = plan.cell_key(job)
            if wl.name in names or key not in recorded:
                unique.setdefault(key, job)
            else:
                keep[key] = recorded[key]
        if wl.name in names:
            make_traces(wl, [wl.trace_length(w) for w in windows])
    keys = sorted(unique)
    results = parallel.run_grid([unique[k] for k in keys], jobs=jobs(),
                                backend="ref")
    return dict(sorted({**keep, **dict(zip(keys, map(digest, results)))}
                       .items()))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("step", choices=("setup", "measure", "record"))
    ap.add_argument("--workload", action="append",
                    choices=sorted(plan.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()
    if args.step == "record":
        recorded = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                recorded = json.load(fh)
        out = record(args.workload or list(plan.WORKLOADS), recorded)
    elif args.workload is None:
        ap.error(f"{args.step} needs --workload")
    else:
        wl = plan.WORKLOADS[args.workload[0]]
        out = (setup(wl, args.seed) if args.step == "setup"
               else measure(wl, args.seed, args.spans))
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
