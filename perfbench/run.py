"""End-to-end benchmark of the SDC+LP reproduction pipeline.

    python3 perfbench/run.py --workload cold_fig7 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  Every step runs in a fresh process
(``rep.py``) with a private ``REPRO_CACHE_DIR`` under
``.perfbench_work/`` and the batch backend:

1. set-up: compile the batch kernel and, for the warm workloads,
   generate the run's traces on two workers (``setup_s``: the median
   set-up);
2. measured runs of the workload's grid on one worker pinned to one
   CPU, repeated while they fit in ``--seconds`` (``wall_s``: the
   median; ``peak_rss_mb``: the median of each run's peak RSS);
3. with ``--trace 1``, one more run with the outside-in span tracer
   (``spans.py``): per-layer metrics, tracing overhead, and a
   Chrome/Perfetto trace in ``.perfbench_out/``.

Times are scaled to the reference host speed by the probe that runs
beside every step (``probe.py``); the summary lines also print them as
timed.  Every cell's payload digest is checked against
``digests.json``; a mismatch or a failed cell counts in ``failed``.
The last line of standard output is the JSON result.  README.md maps
metrics to layers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import plan  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402

#: The whole invocation fails, printing no result, once it has run
#: this long: the benchmark must exit within 180 s.
BUDGET_S = 170.0


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a step's process group and wait until
    every process in it has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class StepFailed(RuntimeError):
    pass


def run_step(args: list[str], cache: str, out: str, deadline: float,
             cpus: list[int]) -> tuple[dict, float]:
    """Run ``rep.py`` in a fresh process group; returns its JSON output
    and its wall seconds at the probe's reference speed.

    A step on one CPU is pinned to it.  While the step runs, the probe
    runs every ``probe.EVERY_S`` seconds on ``cpus`` in turn.
    """
    # TMPDIR keeps the compiler's temporary files inside the checkout too.
    tmp = os.path.join(os.path.dirname(out), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, REPRO_CACHE_DIR=cache, REPRO_BACKEND="batch",
               PYTHONPATH=os.path.abspath("src"), TMPDIR=tmp)
    env.pop("REPRO_TELEMETRY", None)
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), *args, "--out", out]
    pin = (lambda: os.sched_setaffinity(0, cpus)) if len(cpus) == 1 else None
    home = os.sched_getaffinity(0)
    samples = []
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, preexec_fn=pin)
    try:
        while True:
            os.sched_setaffinity(0, {cpus[len(samples) % len(cpus)]})
            samples.append(probe.probe())
            try:
                proc.wait(timeout=probe.EVERY_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    raise StepFailed(f"{args[0]} overran the "
                                     f"{BUDGET_S:.0f} s budget") from None
        wall = time.perf_counter() - t0
    finally:
        os.sched_setaffinity(0, home)
        _stop_group(proc)
    if proc.returncode != 0:
        raise StepFailed(f"{args[0]} exited with {proc.returncode}")
    with open(out) as fh:
        res = json.load(fh)
    res["raw_wall_s"] = wall
    return res, wall * probe.REFERENCE_S / statistics.fmean(samples)


def _kernel_dir(cache: str) -> str:
    return os.path.join(cache, "batch-kernel")


def check_cells(cells: dict, expected: dict) -> int:
    """Cells whose payload is missing or differs from the recorded one."""
    return sum(1 for key, d in cells.items()
               if d is None or expected.get(key) != d)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(plan.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A run stopped with SIGTERM still unwinds: the step's process
    # group is killed and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout with src/repro",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "digests.json")) as fh:
        expected = json.load(fh)
    with open("BENCHMARK.json") as fh:
        declared = json.load(fh)
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[group]}

    deadline = time.monotonic() + BUDGET_S
    wl = plan.WORKLOADS[args.workload]
    work = os.path.abspath(os.path.join(
        ".perfbench_work", f"{wl.name}-s{args.seed}-{os.getpid()}"))
    os.makedirs(work)
    try:
        return _run(wl, args, expected, units, work, deadline)
    except StepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(wl: plan.Workload, args, expected: dict, units: dict, work: str,
         deadline: float) -> int:
    seed_args = ["--workload", wl.name, "--seed", str(args.seed)]
    out = os.path.join(work, "out.json")

    # Set-ups generate traces on two workers; the grid runs pinned to
    # one CPU, which the probe shares.
    cpus = sorted(os.sched_getaffinity(0))
    setup_cpus, run_cpus = cpus[:2], cpus[:1]
    setup_walls, setup_raw, compile_s = [], [], []
    for i in range(wl.setups):
        cache = os.path.join(work, f"setup{i}")
        res, wall = run_step(["setup", *seed_args], cache, out, deadline,
                             setup_cpus)
        setup_walls.append(wall)
        compile_s.append(res["compile_s"])
        setup_raw.append(res["raw_wall_s"])
    setup_cache = os.path.join(work, "setup0")

    def fresh_cache(tag: str) -> str:
        if not wl.cold:
            return setup_cache      # warm traces; the results cache is off
        cache = os.path.join(work, tag)
        shutil.copytree(_kernel_dir(setup_cache), _kernel_dir(cache))
        return cache

    walls, run_raw, rss, gaps = [], [], [], []
    attempted = failed = 0
    t_end = time.perf_counter() + args.seconds
    # Repeat while one more repetition, as long as the median one so
    # far, still ends within --seconds.
    while not walls or (time.perf_counter() + statistics.median(run_raw)
                        <= t_end):
        cache = fresh_cache(f"run{len(walls)}")
        res, wall = run_step(["measure", *seed_args], cache, out, deadline,
                             run_cpus)
        if cache != setup_cache:
            shutil.rmtree(cache)
        walls.append(wall)
        run_raw.append(res["raw_wall_s"])
        rss.append(res["peak_rss_mb"])
        gaps.append(res["sdc_lp_gap_pp"])
        attempted += len(res["cells"])
        failed += check_cells(res["cells"], expected)

    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": statistics.median(rss),
        # A missing gap means a cell failed; the run is not correct then.
        "sdc_lp_gap_pp": gaps[0] if gaps[0] is not None else -1.0,
    }
    correct = all(g is not None and g == gaps[0] for g in gaps)

    if args.trace:
        metrics, res = _traced_run(wl, seed_args, fresh_cache("traced"),
                                   work, statistics.median(walls),
                                   compile_s, args.seed, deadline, run_cpus)
        attempted += len(res["cells"])
        failed += check_cells(res["cells"], expected)

    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    correct = correct and failed == 0
    print(f"perfbench {wl.name} seed={args.seed} window="
          f"{wl.trace_length(args.seed)} runs={len(walls)} "
          f"failed_frac={failed / attempted:.4f} "
          f"(cells {failed}/{attempted})")
    print("  measured walls (s, as timed): "
          + " ".join(f"{w:.3f}" for w in run_raw) + "; set-up: "
          + " ".join(f"{w:.3f}" for w in setup_raw))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.4f} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def _traced_run(wl, seed_args, cache, work, untraced_wall, compile_s,
                seed, deadline, cpus) -> tuple[dict, dict]:
    spans_dir = os.path.join(work, "spans")
    os.makedirs(spans_dir)
    res, wall = run_step(["measure", *seed_args, "--spans", spans_dir],
                         cache, os.path.join(work, "traced.json"), deadline,
                         cpus)
    recorded = spans.load(spans_dir)
    layer = spans.layer_metrics(recorded)
    layer["core.compile_s"] = statistics.median(compile_s)
    layer["tracing.overhead_ratio"] = wall / untraced_wall
    layer["tracing.cells_recorded_frac"] = (
        layer["experiments.cells"] / res["simulated"]
        if res["simulated"] else 1.0)
    os.makedirs(".perfbench_out", exist_ok=True)
    trace_path = os.path.join(".perfbench_out",
                              f"{wl.name}-seed{seed}.trace.json")
    spans.chrome_trace(recorded, trace_path, res["main_pid"])
    if layer["experiments.accounting_error"] > 0.05:
        print("  warning: layer self time plus idle time misses "
              "grid_s x workers by "
              f"{layer['experiments.accounting_error']:.1%}")
    for reason, n in sorted(spans.fallback_reasons(recorded).items()):
        print(f"  fallback: {n} cells: {reason}")
    print(f"  chrome trace: {trace_path}")
    return layer, res


if __name__ == "__main__":
    sys.exit(main())
