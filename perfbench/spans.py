"""Outside-in span tracer for the benchmark's traced run.

:func:`install` wraps the public entry points of each layer of the
``repro`` pipeline, from outside the program: nothing under ``src/``
knows it is being traced.  Each name is patched where callers look it
up, because a ``from``-import binds the function object early (the
tracer-generation call is looked up in ``repro.experiments.workloads``,
the batch call in ``repro.core.system``).  Install before ``run_grid``
forks its pool so the workers inherit the wrappers.

Spans live in memory per process.  A forked worker starts with an empty
buffer and flushes it at exit through ``multiprocessing.util.Finalize``.
The engine terminates pool workers right after ``shutdown(wait=False)``,
so a worker turns SIGTERM into ``SystemExit``: the interpreter then runs
its finalizers instead of dying with the buffer unwritten.

A span's self time is its duration minus the time covered by its child
spans.  :func:`chrome_trace` and :func:`layer_metrics` read the flushed
files back.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import threading
import time
from multiprocessing import util

LAYERS = ("graphs", "trace", "core", "experiments")

#: The span that marks one grid cell executing in a worker.  Worker busy
#: time is the sum of these spans.
CELL = "experiments.cell"


class _Tracer:
    def __init__(self):
        self.out_dir: str | None = None
        self.spans: list[dict] = []
        self.local = threading.local()

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def flush(self) -> None:
        """Write this process's spans to ``<out_dir>/spans-<pid>.json``."""
        # A second SIGTERM must not cut the write short.
        if threading.current_thread() is threading.main_thread():
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
        if self.out_dir is None or not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.spans, fh)
        os.replace(tmp, path)
        self.spans = []


_TRACER = _Tracer()


def _exit_on_sigterm(signum, frame):
    raise SystemExit(0)


def _after_fork(tracer: _Tracer) -> None:
    # Runs in a forked multiprocessing child after its finalizer
    # registry was cleared: drop the parent's spans, register the flush.
    tracer.spans = []
    tracer.local = threading.local()
    util.Finalize(None, tracer.flush, exitpriority=100)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _wrap(fn, name: str, layer: str, describe=None, rss: bool = False):
    """Wrap ``fn`` so every call records one span.

    ``describe(args, kwargs, result)`` returns the span's ``args`` dict
    (counts and keys the layer metrics need); ``rss`` adds the change in
    resident set size across the call.
    """
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = _TRACER.stack()
        frame = {"child_ns": 0,
                 "in_cell": name == CELL or bool(stack and stack[-1]["in_cell"])}
        rss0 = _rss_mb() if rss else 0.0
        stack.append(frame)
        t0 = time.monotonic_ns()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t1 = time.monotonic_ns()
            stack.pop()
            if stack:
                stack[-1]["child_ns"] += t1 - t0
            info = describe(args, kwargs, result) if ok and describe else {}
            if rss:
                info["rss_growth_mb"] = _rss_mb() - rss0
            if not ok:
                info["error"] = True
            _TRACER.spans.append({
                "name": name, "layer": layer, "pid": os.getpid(),
                "tid": threading.get_native_id(), "t0": t0, "t1": t1,
                "self_ns": t1 - t0 - frame["child_ns"],
                "in_cell": frame["in_cell"], "args": info})

    return traced


def _patch(owner, attr: str, name: str, layer: str, describe=None,
           rss: bool = False) -> None:
    setattr(owner, attr, _wrap(getattr(owner, attr), name, layer, describe,
                               rss))


# -- what each span records ------------------------------------------------

def _graph_key(args, kwargs, result):
    spec, *rest = args
    tier = kwargs.get("tier", rest[0] if rest else "small")
    weighted = kwargs.get("weighted", rest[1] if len(rest) > 1 else False)
    return {"key": f"{spec.name}/{tier}/{int(bool(weighted))}"}


def _ingested_key(args, kwargs, result):
    return {"key": f"ingested:{args[0] if args else kwargs.get('name')}"}


def _trace_gen(args, kwargs, result):
    kernel, graph = args[0], args[1]
    budget = kwargs.get("max_accesses")
    return {"key": f"{kernel}/{graph.name}/{graph.num_vertices}/{budget}",
            "records": len(result)}


def _records(args, kwargs, result):
    trace = args[0] if args else kwargs.get("trace")
    return {"records": len(trace.accesses)}


def _opened(args, kwargs, result):
    return {"records": len(result.accesses)}


def _single_run(args, kwargs, result):
    system, trace = args[0], args[1] if len(args) > 1 else kwargs["trace"]
    return {"variant": system.variant, "accesses": len(trace.accesses)}


def _batch_call(args, kwargs, result):
    system, trace = args[0], args[1]
    info = {"variant": system.variant, "accesses": len(trace.accesses),
            "ok": result is not None}
    if result is None:
        from repro.core.batch import unsupported_reason
        info["reason"] = unsupported_reason(system, trace)
    return info


def _multi_run(args, kwargs, result):
    system, traces = args[0], args[1] if len(args) > 1 else kwargs["traces"]
    return {"variant": system.variant,
            "accesses": sum(len(t.accesses) for t in traces)}


def _grid(args, kwargs, result):
    grid = args[0] if args else kwargs["grid"]
    jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
    return {"cells": len(grid), "jobs": jobs}


def _cache_get(args, kwargs, result):
    return {"hit": result is not None}


def install(out_dir: str) -> None:
    """Wrap every traced layer entry point; spans flush into ``out_dir``.

    Call once, in the process that will run ``run_grid``, before the
    pool forks.  That process flushes with :func:`flush`.
    """
    from repro.core import system as core_system
    from repro.core.batch import build as batch_build
    from repro.core.multicore import MultiCoreSystem
    from repro.experiments import figures, parallel
    from repro.experiments import workloads as exp_workloads
    from repro.experiments.results_cache import ResultsCache
    from repro.graphs import ingest
    from repro.graphs.suite import GraphSpec
    from repro.trace import store

    _TRACER.out_dir = out_dir
    util.register_after_fork(_TRACER, _after_fork)

    _patch(GraphSpec, "build", "graphs.build", "graphs", _graph_key,
           rss=True)
    _patch(ingest, "load_ingested", "graphs.load_ingested", "graphs",
           _ingested_key, rss=True)
    _patch(exp_workloads, "generate_trace", "trace.generate", "trace",
           _trace_gen)
    _patch(store, "write_trace", "trace.write", "trace", _records)
    _patch(store, "open_trace", "trace.open", "trace", _opened)
    _patch(core_system.SingleCoreSystem, "run", "core.single_run", "core",
           _single_run)
    _patch(core_system, "try_run_batch", "core.batch", "core", _batch_call)
    _patch(MultiCoreSystem, "run", "core.multicore_run", "core", _multi_run)
    _patch(batch_build, "compile_kernel", "core.compile", "core")
    # run_grid is bound by name in both the engine and the figure
    # module; both bindings get the same wrapper.
    grid = _wrap(parallel.run_grid, "experiments.run_grid", "experiments",
                 _grid)
    parallel.run_grid = grid
    figures.run_grid = grid
    # The pool pickles its entry point by qualified name; the wrapper
    # keeps that name, so workers resolve it to the wrapper too.
    _patch(parallel, "_execute_cell", CELL, "experiments")
    _patch(ResultsCache, "get", "experiments.cache_get", "experiments",
           _cache_get)
    _patch(ResultsCache, "put", "experiments.cache_put", "experiments")
    _patch(core_system.SystemStats, "to_payload", "experiments.encode",
           "experiments")
    _patch(core_system.SystemStats, "from_payload", "experiments.decode",
           "experiments")


def flush() -> None:
    """Flush the calling process's spans (the supervisor's)."""
    _TRACER.flush()


def load(out_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as fh:
                spans.extend(json.load(fh))
    return spans


def chrome_trace(spans: list[dict], path: str, main_pid: int) -> None:
    """Write the spans as Chrome/Perfetto trace-event JSON."""
    origin = min((s["t0"] for s in spans), default=0)
    events = []
    for pid in sorted({s["pid"] for s in spans}):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": "supervisor" if pid == main_pid
                                else f"worker {pid}"}})
    for s in spans:
        events.append({
            "name": s["name"], "cat": s["layer"], "ph": "X",
            "ts": (s["t0"] - origin) / 1e3, "dur": (s["t1"] - s["t0"]) / 1e3,
            "pid": s["pid"], "tid": s["tid"],
            "args": dict(s["args"], self_us=s["self_ns"] / 1e3)})
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _sum(spans, name, field=None, where=None):
    total = 0.0
    for s in spans:
        if s["name"] == name and (where is None or where(s)):
            total += (s["t1"] - s["t0"]) / 1e9 if field is None \
                else s["args"].get(field, 0)
    return total


def _count(spans, name, where=None) -> int:
    return sum(1 for s in spans
               if s["name"] == name and (where is None or where(s)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer seconds busy, counts and useful/attempt ratios."""
    m: dict[str, float] = {}
    builds = [s for s in spans if s["layer"] == "graphs"]
    m["graphs.build_s"] = sum((s["t1"] - s["t0"]) / 1e9 for s in builds)
    m["graphs.builds"] = len(builds)
    m["graphs.useful_ratio"] = _ratio(
        len({s["args"].get("key") for s in builds}), len(builds))
    m["graphs.rss_growth_mb"] = sum(s["args"].get("rss_growth_mb", 0.0)
                                    for s in builds)

    gens = [s for s in spans if s["name"] == "trace.generate"]
    m["trace.gen_s"] = _sum(spans, "trace.generate")
    m["trace.gens"] = len(gens)
    m["trace.gen_records_per_s"] = _ratio(
        _sum(spans, "trace.generate", "records"), m["trace.gen_s"])
    m["trace.useful_ratio"] = _ratio(
        len({s["args"].get("key") for s in gens}), len(gens))
    m["trace.write_s"] = _sum(spans, "trace.write")
    m["trace.open_s"] = _sum(spans, "trace.open")
    m["trace.opens"] = _count(spans, "trace.open")

    def batched(s):
        return s["args"].get("ok", False)

    batch_s = _sum(spans, "core.batch", where=batched)
    m["core.batch_s"] = batch_s
    m["core.batch_accesses_per_s"] = _ratio(
        _sum(spans, "core.batch", "accesses", where=batched), batch_s)
    # Reference time: single-core runs not covered by a successful
    # batch call (a refused batch call's check is part of it).
    m["core.ref_s"] = _sum(spans, "core.single_run") - batch_s
    m["core.ref_accesses_per_s"] = _ratio(
        _sum(spans, "core.single_run", "accesses")
        - _sum(spans, "core.batch", "accesses", where=batched),
        m["core.ref_s"])
    m["core.fallback_cells"] = _count(spans, "core.single_run") \
        - _count(spans, "core.batch", where=batched)
    m["core.multicore_s"] = _sum(spans, "core.multicore_run")
    m["core.multicore_accesses_per_s"] = _ratio(
        _sum(spans, "core.multicore_run", "accesses"), m["core.multicore_s"])
    m["core.compile_s"] = _sum(spans, "core.compile")

    grids = [s for s in spans if s["name"] == "experiments.run_grid"]
    grid_s = sum((s["t1"] - s["t0"]) / 1e9 for s in grids)
    cells = [s for s in spans if s["name"] == CELL]
    busy = sum((s["t1"] - s["t0"]) / 1e9 for s in cells)
    # Worker slots actually used: run_grid never starts more workers
    # than it has cells to simulate.
    slots = sum((s["t1"] - s["t0"]) / 1e9
                * max(1, min(s["args"].get("jobs", 1), len(cells)))
                for s in grids)
    m["experiments.grid_s"] = grid_s
    m["experiments.cells"] = len(cells)
    m["experiments.worker_busy_s"] = busy
    m["experiments.idle_frac"] = 1.0 - _ratio(busy, slots)
    m["experiments.cache_get_s"] = _sum(spans, "experiments.cache_get")
    m["experiments.cache_put_s"] = _sum(spans, "experiments.cache_put")
    gets = _count(spans, "experiments.cache_get")
    m["experiments.cache_hit_ratio"] = _ratio(
        _count(spans, "experiments.cache_get",
               where=lambda s: s["args"].get("hit")), gets)
    m["experiments.encode_s"] = (_sum(spans, "experiments.encode")
                                 + _sum(spans, "experiments.decode"))

    # Self time inside cells, per layer, as a share of worker-busy time.
    in_cell = [s for s in spans if s["in_cell"]]
    self_s = {layer: sum(s["self_ns"] for s in in_cell
                         if s["layer"] == layer) / 1e9 for layer in LAYERS}
    for layer in LAYERS:
        m[f"{layer}.busy_share"] = _ratio(self_s[layer], busy)
    # Self time plus idle time must account for every worker slot.
    idle = slots - busy
    m["experiments.accounting_error"] = _ratio(
        abs(sum(self_s.values()) + idle - slots), slots)
    return m


def fallback_reasons(spans: list[dict]) -> dict[str, int]:
    """Cells per reason the batch kernel refused them."""
    reasons: dict[str, int] = {}
    for s in spans:
        if s["name"] == "core.batch" and not s["args"].get("ok", True):
            r = s["args"].get("reason") or "unknown"
            reasons[r] = reasons.get(r, 0) + 1
    return reasons
