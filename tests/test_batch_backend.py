"""Batch (structure-of-arrays) backend: bit-identity and plumbing.

The contract under test: every run the batch kernel accepts — any of
the eleven single-core variants — must produce a ``SystemStats``
payload (counters, float cycles, per-access levels, telemetry
timeline) and post-run state bit-identical to the reference Python
loop, and everything it cannot accept must fall back to the reference
loop, recording the engine taken and why.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.config import scaled_config
from repro.core.batch import (BACKENDS, kernel_available, resolve_backend,
                              try_run_batch, unsupported_reason)
from repro.core.system import SingleCoreSystem
from repro.experiments import results_cache as rc
from repro.experiments.parallel import Job, RunPolicy, _job_spec, run_grid
from repro.experiments.runner import default_config
from repro.trace.layout import AddressSpace
from repro.trace.record import ACCESS_DTYPE, Trace
from repro.validate.differential import (BATCH_VARIANTS, FIG7_VARIANTS,
                                         diff_ref_vs_batch, force_divmod,
                                         use_generic_lru)

needs_kernel = pytest.mark.skipif(not kernel_available(),
                                  reason="no C compiler for the batch "
                                         "kernel on this host")


def build_trace(ops, deps=False):
    """ops: list of (block_index, irregular, write, pc_choice, gap)."""
    space = AddressSpace()
    space.add("seq", 8, 1 << 14)
    rnd = space.add("rnd", 8, 1 << 14, irregular_hint=True)
    seq = space["seq"]
    acc = np.zeros(len(ops), dtype=ACCESS_DTYPE)
    for i, (blk, irr, write, pc, gap) in enumerate(ops):
        region = rnd if irr else seq
        acc["addr"][i] = region.addr(blk)
        acc["write"][i] = write
        acc["pc"][i] = 0x400000 + 4 * pc
        acc["gap"][i] = gap
        acc["dep"][i] = (i % 7) - 1 if deps and i % 3 == 0 else -1
    return Trace(acc, space)


#: 300 blocks per region: reuse-heavy, so the L1D, L2C and SDC serve
#: a large share of accesses alongside DRAM.
ops_strategy = st.lists(
    st.tuples(st.integers(0, 300), st.booleans(), st.booleans(),
              st.integers(0, 12), st.integers(0, 5)),
    min_size=1, max_size=300)

#: Wider PC range (enough PCs to evict from the LP/CLP tables and to
#: alias in the tag-less LP) over fewer blocks, so accesses also hit
#: in the SDC and the caches and the CLP trains on every level.
wide_pc_ops_strategy = st.lists(
    st.tuples(st.integers(0, 300), st.booleans(), st.booleans(),
              st.integers(0, 400), st.integers(0, 5)),
    min_size=1, max_size=300)

#: Variants routed by a PC predictor other than the tagged LP.
PREDICTOR_VARIANTS = ("sdc_clp", "sdc_lp_tagless")


@pytest.fixture(scope="module")
def cfg():
    return scaled_config(64)


@pytest.fixture(scope="module")
def trace():
    rng = np.random.default_rng(13)
    ops = [(int(rng.integers(0, 300)), bool(rng.random() < 0.5),
            bool(rng.random() < 0.25), int(rng.integers(0, 12)),
            int(rng.integers(0, 4)))
           for _ in range(3000)]
    return build_trace(ops, deps=True)


class TestResolveBackend:
    def test_default_is_ref(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None) == "ref"

    def test_env_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "batch")
        assert resolve_backend(None) == "batch"

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "batch")
        assert resolve_backend("ref") == "ref"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("vectorized")
        assert set(BACKENDS) == {"ref", "batch"}


@needs_kernel
class TestBitIdentity:
    @pytest.mark.parametrize("variant", FIG7_VARIANTS)
    def test_fig7_variants_full_payload(self, trace, cfg, variant):
        # diff_ref_vs_batch raises DifferentialMismatch on any field.
        ref, batch = diff_ref_vs_batch(trace, cfg, variant)
        assert batch.l1d.accesses > 0

    @pytest.mark.parametrize("variant", [v for v in BATCH_VARIANTS
                                         if v not in FIG7_VARIANTS])
    def test_extra_variants(self, trace, cfg, variant):
        diff_ref_vs_batch(trace, cfg, variant)

    @pytest.mark.parametrize("variant", PREDICTOR_VARIANTS)
    def test_predictor_variants_warmup_flush(self, trace, cfg, variant):
        # Warm-up reset, context-switch flushes, 64-access telemetry
        # windows and per-access levels in one run.
        ref, batch = diff_ref_vs_batch(trace, cfg, variant, warmup=700,
                                       flush_sdc_every=500,
                                       telemetry_every=64)
        assert batch.lp.lookups == len(trace) - 700
        assert len(batch.timeline) == (len(trace) - 700) // 64

    @pytest.mark.parametrize("variant", PREDICTOR_VARIANTS)
    def test_predictor_variants_evicting_pcs(self, cfg, variant):
        # 600 PCs: LRU eviction in the CLP table, aliasing in the
        # tag-less LP.
        rng = np.random.default_rng(5)
        ops = [(int(rng.integers(0, 300)), bool(rng.random() < 0.4),
                bool(rng.random() < 0.25), int(rng.integers(0, 600)),
                int(rng.integers(0, 4)))
               for _ in range(3000)]
        ref, batch = diff_ref_vs_batch(build_trace(ops, deps=True), cfg,
                                       variant, telemetry_every=128)
        assert batch.lp.table_misses > 0 and batch.lp.table_hits > 0
        # The L1D, DRAM and the SDC all serve, so the CLP trains on
        # several weights.
        assert {0, 3, 4} <= set(batch.levels.tolist())

    def test_warmup_window(self, trace, cfg):
        diff_ref_vs_batch(trace, cfg, "sdc_lp", warmup=1000)

    def test_run_seam_returns_batch_result(self, trace, cfg):
        ref = SingleCoreSystem(cfg, "baseline").run(trace, backend="ref")
        batch = SingleCoreSystem(cfg, "baseline").run(trace,
                                                      backend="batch")
        assert ref.to_payload() == batch.to_payload()

    def test_flush_sdc_every(self, trace, cfg):
        a = SingleCoreSystem(cfg, "sdc_lp").run(trace, backend="ref",
                                                flush_sdc_every=700)
        b = SingleCoreSystem(cfg, "sdc_lp").run(trace, backend="batch",
                                                flush_sdc_every=700)
        assert a.to_payload() == b.to_payload()

    def test_divmod_geometry_supported(self, trace, cfg):
        """force_divmod systems stay inside the batch envelope."""
        ref = force_divmod(SingleCoreSystem(cfg, "baseline"))
        want = ref.run(trace, backend="ref")
        sysb = force_divmod(SingleCoreSystem(cfg, "baseline"))
        got = try_run_batch(sysb, trace)
        assert got is not None
        assert want.to_payload() == got.to_payload()

    def test_back_to_back_runs_share_state_correctly(self, trace, cfg):
        """The kernel writes post-run state back into the Python
        objects, so a second (reference) run on the same system must
        continue exactly where a pure-reference pair would."""
        twice_ref = SingleCoreSystem(cfg, "baseline")
        twice_ref.run(trace, backend="ref")
        want = twice_ref.run(trace, backend="ref")
        mixed = SingleCoreSystem(cfg, "baseline")
        mixed.run(trace, backend="batch")
        got = mixed.run(trace, backend="ref")
        assert want.to_payload() == got.to_payload()

    @pytest.mark.parametrize("variant", PREDICTOR_VARIANTS)
    def test_back_to_back_predictor_variants(self, trace, cfg, variant):
        """Batch-then-ref equals ref-then-ref: the CLP table and the
        tag-less LP table are written back entry for entry."""
        twice_ref = SingleCoreSystem(cfg, variant)
        twice_ref.run(trace, backend="ref")
        want = twice_ref.run(trace, backend="ref")
        mixed = SingleCoreSystem(cfg, variant)
        assert mixed.run(trace, backend="batch").backend == "batch"
        got = mixed.run(trace, backend="ref")
        assert want.to_payload() == got.to_payload()

    def test_differential_suite_covers_every_variant(self, trace, cfg):
        from repro.validate.differential import run_differential_suite
        results = run_differential_suite(trace, cfg)
        assert {k for k in results if k.startswith("ref-vs-batch")} == {
            f"ref-vs-batch[{v}]" for v in BATCH_VARIANTS}


@needs_kernel
class TestPropertyEquivalence:
    @given(ops_strategy)
    @settings(max_examples=25, deadline=None)
    def test_random_traces_baseline(self, ops):
        trace = build_trace(ops)
        cfg = scaled_config(64)
        a = SingleCoreSystem(cfg, "baseline",
                             telemetry_every=64).run(trace, backend="ref")
        b = SingleCoreSystem(cfg, "baseline",
                             telemetry_every=64).run(trace,
                                                     backend="batch")
        assert a.to_payload() == b.to_payload()

    @given(ops_strategy)
    @settings(max_examples=25, deadline=None)
    def test_random_traces_sdc_lp(self, ops):
        trace = build_trace(ops, deps=True)
        cfg = scaled_config(64)
        a = SingleCoreSystem(cfg, "sdc_lp",
                             telemetry_every=64).run(trace, backend="ref")
        b = SingleCoreSystem(cfg, "sdc_lp",
                             telemetry_every=64).run(trace,
                                                     backend="batch")
        assert a.to_payload() == b.to_payload()

    @pytest.mark.parametrize("variant", BATCH_VARIANTS)
    @given(ops=wide_pc_ops_strategy,
           warmup=st.integers(0, 120),
           flush=st.sampled_from([None, 37, 150]))
    @settings(max_examples=15, deadline=None)
    def test_random_traces_every_variant(self, variant, ops, warmup,
                                         flush):
        # Full payload and post-run state (diff_ref_vs_batch).
        diff_ref_vs_batch(build_trace(ops, deps=True), scaled_config(64),
                          variant, telemetry_every=32, warmup=warmup,
                          flush_sdc_every=flush)


@needs_kernel
class TestEngineRecord:
    """``run`` records the engine it took and why a batch request fell
    back, without touching payloads or equality."""

    @pytest.mark.parametrize("backend", ("ref", "batch"))
    def test_requested_backend_taken(self, trace, cfg, backend):
        stats = SingleCoreSystem(cfg, "sdc_clp").run(trace, backend=backend)
        assert (stats.backend, stats.fallback) == (backend, None)

    def test_fallback_reason_recorded(self, trace, cfg):
        system = SingleCoreSystem(cfg, "baseline", check_every=500)
        stats = system.run(trace, backend="batch")
        assert stats.backend == "ref"
        assert stats.fallback == "invariant checking armed"

    def test_engine_fields_stay_out_of_payload_and_equality(self, trace,
                                                           cfg):
        ref = SingleCoreSystem(cfg, "sdc_lp").run(trace, backend="ref")
        batch = SingleCoreSystem(cfg, "sdc_lp").run(trace, backend="batch")
        assert ref.backend != batch.backend and ref == batch
        assert "backend" not in batch.to_payload()
        assert "fallback" not in batch.to_payload()

    def test_cell_exec_event_carries_engine(self, tmp_path, monkeypatch):
        from repro import telemetry as tele
        from repro.telemetry import events as tele_events
        from repro.telemetry import schema as tele_schema
        cfg = scaled_config(64)
        grid = [Job("pr.urand", v, cfg, tier="tiny", length=3000)
                for v in ("sdc_clp", "sdc_lp_tagless")]
        tdir = tmp_path / "tele"

        def exec_events(cache_dir):
            run_grid(grid, cache=rc.ResultsCache(tmp_path / cache_dir),
                     manifest_dir=tmp_path / "runs", backend="batch",
                     telemetry=tele.TelemetryConfig(directory=tdir,
                                                    window=0))
            path = tele_events.events_path(
                tdir, tele_events.latest_run_id(tdir))
            assert tele_schema.validate_events_file(path) == []
            return [r for r in tele_events.read_events(path)
                    if r["event"] == "cell_exec_finished"]

        assert [(r["backend"], r["fallback"])
                for r in exec_events("a")] == [("batch", None)] * 2
        monkeypatch.setenv("REPRO_VALIDATE", "1000")
        assert [(r["backend"], r["fallback"])
                for r in exec_events("b")] == \
            [("ref", "invariant checking armed")] * 2


class TestFallback:
    def test_generic_lru_twin_falls_back(self, trace, cfg):
        """The generic-LRU differential twin must keep exercising the
        reference loop — the batch kernel refuses it."""
        system = use_generic_lru(SingleCoreSystem(cfg, "baseline"))
        assert unsupported_reason(system, trace) is not None
        assert try_run_batch(system, trace) is None

    def test_check_every_falls_back(self, trace, cfg):
        system = SingleCoreSystem(cfg, "baseline", check_every=500)
        assert unsupported_reason(system, trace) is not None

    def test_warm_system_falls_back(self, trace, cfg):
        system = SingleCoreSystem(cfg, "baseline")
        system.run(trace, backend="ref")
        assert unsupported_reason(system, trace) is not None

    def test_kill_switch_env(self, trace, cfg, monkeypatch):
        from repro.core.batch import build
        monkeypatch.setattr(build, "_cached_kernel", None)
        monkeypatch.setattr(build, "_load_attempted", False)
        monkeypatch.setenv("REPRO_NO_BATCH_KERNEL", "1")
        system = SingleCoreSystem(cfg, "baseline")
        # The seam silently lands on the reference loop.
        stats = system.run(trace, backend="batch")
        assert stats.l1d.accesses == len(trace)


class TestCacheKeying:
    def test_batch_and_ref_keys_never_alias(self):
        job = Job("pr.urand", "baseline", default_config(), tier="tiny",
                  length=5000)
        _, key_ref = _job_spec(job)
        _, key_batch = _job_spec(job, backend="batch")
        assert key_ref != key_batch

    def test_ref_key_is_unchanged_by_the_new_extra(self):
        """Reference keys stay extra-free, so pre-existing caches
        survive this PR."""
        job = Job("pr.urand", "baseline", default_config(), tier="tiny",
                  length=5000)
        _, key_default = _job_spec(job)
        _, key_explicit = _job_spec(job, backend="ref")
        assert key_default == key_explicit

    def test_code_fingerprint_covers_kernel_c(self):
        from repro.experiments.results_cache import (_FINGERPRINT_SOURCES,
                                                     _REPRO_ROOT)
        covered = []
        for entry in _FINGERPRINT_SOURCES:
            p = _REPRO_ROOT / entry
            if p.is_dir():
                covered.extend(p.rglob("*.c"))
        assert any(f.name == "kernel.c" for f in covered)


@needs_kernel
class TestGridEquivalence:
    """Fault-armed quick-fig7-shaped grid under REPRO_BACKEND=batch must
    produce byte-identical payloads to the fault-free reference grid."""

    WLS = ("pr.urand", "cc.urand")
    VARIANTS = ("baseline", "sdc_lp", "topt")
    FAST = RunPolicy(retries=2, backoff=0.01, backoff_max=0.05)

    def _grid(self):
        cfg = default_config()
        return [Job(wl, v, cfg, tier="tiny", length=8000)
                for wl in self.WLS for v in self.VARIANTS]

    def teardown_method(self):
        faults.deactivate()

    def test_fault_armed_batch_grid_matches_reference(self, tmp_path):
        ref = run_grid(self._grid(),
                       cache=rc.ResultsCache(tmp_path / "ref"),
                       manifest_dir=tmp_path / "runs", backend="ref")
        faults.activate(faults.FaultPlan.parse("seed=7,exc:0.3:2"))
        try:
            batch = run_grid(self._grid(),
                             cache=rc.ResultsCache(tmp_path / "batch"),
                             manifest_dir=tmp_path / "runs",
                             policy=self.FAST, backend="batch")
        finally:
            faults.deactivate()
        for a, b in zip(ref, batch):
            assert json.dumps(a.to_payload(), sort_keys=True) == \
                json.dumps(b.to_payload(), sort_keys=True)

    def test_env_backend_threads_into_grid(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "batch")
        grid = self._grid()[:2]
        res = run_grid(grid, cache=rc.ResultsCache(tmp_path / "env"),
                       manifest_dir=tmp_path / "runs")
        monkeypatch.delenv("REPRO_BACKEND")
        ref = run_grid(grid, cache=rc.ResultsCache(tmp_path / "ref2"),
                       manifest_dir=tmp_path / "runs")
        for a, b in zip(res, ref):
            assert a.to_payload() == b.to_payload()


class TestKernelInputs:
    def test_one_record_columns_are_aligned(self):
        """A one-record field view of the packed record dtype counts as
        contiguous but is misaligned; the kernel must get a copy."""
        from repro.core.batch.backend import _column
        acc = build_trace([(3, True, False, 1, 2)], deps=True).accesses
        assert not acc["dep"].flags.aligned
        col = _column(acc["dep"], np.int64)
        assert col.flags.aligned and col.flags.c_contiguous
        assert col.tolist() == acc["dep"].tolist()


@needs_kernel
class TestSoARoundTrip:
    def test_export_import_identity(self, trace, cfg):
        system = SingleCoreSystem(cfg, "baseline")
        system.run(trace, backend="ref")
        l1 = system.hierarchy.l1d
        before = [dict(s) for s in l1.sets]
        soa = l1.export_soa()
        l1.import_soa(soa, clock=soa["clock"])
        assert [dict(s) for s in l1.sets] == before
        assert dataclasses.asdict(l1.stats)  # stats untouched by export
