"""Tests for the simulation-engine registry and the batch engine's parity.

The batch engine's whole value proposition is *exact* statistical parity
with the reference object model at a fraction of the cost, so the parity
tests here assert strict equality -- not ``approx`` -- over every registered
configuration (covering every mechanism), over seeded traces and DDR4/DDR5
mapping geometries, and over Hypothesis-generated experiments and traces
(:class:`TestDifferentialParity`).
"""

import gc
import os
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.controller.memory_controller import ControllerConfig
from repro.cpu.trace import MemoryTrace, TraceRecord
from repro.dram.timing import DDR4_2400, DDR4_3200, DDR5_4800
from repro.errors import UnknownEngineError
from repro.secure.configs import configuration_names, resolve_configuration
from repro.sim import engines as engines_module
from repro.sim.engines import (
    DEFAULT_ENGINE,
    ENGINES,
    BatchEngine,
    Engine,
    EngineRegistry,
    ReferenceEngine,
    engine_cache_token,
    engine_names,
    resolve_engine,
)
from repro.sim.experiment import ExperimentConfig, run_comparison, run_simulation
from repro.sim.runner import JobFailure, ParallelRunner, ResultCache, SimulationJob

FAST = ExperimentConfig(num_accesses=200, num_cores=2)


def random_trace(seed: int, accesses: int = 200, name: str = "random") -> MemoryTrace:
    """A seeded adversarial trace: bursts, locality runs, and strided scans."""
    rng = random.Random(seed)
    records = []
    page = rng.randrange(0, 1 << 30) & ~0xFFF
    for _ in range(accesses):
        roll = rng.random()
        if roll < 0.5:  # locality: stay on the current page
            address = page + rng.randrange(64) * 64
        elif roll < 0.8:  # strided scan
            page += 4096
            address = page
        else:  # far jump
            page = rng.randrange(0, 1 << 32) & ~0xFFF
            address = page + rng.randrange(64) * 64
        records.append(
            TraceRecord(
                instruction_gap=rng.choice((0, 0, 1, 3, 10, 40)),
                is_write=rng.random() < 0.3,
                address=address,
            )
        )
    return MemoryTrace("%s%d" % (name, seed), records)


def assert_identical(a, b):
    """Strict parity: every headline number and every stat, bit for bit."""
    assert a.total_ipc == b.total_ipc
    assert a.total_cycles == b.total_cycles
    assert a.total_instructions == b.total_instructions
    assert a.average_read_latency_cycles == b.average_read_latency_cycles
    assert a.memory_stats == b.memory_stats


class TestEngineRegistry:
    def test_builtin_engines_registered(self):
        assert engine_names() == ["reference", "batch"]
        assert "batch" in ENGINES
        assert "bogus" not in ENGINES
        assert len(ENGINES) == 2
        assert DEFAULT_ENGINE == "reference"

    def test_attributes(self):
        reference = ENGINES.get("reference")
        batch = ENGINES.get("batch")
        assert not reference.vectorized and reference.parity_verified
        assert batch.vectorized and batch.parity_verified

    def test_unknown_engine_closest_match(self):
        with pytest.raises(UnknownEngineError) as excinfo:
            ENGINES.get("bacth")
        assert excinfo.value.suggestion == "batch"
        assert "closest match" in str(excinfo.value)
        assert isinstance(excinfo.value, KeyError)

    def test_resolve_accepts_name_instance_and_none(self):
        assert isinstance(resolve_engine(None), ReferenceEngine)
        assert isinstance(resolve_engine("batch"), BatchEngine)
        custom = BatchEngine()
        assert resolve_engine(custom) is custom

    def test_duplicate_registration_rejected(self):
        registry = EngineRegistry()
        registry.register(ReferenceEngine())
        with pytest.raises(ValueError):
            registry.register(ReferenceEngine())
        replacement = ReferenceEngine()
        assert registry.register(replacement, replace=True) is replacement

    def test_non_engine_rejected(self):
        with pytest.raises(TypeError):
            EngineRegistry().register("reference")


class DummyEngine(Engine):
    name = "dummy-approx"
    vectorized = True
    parity_verified = False


class TestCacheTokens:
    def test_parity_verified_engines_share_tokens(self):
        assert engine_cache_token(None) is None
        assert engine_cache_token("reference") is None
        assert engine_cache_token("batch") is None
        assert engine_cache_token(BatchEngine()) is None

    def test_non_parity_engine_gets_a_token(self):
        assert engine_cache_token(DummyEngine()) == "dummy-approx"

    def test_unknown_name_poisons_the_token(self):
        assert engine_cache_token("not-an-engine") == "not-an-engine"

    def test_jobs_share_cache_keys_across_parity_engines(self):
        jobs = [
            SimulationJob("secddr_ctr", "mcf", FAST, engine=engine)
            for engine in (None, "reference", "batch", BatchEngine())
        ]
        keys = {job.cache_key() for job in jobs}
        assert len(keys) == 1

    def test_non_parity_engine_changes_the_cache_key(self):
        base = SimulationJob("secddr_ctr", "mcf", FAST)
        approx = SimulationJob("secddr_ctr", "mcf", FAST, engine=DummyEngine())
        assert base.cache_key() != approx.cache_key()

    def test_batch_run_warms_the_reference_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        experiment = ExperimentConfig(num_accesses=120, num_cores=1)
        batch_job = SimulationJob("secddr_ctr", "gcc", experiment, engine="batch")
        reference_job = SimulationJob("secddr_ctr", "gcc", experiment)
        runner = ParallelRunner(jobs=1, cache=cache)
        (first,) = runner.run([batch_job])
        assert cache.misses == 1
        (second,) = runner.run([reference_job])
        assert cache.hits == 1  # served from the batch run's entry
        assert_identical(first, second)


class TestBatchParity:
    @pytest.mark.parametrize("configuration", configuration_names())
    def test_every_registered_configuration(self, configuration):
        trace = random_trace(7)
        reference = run_simulation(trace, configuration, FAST, engine="reference")
        batch = run_simulation(trace, configuration, FAST, engine="batch")
        assert_identical(reference, batch)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("timing", [DDR4_2400, DDR4_3200, DDR5_4800])
    @pytest.mark.parametrize("base", ["secddr_ctr", "integrity_tree_64"])
    def test_random_traces_across_mapping_geometries(self, seed, timing, base):
        # DDR4 and DDR5 timings decode addresses into different bank-group
        # geometries; the batch engine's vectorized decode must agree with
        # the reference DecodedAddress path on all of them.
        spec = resolve_configuration(base).derive(timing=timing)
        trace = random_trace(seed)
        reference = run_simulation(trace, spec, FAST, engine="reference")
        batch = run_simulation(trace, spec, FAST, engine="batch")
        assert_identical(reference, batch)

    def test_parity_without_prefetcher_and_single_core(self):
        experiment = ExperimentConfig(
            num_accesses=200, num_cores=1, enable_prefetcher=False
        )
        trace = random_trace(11)
        for configuration in ("secddr_xts", "integrity_tree_8_hash"):
            reference = run_simulation(trace, configuration, experiment, engine="reference")
            batch = run_simulation(trace, configuration, experiment, engine="batch")
            assert_identical(reference, batch)

    def test_parity_on_registry_workload(self):
        reference = run_simulation("mcf", "secddr_ctr", FAST)
        batch = run_simulation("mcf", "secddr_ctr", FAST, engine="batch")
        assert_identical(reference, batch)

    @pytest.mark.parametrize("configuration", ["secddr_xts", "secddr_ctr", "integrity_tree_64"])
    def test_parity_across_many_write_drains(self, configuration):
        # lbm is the most write-heavy registry workload; this trace crosses
        # the drain watermark many times, exercising FR-FCFS drain order.
        experiment = ExperimentConfig(num_accesses=1500, num_cores=2)
        reference = run_simulation("lbm", configuration, experiment, engine="reference")
        batch = run_simulation("lbm", configuration, experiment, engine="batch")
        assert_identical(reference, batch)
        controller = ControllerConfig()
        drain = controller.write_drain_high_watermark - controller.write_drain_low_watermark
        assert reference.stat("controller_writes") >= 5 * drain

    def test_unknown_engine_rejected(self):
        with pytest.raises(UnknownEngineError):
            run_simulation("mcf", "secddr_ctr", FAST, engine="warp")


# ---------------------------------------------------------------------------
# Differential parity: Hypothesis-generated experiments and traces
# ---------------------------------------------------------------------------
#: Examples per run.  By default a small derandomized profile runs with
#: the test suite; set REPRO_PARITY_EXAMPLES (e.g. 2000) for a longer,
#: randomized search.
PARITY_EXAMPLES = int(os.environ.get("REPRO_PARITY_EXAMPLES") or 30)

experiments = st.builds(
    ExperimentConfig,
    num_cores=st.integers(1, 4),
    enable_prefetcher=st.booleans(),
    # 1-8 KiB: 2-16 sets of 8 ways, so metadata lines evict (and write
    # back) constantly.
    metadata_cache_bytes=st.sampled_from([1024, 2048, 4096, 8192]),
    issue_width=st.integers(1, 8),
    rob_entries=st.integers(4, 256),
    mshr_entries=st.integers(1, 32),
)

specs = st.builds(
    lambda name, burst: (
        resolve_configuration(name) if burst is None
        else resolve_configuration(name).derive(write_burst_cycles=burst)
    ),
    st.sampled_from(configuration_names()),
    st.one_of(st.none(), st.integers(4, 9)),
)

lines = st.integers(0, (1 << 27) - 1)  # 8 GiB of 64-byte lines


@st.composite
def segments(draw):
    """One run of trace records: a burst, a strided scan or a reread run."""
    kind = draw(st.sampled_from(("burst", "stride", "reread")))
    count = draw(st.integers(1, 30))
    base = draw(lines) * 64
    if kind == "burst":
        # Back-to-back accesses within a few rows: row hits and conflicts.
        offsets = draw(st.lists(st.integers(0, 511), min_size=count, max_size=count))
        writes = draw(st.lists(st.booleans(), min_size=count, max_size=count))
        return [(0, w, base + 64 * k) for k, w in zip(offsets, writes)]
    if kind == "stride":
        # Next-line strides train the prefetcher; larger ones hop banks.
        stride = draw(st.sampled_from((64, 128, 4096, 8192, 1 << 17)))
        gap = draw(st.integers(0, 12))
        write = draw(st.booleans())
        return [(gap, write, base + k * stride) for k in range(count)]
    # Writes, then reads of the same lines: forwarded from the write queue.
    writes = [(1, True, base + 64 * k) for k in range(count)]
    return writes + [(0, False, address) for _, _, address in writes]


@st.composite
def traces(draw):
    """A trace guaranteed to cross both drain watermarks and tREFI.

    Free segments surround two mandatory runs: 60+ writes (more than the
    48-entry high watermark, so a drain to the low watermark happens), and
    25+ accesses with 10k-30k instruction gaps (over 31k CPU cycles even at
    issue width 8, beyond one DDR4/DDR5 refresh interval).
    """
    parts = draw(st.lists(segments(), max_size=6))
    write_base = draw(lines) * 64
    write_gap = draw(st.integers(0, 3))
    spread = draw(st.sampled_from((1, 8, 512)))
    write_run = [
        (write_gap, True, write_base + 64 * ((k * spread) % 4096))
        for k in range(draw(st.integers(60, 100)))
    ]
    idle_run = [
        (draw(st.integers(10_000, 30_000)), draw(st.booleans()), draw(lines) * 64)
        for _ in range(draw(st.integers(25, 30)))
    ]
    parts.insert(draw(st.integers(0, len(parts))), write_run)
    parts.insert(draw(st.integers(0, len(parts))), idle_run)
    records = [
        TraceRecord(instruction_gap=gap, is_write=write, address=address)
        for part in parts
        for gap, write, address in part
    ]
    return MemoryTrace("hypothesis", records)


class TestDifferentialParity:
    @settings(
        max_examples=PARITY_EXAMPLES,
        deadline=None,
        derandomize="REPRO_PARITY_EXAMPLES" not in os.environ,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(experiment=experiments, spec=specs, trace=traces())
    def test_batch_equals_reference(self, experiment, spec, trace):
        reference = run_simulation(trace, spec, experiment, engine="reference")
        batch = run_simulation(trace, spec, experiment, engine="batch")
        assert batch == reference


# ---------------------------------------------------------------------------
# Replay plans: built once per trace object, shared by every model
# ---------------------------------------------------------------------------
REUSE_BASE = ExperimentConfig(num_accesses=300, num_cores=2)


class TestReplayPlanReuse:
    """One trace object replayed under many models keeps exact parity.

    The batch engine memoizes each in-memory trace's replay plan under
    every input the plan depends on; a plan served under a key that misses
    one of them would replay the wrong columns and differ here.
    """

    def test_interleaved_configurations_and_experiments(self):
        trace = random_trace(5, accesses=300)
        ddr5_tree = resolve_configuration("integrity_tree_64").derive(timing=DDR5_4800)
        runs = [
            (REUSE_BASE, "secddr_ctr"),
            (REUSE_BASE, "integrity_tree_64"),
            (REUSE_BASE, "secddr_xts"),
            (REUSE_BASE, "integrity_tree_8_hash"),
            (REUSE_BASE, "secddr_ctr_pack8"),
            (REUSE_BASE, "secddr_ctr"),
            (replace(REUSE_BASE, num_cores=3), "secddr_ctr"),
            (replace(REUSE_BASE, num_cores=1), "integrity_tree_64"),
            (replace(REUSE_BASE, issue_width=2), "secddr_xts"),
            (replace(REUSE_BASE, issue_width=2), "integrity_tree_64"),
            (replace(REUSE_BASE, enable_prefetcher=False), "secddr_ctr"),
            (replace(REUSE_BASE, enable_prefetcher=False), "secddr_xts"),
            (replace(REUSE_BASE, metadata_cache_bytes=4096), "integrity_tree_64"),
            (replace(REUSE_BASE, metadata_cache_bytes=4096), "secddr_ctr"),
            (REUSE_BASE, "secddr_xts_ddr5"),
            (REUSE_BASE, ddr5_tree),
            (REUSE_BASE, "integrity_tree_64"),
        ]
        for experiment, configuration in runs:
            reference = run_simulation(trace, configuration, experiment, engine="reference")
            batch = run_simulation(trace, configuration, experiment, engine="batch")
            assert batch == reference, (experiment, configuration)
        assert trace in engines_module._PLANS

    def test_a_plan_lives_as_long_as_its_trace(self):
        trace = random_trace(6)
        run_simulation(trace, "secddr_ctr", FAST, engine="batch")
        plans = engines_module._PLANS[trace]
        del trace
        gc.collect()
        assert all(entry is not plans for entry in engines_module._PLANS.values())

    def test_streamed_traces_get_no_plan(self, tmp_path):
        from repro.traces import load_trace, save_trace

        trace = random_trace(8)
        view = load_trace(save_trace(trace, tmp_path / "t", chunk_size=64).path)
        streamed = run_simulation(view, "integrity_tree_64", FAST, engine="batch")
        assert view not in engines_module._PLANS
        assert streamed == run_simulation(trace, "integrity_tree_64", FAST, engine="batch")


# ---------------------------------------------------------------------------
# One simulation per distinct batch model
# ---------------------------------------------------------------------------
SHARED = ("tdx_baseline", "encrypt_only_xts", "secddr_xts")
SHARING_WORKLOADS = ("gcc", "mcf")


@pytest.fixture
def batch_calls(monkeypatch):
    """Counts BatchEngine.simulate calls."""
    calls = []
    original = BatchEngine.simulate

    def counted(self, trace, spec, experiment):
        calls.append(spec.name)
        return original(self, trace, spec, experiment)

    monkeypatch.setattr(BatchEngine, "simulate", counted)
    return calls


class TestSharedSimulations:
    def _jobs(self, configurations=SHARED, engine="batch"):
        return [
            SimulationJob(configuration, workload, FAST, engine=engine)
            for workload in SHARING_WORKLOADS
            for configuration in configurations
        ]

    def test_equal_models_simulate_once_with_exact_results(self, batch_calls):
        jobs = self._jobs()
        batch = ParallelRunner(jobs=1).run(jobs)
        # tdx_baseline and encrypt_only_xts share one batch model.
        assert len(batch_calls) == 2 * len(SHARING_WORKLOADS)
        assert "encrypt_only_xts" not in batch_calls
        reference = ParallelRunner(jobs=1).run(self._jobs(engine="reference"))
        for job, got, want in zip(jobs, batch, reference):
            assert got.configuration == job.configuration_name
            assert got == want

    def test_model_keys(self):
        engine = BatchEngine()
        key = engine.model_key(resolve_configuration("tdx_baseline"))
        assert key == engine.model_key(resolve_configuration("encrypt_only_xts"))
        assert key != engine.model_key(resolve_configuration("secddr_xts"))
        assert ReferenceEngine().model_key(resolve_configuration("tdx_baseline")) is None

    def test_warm_rerun_simulates_nothing(self, tmp_path, batch_calls):
        cache = ResultCache(tmp_path)
        first = ParallelRunner(jobs=1, cache=cache).run(self._jobs())
        assert len(cache) == len(first)  # every job has its own entry
        del batch_calls[:]
        second = ParallelRunner(jobs=1, cache=cache).run(self._jobs())
        assert batch_calls == []
        assert second == first

    def test_repeated_runs_simulate_again(self, batch_calls):
        ParallelRunner(jobs=1).run(self._jobs())
        ParallelRunner(jobs=1).run(self._jobs())
        assert len(batch_calls) == 2 * 2 * len(SHARING_WORKLOADS)

    def test_live_timeline_simulates_every_configuration(self, batch_calls):
        from repro.obs import timeline as obs_timeline

        recorder = obs_timeline.TimelineRecorder(window=64)
        previous = obs_timeline.set_timeline(recorder)
        try:
            ParallelRunner(jobs=1).run(self._jobs())
        finally:
            obs_timeline.set_timeline(previous)
        assert len(batch_calls) == len(SHARED) * len(SHARING_WORKLOADS)

    def test_a_different_write_burst_is_not_shared(self, batch_calls):
        variant = resolve_configuration("encrypt_only_xts").derive(write_burst_cycles=5)
        ParallelRunner(jobs=1).run(self._jobs(configurations=("tdx_baseline", variant)))
        assert len(batch_calls) == 2 * len(SHARING_WORKLOADS)

    def test_reference_jobs_are_not_shared(self, monkeypatch):
        calls = []
        original = ReferenceEngine.simulate

        def counted(self, trace, spec, experiment):
            calls.append(spec.name)
            return original(self, trace, spec, experiment)

        monkeypatch.setattr(ReferenceEngine, "simulate", counted)
        ParallelRunner(jobs=1).run(self._jobs(engine="reference"))
        assert len(calls) == len(SHARED) * len(SHARING_WORKLOADS)

    def test_a_shared_failure_is_reported_per_job(self, monkeypatch):
        def broken(self, trace, spec, experiment):
            raise RuntimeError("boom in %s" % spec.name)

        monkeypatch.setattr(BatchEngine, "simulate", broken)
        jobs = self._jobs(configurations=("tdx_baseline", "encrypt_only_xts"))
        outcomes = ParallelRunner(jobs=1, failures="capture").run(jobs)
        assert all(isinstance(outcome, JobFailure) for outcome in outcomes)
        assert [f.configuration for f in outcomes] == [j.configuration_name for j in jobs]
        assert all(f.error_message == "boom in tdx_baseline" for f in outcomes)

    def test_pool_path_shares_too(self, tmp_path):
        serial = ParallelRunner(jobs=1).run(self._jobs())
        cache = ResultCache(tmp_path)
        pooled = ParallelRunner(jobs=2, cache=cache).run(self._jobs())
        assert pooled == serial
        assert len(cache) == len(serial)


class TestDeprecatedSpellings:
    def test_missing_configurations_rejected(self):
        with pytest.raises(TypeError):
            run_comparison(workloads=["gcc"], experiment=FAST)


class TestEngineThreading:
    """engine= flows through run_comparison, the Session API, and sweeps."""

    def test_run_comparison_engine_batch_matches_reference(self):
        kwargs = dict(configurations=["secddr_ctr"], workloads=["gcc"], experiment=FAST)
        reference = run_comparison(**kwargs)
        batch = run_comparison(engine="batch", **kwargs)
        assert reference.normalized == batch.normalized

    def test_session_validates_engine_eagerly(self):
        from repro.api import Session

        with pytest.raises(UnknownEngineError):
            Session(engine="bogus")

    def test_session_with_engine_is_fluent(self):
        from repro.api import Session

        session = Session()
        assert session.engine is None
        assert session.with_engine("batch") is session
        assert session.engine is not None and session.engine.name == "batch"
        assert session.with_engine(None).engine is None
