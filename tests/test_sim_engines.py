"""Tests for the simulation-engine registry and the batch engine's parity.

The batch engine's whole value proposition is *exact* statistical parity
with the reference object model at a fraction of the cost, so the parity
tests here assert strict equality -- not ``approx`` -- over every registered
configuration (covering every mechanism) and over randomized traces and
DDR4/DDR5 mapping geometries.
"""

import random

import pytest

from repro.controller.memory_controller import ControllerConfig
from repro.cpu.trace import MemoryTrace, TraceRecord
from repro.dram.timing import DDR4_2400, DDR4_3200, DDR5_4800
from repro.errors import UnknownEngineError
from repro.secure.configs import configuration_names, resolve_configuration
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
from repro.sim.runner import ParallelRunner, ResultCache, SimulationJob

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
