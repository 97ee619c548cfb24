"""The benchmark's workloads: what one repetition sets up, measures and checks.

Each workload drives the repository only through public entry points
(``repro.figures``, ``repro.sim``, ``repro.attacks``, ``repro.fuzz``) with
``jobs=1``: one closed loop of simulation or campaign jobs, each started
when the previous one finished.  ``setup`` is everything up to the first job
(imports, registry resolution, the job matrix), ``measure`` is the timed
phase, and ``check`` verifies the outputs by properties -- never against a
golden stats file, so a model-fidelity fix does not read as a failure.

Modelled caches (metadata cache, LLC, row buffers) start empty in every job:
there is no warm-up phase, exactly as ``repro reproduce`` runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, replace

#: Simulated cores per job.
CORES = 2

#: (regular size, tiny size used by the self-test).  A regular repetition
#: takes a few seconds, so one run holds enough fresh-interpreter
#: repetitions for a steady median on a noisy shared host.
FIG6_ACCESSES = (1000, 400)
REF_ACCESSES = (1000, 300)
REF_WORKLOADS = ("mcf", "lbm", "gcc")
REF_CONFIGURATIONS = ("secddr_xts", "secddr_ctr", "integrity_tree_64")
FUZZ_BUDGET = 6

#: Per-layer metrics computed from a workload's results rather than its spans;
#: they read 0 on the workloads that do not produce them.
RESULT_METRICS = (
    "model.md_hit_rate.secddr_ctr",
    "model.md_hit_rate.integrity_tree_64",
    "model.md_accesses_per_read.integrity_tree_64",
    "model.ctrl_read_latency.integrity_tree_64",
    "runner.cache_put_ms",
    "runner.cache_get_ms",
    "runner.warm_hit_ratio",
    "cache.md_hit_ratio",
    "fuzz.detect_ratio",
)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def _ipc_problems(results):
    """One message per result that failed or has no finite, positive IPC."""
    from repro.sim.runner import JobFailure

    problems = []
    for result in results:
        if isinstance(result, JobFailure):
            problems.append("job failed: %s" % result.describe())
        elif not (math.isfinite(result.total_ipc) and result.total_ipc > 0):
            problems.append("%s/%s: IPC %r" % (result.configuration, result.workload, result.total_ipc))
    return problems


def _instructions(results) -> int:
    return sum(getattr(result, "total_instructions", 0) for result in results)


class Workload:
    """One repetition of a workload in this interpreter."""

    name = ""

    def __init__(self, seed: int, tiny: bool, workdir, call) -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        #: ``call(label, fn, *args)``: runs ``fn`` inside a span when traced.
        self.call = call

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        raise NotImplementedError

    def check(self):
        """``(items attempted, [failure messages])`` for this repetition."""
        raise NotImplementedError

    def summary(self):
        """Deterministic outputs: ``(digest, {metric: value})``."""
        raise NotImplementedError

    def traced_extras(self, recorder):
        """Per-layer metrics that need extra work after the measured phase."""
        return {}


class Fig6Batch(Workload):
    """Figure 6's job matrix, cold, on the batch engine, then the figure build."""

    name = "fig6-batch"

    def setup(self):
        from repro.figures import FigureContext, collect_jobs, get_figure
        from repro.sim import ExperimentConfig, ResultCache

        accesses = FIG6_ACCESSES[self.tiny]
        self.spec = get_figure("fig6")
        # An explicit, empty cache: a warm user cache would turn the cold
        # pass into hits.
        self.cache = ResultCache(self.workdir / "cache")
        self.ctx = FigureContext(
            experiment=ExperimentConfig(num_accesses=accesses, num_cores=CORES, seed=self.seed),
            cache=self.cache,
            jobs=1,
            engine="batch",
        )
        self.jobs = collect_jobs([self.spec], self.ctx)

    def measure(self):
        from repro.sim import ParallelRunner

        runner = ParallelRunner(jobs=1, cache=self.cache, failures="capture")
        self.results = runner.run(self.jobs)
        self.artifact = None
        self.build_error = None
        try:
            self.artifact = self.call("figures", self.spec.build, self.ctx)
        except Exception as exc:  # reported as a failed check, not a crash
            self.build_error = "%s: %s" % (type(exc).__name__, exc)

    def check(self):
        problems = _ipc_problems(self.results)
        if self.build_error:
            problems.append("fig6 build raised %s" % self.build_error)
        trends = self.artifact.trends if self.artifact else []
        problems += ["fig6 trend failed: %s" % t.description for t in trends if not t.passed]
        return len(self.results) + 1 + len(trends), problems

    def _model(self):
        """Simulated metadata-cache / controller counters over memory-intensive workloads."""
        from repro.workloads.registry import memory_intensive_workloads

        intensive = set(memory_intensive_workloads())
        fields = ("hits", "accesses", "reads", "ctrl_reads", "ctrl_latency")
        sums = {}
        for result in self.results:
            if not hasattr(result, "total_ipc") or result.workload not in intensive:
                continue
            bucket = sums.setdefault(result.configuration, dict.fromkeys(fields, 0.0))
            bucket["hits"] += result.stat("metadata_hits")
            bucket["accesses"] += result.stat("metadata_accesses")
            bucket["reads"] += result.stat("demand_reads")
            bucket["ctrl_reads"] += result.stat("controller_reads")
            bucket["ctrl_latency"] += result.stat("controller_avg_read_latency") * result.stat("controller_reads")
        ctr = sums.get("secddr_ctr", dict.fromkeys(fields, 0.0))
        tree = sums.get("integrity_tree_64", dict.fromkeys(fields, 0.0))

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "model.md_hit_rate.secddr_ctr": ratio(ctr["hits"], ctr["accesses"]),
            "model.md_hit_rate.integrity_tree_64": ratio(tree["hits"], tree["accesses"]),
            "model.md_accesses_per_read.integrity_tree_64": ratio(tree["accesses"], tree["reads"]),
            "model.ctrl_read_latency.integrity_tree_64": ratio(tree["ctrl_latency"], tree["ctrl_reads"]),
        }

    def summary(self):
        values = {"sim_minst": _instructions(self.results) / 1e6}
        if self.artifact is not None:
            # Reproduced minus paper: SecDDR+CTR, then SecDDR+XTS, over the 64-ary tree.
            ctr, xts = self.artifact.deltas[:2]
            values["paper_gap_ctr_pp"] = abs(ctr.delta)
            values["paper_gap_xts_pp"] = abs(xts.delta)
        values.update(self._model())
        return _digest([asdict(r) for r in self.results if hasattr(r, "total_ipc")]), values

    def traced_extras(self, recorder):
        """Cache put cost of the cold pass, then a warm replay of the same jobs."""
        from repro.sim import ParallelRunner

        cold = recorder.snapshot()
        puts = cold["calls"].get("runner.cache_put", 0)
        put_ms = 1e3 * cold["total_s"].get("runner.cache_put", 0.0) / puts if puts else 0.0
        hits_before, misses_before = self.cache.hits, self.cache.misses
        ParallelRunner(jobs=1, cache=self.cache).run(self.jobs)
        warm = recorder.snapshot()
        gets = warm["calls"].get("runner.cache_get", 0) - cold["calls"].get("runner.cache_get", 0)
        get_s = warm["total_s"].get("runner.cache_get", 0.0) - cold["total_s"].get("runner.cache_get", 0.0)
        hits = self.cache.hits - hits_before
        lookups = hits + self.cache.misses - misses_before
        return {
            "runner.cache_put_ms": put_ms,
            "runner.cache_get_ms": 1e3 * get_s / gets if gets else 0.0,
            "runner.warm_hit_ratio": hits / lookups if lookups else 0.0,
        }


class RefTiming(Workload):
    """The reference engine on three contrasting workloads x three mechanisms."""

    name = "ref-timing"

    def setup(self):
        from repro.sim import ExperimentConfig, SimulationJob

        experiment = ExperimentConfig(num_accesses=REF_ACCESSES[self.tiny], num_cores=CORES, seed=self.seed)
        self.jobs = [
            SimulationJob(configuration=config, workload=workload, experiment=experiment, engine="reference")
            for workload in REF_WORKLOADS
            for config in REF_CONFIGURATIONS
        ]

    def measure(self):
        from repro.sim import ParallelRunner

        self.results = ParallelRunner(jobs=1, failures="capture").run(self.jobs)

    def check(self):
        from repro.sim import ParallelRunner

        problems = _ipc_problems(self.results)
        # The batch side runs here, outside the timed phase.
        batch = ParallelRunner(jobs=1, failures="capture").run(
            [replace(job, engine="batch") for job in self.jobs]
        )
        for job, reference, other in zip(self.jobs, self.results, batch):
            both = hasattr(reference, "total_ipc") and hasattr(other, "total_ipc")
            if not both or asdict(reference) != asdict(other):
                problems.append("%s/%s: reference and batch results differ"
                                % (job.configuration_name, job.workload_name))
        return 2 * len(self.jobs), problems

    def summary(self):
        results = [r for r in self.results if hasattr(r, "total_ipc")]
        accesses = sum(r.stat("metadata_accesses") for r in results)
        return _digest([asdict(r) for r in results]), {
            "sim_minst": _instructions(results) / 1e6,
            "cache.md_hit_ratio": sum(r.stat("metadata_hits") for r in results) / accesses if accesses else 0.0,
        }


class SecurityCampaign(Workload):
    """The standard attack campaign, then a seeded fuzz campaign (no cache)."""

    name = "security-campaign"

    def setup(self):
        from repro.figures import FigureContext, get_figure
        from repro.fuzz import FuzzCampaign

        self.attacks_spec = get_figure("attacks")
        self.ctx = FigureContext()
        self.campaign = FuzzCampaign(seed=self.seed, budget=FUZZ_BUDGET, jobs=1)

    def measure(self):
        self.artifact = self.attacks_spec.build(self.ctx)
        self.report = self.campaign.run()

    def check(self):
        from repro.attacks import STANDARD_CONFIGURATIONS
        from repro.fuzz import TAMPER_ACTIONS, FuzzOutcome, expected_detected

        problems = ["attack trend failed: %s" % t.description for t in self.artifact.trends if not t.passed]
        problems += ["oracle violation: %s" % v.describe() for v in self.report.violations()]
        if self.report.missed_kinds("secddr"):
            problems.append("secddr missed %s" % self.report.missed_kinds("secddr"))
        # Without replay protection the baseline cannot see a replay-style
        # (rap-layer) action: a scenario made only of those that fired must
        # end missed or neutralized, and it may miss nothing else.
        no_rap = STANDARD_CONFIGURATIONS["baseline_no_rap"]
        for result in self.report.results["baseline_no_rap"]:
            replay_only = result.action_kinds and all(
                TAMPER_ACTIONS[kind].detected_by == "rap" for kind in result.action_kinds
            )
            if replay_only and result.fired_kinds and result.outcome not in (
                FuzzOutcome.MISSED, FuzzOutcome.NEUTRALIZED
            ):
                problems.append("baseline_no_rap caught a replay-style scenario: %s" % result.describe())
        unexpected = [k for k in self.report.missed_kinds("baseline_no_rap") if expected_detected(no_rap, k)]
        if unexpected:
            problems.append("baseline_no_rap missed classes it claims to detect: %s" % unexpected)
        jobs = sum(len(results) for results in self.report.results.values())
        attack_results = len(self.artifact.rows) * (len(self.artifact.columns) - 1)
        return attack_results + jobs + len(self.artifact.trends) + 2, problems

    def summary(self):
        tampered = {s.scenario_id for s in self.report.scenarios if not s.benign}
        detected = sum(1 for r in self.report.results["secddr"] if r.scenario_id in tampered and r.detected)
        payload = {
            "attacks": [[row.get(column) for column in self.artifact.columns] for row in self.artifact.rows],
            "fuzz": self.report.format_matrix(),
        }
        return _digest(payload), {
            "fuzz.detect_ratio": detected / len(tampered) if tampered else 0.0,
        }


WORKLOADS = {cls.name: cls for cls in (Fig6Batch, RefTiming, SecurityCampaign)}
