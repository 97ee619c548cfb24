"""Tests for ``repro.bench``: the continuous-evaluation harness.

Covers the registry (every ``benchmarks/bench_*.py`` script has a
registered spec), the measurement contract (identical metric keys across
warm runs, second pass all cache hits), the regression gate (``repro bench
--check`` fails on a perturbed baseline and passes against its own
record), the on-disk ``BENCH_<date>.json`` schema round-trip, and the
file-locked merge writer raced from two OS processes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import (
    BenchContext,
    MetricSpec,
    bench_names,
    compare_records,
    default_record_path,
    environment_fingerprint,
    environments_match,
    get_bench,
    load_record,
    merge_bench_record,
    render_bench_report,
    resolve_benches,
    run_benches,
    violations,
)
from repro.cli import main
from repro.errors import UnknownBenchError

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS_DIR = REPO_ROOT / "benchmarks"

#: A cheap subset used wherever the tests actually run specs; fig6 collects
#: cache-keyed simulation jobs, table2 is analysis-only.
FAST_BENCHES = ["fig6", "table2"]


# ---------------------------------------------------------------------------
# Registry completeness
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_every_benchmark_script_has_a_registered_spec(self):
        """ISSUE acceptance: the registry mirrors ``benchmarks/bench_*.py``."""
        scripts = sorted(p.name for p in BENCHMARKS_DIR.glob("bench_*.py"))
        assert scripts, "expected benchmark scripts in benchmarks/"
        sources = {get_bench(name).source for name in bench_names()}
        missing = [script for script in scripts if script not in sources]
        assert not missing, (
            "benchmarks/ scripts without a registered BenchSpec: %s" % missing
        )

    def test_registered_sources_exist_on_disk(self):
        for name in bench_names():
            spec = get_bench(name)
            assert (BENCHMARKS_DIR / spec.source).is_file(), (
                "bench %r claims source %r which does not exist" % (name, spec.source)
            )

    def test_unknown_bench_suggests_closest(self):
        with pytest.raises(UnknownBenchError) as excinfo:
            get_bench("trace_streming")
        assert excinfo.value.suggestion == "trace_streaming"

    def test_resolve_defaults_to_all_in_registration_order(self):
        specs = resolve_benches(None)
        assert [spec.key for spec in specs] == bench_names()

    def test_every_spec_declares_at_least_one_gated_metric(self):
        for name in bench_names():
            spec = get_bench(name)
            gated = [m for m in spec.metrics if m.max_regression is not None]
            assert gated, "bench %r has no regression policy at all" % name

    def test_figure_backed_specs_resolve_their_figure(self):
        from repro.figures.spec import FigureSpec

        for name in bench_names():
            spec = get_bench(name)
            if spec.figure is not None:
                assert isinstance(spec.figure_spec(), FigureSpec)

    def test_non_figure_spec_refuses_figure_resolution(self):
        with pytest.raises(ValueError, match="not figure-backed"):
            get_bench("engines").figure_spec()


# ---------------------------------------------------------------------------
# Metric policy semantics
# ---------------------------------------------------------------------------
class TestMetricSpec:
    def test_informational_metric_never_violates(self):
        metric = MetricSpec("x", max_regression=None)
        assert not metric.violated(100.0, 0.0)

    def test_zero_tolerance_fails_any_drop(self):
        metric = MetricSpec("rate", max_regression=0.0)
        assert metric.violated(1.0, 0.999)
        assert not metric.violated(1.0, 1.0)
        assert not metric.violated(1.0, 1.5)

    def test_relative_tolerance(self):
        metric = MetricSpec("throughput", max_regression=0.10)
        assert not metric.violated(1000.0, 950.0)  # -5% is inside the band
        assert metric.violated(1000.0, 850.0)  # -15% is not

    def test_lower_is_better_inverts_direction(self):
        metric = MetricSpec("latency", higher_is_better=False, max_regression=0.10)
        assert not metric.violated(1.0, 0.5)  # got faster: fine
        assert metric.violated(1.0, 1.5)  # got slower: regression


# ---------------------------------------------------------------------------
# Warm-run determinism (the headline acceptance criterion)
# ---------------------------------------------------------------------------
class TestWarmRuns:
    def test_two_smoke_passes_share_keys_and_second_is_all_hits(self, tmp_path):
        """Back-to-back smoke passes: identical metric keys, zero re-simulation."""
        from repro.sim.runner import ResultCache

        cache = ResultCache(tmp_path / "cache")
        first = run_benches(FAST_BENCHES, smoke=True, cache=cache)
        second = run_benches(FAST_BENCHES, smoke=True, cache=cache)

        assert first.profile == second.profile == "smoke"
        assert first.simulated_jobs > 0
        assert second.simulated_jobs == 0
        assert second.cached_jobs > 0

        for before, after in zip(first.entries, second.entries):
            assert before.key == after.key
            assert sorted(before.metrics) == sorted(after.metrics)
            assert before.scenario == after.scenario
            spec = get_bench(before.key)
            for metric in spec.metrics:
                if not metric.noisy:
                    assert before.metrics[metric.name] == after.metrics[metric.name], (
                        "deterministic metric %s.%s drifted between warm runs"
                        % (before.key, metric.name)
                    )

    def test_entries_carry_the_smoke_scenario(self, tmp_path):
        from repro.sim.runner import ResultCache

        report = run_benches(["table2"], smoke=True, cache=ResultCache(tmp_path / "c"))
        (entry,) = report.entries
        assert entry.scenario["accesses"] == 240
        assert entry.scenario["cores"] == 1
        assert entry.metrics["trends_passed"] == entry.metrics["trends_total"]

    def test_measure_rejects_undeclared_metrics(self):
        spec = get_bench("table2")
        broken = type(spec)(
            key=spec.key, title=spec.title, description=spec.description,
            source=spec.source, metrics=spec.metrics,
            run=lambda ctx: {"surprise": 1.0}, figure=spec.figure,
        )
        with pytest.raises(ValueError, match="declares"):
            broken.measure(BenchContext.smoke())


# ---------------------------------------------------------------------------
# Record schema round-trip
# ---------------------------------------------------------------------------
class TestRecordRoundTrip:
    def _payload(self, value=1.0):
        return {
            "scenario": {"accesses": 240, "cores": 1},
            "metrics": {"trends_passed": value, "trends_total": value},
            "elapsed_seconds": 0.5,
        }

    def test_merge_then_load_round_trips(self, tmp_path):
        path = tmp_path / "BENCH_2026-01-01.json"
        merge_bench_record(path, {"table2": self._payload()}, profile="smoke")
        record = load_record(path)
        assert record["schema"] == 1
        assert record["profile"] == "smoke"
        assert record["benches"]["table2"] == self._payload()
        assert record["environment"] == environment_fingerprint()

    def test_merge_preserves_other_keys(self, tmp_path):
        path = tmp_path / "BENCH_2026-01-01.json"
        merge_bench_record(path, {"table2": self._payload(1.0)})
        merge_bench_record(path, {"security": self._payload(2.0)})
        record = load_record(path)
        assert set(record["benches"]) == {"table2", "security"}
        assert record["benches"]["table2"]["metrics"]["trends_passed"] == 1.0

    def test_merge_overwrites_stale_entry_for_same_key(self, tmp_path):
        path = tmp_path / "BENCH_2026-01-01.json"
        merge_bench_record(path, {"table2": self._payload(1.0)})
        merge_bench_record(path, {"table2": self._payload(3.0)})
        record = load_record(path)
        assert record["benches"]["table2"]["metrics"]["trends_passed"] == 3.0

    def test_corrupt_record_is_replaced_not_fatal(self, tmp_path):
        path = tmp_path / "BENCH_2026-01-01.json"
        path.write_text("{not json")
        merge_bench_record(path, {"table2": self._payload()})
        assert "table2" in load_record(path)["benches"]

    def test_default_record_path_is_dated(self, tmp_path):
        path = default_record_path(tmp_path)
        assert path.parent == Path(tmp_path)
        assert path.name.startswith("BENCH_") and path.suffix == ".json"

    def test_legacy_record_layout_upgrades(self, tmp_path):
        """Pre-registry BENCH files (flat engines + nested server) are not
        upgraded: loading rejects them, and a merge over one starts fresh."""
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps({
            "scenario": {"accesses": 20000},
            "engines": {
                "reference": {"accesses_per_second": 1000.0},
                "batch": {"accesses_per_second": 14000.0},
            },
            "speedup": 14.0,
            "parity": "exact",
            "python": "3.11.1",
            "machine": "x86_64",
            "server": {
                "submissions_per_second": 300.0,
                "warm_e2e_seconds": 0.05,
                "transport_overhead_seconds": 0.04,
                "result_parity": "byte-identical",
            },
        }))
        with pytest.raises(ValueError, match="benches"):
            load_record(path)
        merge_bench_record(path, {"table2": self._payload()})
        record = load_record(path)
        assert record["schema"] == 1
        assert record["benches"] == {"table2": self._payload()}


# ---------------------------------------------------------------------------
# Baseline comparison + report
# ---------------------------------------------------------------------------
class TestCompare:
    def _record(self, passed=5.0, throughput=1000.0, env=None, accesses=240):
        return {
            "schema": 1,
            "profile": "smoke",
            "environment": env or environment_fingerprint(),
            "benches": {
                "table2": {
                    "scenario": {"accesses": accesses, "cores": 1},
                    "metrics": {
                        "trends_passed": passed,
                        "trends_total": 5.0,
                        "unique_jobs": 12.0,
                        "build_seconds": 0.2,
                    },
                    "elapsed_seconds": 1.0,
                },
                "engines": {
                    "scenario": {"accesses": accesses},
                    "metrics": {
                        "reference_accesses_per_second": throughput / 10.0,
                        "batch_accesses_per_second": throughput,
                        "speedup": 10.0,
                        "parity_exact": 1.0,
                    },
                    "elapsed_seconds": 1.0,
                },
            },
        }

    def test_identical_records_have_no_violations(self):
        record = self._record()
        deltas = compare_records(record, self._record())
        assert violations(deltas) == []
        assert all(d.status in ("ok", "info") for d in deltas)

    def test_deterministic_drop_is_a_violation(self):
        deltas = compare_records(self._record(passed=4.0), self._record(passed=5.0))
        failed = violations(deltas)
        assert [(d.bench, d.metric) for d in failed] == [("table2", "trends_passed")]
        assert failed[0].status == "regressed"

    def test_noisy_drop_fails_only_under_matching_environment(self):
        current = self._record(throughput=500.0)  # -50%, way past the 10% band
        baseline = self._record(throughput=1000.0)
        same_env = compare_records(current, baseline)
        assert any(d.status == "regressed" and d.metric == "batch_accesses_per_second"
                   for d in same_env)

        other = dict(baseline, environment={"python": "0.0", "cpu_count": 1})
        assert not environments_match(current, other)
        flagged = compare_records(current, other)
        assert violations(flagged) == []
        assert any(d.status == "flagged" and d.metric == "batch_accesses_per_second"
                   for d in flagged)

    def test_scenario_mismatch_never_gates(self):
        """A smoke run is not compared against a full-budget baseline."""
        deltas = compare_records(
            self._record(passed=0.0, accesses=240),
            self._record(passed=5.0, accesses=3000),
        )
        assert violations(deltas) == []
        assert all(d.status == "scenario-mismatch" for d in deltas)

    def test_report_renders_deltas_and_summary(self):
        record = self._record(passed=4.0)
        deltas = compare_records(record, self._record(passed=5.0))
        text = render_bench_report(record, deltas, baseline_path="old.json")
        assert "| `table2` | `trends_passed` |" in text
        assert "1 policy violation(s)" in text

    def test_report_without_baseline_says_so(self):
        text = render_bench_report(self._record(), None)
        assert "No baseline record found" in text


# ---------------------------------------------------------------------------
# The CLI gate (`repro bench --check`)
# ---------------------------------------------------------------------------
class TestCliGate:
    def _run(self, out, cache, *extra):
        return main([
            "bench", "--smoke", "-b", "table2", "-o", str(out),
            "--cache-dir", str(cache), *extra,
        ])

    def test_check_passes_against_own_identical_record(self, tmp_path, capsys):
        out, cache = tmp_path / "out", tmp_path / "cache"
        assert self._run(out, cache) == 0
        record_path = default_record_path(out)
        assert record_path.is_file()
        baseline = tmp_path / "BENCH_baseline.json"
        baseline.write_text(record_path.read_text())
        assert self._run(out, cache, "--check", str(baseline)) == 0
        assert "regression gate passed" in capsys.readouterr().out
        assert (out / "BENCH_REPORT.md").is_file()

    def test_check_fails_on_perturbed_baseline(self, tmp_path, capsys):
        """ISSUE acceptance: a synthetic regression makes --check exit non-zero."""
        out, cache = tmp_path / "out", tmp_path / "cache"
        assert self._run(out, cache) == 0
        record = load_record(default_record_path(out))
        # Pretend the baseline passed one more trend than we do now: any
        # drop on a deterministic zero-tolerance metric must fail the gate.
        record["benches"]["table2"]["metrics"]["trends_passed"] += 1.0
        baseline = tmp_path / "BENCH_perturbed.json"
        baseline.write_text(json.dumps(record))
        assert self._run(out, cache, "--check", str(baseline)) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.err
        assert "policy violation" in captured.err

    def test_check_without_any_baseline_is_a_pass(self, tmp_path, capsys, monkeypatch):
        # chdir away from the checkout so the committed benchmarks/BENCH_*
        # baseline is out of reach and auto-discovery genuinely finds nothing.
        monkeypatch.chdir(tmp_path)
        out, cache = tmp_path / "out", tmp_path / "cache"
        assert self._run(out, cache, "--check") == 0
        assert "no baseline" in capsys.readouterr().out.lower()

    def test_unknown_bench_key_is_a_clean_registry_error(self, tmp_path, capsys):
        code = main(["bench", "-b", "tabel2", "-o", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown benchmark" in err.lower()
        assert "table2" in err  # closest match

    def test_list_includes_the_bench_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Bench registry" in out
        assert "trace_streaming" in out


# ---------------------------------------------------------------------------
# The file-locked writer, raced from two OS processes (satellite 1)
# ---------------------------------------------------------------------------
REPO_SRC = str(REPO_ROOT / "src")

#: Merges its own key into a shared BENCH record many times in a row; the
#: lock serializes whole read-merge-write cycles, so concurrent writers can
#: lose neither their own key nor anyone else's.
MERGE_WORKER = """
import json, sys
sys.path.insert(0, %r)
from repro.bench import merge_bench_record

path, key, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
for index in range(rounds):
    merge_bench_record(path, {key: {
        "scenario": {"round": index},
        "metrics": {"value": float(index)},
        "elapsed_seconds": 0.0,
    }}, profile="race")
print(json.dumps({"key": key, "rounds": rounds}))
""" % REPO_SRC


def _spawn_merger(path, key, rounds=40):
    return subprocess.Popen(
        [sys.executable, "-c", MERGE_WORKER, str(path), key, str(rounds)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(process):
    stdout, stderr = process.communicate(timeout=300)
    assert process.returncode == 0, stderr
    return json.loads(stdout)


class TestLockedWriterRace:
    def test_two_processes_merging_distinct_keys_lose_nothing(self, tmp_path):
        path = tmp_path / "BENCH_race.json"
        rounds = 40
        workers = [
            _spawn_merger(path, "engines", rounds),
            _spawn_merger(path, "server", rounds),
        ]
        for worker in workers:
            _finish(worker)
        record = load_record(path)  # also proves the file is valid JSON
        assert set(record["benches"]) == {"engines", "server"}
        for key in ("engines", "server"):
            assert record["benches"][key]["metrics"]["value"] == float(rounds - 1)

    def test_lock_file_does_not_linger_as_registry_state(self, tmp_path):
        path = tmp_path / "BENCH_one.json"
        merge_bench_record(path, {"engines": {"scenario": {}, "metrics": {},
                                              "elapsed_seconds": 0.0}})
        # The .lock sidecar may exist, but the record itself must be the
        # only BENCH_*.json — find_baseline must never pick up lock files.
        assert [p.name for p in tmp_path.glob("BENCH_*.json")] == ["BENCH_one.json"]
