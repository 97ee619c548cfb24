"""Benchmark entry point: run one workload for a fixed time and report it.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig6-batch --seed 1 --seconds 40 --trace 0

Each repetition runs in a fresh interpreter (``perfbench/job.py``) with
``jobs=1``, one after another, until ``--seconds`` would be exceeded; at
least one repetition always runs.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json`` as medians over the repetitions.  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics (medians over the traced ones) plus ``trace.overhead_ratio``.

Standard output carries a readable report -- every metric by name with its
unit, including the simulated-only ones (``sim_minst_per_s``, the paper
gaps, ``error_rate``) -- and, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
program's sources (``src/repro``) the benchmark exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
#: A repetition that runs longer than this is killed and counted as failed.
REPETITION_TIMEOUT_S = 60.0
#: Set-up-only interpreters started before the repetitions; ``setup_s`` is
#: the median over these and every repetition's own set-up.
SETUP_SAMPLES = 5
#: Metrics printed beside the end-to-end ones, where the workload has them.
REPORTED = {
    "sim_minst_per_s": "Minst/s",
    "paper_gap_ctr_pp": "pp",
    "paper_gap_xts_pp": "pp",
}


def _fail(message: str) -> int:
    print("perfbench: %s" % message, file=sys.stderr)
    return 2


def _child_env():
    env = dict(os.environ)
    # Results must not come from a user's warm cache.
    env.pop("REPRO_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def _repetition(args, run_dir: Path, index: int, traced: bool, setup_only: bool = False):
    """Run one repetition in a fresh interpreter; returns its record or None."""
    out = run_dir / ("result-%d.json" % index)
    command = [
        sys.executable, str(HERE / "job.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(traced)),
        "--workdir", str(run_dir / ("rep-%d" % index)), "--out", str(out),
        "--spans", str(WORK / "spans" / ("%s.jsonl" % args.workload)),
    ]
    if args.tiny:
        command.append("--tiny")
    if setup_only:
        command.append("--setup-only")
    t0 = time.monotonic()
    process = subprocess.Popen(command + ["--t0", repr(t0)], stdout=sys.stderr, env=_child_env(), cwd=ROOT)
    try:
        code = process.wait(timeout=REPETITION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0 or not out.exists():
        print("perfbench: repetition %d exited with %s" % (index, code), file=sys.stderr)
        return None
    record = json.loads(out.read_text())
    record["traced"] = traced
    if setup_only:
        return record
    print("perfbench: repetition %d%s: setup_s %.4f  wall_s %.4f  peak_rss_mb %.1f"
          % (index, " (traced)" if traced else "", record["setup_s"], record["wall_s"], record["peak_rss_mb"]),
          file=sys.stderr)
    return record


def _run_repetitions(args, run_dir: Path):
    """Set-up samples, then repetitions until the next would overrun ``--seconds``."""
    deadline = time.monotonic() + args.seconds
    setups = [_repetition(args, run_dir, -1 - n, False, setup_only=True) for n in range(SETUP_SAMPLES)]
    group = 2 if args.trace else 1
    records, index = [], 0
    while True:
        started = time.monotonic()
        for traced in ((False, True) if args.trace else (False,)):
            records.append(_repetition(args, run_dir, index, traced))
            index += 1
        per_group = time.monotonic() - started
        if time.monotonic() + per_group > deadline or len(records) >= 64 * group:
            return [record["setup_s"] for record in setups if record is not None], records


def _median(records, key):
    return statistics.median(record[key] for record in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="SecDDR reproduction benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail("no program sources at %s" % (ROOT / "src" / "repro"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in spec["workloads"]]
    if args.workload not in workloads:
        return _fail("unknown workload %r (known: %s)" % (args.workload, ", ".join(workloads)))

    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    # Byte-compile once, outside any timing, as an installed package would be.
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        stdout=subprocess.DEVNULL, env=_child_env(),
    )
    if compiled.returncode != 0:
        return _fail("byte-compiling the sources failed")

    run_dir = WORK / ("run-%d" % os.getpid())
    run_dir.mkdir()
    try:
        setups, records = _run_repetitions(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    done = [record for record in records if record is not None]
    if not done:
        return _fail("every repetition failed")
    failures = ["repetition crashed"] * (len(records) - len(done))
    failures += [message for record in done for message in record["failures"]]
    if len({record["digest"] for record in done}) > 1:
        failures.append("outputs differ between repetitions of seed %d" % args.seed)
    if any(record.get("reference_gap", 0.0) > 0.01 for record in done):
        failures.append("reference-engine layer self times do not add up to the engine time")
    # Items: every job and check of every repetition, each crashed
    # repetition, and the two cross-repetition checks above.
    attempted = sum(record["attempted"] for record in done) + len(records) - len(done) + 2
    untraced = [record for record in done if not record["traced"]] or done
    traced = [record for record in done if record["traced"]]

    units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"] + spec["per_layer"]}
    values = {
        "setup_s": statistics.median(setups + [record["setup_s"] for record in untraced]),
        "wall_s": _median(untraced, "wall_s"),
        "peak_rss_mb": _median(untraced, "peak_rss_mb"),
    }
    reported = dict(values)
    reported["error_rate"] = len(failures) / attempted
    simulated = untraced[0]["values"]
    if "sim_minst" in simulated:
        reported["sim_minst_per_s"] = statistics.median(
            record["values"]["sim_minst"] / record["wall_s"] for record in untraced
        )
    for name in ("paper_gap_ctr_pp", "paper_gap_xts_pp"):
        if name in simulated:
            reported[name] = simulated[name]
    if args.trace:
        if not traced:
            return _fail("no traced repetition completed")
        names = [entry["name"] for entry in spec["per_layer"]]
        layer_values = {}
        for name in names:
            samples = [record["layers"].get(name) for record in traced]
            if name == "trace.overhead_ratio":
                layer_values[name] = _median(traced, "wall_s") / values["wall_s"]
            elif None in samples:
                return _fail("per-layer metric %s was not computed" % name)
            else:
                layer_values[name] = statistics.median(samples)
        metrics = {name: {"value": layer_values[name], "unit": units[name]} for name in names}
    else:
        metrics = {
            entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in spec["end_to_end"]
        }

    print("perfbench %s  seed=%d  repetitions=%d untraced, %d traced  (fresh interpreter each, jobs=1)"
          % (args.workload, args.seed, len(untraced), len(traced)))
    units.update(REPORTED, error_rate="ratio")
    for name, value in reported.items():
        print("  %-44s %-14.6g %s" % (name, value, units[name]))
    if args.trace:
        print("  per-layer (median of traced repetitions):")
        for name, entry in metrics.items():
            print("  %-44s %-14.6g %s" % (name, entry["value"], entry["unit"]))
    for message in failures:
        print("  FAILED: %s" % message)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
