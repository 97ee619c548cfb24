"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so the trace memo in
``repro.sim.experiment`` and every import cache start cold, as they do for a
user.  It writes one JSON object to ``--out``:

* ``setup_s`` -- from just before the interpreter was started (``--t0`` on
  the shared monotonic clock) to the end of the workload's set-up;
* ``wall_s`` -- the measured phase;
* ``peak_rss_mb`` -- ``ru_maxrss`` right after the measured phase;
* ``attempted`` / ``failures`` -- the property checks, run after the timing;
* ``digest`` / ``values`` -- deterministic outputs and simulated metrics;
* ``layers`` -- per-layer metrics (``--trace 1`` only).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import RESULT_METRICS, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="stop after the set-up")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        import layers

        recorder = layers.SpanRecorder()
        layers.install(recorder)

        def call(label, fn, *fn_args):
            return recorder.call(label, False, None, fn, fn_args, {})
    else:
        def call(label, fn, *fn_args):
            return fn(*fn_args)

    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, args.workdir, call)
        workload.setup()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            args.out.write_text(json.dumps({"setup_s": setup_s}))
            return 0
        started = time.perf_counter()
        workload.measure()
        wall_s = time.perf_counter() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
        if recorder is not None:
            measured = recorder.snapshot()
            record["layers"] = dict.fromkeys(RESULT_METRICS, 0.0)
            record["layers"].update(layers.layer_metrics(measured))
            record["layers"].update(workload.traced_extras(recorder))
            record["reference_gap"] = layers.reference_accounting_gap(measured)
        attempted, failures = workload.check()
        digest, values = workload.summary()
        if recorder is not None:
            record["layers"].update((k, v) for k, v in values.items() if k in RESULT_METRICS)
        record.update(attempted=attempted, failures=failures, digest=digest, values=values)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    if recorder is not None and args.spans is not None:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        recorder.write(args.spans)
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
