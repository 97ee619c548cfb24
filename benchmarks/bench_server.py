"""Benchmark: the HTTP experiment service vs direct in-process dispatch.

Thin pytest wrapper over the registered ``server``
:class:`repro.bench.BenchSpec`, which starts a real ``repro.server`` stack
(ExperimentService + ThreadingHTTPServer on an ephemeral port) and measures
what the transport costs on top of the work itself:

* **submissions/sec** — how fast ``POST /jobs`` validates + persists +
  enqueues a compare spec (the queue is drained afterwards, so this times
  submission alone);
* **warm end-to-end latency** — submit → SSE-complete → ``GET /result`` for
  a fully cached comparison, against the same comparison run directly
  through ``run_comparison`` on the same warm cache. The difference is pure
  service overhead (HTTP + queue + job store), because neither side
  simulates anything.

The test asserts the service's headline contract: the bytes served by
``GET /jobs/{id}/result`` equal
``dump_payload(run_comparison(...).to_payload())`` (``result_parity``).
``repro bench -b server --out DIR [--check]`` records the same entry.

Scale with ``REPRO_BENCH_SERVER_ACCESSES`` (default 400) and
``REPRO_BENCH_SERVER_SUBMISSIONS`` (default 50).
"""

from __future__ import annotations

import os

from repro.bench import BenchContext, get_bench

ACCESSES = int(os.environ.get("REPRO_BENCH_SERVER_ACCESSES") or 400)
SUBMISSIONS = int(os.environ.get("REPRO_BENCH_SERVER_SUBMISSIONS") or 50)
ROUNDS = 3


def test_server_transport_and_result_parity():
    entry = get_bench("server").measure(BenchContext(
        rounds=ROUNDS,
        server_accesses=ACCESSES,
        server_submissions=SUBMISSIONS,
    ))
    print("warm e2e %.3fs (+%.3fs transport); %.0f submissions/s"
          % (entry.metrics["warm_e2e_seconds"],
             entry.metrics["transport_overhead_seconds"],
             entry.metrics["submissions_per_second"]))
    assert entry.metrics["result_parity"] == 1.0, (
        "HTTP result bytes differ from the in-process comparison"
    )
