"""Self-test of the benchmark, at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload in ``BENCHMARK.json`` it checks that the untraced run
emits exactly the end-to-end metrics and the traced run exactly the
per-layer metrics, that the outputs pass their correctness checks, and that
deterministic metrics repeat across two traced runs of one seed.  It also
checks that another seed changes Figure 6's paper deltas.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LINE = re.compile(r"^  (\S+)\s+(\S+)\s+(\S+)$")
#: Simulated outputs and call counts: equal for equal seeds by construction.
DETERMINISTIC = re.compile(
    r"^(paper_gap_.*|model\..*|.*\.calls|crypto\.aes\.blocks|cache\.md_hit_ratio"
    r"|fuzz\.detect_ratio|runner\.warm_hit_ratio)$"
)


def _run(workload: str, seed: int, trace: int):
    """(result JSON, {metric: printed value}) of one tiny benchmark run."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(command), completed.returncode, completed.stderr))
    lines = completed.stdout.strip().splitlines()
    printed = {m.group(1): m.group(2) for m in map(LINE.match, lines[:-1]) if m}
    return json.loads(lines[-1]), printed


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {entry["name"] for entry in spec["end_to_end"]}
    per_layer = {entry["name"] for entry in spec["per_layer"]}
    try:
        for workload in (entry["name"] for entry in spec["workloads"]):
            result, _ = _run(workload, 1, 0)
            _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "%s: result keys" % workload)
            _expect(set(result["metrics"]) == end_to_end, "%s: end-to-end metrics %s"
                    % (workload, sorted(result["metrics"])))
            _expect(result["correct"] and result["failed"] == 0, "%s: checks failed" % workload)
            first, printed_first = _run(workload, 1, 1)
            second, printed_second = _run(workload, 1, 1)
            _expect(set(first["metrics"]) == per_layer, "%s: per-layer metrics" % workload)
            _expect(first["correct"] and second["correct"], "%s: traced checks failed" % workload)
            for name in filter(DETERMINISTIC.match, printed_first):
                _expect(printed_first[name] == printed_second.get(name), "%s: %s differs between runs (%s, %s)"
                        % (workload, name, printed_first[name], printed_second.get(name)))
            print("ok  %s" % workload)
        _, seed1 = _run("fig6-batch", 1, 0)
        _, seed2 = _run("fig6-batch", 2, 0)
        for name in ("paper_gap_ctr_pp", "paper_gap_xts_pp"):
            _expect(seed1[name] != seed2[name], "fig6-batch: %s does not depend on the seed" % name)
        print("ok  fig6 deltas depend on the seed")
    except AssertionError as failure:
        print("FAILED: %s" % failure)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
