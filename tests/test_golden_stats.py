"""Golden stats: exact results of every registered configuration, committed.

``golden_stats.json`` beside this module holds ``total_ipc``,
``total_cycles`` and ``memory_stats`` for every registered configuration on
mcf (the metadata-cache stressor) and lbm (the write-heavy one), at a small
fixed budget.  Both engines must reproduce every number exactly, so an
unintended model change in either engine fails here, and an intended one
shows up as a reviewed diff of the file.

Regenerate the file after an intended model change with::

    PYTHONPATH=src python tests/test_golden_stats.py
"""

import json
import sys
from pathlib import Path

import pytest

from repro.secure.configs import configuration_names
from repro.sim.experiment import ExperimentConfig, run_simulation

GOLDEN_PATH = Path(__file__).with_name("golden_stats.json")
WORKLOADS = ("mcf", "lbm")
EXPERIMENT = ExperimentConfig(num_accesses=300, num_cores=2, seed=1)


def golden_entry(result):
    """The committed fields of one result (floats round-trip exactly in JSON)."""
    return {
        "total_ipc": result.total_ipc,
        "total_cycles": result.total_cycles,
        "memory_stats": dict(sorted(result.memory_stats.items())),
    }


def generate(engine="reference"):
    """``{workload: {configuration: entry}}`` simulated now on ``engine``."""
    return {
        workload: {
            name: golden_entry(run_simulation(workload, name, EXPERIMENT, engine=engine))
            for name in configuration_names()
        }
        for workload in WORKLOADS
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_configuration(golden):
    assert sorted(golden) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        assert sorted(golden[workload]) == sorted(configuration_names())


@pytest.mark.parametrize("engine", ["reference", "batch"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_engine_reproduces_golden_stats(golden, engine, workload):
    for name in configuration_names():
        result = run_simulation(workload, name, EXPERIMENT, engine=engine)
        assert golden_entry(result) == golden[workload][name], name


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write("wrote %s\n" % GOLDEN_PATH)
