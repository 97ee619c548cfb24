"""Layer-boundary spans for the benchmark's traced runs.

A traced run wraps the public method or function at each layer boundary of
``src/repro`` from here, so the program's own files stay untouched.  Every
call through a wrapped boundary records one span (label, start, end, parent
span, run id) in memory; :meth:`SpanRecorder.write` dumps them as JSON lines
once the run is over.  A layer's *self* time is its spans' duration minus
the time covered by the child spans they contain.

Functions that callers import by name (``from repro.core.attestation import
attest_and_provision``) are rebound in every loaded ``repro`` module that
holds them, or calls through the caller's own binding would escape the span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

#: The reference engine's object-model layers, in call order.
REFERENCE_LAYERS = ("cpu", "secure", "cache", "controller", "dram")
BATCH_MODES = ("plain", "meta", "walk")


def _batch_label(args) -> str:
    """``engines.batch.<mode>``: how the batch engine replays this configuration.

    Mirrors the engine's own dispatch: tree mechanisms walk the integrity
    tree, counter-mode encryption reads one counter line per access, and
    everything else (XTS, the TDX-like baseline) has no metadata traffic.
    """
    spec = args[2]
    if spec.mechanism in ("tree", "hash_tree"):
        return "engines.batch.walk"
    if spec.encryption.name == "COUNTER":
        return "engines.batch.meta"
    return "engines.batch.plain"


def _accesses(result) -> int:
    """Demand accesses a simulation replayed (all cores)."""
    return int(result.stat("demand_reads") + result.stat("demand_writes"))


#: (label, module, attribute, opens a job, work units of one call's result).
#: A "job" is one simulation, fuzz scenario, or functional memory system; the
#: spans under it share a run id.
BOUNDARIES = (
    ("workloads", "repro.workloads.registry", "build_workload", False, None),
    ("job", "repro.sim.experiment", "run_simulation", True, None),
    (_batch_label, "repro.sim.engines", "BatchEngine.simulate", False, _accesses),
    ("engines.reference", "repro.sim.engines", "ReferenceEngine.simulate", False, _accesses),
    ("runner", "repro.sim.runner", "ParallelRunner.run", False, None),
    ("runner.cache_get", "repro.sim.runner", "ResultCache.get", False, None),
    ("runner.cache_put", "repro.sim.runner", "ResultCache.put", False, None),
    ("cpu", "repro.cpu.core", "Core.step", False, None),
    ("secure", "repro.secure.base", "SecureMemorySystem.read", False, None),
    ("secure", "repro.secure.base", "SecureMemorySystem.write", False, None),
    ("cache", "repro.cache.metadata_cache", "MetadataCache.access", False, None),
    ("cache", "repro.cache.metadata_cache", "MetadataCache.traverse_until_hit", False, None),
    ("controller", "repro.controller.memory_controller", "MemoryController.service_read", False, None),
    ("controller", "repro.controller.memory_controller", "MemoryController.enqueue_write", False, None),
    ("controller", "repro.controller.memory_controller", "MemoryController.flush", False, None),
    ("controller", "repro.controller.scheduler", "FRFCFSScheduler.pick_next", False, None),
    ("dram", "repro.dram.channel", "Channel.access", False, None),
    ("dram", "repro.dram.channel", "Channel.maybe_refresh", False, None),
    ("crypto.aes", "repro.crypto.aes", "AES128.encrypt_block", False, None),
    ("crypto.aes", "repro.crypto.aes", "AES128.decrypt_block", False, None),
    ("crypto.mac", "repro.crypto.mac", "cmac_aes128", False, None),
    ("crypto.mac", "repro.crypto.mac", "hmac_sha256", False, None),
    ("crypto.mac", "repro.crypto.mac", "line_mac", False, None),
    ("crypto.modes", "repro.crypto.modes", "aes_ctr_keystream", False, None),
    ("crypto.modes", "repro.crypto.modes", "ctr_encrypt", False, None),
    ("crypto.modes", "repro.crypto.modes", "ctr_decrypt", False, None),
    ("crypto.modes", "repro.crypto.modes", "xts_encrypt", False, None),
    ("crypto.modes", "repro.crypto.modes", "xts_decrypt", False, None),
    ("crypto.modes", "repro.crypto.modes", "one_time_pad", False, None),
    ("crypto.keyexchange", "repro.crypto.keyexchange", "authenticated_key_exchange", False, None),
    ("crypto.keyexchange", "repro.crypto.keyexchange", "EndorsementKeyPair.generate", False, None),
    ("core.init", "repro.core.memory_system", "FunctionalMemorySystem.__init__", True, None),
    ("core.attest", "repro.core.attestation", "attest_and_provision", False, None),
    ("core.write", "repro.core.memory_system", "FunctionalMemorySystem.write", False, None),
    ("core.read", "repro.core.memory_system", "FunctionalMemorySystem.read", False, None),
    ("attacks", "repro.attacks.campaign", "run_standard_campaign", False, None),
    ("fuzz.generate", "repro.fuzz.scenario", "ScenarioGenerator.generate_many", False, None),
    ("fuzz.run_scenario", "repro.fuzz.oracles", "run_scenario", True, None),
    ("fuzz.shrink", "repro.fuzz.shrink", "shrink_scenario", False, None),
)


class SpanRecorder:
    """In-memory spans plus per-label self time, inclusive time and call counts."""

    def __init__(self) -> None:
        #: (label, start, end, parent span index or -1, run id)
        self.spans = []
        self.self_s = defaultdict(float)
        #: Inclusive time of the outermost span of each label (no double
        #: counting when a label nests inside itself).
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.run_id = 0
        self._stack = []  # [span index, child seconds]
        self._open = defaultdict(int)
        self._jobs_open = 0

    def call(self, label, opens_job, work, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span labelled ``label``."""
        stack = self._stack
        index = len(self.spans)
        self.spans.append(None)
        parent = stack[-1][0] if stack else -1
        if opens_job:
            if not self._jobs_open:
                self.run_id += 1
            self._jobs_open += 1
        run_id = self.run_id
        frame = [index, 0.0]
        stack.append(frame)
        self._open[label] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            elapsed = end - start
            self.self_s[label] += elapsed - frame[1]
            self.calls[label] += 1
            self._open[label] -= 1
            if not self._open[label]:
                self.total_s[label] += elapsed
            if stack:
                stack[-1][1] += elapsed
            if opens_job:
                self._jobs_open -= 1
            self.spans[index] = (label, start, end, parent, run_id)
        if work is not None:
            self.work[label] += work(result)
        return result

    def snapshot(self):
        """A copy of the aggregates, for per-phase differences."""
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "work": dict(self.work),
        }

    def write(self, path) -> None:
        """Dump every span as one JSON line: name, start, end, parent, run."""
        with open(path, "w") as handle:
            for label, start, end, parent, run_id in self.spans:
                handle.write(json.dumps(
                    {"name": label, "start": start, "end": end, "parent": parent, "run": run_id}
                ) + "\n")


def _wrapper(recorder, label, opens_job, work, fn):
    if callable(label):
        choose = label

        def wrapped(*args, **kwargs):
            return recorder.call(choose(args), opens_job, work, fn, args, kwargs)
    else:
        def wrapped(*args, **kwargs):
            return recorder.call(label, opens_job, work, fn, args, kwargs)
    wrapped.__name__ = getattr(fn, "__name__", "wrapped")
    wrapped.__qualname__ = getattr(fn, "__qualname__", wrapped.__name__)
    wrapped.__doc__ = fn.__doc__
    wrapped.__wrapped__ = fn
    return wrapped


def install(recorder: SpanRecorder) -> None:
    """Wrap every boundary in :data:`BOUNDARIES` so its calls record spans."""
    # Import the entry packages first: the by-name bindings they create are
    # what the sweep below rebinds.
    for package in ("repro.figures", "repro.sim", "repro.fuzz", "repro.attacks"):
        importlib.import_module(package)
    for label, module_name, attribute, opens_job, work in BOUNDARIES:
        owner = importlib.import_module(module_name)
        name = attribute
        if "." in attribute:
            class_name, name = attribute.split(".")
            owner = getattr(owner, class_name)
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(_wrapper(recorder, label, opens_job, work, raw.__func__)))
            continue
        wrapped = _wrapper(recorder, label, opens_job, work, raw)
        setattr(owner, name, wrapped)
        if inspect.isclass(owner):
            continue
        for module_key, module in list(sys.modules.items()):
            if module_key.startswith("repro") and module is not None:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)


def _delta(after, before, kind, label):
    return after[kind].get(label, 0) - before[kind].get(label, 0)


def layer_metrics(after, before=None):
    """Per-layer metrics from two :meth:`SpanRecorder.snapshot` values.

    Layers a workload never enters read 0, which is the prediction for a
    workload that bypasses them.
    """
    before = before or {"self_s": {}, "total_s": {}, "calls": {}, "work": {}}

    def self_s(label):
        return _delta(after, before, "self_s", label)

    def total_s(label):
        return _delta(after, before, "total_s", label)

    def calls(label):
        return _delta(after, before, "calls", label)

    metrics = {}
    for mode in BATCH_MODES:
        label = "engines.batch." + mode
        seconds = total_s(label)
        metrics[label + "_s"] = seconds
        metrics[label + "_acc_per_s"] = _delta(after, before, "work", label) / seconds if seconds else 0.0
    metrics["workloads.build_s"] = total_s("workloads")
    metrics["workloads.build_calls"] = calls("workloads")
    metrics["runner.self_s"] = self_s("runner")
    metrics["figures.build_s"] = total_s("figures")
    reference_total = sum(self_s(layer) for layer in REFERENCE_LAYERS + ("engines.reference",))
    for layer in REFERENCE_LAYERS:
        metrics[layer + ".self_s"] = self_s(layer)
        metrics[layer + ".calls"] = calls(layer)
        metrics[layer + ".share"] = self_s(layer) / reference_total if reference_total else 0.0
    metrics["engines.reference.self_s"] = self_s("engines.reference")
    blocks = calls("crypto.aes")
    metrics["crypto.aes.self_s"] = self_s("crypto.aes")
    metrics["crypto.aes.blocks"] = blocks
    metrics["crypto.aes.us_per_block"] = 1e6 * self_s("crypto.aes") / blocks if blocks else 0.0
    metrics["crypto.mac.self_s"] = self_s("crypto.mac")
    metrics["crypto.modes.self_s"] = self_s("crypto.modes")
    for label in ("crypto.keyexchange", "core.attest", "core.write", "core.read"):
        metrics[label + ".self_s"] = self_s(label)
        metrics[label + ".calls"] = calls(label)
    metrics["attacks.campaign_s"] = total_s("attacks")
    metrics["fuzz.generate_s"] = total_s("fuzz.generate")
    metrics["fuzz.run_scenario_s"] = total_s("fuzz.run_scenario")
    metrics["fuzz.shrink_s"] = total_s("fuzz.shrink")
    return metrics


def reference_accounting_gap(snapshot) -> float:
    """Share of reference-engine time the five layers plus the remainder miss.

    Zero when every object-model call ran inside ``ReferenceEngine.simulate``.
    """
    engine = snapshot["total_s"].get("engines.reference", 0.0)
    if not engine:
        return 0.0
    parts = sum(snapshot["self_s"].get(layer, 0.0) for layer in REFERENCE_LAYERS + ("engines.reference",))
    return abs(parts - engine) / engine
