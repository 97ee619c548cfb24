"""Simulation engines: interchangeable executors for one (workload, config) run.

The reference engine advances the cycle-level object model one access at a
time (:mod:`repro.cpu.core` -> :mod:`repro.secure.base` -> :mod:`repro.dram`).
The batch engine turns whole trace chunks into a replay plan computed with
numpy -- vectorized DRAM address decode
(:meth:`repro.dram.address_mapping.AddressMapping.decode_arrays`),
metadata-cache set/tag columns, prefetcher decisions -- built once per trace
and shared by every model that replays it, then replays the flattened state
machine, one generator kernel per core, without allocating a single
per-access object.

Both engines are registered in :data:`ENGINES` and selected by the
``engine=`` parameter threaded through :func:`repro.sim.experiment.run_simulation`,
:class:`repro.sim.runner.ParallelRunner`, :class:`repro.api.Session`, the
figure pipeline and the CLI ``--engine`` flag.

Parity contract: an engine with ``parity_verified = True`` promises
bit-identical :class:`~repro.sim.results.SimulationResult` values (IPC,
cycles, every stats key) for every registered mechanism; the test suite
enforces this across seeded and Hypothesis-generated traces, and the result
cache exploits it by sharing cache keys between parity-verified engines.
Engines that are not parity-verified get their name folded into the cache
key instead.
"""

from __future__ import annotations

import weakref
from collections import deque
from itertools import repeat, tee
from math import nextafter
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from repro.errors import UnknownEngineError
from repro.obs import timeline as obs_timeline
from repro.obs import tracing as obs_tracing

__all__ = [
    "Engine",
    "EngineRegistry",
    "EngineLike",
    "ENGINES",
    "DEFAULT_ENGINE",
    "engine_names",
    "resolve_engine",
    "engine_cache_token",
    "register_engine",
    "ReferenceEngine",
    "BatchEngine",
    "BatchEngineUnsupported",
]

#: Engine used everywhere an ``engine=`` parameter is omitted.
DEFAULT_ENGINE = "reference"


class BatchEngineUnsupported(ValueError):
    """The batch engine cannot model this configuration exactly.

    Raised for user-registered mechanism factories the vectorized fast path
    knows nothing about; rerun with ``engine="reference"``.
    """


class Engine:
    """Base class for simulation engines.

    Subclasses set the class attributes and implement :meth:`simulate`,
    receiving an already-resolved trace object, a
    :class:`~repro.secure.configs.SystemConfiguration` spec and an
    :class:`~repro.sim.experiment.ExperimentConfig`, and returning a
    :class:`~repro.sim.results.SimulationResult`.
    """

    #: Registry key and CLI ``--engine`` value.
    name: str = "abstract"
    #: Whether the engine consumes traces as whole numpy chunks.
    vectorized: bool = False
    #: Whether the engine promises results identical to the reference model
    #: (parity-verified engines share result-cache entries).
    parity_verified: bool = False
    description: str = ""

    def simulate(self, trace, spec, experiment):
        raise NotImplementedError

    def model_key(self, spec):
        """A hashable value equal for specs this engine simulates identically.

        :class:`~repro.sim.runner.ParallelRunner` simulates jobs with an
        equal workload, experiment and model key once per run and renames
        the result for the others.  ``None`` (the default) opts out.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return "<%s %r>" % (type(self).__name__, self.name)


#: Anything the execution layer accepts as "an engine".
EngineLike = Union[str, Engine]


class EngineRegistry:
    """Named engines, with closest-match errors for unknown names."""

    def __init__(self) -> None:
        self._engines: Dict[str, Engine] = {}

    def register(self, engine: Engine, replace: bool = False) -> Engine:
        """Register ``engine`` under ``engine.name``; returns it for chaining."""
        if not isinstance(engine, Engine):
            raise TypeError("expected an Engine instance, got %r" % (engine,))
        if engine.name in self._engines and not replace:
            raise ValueError(
                "engine %r is already registered (pass replace=True to override)"
                % engine.name
            )
        self._engines[engine.name] = engine
        return engine

    def names(self) -> List[str]:
        """Registered engine names, in registration order."""
        return list(self._engines)

    def get(self, name: str) -> Engine:
        """The engine registered under ``name`` (closest-match error if unknown)."""
        try:
            return self._engines[name]
        except KeyError:
            raise UnknownEngineError(name, self.names()) from None

    def resolve(self, engine: Optional[EngineLike]) -> Engine:
        """Accept an engine name, an Engine instance, or None (the default)."""
        if engine is None:
            return self.get(DEFAULT_ENGINE)
        if isinstance(engine, Engine):
            return engine
        return self.get(engine)

    def __contains__(self, name: object) -> bool:
        return name in self._engines

    def __iter__(self) -> Iterator[Engine]:
        return iter(self._engines.values())

    def __len__(self) -> int:
        return len(self._engines)


#: The default registry, holding the built-in "reference" and "batch" engines.
ENGINES = EngineRegistry()


def engine_names() -> List[str]:
    """Names of all registered engines."""
    return ENGINES.names()


def resolve_engine(engine: Optional[EngineLike] = None) -> Engine:
    """Resolve an engine name/instance/None against the default registry."""
    return ENGINES.resolve(engine)


def register_engine(engine: Engine, replace: bool = False) -> Engine:
    """Register a custom engine in the default registry."""
    return ENGINES.register(engine, replace=replace)


def engine_cache_token(engine: Optional[EngineLike]) -> Optional[str]:
    """The result-cache discriminator for ``engine``.

    ``None`` for parity-verified engines -- their results are identical to
    the reference model by contract, so they share cache entries (a warm
    reference cache serves batch runs and vice versa).  Non-parity engines
    return their name, which the runner folds into the cache key.
    """
    try:
        resolved = resolve_engine(engine)
    except UnknownEngineError:
        # An unknown name still poisons the key; execution will raise later.
        return engine if isinstance(engine, str) else None
    return None if resolved.parity_verified else resolved.name


# ---------------------------------------------------------------------------
# Reference engine: the per-access object model
# ---------------------------------------------------------------------------
class ReferenceEngine(Engine):
    """Per-access object model (cores -> secure memory -> DRAM objects)."""

    name = "reference"
    vectorized = False
    parity_verified = True  # it *is* the parity baseline
    description = "Cycle-level object model; one Python object dance per access"

    def simulate(self, trace, spec, experiment):
        from repro.cpu.core import CoreConfig
        from repro.cpu.system import System, SystemConfig
        from repro.secure.configs import build_configuration
        from repro.sim.results import SimulationResult

        memory = build_configuration(
            spec, metadata_cache_bytes=experiment.metadata_cache_bytes
        )
        core_config = CoreConfig(
            issue_width=experiment.issue_width,
            rob_entries=experiment.rob_entries,
            mshr_entries=experiment.mshr_entries,
            cpu_freq_mhz=experiment.cpu_freq_mhz,
            dram_freq_mhz=spec.timing.freq_mhz,
        )
        system = System(
            trace,
            memory,
            SystemConfig(
                num_cores=experiment.num_cores,
                core=core_config,
                enable_prefetcher=experiment.enable_prefetcher,
            ),
        )
        timeline = obs_timeline.current_timeline()
        series = None
        window = 0
        if timeline is not None:
            series = timeline.series(
                workload=trace.name, configuration=spec.name, engine=self.name
            )
            window = timeline.window
            memory._timeline_series = series
        result = system.run(timeline_series=series, timeline_window=window)
        memory.note_instructions(result.total_instructions)
        memory.finish()
        stats = memory.collect_stats()
        return SimulationResult(
            workload=trace.name,
            configuration=spec.name,
            total_ipc=result.total_ipc,
            total_instructions=result.total_instructions,
            total_cycles=result.total_cycles,
            average_read_latency_cycles=result.average_read_latency,
            memory_stats=stats,
        )


# ---------------------------------------------------------------------------
# Batch engine: chunk-array precompute + flat replay loop
# ---------------------------------------------------------------------------
_MODE_PLAIN = 0  # no metadata traffic; constant critical-path latency
_MODE_META = 1  # one metadata-line access per read (counter-mode encryption)
_MODE_WALK = 2  # metadata line + integrity-tree walk on a miss


class BatchEngine(Engine):
    """Vectorized chunk-at-a-time engine with exact reference parity.

    Per chunk, everything stateless is computed with numpy into a replay
    plan: issue deltas (``gap / issue_width``), DRAM coordinates of data
    addresses, the stream prefetcher's decisions and metadata-cache set/tag
    pairs.  The plan of an in-memory trace is built once and shared by
    every model that replays it.  One generator kernel per core then
    replays the stateful parts (ROB/MSHR stalls, LRU metadata cache,
    FR-FCFS write drains, DDR bank/rank/bus constraints) with plain ints,
    lists and dicts -- no ``MemoryRequest`` or ``DecodedAddress`` objects.
    """

    name = "batch"
    vectorized = True
    parity_verified = True
    description = "Chunk-array precompute + flat replay loop (exact parity)"

    def simulate(self, trace, spec, experiment):
        return _simulate_batch(trace, spec, experiment)

    def model_key(self, spec):
        """The spec's batch model (:func:`_batch_model`); None if unsupported."""
        try:
            return _batch_model(spec)
        except BatchEngineUnsupported:
            return None


def _batch_mode(spec, layout, crypto_latency: int):
    """Map a configuration spec onto the batch engine's mode parameters.

    Returns ``(mode, extra_hit, extra_miss, meta_base, meta_per_line,
    tree_geometry)`` mirroring how
    :func:`repro.secure.configs.build_configuration` dispatches on
    ``spec.mechanism`` / ``spec.encryption``.
    """
    from repro.secure.encryption import EncryptionMode
    from repro.secure.integrity_tree import TreeGeometry, hash_merkle_tree_geometry
    from repro.secure.configs import PROTECTED_MEMORY_BYTES

    crypto = float(crypto_latency)
    mech = spec.mechanism
    enc = spec.encryption
    if mech in ("none", "tdx_baseline", "secddr", "invisimem"):
        # InvisiMem pays 2x MAC latency on every read's critical path.
        mac_overhead = 2.0 * crypto_latency if mech == "invisimem" else 0.0
        if enc is EncryptionMode.COUNTER:
            return (
                _MODE_META,
                0.0 + mac_overhead,
                crypto + mac_overhead,
                layout.counter_region_base,
                spec.counters_per_line,
                None,
            )
        if enc is EncryptionMode.XTS or mech in ("secddr", "invisimem"):
            # SecDDR/InvisiMem treat any non-counter mode as XTS.
            extra = crypto + mac_overhead
            return (_MODE_PLAIN, extra, extra, 0, 1, None)
        return (_MODE_PLAIN, 0.0, 0.0, 0, 1, None)
    if mech == "tree":
        counters_per_line = spec.counters_per_line
        data_lines = max(1, PROTECTED_MEMORY_BYTES // 64)
        counter_lines = (data_lines + counters_per_line - 1) // counters_per_line
        return (
            _MODE_WALK,
            0.0,
            crypto,
            layout.counter_region_base,
            counters_per_line,
            TreeGeometry.build(spec.tree_arity or 64, counter_lines),
        )
    if mech == "hash_tree":
        geometry = hash_merkle_tree_geometry(
            PROTECTED_MEMORY_BYTES, arity=spec.tree_arity or 8, macs_per_line=8
        )
        # XTS latency is paid regardless of the MAC-line cache outcome.
        return (_MODE_WALK, crypto, crypto, layout.mac_region_base, 8, geometry)
    raise BatchEngineUnsupported(
        "the batch engine has no vectorized model for mechanism %r; "
        "run it with engine=\"reference\"" % mech
    )


def _batch_model(spec):
    """Everything :func:`_simulate_batch` reads from ``spec`` but its name.

    ``(mode parameters, DDR timing, write-burst override)``, hashable.  The
    engine consumes exactly this value, so two specs with equal models
    simulate identically -- :meth:`BatchEngine.model_key` hands it to the
    runner, which simulates such specs once.  Raises
    :class:`BatchEngineUnsupported` for mechanisms with no batch model.
    """
    from repro.secure.base import MetadataLayout
    from repro.secure.configs import CRYPTO_LATENCY_CPU_CYCLES

    mode = _batch_mode(spec, MetadataLayout(), CRYPTO_LATENCY_CPU_CYCLES)
    return mode, spec.timing, spec.write_burst_cycles


# ---------------------------------------------------------------------------
# Batch engine, part 1: the replay plan
# ---------------------------------------------------------------------------
#: Replay plans of in-memory traces, ``trace -> {plan key: chunk list}``.  The
#: keys are weak, so a trace's plans live exactly as long as the trace; a
#: streamed (chunked) trace never gets an entry.
_PLANS = weakref.WeakKeyDictionary()

#: Stands in for a column the replay does not read (prefetch decisions with
#: the prefetcher off, metadata columns in plain mode).  Stateless, so one
#: instance serves every ``zip``.
_NONE_COLUMN = repeat(None)
_NO_META = (_NONE_COLUMN, _NONE_COLUMN)

#: Sort key of a write-queue entry by arrival cycle.
_ARRIVAL = itemgetter(1)

#: Scheduler bounds no issue cycle reaches / every issue cycle stays below.
_NEVER = float("-inf")
_FOREVER = float("inf")


def _mapping_key(mapping):
    """Everything :func:`_decode_columns` and :func:`_scalar_decoder` read."""
    return (
        mapping.line_bytes, mapping.channels, mapping.ranks, mapping.bank_groups,
        mapping.banks_per_group, mapping.rows, mapping.columns_per_row,
    )


def _decode_columns(mapping, addrs_a):
    """``(flat bank, rank * bank_groups + group, rank, row)`` arrays of an array."""
    decoded = mapping.decode_arrays(addrs_a)
    rg_a = decoded.rank * mapping.bank_groups + decoded.bank_group
    return rg_a * mapping.banks_per_group + decoded.bank, rg_a, decoded.rank, decoded.row


def _scalar_decoder(mapping):
    """Scalar twin of :func:`_decode_columns` (matches ``mapping.decode()``).

    For addresses only known mid-replay: tree nodes, cache-writeback victims
    and the metadata lines of prefetched data.
    """
    off_bits = (mapping.line_bytes - 1).bit_length()
    ch_bits = (mapping.channels - 1).bit_length()
    bg_bits = (mapping.bank_groups - 1).bit_length()
    bk_bits = (mapping.banks_per_group - 1).bit_length()
    col_bits = (mapping.columns_per_row - 1).bit_length()
    rk_bits = (mapping.ranks - 1).bit_length()
    num_bg = mapping.bank_groups
    num_bpg = mapping.banks_per_group
    bg_mask = num_bg - 1
    bk_mask = num_bpg - 1
    rk_mask = mapping.ranks - 1
    row_mask = mapping.rows - 1

    def dec(address):
        bits = address >> off_bits
        bits >>= ch_bits
        group = bits & bg_mask
        bits >>= bg_bits
        bank = bits & bk_mask
        bits >>= bk_bits
        bits >>= col_bits
        rank = bits & rk_mask
        bits >>= rk_bits
        rg = rank * num_bg + group
        return rg * num_bpg + bank, rg, rank, bits & row_mask

    return dec


def _chunk_arrays(chunk_iter):
    """``(addresses, gaps, writes)`` int64 arrays per non-empty chunk of a stream."""
    for gaps_a, writes_a, addrs_a in chunk_iter:
        if len(gaps_a):
            yield (
                np.ascontiguousarray(addrs_a, dtype=np.int64),
                np.ascontiguousarray(gaps_a, dtype=np.int64),
                np.ascontiguousarray(writes_a, dtype=np.int64),
            )


def _core_plan(chunks, mapping, issue_width, prefetcher):
    """One core's replay columns, chunk by chunk.

    Yields a list of columns: gaps, issue deltas (``gap / issue_width``),
    write flags, addresses, flat banks, rank-groups, ranks, rows and
    prefetch decisions.  The stream prefetcher is per core and trains on
    that core's reads only, so its decisions are a function of the trace:
    ``prefetch`` holds, per access, None (nothing to do), True (an earlier
    prefetch covers this read) or a list of decoded targets ``[address,
    flat bank, rank-group, rank, row]`` to prefetch before the demand read.
    ``prefetcher`` is ``(train threshold, degree, max outstanding)``, or
    None when it is off (``prefetch`` is then all None).
    """
    if prefetcher is not None:
        threshold, degree, max_outstanding = prefetcher
        last = -1
        streak = 0
        outstanding = set()
    for addrs_a, gaps_a, writes_a in chunks:
        prefetch = _NONE_COLUMN
        if prefetcher is not None:
            writes = writes_a.tolist()
            prefetch = [None] * len(writes)
            issuing = []  # (access index, target addresses)
            for i, line in enumerate((addrs_a >> 6).tolist()):
                if writes[i]:
                    continue
                line_address = line << 6
                if line_address in outstanding:
                    outstanding.discard(line_address)
                    prefetch[i] = True
                    continue
                streak = streak + 1 if line == last + 1 else 0
                last = line
                if streak >= threshold:
                    targets = []
                    for ahead in range(1, degree + 1):
                        target = (line + ahead) << 6
                        if target not in outstanding:
                            if len(outstanding) >= max_outstanding:
                                outstanding.clear()
                            outstanding.add(target)
                            targets.append(target)
                    if targets:
                        issuing.append((i, targets))
            if issuing:
                flat = np.array([target for _, targets in issuing for target in targets], dtype=np.int64)
                decoded = iter(np.stack((flat,) + _decode_columns(mapping, flat), axis=1).tolist())
                for i, targets in issuing:
                    prefetch[i] = [next(decoded) for _ in targets]
        columns = np.stack((gaps_a, gaps_a, writes_a, addrs_a) + _decode_columns(mapping, addrs_a)).tolist()
        columns[1] = (gaps_a / issue_width).tolist()
        columns.append(prefetch)
        yield columns


def _meta_plan(chunks, meta_base, meta_per_line, num_sets):
    """One core's metadata-line columns, chunk by chunk.

    Yields ``[set indices, tags]`` lists: where the metadata line of each
    access sits in the metadata cache.  A line's address, DRAM coordinates
    and tree leaf follow from its set and tag; the replay decodes them only
    on a miss.
    """
    for addrs_a, _, _ in chunks:
        lines_a = (meta_base >> 6) + (addrs_a >> 6) // meta_per_line
        yield np.stack((lines_a % num_sets, lines_a // num_sets)).tolist()


def _replay_chunks(trace, offset, mapping, issue_width, prefetcher, meta):
    """``(core chunk, meta chunk)`` pairs for the core at address ``offset``.

    ``meta`` is ``(meta_base, meta_per_line, num_sets)``, or None in plain
    mode, where the meta chunk is a pair of all-None columns.  In-memory
    traces: chunk lists memoized per trace in :data:`_PLANS` under every
    input they depend on.  Streamed traces: a generator that builds each
    chunk as the replay reaches it and keeps none.
    """
    core_args = (mapping, issue_width, prefetcher)
    if callable(getattr(trace, "iter_chunk_arrays", None)):
        view = trace.offset(offset)
        if meta is None:
            return zip(_core_plan(_chunk_arrays(view.iter_chunk_arrays()), *core_args), repeat(_NO_META))
        for_core, for_meta = tee(_chunk_arrays(view.iter_chunk_arrays()))
        return zip(_core_plan(for_core, *core_args), _meta_plan(for_meta, *meta))
    from repro.traces.streaming import iter_memory_trace_chunks

    try:
        plans = _PLANS.get(trace)
        if plans is None:
            plans = _PLANS[trace] = {}
    except TypeError:  # not weak-referenceable: plan it for this run only
        plans = {}
    base = plans.get("chunks")
    if base is None:
        base = plans["chunks"] = list(_chunk_arrays(iter_memory_trace_chunks(trace)))

    def memo(key, build, args):
        key = (build.__name__, offset) + key
        chunks = plans.get(key)
        if chunks is None:
            shifted = [(a + offset if offset else a, g, w) for a, g, w in base]
            chunks = plans[key] = list(build(shifted, *args))
        return chunks

    core_chunks = memo((_mapping_key(mapping), issue_width, prefetcher), _core_plan, core_args)
    if meta is None:
        return zip(core_chunks, repeat(_NO_META))
    return zip(core_chunks, memo(meta, _meta_plan, meta))


def _traced_chunks(tracer, core, pairs):
    """``pairs``, with one "engine-chunk" span per chunk handed to the replay."""
    pairs = iter(pairs)
    while True:
        start = tracer.now()
        pair = next(pairs, None)
        if pair is None:
            return
        tracer.record(
            "engine-chunk", start, tracer.now() - start,
            attrs={"core": core, "accesses": len(pair[0][0])},
        )
        yield pair


# ---------------------------------------------------------------------------
# Batch engine, part 2: the replay
# ---------------------------------------------------------------------------
def _simulate_batch(trace, spec, experiment):
    """Run one simulation on the batch engine (see :class:`BatchEngine`)."""
    from repro.cache.metadata_cache import MetadataCache
    from repro.cache.prefetcher import StreamPrefetcher
    from repro.controller.memory_controller import ControllerConfig
    from repro.cpu.core import CoreConfig
    from repro.cpu.system import SystemConfig
    from repro.dram.address_mapping import AddressMapping
    from repro.secure.base import MetadataLayout
    from repro.secure.integrity_tree import IntegrityTree
    from repro.sim.results import SimulationResult

    mode_params, timing, write_burst_cycles = _batch_model(spec)
    mode, extra_hit, extra_miss, meta_base, meta_per_line, geometry = mode_params
    controller_config = ControllerConfig(
        timing=timing, write_burst_cycles=write_burst_cycles
    )
    mapping = AddressMapping(
        ranks=controller_config.ranks,
        bank_groups=controller_config.bank_groups,
        banks_per_group=controller_config.banks_per_group,
    )
    dec = _scalar_decoder(mapping)

    # Metadata-cache geometry (the MetadataCache constructor validates it the
    # same way the reference build does).
    cache_geometry = MetadataCache(size_bytes=experiment.metadata_cache_bytes)
    num_sets = cache_geometry.config.num_sets
    assoc = cache_geometry.config.associativity

    core_config = CoreConfig(
        issue_width=experiment.issue_width,
        rob_entries=experiment.rob_entries,
        mshr_entries=experiment.mshr_entries,
        cpu_freq_mhz=experiment.cpu_freq_mhz,
        dram_freq_mhz=timing.freq_mhz,
    )
    system_config = SystemConfig(
        num_cores=experiment.num_cores,
        core=core_config,
        enable_prefetcher=experiment.enable_prefetcher,
    )
    ratio = core_config.cpu_cycles_per_dram_cycle
    rob_entries = core_config.rob_entries
    mshr_entries = core_config.mshr_entries
    onchip = core_config.onchip_latency_cycles
    num_cores = system_config.num_cores
    prefetcher = None
    if system_config.enable_prefetcher:
        proto = StreamPrefetcher()
        prefetcher = (proto.train_threshold, proto.degree, proto.max_outstanding)

    # Timing constants as locals (hot-loop attribute hoisting).
    tCL = timing.tCL
    tCWL = timing.tCWL
    tRCD = timing.tRCD
    tRP = timing.tRP
    tRAS = timing.tRAS
    tRC = timing.tRAS + timing.tRP
    tRTP = timing.tRTP
    tWR = timing.tWR
    tCCD_S = timing.tCCD_S
    tCCD_L = timing.tCCD_L
    tWTR_L = timing.tWTR_L
    tRRD_S = timing.tRRD_S
    tRRD_L = timing.tRRD_L
    tFAW = timing.tFAW
    tRFC = timing.tRFC
    tREFI = timing.tREFI
    burst_read = timing.burst_cycles_read
    burst_write = (
        timing.burst_cycles_write
        if controller_config.write_burst_cycles is None
        else controller_config.write_burst_cycles
    )
    ms_read = controller_config.memory_side_read_latency
    ms_write = controller_config.memory_side_write_latency
    hi_mark = controller_config.write_drain_high_watermark
    lo_mark = controller_config.write_drain_low_watermark
    num_ranks = mapping.ranks
    num_banks = num_ranks * mapping.bank_groups * mapping.banks_per_group

    # Integrity-tree levels: (first-node line, is-root) per level.  Metadata
    # addresses (counter, MAC and tree lines) are 64-byte aligned, so a
    # metadata line number, ``tag * num_sets + set`` in the cache, is the
    # address >> 6.
    tree_levels = ()
    tree_arity = 1
    leaf_limit = 0
    if geometry is not None:
        tree = IntegrityTree(geometry, MetadataLayout())
        sizes = geometry.level_sizes
        tree_arity = geometry.arity
        leaf_limit = geometry.leaf_lines - 1
        tree_levels = tuple(
            (0, True) if sizes[level - 1] == 1 else (tree.node_address(level, 0) >> 6, False)
            for level in range(1, len(sizes) + 1)
        )
    meta_base_line = meta_base >> 6
    with_meta = mode != _MODE_PLAIN
    walk_mode = mode == _MODE_WALK

    # ------------------------------------------------------------------
    # Shared memory-side state: DRAM channel, write queue, metadata cache
    # ------------------------------------------------------------------
    b_open = [None] * num_banks
    b_act = [0] * num_banks
    b_pre = [0] * num_banks
    b_col = [0] * num_banks  # earliest read/write command (activate + tRCD)
    r_act_any = [0] * num_ranks
    r_act_g = [0] * (num_ranks * mapping.bank_groups)
    r_col_any = [0] * num_ranks
    r_col_g = [0] * (num_ranks * mapping.bank_groups)
    r_raw = [0] * num_ranks
    # The last four activates per rank, seeded with ones at -tFAW, which
    # constrain no activate (every activate is at cycle >= 0).
    r_hist = [deque((-tFAW,) * 4, maxlen=4) for _ in range(num_ranks)]
    bus_free = 0
    last_refresh = 0
    cur_cycle = 0
    wq = []  # (address, arrival, seq, flat_bank, rank_group, rank, row)
    wq_count = {}
    seq = 0
    writes_served = 0
    forwarded_reads = 0
    total_read_latency = 0
    demand_reads = 0
    demand_writes = 0
    metadata_reads = 0
    metadata_writebacks = 0
    metadata_hits = 0
    # Metadata-cache replica of Cache.access + LRUPolicy: one dict per set,
    # ``tag -> way << 1 | dirty`` in LRU order (the first key is the
    # victim).  Ways fill in order and are never freed, so a set holding k
    # lines fills way k next.  Untouched sets share the read-only EMPTY;
    # ``touched`` lists sets in first-use order, the order the end-of-run
    # flush visits them.
    EMPTY = {}
    meta_sets = [EMPTY] * num_sets if with_meta else []
    touched = []

    # DRAM channel kernels.  Every max-update below that is a plain store is
    # provably monotone: the new value is a maximum that already includes
    # the old one, plus a positive constraint.  ``rg`` is
    # ``rank * bank_groups + group``.
    def refresh(earliest):
        # All-bank refresh: every row closes, no activate before tRFC ends.
        nonlocal last_refresh
        last_refresh = earliest
        resume = earliest + tRFC
        for b in range(num_banks):
            b_open[b] = None
            if b_act[b] < resume:
                b_act[b] = resume
        return resume

    def activate(fb, rg, rank, row, cycle):
        # Precharge the open row (if any), then activate ``row``; returns the
        # bank's earliest column-command cycle, activate + tRCD.
        # ``earliest`` is b_act[fb] after the precharge; the store at the
        # end overwrites it, so it stays local.
        earliest = b_act[fb]
        if b_open[fb] is not None:
            pre = b_pre[fb]
            if cycle > pre:
                pre = cycle
            v = pre + tRP
            if v > earliest:
                earliest = v
            cycle = pre
        act = cycle
        v = r_act_any[rank]
        if v > act:
            act = v
        v = r_act_g[rg]
        if v > act:
            act = v
        hist = r_hist[rank]
        v = hist[0] + tFAW
        if v > act:
            act = v
        if earliest > act:
            act = earliest
        hist.append(act)
        b_open[fb] = row
        v = act + tRAS
        if v > b_pre[fb]:
            b_pre[fb] = v
        # act >= earliest >= b_act[fb] (which is >= the previous activate +
        # tRC), r_act_any[rank] and r_act_g[rg]: these stores only move
        # forward.
        b_col[fb] = col = act + tRCD
        b_act[fb] = act + tRC
        r_act_any[rank] = act + tRRD_S
        r_act_g[rg] = act + tRRD_L
        return col

    def chan_read(fb, rg, rank, row, earliest):
        nonlocal bus_free
        cycle = refresh(earliest) if earliest - last_refresh >= tREFI else earliest
        if b_open[fb] != row:
            col = activate(fb, rg, rank, row, cycle)
        else:
            col = b_col[fb]
            if cycle > col:
                col = cycle
        v = r_col_any[rank]
        if v > col:
            col = v
        v = r_col_g[rg]
        if v > col:
            col = v
        v = r_raw[rank]
        if v > col:
            col = v
        if col + tCL < bus_free:
            col = bus_free - tCL
        v = col + tRTP
        if v > b_pre[fb]:
            b_pre[fb] = v
        # col >= r_col_any[rank], r_col_g[rg]; col + tCL >= bus_free.
        r_col_any[rank] = col + tCCD_S
        r_col_g[rg] = col + tCCD_L
        bus_free = data_end = col + tCL + burst_read
        return data_end + ms_read

    def chan_write(fb, rg, rank, row, earliest):
        nonlocal bus_free
        cycle = refresh(earliest) if earliest - last_refresh >= tREFI else earliest
        if b_open[fb] != row:
            col = activate(fb, rg, rank, row, cycle)
        else:
            col = b_col[fb]
            if cycle > col:
                col = cycle
        v = r_col_any[rank]
        if v > col:
            col = v
        v = r_col_g[rg]
        if v > col:
            col = v
        if col + tCWL < bus_free:
            col = bus_free - tCWL
        v = col + tCWL + burst_write + tWR
        if v > b_pre[fb]:
            b_pre[fb] = v
        # col >= r_col_any[rank], r_col_g[rg]; col + tCWL >= bus_free; and
        # r_raw[rank] came from an earlier write on this rank, whose column
        # is below r_col_any[rank] <= col (write bursts are all one length).
        r_raw[rank] = col + tCWL + burst_write + tWTR_L
        r_col_any[rank] = col + tCCD_S
        r_col_g[rg] = col + tCCD_L
        bus_free = data_end = col + tCWL + burst_write
        return data_end + ms_write

    def drain(cycle, target):
        nonlocal writes_served
        if len(wq) <= target:
            return cycle
        batch = len(wq) - target
        # FR-FCFS over a static row-state snapshot == greedy repeated pick:
        # ordering happens before any request in the batch is served.  The
        # order is (row miss, arrival, arrival sequence): row hits before
        # misses, each sorted by arrival.  The queue is in arrival-sequence
        # order and sorts are stable, so the sequence needs no key.
        hits = []
        misses = []
        for e in wq:
            if b_open[e[3]] == e[6]:
                hits.append(e)
            else:
                misses.append(e)
        hits.sort(key=_ARRIVAL)
        misses.sort(key=_ARRIVAL)
        ordered = hits + misses
        last = cycle
        served = ordered[:batch]
        for e in served:
            arrival = e[1]
            last = chan_write(e[3], e[4], e[5], e[6], cycle if cycle >= arrival else arrival)
            address = e[0]
            count = wq_count[address] - 1
            if count:
                wq_count[address] = count
            else:
                del wq_count[address]
        writes_served += batch
        if target == 0:
            wq.clear()
        else:
            dropped = {e[2] for e in served}
            wq[:] = [e for e in wq if e[2] not in dropped]
        return last

    def enq(address, fb, rg, rank, row, arrival):
        nonlocal cur_cycle, seq
        if arrival > cur_cycle:
            cur_cycle = arrival
        if len(wq) >= hi_mark:
            drained = drain(cur_cycle, lo_mark)
            if drained > cur_cycle:
                cur_cycle = drained
        wq.append((address, arrival, seq, fb, rg, rank, row))
        seq += 1
        wq_count[address] = wq_count.get(address, 0) + 1

    def serve_read(address, fb, rg, rank, row, arrival):
        nonlocal cur_cycle, forwarded_reads, total_read_latency
        if arrival > cur_cycle:
            cur_cycle = arrival
        if address in wq_count:
            forwarded_reads += 1
            return cur_cycle
        completion = chan_read(fb, rg, rank, row, cur_cycle)
        total_read_latency += completion - arrival
        return completion

    def meta_miss(set_index, tag, cycle, dirty):
        # A metadata-cache miss (the caller has probed the set): fill the
        # line, write back a dirty victim and read the line from DRAM.
        # Returns the read's completion.
        nonlocal metadata_reads, metadata_writebacks
        lines = meta_sets[set_index]
        writeback = None
        if lines is EMPTY:
            lines = meta_sets[set_index] = {}
            touched.append(set_index)
        if len(lines) < assoc:
            way = len(lines)
        else:
            victim = next(iter(lines))
            way = lines.pop(victim)
            if way & 1:
                writeback = (victim * num_sets + set_index) * 64
            way >>= 1
        lines[tag] = way << 1 | dirty
        metadata_reads += 1
        if tl_series is not None:
            # Same index the reference model stamps in
            # SecureMemorySystem._metadata_access: demand counters are
            # bumped before metadata expansion in both engines.
            tl_series.event("integrity_miss", demand_reads + demand_writes)
        address = (tag * num_sets + set_index) << 6
        completion = serve_read(address, *dec(address), cycle)
        if writeback is not None:
            metadata_writebacks += 1
            enq(writeback, *dec(writeback), cycle)
        return completion

    def walk_miss(set_index, tag, cycle, dirty):
        # A counter/MAC-line miss, then the tree path up to the first cached
        # node.  Returns the latest completion.
        nonlocal metadata_hits
        completion = meta_miss(set_index, tag, cycle, dirty)
        index = tag * num_sets + set_index - meta_base_line  # the tree leaf
        if index > leaf_limit:
            index = leaf_limit
        for level_line, is_root in tree_levels:
            index //= tree_arity
            if is_root:
                break
            node_line = level_line + index
            n_set = node_line % num_sets
            n_tag = node_line // num_sets
            lines = meta_sets[n_set]
            v = lines.pop(n_tag, None)
            if v is not None:
                # A hit completes at ``cycle``, and completion >= cycle.
                metadata_hits += 1
                lines[n_tag] = v | dirty
                break
            n_comp = meta_miss(n_set, n_tag, cycle, dirty)
            if n_comp > completion:
                completion = n_comp
        return completion

    def prefetch_read(address, fb, rg, rank, row, dram_float):
        # A prefetch-generated read: the full secure-read path.  Its
        # completion is on no core's critical path.
        nonlocal demand_reads, metadata_hits
        demand_reads += 1
        cycle = int(dram_float)
        if with_meta:
            m_line = meta_base_line + (address >> 6) // meta_per_line
            m_set = m_line % num_sets
            m_tag = m_line // num_sets
            lines = meta_sets[m_set]
            v = lines.pop(m_tag, None)
            if v is not None:
                metadata_hits += 1
                lines[m_tag] = v
            elif walk_mode:
                walk_miss(m_set, m_tag, cycle, 0)
            else:
                meta_miss(m_set, m_tag, cycle, 0)
        serve_read(address, fb, rg, rank, row, cycle)

    # ------------------------------------------------------------------
    # Observability hooks
    # ------------------------------------------------------------------
    # Chunks handed to the replay become "engine-chunk" spans when tracing
    # is on (children of the live "engine" span via the tracer's
    # thread-local stack); off, the replay sees the plan directly.
    tracer = obs_tracing.current_tracer()

    # Timeline sampling mirrors System._sample_timeline value-for-value so
    # reference and batch window samples agree exactly.  Off, it costs the
    # replay one test per scheduler turn; on, every access is a turn and
    # the core publishes its state (tl_publish) before yielding it.
    timeline = obs_timeline.current_timeline()
    tl_series = None
    tl_window = 0
    tl_steps = 0
    publish = timeline is not None
    if publish:
        tl_series = timeline.series(
            workload=trace.name, configuration=spec.name, engine="batch"
        )
        tl_window = timeline.window
    tl_instr = [0] * num_cores
    tl_cpu = [0.0] * num_cores
    tl_mshr = [0] * num_cores
    tl_rob = [0] * num_cores

    def tl_publish(c, instr, cpu, comp, inst, head):
        tl_instr[c] = instr
        tl_cpu[c] = cpu
        tl_mshr[c] = len(comp) - head
        tl_rob[c] = instr - inst[head] if head < len(comp) else 0

    def tl_sample():
        instructions = 0
        cycles = 0.0
        mshr = 0
        rob = 0
        for core in range(num_cores):
            instructions += tl_instr[core]
            v = tl_cpu[core]
            if v > cycles:
                cycles = v
            mshr += tl_mshr[core]
            rob += tl_rob[core]
        depths = [0] * num_banks
        for e in wq:
            depths[e[3]] += 1
        tl_series.sample(
            tl_steps, instructions, cycles, demand_reads, demand_writes,
            metadata_hits + metadata_reads, metadata_hits, rob, mshr, depths,
        )

    # ------------------------------------------------------------------
    # Per-core issue/ROB kernel
    # ------------------------------------------------------------------
    finals = [None] * num_cores  # (final cycle, instructions, reads, latency)

    def core_kernel(c, chunk_pairs):
        # One core as a generator: trace cursor, ROB/MSHR window and core
        # counters live in fast locals.  It yields the cycle its next access
        # issues at (Core.next_issue_cycle()); the scheduler resumes it with
        # a bound and it performs that access.  While its next issue stays
        # below the bound it is still the scheduler's pick, so it goes on
        # without yielding: the other cores' next issues cannot change while
        # they wait.  The ROB/MSHR scan for a read happens before the yield;
        # it reads core-local state only, so it stays valid meanwhile.
        nonlocal cur_cycle, demand_reads, demand_writes, metadata_hits
        nonlocal forwarded_reads, total_read_latency
        cpu = 0.0  # issue cycle of the last access
        instr = 0
        reads = 0
        lat = 0.0
        comp = []  # completion cycles of issued reads, in issue order
        inst = []  # their instruction indices
        head = 0  # first read still held by the ROB/MSHR window
        bound = _NEVER  # yield the first issue cycle
        for core_chunk, meta_chunk in chunk_pairs:
            writes = core_chunk[2]
            reads += len(writes) - sum(writes)
            for (
                gap, delta, write, addr, fb, rg, rk, row, pf, m_set, m_tag,
            ) in zip(*core_chunk, *meta_chunk):
                issue = cpu + delta
                inst_index = instr + gap
                if write:
                    if issue >= bound:
                        if publish:
                            tl_publish(c, instr, cpu, comp, inst, head)
                        bound = yield issue
                    demand_writes += 1
                    cycle = int(issue / ratio)
                    if with_meta:
                        lines = meta_sets[m_set]
                        v = lines.pop(m_tag, None)
                        if v is not None:
                            # Metadata-cache hit: LRU touch, dirty bit.
                            metadata_hits += 1
                            lines[m_tag] = v | 1
                        elif walk_mode:
                            walk_miss(m_set, m_tag, cycle, 1)
                        else:
                            meta_miss(m_set, m_tag, cycle, 1)
                    enq(addr, fb, rg, rk, row, cycle)
                else:
                    j = head
                    n = len(comp)
                    while j < n and inst_index - inst[j] > rob_entries:
                        v = comp[j]
                        if v > issue:
                            issue = v
                        j += 1
                    while n - j >= mshr_entries:
                        v = comp[j]
                        if v > issue:
                            issue = v
                        j += 1
                    if issue >= bound:
                        if publish:
                            tl_publish(c, instr, cpu, comp, inst, head)
                        bound = yield issue
                    if j > 1024:
                        del comp[:j]
                        del inst[:j]
                        j = 0
                    head = j
                    issue_dram = (issue + onchip) / ratio
                    if pf is True:
                        # Covered by an earlier prefetch.
                        completion_cpu = issue_dram * ratio + onchip
                    else:
                        if pf is not None:
                            for target in pf:
                                prefetch_read(*target, issue_dram)
                        demand_reads += 1
                        cycle = int(issue_dram)
                        extra = extra_hit
                        meta_done = cycle
                        if with_meta:
                            lines = meta_sets[m_set]
                            v = lines.pop(m_tag, None)
                            if v is not None:
                                metadata_hits += 1
                                lines[m_tag] = v
                            else:
                                extra = extra_miss
                                if walk_mode:
                                    meta_done = walk_miss(m_set, m_tag, cycle, 0)
                                else:
                                    meta_done = meta_miss(m_set, m_tag, cycle, 0)
                        # The demand data read, inline serve_read().
                        if cycle > cur_cycle:
                            cur_cycle = cycle
                        if addr in wq_count:
                            forwarded_reads += 1
                            completion_dram = cur_cycle
                        else:
                            completion_dram = chan_read(fb, rg, rk, row, cur_cycle)
                            total_read_latency += completion_dram - cycle
                        if meta_done > completion_dram:
                            completion_dram = meta_done
                        completion_cpu = completion_dram * ratio + onchip + extra
                    comp.append(completion_cpu)
                    inst.append(inst_index)
                    lat += completion_cpu - issue
                cpu = issue
                instr = inst_index
        if publish:
            tl_publish(c, instr, cpu, comp, inst, head)
        final_cycle = cpu
        if head < len(comp):
            tail_max = max(comp[head:])
            if tail_max > final_cycle:
                final_cycle = tail_max
        finals[c] = (final_cycle if final_cycle >= 1.0 else 1.0, instr, reads, lat)

    # ------------------------------------------------------------------
    # Scheduler: the core with the earliest next issue steps (first wins
    # ties, matching System.run())
    # ------------------------------------------------------------------
    meta = (meta_base, meta_per_line, num_sets) if with_meta else None
    stride = system_config.per_core_address_stride
    steps = []
    next_issue = []
    for c in range(num_cores):
        pairs = _replay_chunks(
            trace, c * stride, mapping, core_config.issue_width, prefetcher, meta
        )
        if tracer is not None:
            pairs = _traced_chunks(tracer, c, pairs)
        step = core_kernel(c, pairs).send
        try:
            cycle = step(None)
        except StopIteration:
            continue
        steps.append(step)
        next_issue.append(cycle)

    # The picked core keeps the turn while its next issue is below every
    # earlier core's (which win ties) and at most every later core's: below
    # ``bound``, set from the earliest other core.  A live timeline samples
    # between accesses, so then every access is a turn of its own.
    bound = _NEVER
    while steps:
        issue = min(next_issue)
        pos = next_issue.index(issue)
        if not publish:
            next_issue[pos] = _FOREVER
            bound = min(next_issue)
            if next_issue.index(bound) > pos:
                bound = nextafter(bound, _FOREVER)
        try:
            next_issue[pos] = steps[pos](bound)
        except StopIteration:
            del steps[pos]
            del next_issue[pos]
        if publish:
            tl_steps += 1
            if tl_steps % tl_window == 0:
                tl_sample()

    # ------------------------------------------------------------------
    # End of simulation: flush metadata cache + drain the write queue
    # ------------------------------------------------------------------
    # Every metadata access either hits or reads its line from DRAM, and
    # every read the controller serves is a demand read (prefetches
    # included) or a metadata read.
    metadata_accesses = metadata_hits + metadata_reads
    reads_served = demand_reads + metadata_reads
    for set_index in touched:
        dirty_ways = sorted(
            (v >> 1, tag) for tag, v in meta_sets[set_index].items() if v & 1
        )
        for _, tag in dirty_ways:
            address = (tag * num_sets + set_index) * 64
            enq(address, *dec(address), cur_cycle)
    drained = drain(cur_cycle, 0)
    if drained > cur_cycle:
        cur_cycle = drained

    # ------------------------------------------------------------------
    # Assemble results exactly as SystemResult / collect_stats do
    # ------------------------------------------------------------------
    total_instructions = sum(final[1] for final in finals)
    total_reads = sum(final[2] for final in finals)
    total_latency = sum(final[3] for final in finals)
    average_read_latency = total_latency / total_reads if total_reads else 0.0

    stats = {
        "config": 0.0,
        "demand_reads": float(demand_reads),
        "demand_writes": float(demand_writes),
        "metadata_reads": float(metadata_reads),
        "metadata_writebacks": float(metadata_writebacks),
        "metadata_accesses": float(metadata_accesses),
        "metadata_hits": float(metadata_hits),
        "metadata_miss_rate": (
            0.0 if metadata_accesses == 0 else 1.0 - metadata_hits / metadata_accesses
        ),
        "metadata_cache_hit_rate": (
            metadata_hits / metadata_accesses if metadata_accesses else 0.0
        ),
        "controller_reads": float(reads_served),
        "controller_writes": float(writes_served),
        "controller_avg_read_latency": (
            total_read_latency / reads_served if reads_served else 0.0
        ),
        "forwarded_reads": float(forwarded_reads),
    }
    if total_instructions:
        per_kilo = 1000.0 / total_instructions
        stats["metadata_mpki"] = (metadata_accesses - metadata_hits) * per_kilo

    return SimulationResult(
        workload=trace.name,
        configuration=spec.name,
        total_ipc=sum(final[1] / final[0] for final in finals),
        total_instructions=total_instructions,
        total_cycles=max((final[0] for final in finals), default=0.0),
        average_read_latency_cycles=average_read_latency,
        memory_stats=stats,
    )


ENGINES.register(ReferenceEngine())
ENGINES.register(BatchEngine())
