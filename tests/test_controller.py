"""Tests for the memory-controller queues, scheduler and front end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.memory_controller import ControllerConfig, MemoryController
from repro.controller.queues import QueueFullError, RequestQueue
from repro.controller.scheduler import FRFCFSScheduler
from repro.dram.address_mapping import AddressMapping, DecodedAddress
from repro.dram.channel import Channel
from repro.dram.commands import MemoryRequest, RequestType
from repro.dram.timing import DDR4_3200


def _read(address, cycle=0):
    return MemoryRequest(address=address, request_type=RequestType.READ, arrival_cycle=cycle)


def _write(address, cycle=0):
    return MemoryRequest(address=address, request_type=RequestType.WRITE, arrival_cycle=cycle)


class TestRequestQueue:
    def test_push_and_pop_fifo_order(self):
        queue = RequestQueue(capacity=4)
        first, second = _read(0), _read(64)
        queue.push(first)
        queue.push(second)
        assert queue.pop_oldest() is first
        assert queue.pop_oldest() is second

    def test_capacity_enforced(self):
        queue = RequestQueue(capacity=2)
        queue.push(_read(0))
        queue.push(_read(64))
        with pytest.raises(QueueFullError):
            queue.push(_read(128))

    def test_occupancy_tracking(self):
        queue = RequestQueue(capacity=8)
        for i in range(5):
            queue.push(_read(i * 64))
        assert queue.occupancy == 5
        assert queue.max_occupancy == 5
        queue.pop_oldest()
        assert queue.occupancy == 4
        assert queue.max_occupancy == 5

    def test_find_address(self):
        queue = RequestQueue()
        target = _write(0x4000)
        queue.push(_write(0x1000))
        queue.push(target)
        assert queue.find_address(0x4000) is target
        assert queue.find_address(0x9999) is None

    def test_remove_specific_entry(self):
        queue = RequestQueue()
        a, b, c = _read(0), _read(64), _read(128)
        queue.extend([a, b, c])
        queue.remove_all([c, a])
        assert queue.peek_all() == [b]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RequestQueue(capacity=0)


class TestFrfcfsScheduler:
    def test_prefers_row_hit(self):
        mapping = AddressMapping()
        channel = Channel(DDR4_3200)
        scheduler = FRFCFSScheduler(mapping)
        hit_request = _read(0x0, cycle=10)
        miss_request = _read(0x4000000, cycle=0)  # different row, arrived earlier
        # Open the row that hit_request targets.
        channel.access(mapping.decode(hit_request.address), True, 0)
        chosen = scheduler.pick_next(channel, [miss_request, hit_request])
        assert chosen is hit_request

    def test_falls_back_to_oldest(self):
        mapping = AddressMapping()
        channel = Channel(DDR4_3200)
        scheduler = FRFCFSScheduler(mapping)
        older = _read(0x1000000, cycle=0)
        newer = _read(0x2000000, cycle=5)
        assert scheduler.pick_next(channel, [newer, older]) is older

    def test_empty_pending_returns_none(self):
        scheduler = FRFCFSScheduler(AddressMapping())
        assert scheduler.pick_next(Channel(DDR4_3200), []) is None

    def test_order_returns_all_requests(self):
        mapping = AddressMapping()
        channel = Channel(DDR4_3200)
        scheduler = FRFCFSScheduler(mapping)
        # Same bank, one row each; open the row of the fourth request.
        requests = [_read(i * 0x100000, cycle=i) for i in range(6)]
        channel.access(mapping.decode(requests[3].address), True, 0)
        ordered = scheduler.order(channel, requests)
        expected = [requests[3], requests[0], requests[1], requests[2], requests[4], requests[5]]
        assert [r.request_id for r in ordered] == [r.request_id for r in expected]


def _greedy_order(mapping, channel, pending):
    """The former quadratic ``order()``: pick the FR-FCFS best of what is left, repeatedly."""
    remaining = list(pending)
    ordered = []
    while remaining:
        best, best_key = None, None
        for request in remaining:
            decoded = mapping.decode(request.address)
            bank = channel.rank(decoded.rank).bank(decoded.bank_group, decoded.bank)
            key = (0 if bank.is_row_open(decoded.row) else 1, request.arrival_cycle, request.request_id)
            if best_key is None or key < best_key:
                best, best_key = request, key
        remaining.remove(best)
        ordered.append(best)
    return ordered


#: (rank, bank group, bank, row, column): few banks and rows, so hits and ties are common.
_COORDINATES = st.tuples(
    st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.integers(0, 3), st.integers(0, 7)
)


class TestOrderMatchesGreedyPicks:
    @settings(max_examples=150, deadline=None)
    @given(
        pending=st.lists(st.tuples(_COORDINATES, st.integers(0, 3)), max_size=24),
        open_rows=st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
                                  st.integers(0, 3)),
        shuffle=st.randoms(use_true_random=False),
    )
    def test_single_sort_equals_repeated_pick_next(self, pending, open_rows, shuffle):
        mapping = AddressMapping()
        channel = Channel(DDR4_3200)
        scheduler = FRFCFSScheduler(mapping)
        for (rank, group, bank), row in open_rows.items():
            channel.rank(rank).bank(group, bank).open_row = row
        requests = [
            _write(mapping.encode(DecodedAddress(0, rank, group, bank, row, column)), cycle=arrival)
            for (rank, group, bank, row, column), arrival in pending
        ]
        # Queue order need not follow request-id order.
        shuffle.shuffle(requests)
        ordered = scheduler.order(channel, requests)
        assert [r.request_id for r in ordered] == [
            r.request_id for r in _greedy_order(mapping, channel, requests)
        ]
        assert scheduler.pick_next(channel, requests) is (ordered[0] if ordered else None)


class TestMemoryController:
    def test_read_completes_with_positive_latency(self):
        controller = MemoryController()
        completion = controller.service_read(_read(0x1000, cycle=100))
        assert completion > 100

    def test_average_read_latency_tracked(self):
        controller = MemoryController()
        controller.service_read(_read(0x1000, cycle=0))
        assert controller.stats.reads_served == 1
        assert controller.stats.average_read_latency > 0

    def test_writes_are_posted(self):
        controller = MemoryController()
        controller.enqueue_write(_write(0x1000, cycle=0))
        assert controller.stats.writes_served == 0
        assert controller.write_queue.occupancy == 1

    def test_write_to_read_forwarding(self):
        controller = MemoryController()
        controller.enqueue_write(_write(0x2000, cycle=0))
        completion = controller.service_read(_read(0x2000, cycle=10))
        assert controller.stats.forwarded_reads == 1
        assert completion == 10  # served from the write queue, no DRAM access

    def test_write_drain_triggers_at_high_watermark(self):
        config = ControllerConfig(write_drain_high_watermark=8, write_drain_low_watermark=2)
        controller = MemoryController(config)
        for i in range(9):
            controller.enqueue_write(_write(i * 64, cycle=i))
        assert controller.stats.write_drains >= 1
        assert controller.stats.writes_served > 0
        assert controller.write_queue.occupancy <= 8

    @pytest.mark.parametrize(
        "overrides",
        [
            {"write_drain_high_watermark": 80},
            {"write_drain_high_watermark": 16, "write_drain_low_watermark": 48},
            {"write_drain_high_watermark": 64, "write_drain_low_watermark": 64},
            {"write_drain_low_watermark": -1},
        ],
    )
    def test_invalid_drain_watermarks_rejected(self, overrides):
        # Out of range, or a drain that lets the bounded reference write
        # queue overflow where the batch engine's unbounded one keeps going.
        with pytest.raises(ValueError, match="watermark"):
            ControllerConfig(**overrides)

    def test_drain_watermarks_at_the_limits_accepted(self):
        config = ControllerConfig(write_drain_high_watermark=64, write_drain_low_watermark=0)
        controller = MemoryController(config)
        for i in range(200):
            controller.enqueue_write(_write(i * 64, cycle=i))
        assert controller.write_queue.max_occupancy == 64

    def test_drain_decodes_each_queued_write_once(self, monkeypatch):
        controller = MemoryController()
        high = controller.config.write_drain_high_watermark
        for i in range(high):
            controller.enqueue_write(_write(i * 0x10040, cycle=i))
        assert controller.write_queue.occupancy == high
        calls = []
        decode = AddressMapping.decode

        def counting_decode(mapping, address):
            calls.append(address)
            return decode(mapping, address)

        monkeypatch.setattr(AddressMapping, "decode", counting_decode)
        controller.flush()
        assert controller.stats.writes_served == high
        assert len(calls) <= high

    def test_flush_drains_everything(self):
        controller = MemoryController()
        for i in range(5):
            controller.enqueue_write(_write(i * 64, cycle=i))
        controller.flush()
        assert controller.write_queue.occupancy == 0
        assert controller.stats.writes_served == 5

    def test_read_rejects_write_request(self):
        controller = MemoryController()
        with pytest.raises(ValueError):
            controller.service_read(_write(0x1000))

    def test_write_rejects_read_request(self):
        controller = MemoryController()
        with pytest.raises(ValueError):
            controller.enqueue_write(_read(0x1000))

    def test_extended_write_burst_configuration(self):
        normal = MemoryController()
        secddr = MemoryController(ControllerConfig(write_burst_cycles=5))
        normal.enqueue_write(_write(0x1000, cycle=0))
        secddr.enqueue_write(_write(0x1000, cycle=0))
        n_cycle = normal.flush()
        s_cycle = secddr.flush()
        assert s_cycle == n_cycle + 1

    def test_memory_side_latency_configuration(self):
        plain = MemoryController()
        slow = MemoryController(ControllerConfig(memory_side_read_latency=20))
        p = plain.service_read(_read(0x1000, cycle=0))
        s = slow.service_read(_read(0x1000, cycle=0))
        assert s == p + 20

    def test_reads_to_same_row_are_hits(self):
        controller = MemoryController()
        # Two addresses that differ only in the column bits land in the same
        # bank and row (see AddressMapping bit order).
        same_row_stride = 64 << 4
        controller.service_read(_read(0x0, cycle=0))
        controller.service_read(_read(same_row_stride, cycle=200))
        stats = controller.channel.stats
        assert stats.row_hits >= 1
