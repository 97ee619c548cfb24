"""FR-FCFS request scheduling policy.

First-Ready, First-Come-First-Served: among queued requests, those that hit
an already-open row are preferred (they need only a column command); ties are
broken by arrival order.  This is the de facto baseline policy in DRAM
simulators (Ramulator uses it by default) and is what the paper's memory
controller configuration implies.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.dram.address_mapping import AddressMapping, DecodedAddress
from repro.dram.channel import Channel
from repro.dram.commands import MemoryRequest

__all__ = ["FRFCFSScheduler"]


class FRFCFSScheduler:
    """Orders pending requests by (row-hit first, then oldest first)."""

    def __init__(self, mapping: AddressMapping) -> None:
        self.mapping = mapping

    # ------------------------------------------------------------------
    def is_row_hit(
        self,
        channel: Channel,
        request: MemoryRequest,
        decoded: Optional[DecodedAddress] = None,
    ) -> bool:
        """Whether ``request`` would hit an open row right now.

        ``decoded`` is ``request``'s already-decoded address, if the caller
        has it; otherwise the address is decoded here.
        """
        if decoded is None:
            decoded = self.mapping.decode(request.address)
        bank = channel.rank(decoded.rank).bank(decoded.bank_group, decoded.bank)
        return bank.is_row_open(decoded.row)

    def priority(
        self,
        channel: Channel,
        request: MemoryRequest,
        decoded: Optional[DecodedAddress] = None,
    ) -> Tuple[int, int, int]:
        """FR-FCFS sort key of ``request``: lower is served first.

        Row hits come first; among equals, the oldest (lowest arrival cycle,
        then lowest request id) wins, which preserves FCFS fairness and
        avoids starvation in the common case.
        """
        hit = self.is_row_hit(channel, request, decoded)
        return (0 if hit else 1, request.arrival_cycle, request.request_id)

    def pick_next(
        self,
        channel: Channel,
        pending: Sequence[MemoryRequest],
    ) -> Optional[MemoryRequest]:
        """Pick the next request to service from ``pending`` (lowest :meth:`priority`)."""
        return min(pending, key=lambda request: self.priority(channel, request), default=None)

    def order(
        self,
        channel: Channel,
        pending: Iterable[MemoryRequest],
    ) -> List[MemoryRequest]:
        """Return the full FR-FCFS service order for ``pending``.

        One sort by :meth:`priority`.  Ordering does not touch the channel,
        so every request's row-hit status is fixed while the order is built,
        and request ids are unique, so the keys are distinct.  The sort
        therefore equals picking :meth:`pick_next` over the remaining
        requests again and again, in one pass instead of one per request.
        This is the order the controller's write-drain loop follows.
        """
        return sorted(pending, key=lambda request: self.priority(channel, request))
