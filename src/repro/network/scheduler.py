"""Shared-channel scheduling for multiple cooperating pairs.

DSRC is a broadcast medium: every cooperating pair in radio range shares
the same channel capacity.  The paper warns that "excessive exchanging of
frequencies only leads to unnecessary data, hence needlessly congesting the
communication channels" — this module quantifies that: a
:class:`SharedChannelScheduler` admits per-second transmission demands
from many senders against one capacity budget and reports delivered /
deferred traffic and utilisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.network.dsrc import BANDWIDTH_MBPS

__all__ = [
    "AGING_BOOST_SECONDS",
    "Demand",
    "ScheduleReport",
    "SharedChannelScheduler",
]

#: Deferred seconds that raise a backlogged demand by one priority level.
AGING_BOOST_SECONDS = 4


@dataclass(frozen=True)
class Demand:
    """One sender's transmission demand for one second.

    Attributes:
        sender: vehicle identifier.
        bits: payload size.
        priority: higher goes first when the channel saturates (safety
            messages over bulk ROI refreshes).
    """

    sender: str
    bits: int
    priority: int = 0

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise ValueError("bits must be non-negative")


@dataclass
class ScheduleReport:
    """Outcome of one scheduled second.

    Attributes:
        delivered: demands fully transmitted this second.
        deferred: demands pushed to the next second (channel saturated).
        utilization: fraction of channel capacity consumed.
    """

    delivered: list[Demand] = field(default_factory=list)
    deferred: list[Demand] = field(default_factory=list)
    utilization: float = 0.0


class SharedChannelScheduler:
    """Admits transmission demands against one DSRC channel's capacity
    (:data:`~repro.network.dsrc.BANDWIDTH_MBPS`) per second.

    Fresh demands are served in the documented ``(-priority, bits,
    sender)`` order — small high-priority messages first, mirroring
    EDCA-style access classes, with the sender name as the final
    tie-break so equal (priority, bits) demands are ordered identically
    in every run regardless of arrival order.

    Unserved demands carry over to the next second via :attr:`backlog`
    **with aging**: a demand deferred for :data:`AGING_BOOST_SECONDS` seconds
    gains one effective priority level (and older demands outrank younger
    ones at equal effective priority).  Without aging, a large
    low-priority demand is leapfrogged forever by a steady trickle of
    small same-priority demands — the ``bits`` tiebreak always sorts the
    newcomers first and greedy fill takes them.  With aging, any demand
    that fits the channel at all is delivered in bounded time: its
    effective priority eventually exceeds every fresh competitor's.
    Demands arriving in the same second (age 0) still follow the
    documented key exactly.
    """

    def __init__(self) -> None:
        self._backlog: list[tuple[int, Demand]] = []

    @property
    def backlog(self) -> list[Demand]:
        """Currently deferred demands, oldest first (read-only view)."""
        return [demand for _, demand in self._backlog]

    @property
    def capacity_bits_per_second(self) -> float:
        """The channel's sustained capacity."""
        return BANDWIDTH_MBPS * 1e6

    def schedule_second(self, demands: list[Demand]) -> ScheduleReport:
        """Serve this second's demands (plus aged backlog) within capacity.

        The service order is ``(-(priority + age // AGING_BOOST_SECONDS),
        -age, bits, sender)`` where ``age`` counts deferred seconds —
        for same-second demands (age 0) this reduces to the documented
        stable key ``(-priority, bits, sender)``.
        """
        aged = self._backlog + [(0, demand) for demand in demands]
        queue = sorted(
            aged,
            key=lambda item: (
                -(item[1].priority + item[0] // AGING_BOOST_SECONDS),
                -item[0],
                item[1].bits,
                item[1].sender,
            ),
        )
        if not queue:
            # Idle second: nothing queued, nothing carried over.
            return ScheduleReport()
        report = ScheduleReport()
        deferred_aged: list[tuple[int, Demand]] = []
        budget = self.capacity_bits_per_second
        used = 0.0
        for age, demand in queue:
            if used + demand.bits <= budget:
                used += demand.bits
                report.delivered.append(demand)
            else:
                report.deferred.append(demand)
                deferred_aged.append((age + 1, demand))
        report.utilization = used / budget if budget else 0.0
        deferred_aged.sort(key=lambda item: -item[0])
        self._backlog = deferred_aged
        return report

    def run(self, per_second_demands: list[list[Demand]]) -> list[ScheduleReport]:
        """Schedule a multi-second trace; backlog carries across seconds."""
        return [self.schedule_second(batch) for batch in per_second_demands]

    @staticmethod
    def saturation_point(bits_per_pair: float, bidirectional: bool = True) -> int:
        """Max cooperating pairs one channel supports at a given demand.

        The congestion headline: at full-frame exchange each pair costs
        ``bits_per_pair`` per direction per second.
        """
        if bits_per_pair <= 0:
            raise ValueError("bits_per_pair must be positive")
        per_pair = bits_per_pair * (2 if bidirectional else 1)
        return int(np.floor(BANDWIDTH_MBPS * 1e6 / per_pair))
