"""Bounded deterministic priority queue — the engine's admission surface.

Admission control is where an overloaded serving system either stays
bounded or collapses: the queue has a hard capacity, and when it is full
an arriving request must either displace the worst queued request or be
rejected on the spot (backpressure to the client).  Every decision here
is a pure function of the queue contents and the incoming request — no
clocks, no randomness — so admission outcomes are identical in every
process.

Ordering is total and documented: requests are served in

``(-priority, deadline_ms, arrival_ms, request_id)``

order — higher priority first, then earlier deadline (EDF within a
priority class), then earlier arrival, with the dense ``request_id``
breaking any remaining tie.  Since request ids are unique, no two queued
requests ever compare equal.
"""

from __future__ import annotations

from bisect import insort

from repro.serve.requests import PerceptionRequest

__all__ = ["request_sort_key", "BoundedPriorityQueue"]


def request_sort_key(request: PerceptionRequest) -> tuple:
    """The total service order: priority desc, EDF, arrival, id."""
    return (
        -request.priority,
        request.deadline_ms,
        request.arrival_ms,
        request.request_id,
    )


class BoundedPriorityQueue:
    """A capacity-bounded queue served in :func:`request_sort_key` order.

    Internally a sorted list of ``(key, request)`` pairs — queue depths
    in this engine are tens, not millions, so ``bisect.insort`` beats a
    heap on simplicity and gives free ordered iteration.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        self.capacity = capacity
        self._entries: list[tuple[tuple, PerceptionRequest]] = []
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        """Queued requests in service order."""
        return (entry[1] for entry in self._entries)

    def offer(
        self, request: PerceptionRequest
    ) -> tuple[bool, PerceptionRequest | None]:
        """Try to admit ``request``; returns ``(admitted, displaced)``.

        When full, the incoming request displaces the *worst* queued
        request only if it would be served before it; otherwise the
        incoming request itself is refused.  Exactly one request loses in
        the full case, and it is returned (or implied by
        ``admitted=False``) so the engine can record the rejection.
        """
        key = request_sort_key(request)
        if len(self._entries) >= self.capacity:
            worst_key, worst = self._entries[-1]
            if key >= worst_key:
                return False, None
            self._entries.pop()
            insort(self._entries, (key, request))
            return True, worst
        insort(self._entries, (key, request))
        if len(self._entries) > self.max_depth:
            self.max_depth = len(self._entries)
        return True, None

    def head(self) -> PerceptionRequest:
        """The next request in service order (queue must be non-empty)."""
        return self._entries[0][1]

    def oldest_arrival_ms(self) -> float:
        """Earliest arrival among queued requests (batch-window anchor).

        An empty queue has no oldest arrival; asking for one is a caller
        bug (the engine checks depth first), so fail loudly instead of
        letting ``min()`` raise an opaque error.
        """
        if not self._entries:
            raise ValueError("empty queue has no oldest arrival")
        return min(entry[1].arrival_ms for entry in self._entries)

    def pop_matching(
        self, predicate, limit: int
    ) -> list[PerceptionRequest]:
        """Pop up to ``limit`` requests satisfying ``predicate``, in order.

        Requests that do not match keep their queue positions — a burst of
        ROI crops cannot be silently consumed by a detector batch.
        """
        taken: list[PerceptionRequest] = []
        kept: list[tuple[tuple, PerceptionRequest]] = []
        for entry in self._entries:
            if len(taken) < limit and predicate(entry[1]):
                taken.append(entry[1])
            else:
                kept.append(entry)
        self._entries = kept
        return taken

    def pop_class(
        self, service_class: str, limit: int
    ) -> list[PerceptionRequest]:
        """Pop up to ``limit`` requests of one service class, in order."""
        return self.pop_matching(
            lambda request: request.kind.service_class == service_class, limit
        )
