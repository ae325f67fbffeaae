"""Request and record types of the perception serving engine.

A :class:`PerceptionRequest` is one client vehicle's question to the
edge perception service, stamped onto the engine's *virtual clock*
(milliseconds since the workload epoch).  Three kinds exist, mirroring
the three ways a Cooper vehicle consumes remote compute:

* ``DETECT`` — run SPOD on one cloud (the offload case: a vehicle ships
  its scan and wants boxes back).
* ``FUSE_DETECT`` — align + merge cooperator packages into the native
  scan (Eq. 1-3), then detect on the cooperative cloud.
* ``ROI_ANSWER`` — answer a demand-driven :class:`~repro.network.demand.
  RoiRequest` by cropping a cooperator's cloud to the requested regions.

A :class:`RequestRecord` is the engine's authoritative account of what
happened to one request.  Its :meth:`RequestRecord.log_entry` projection
contains only virtual-clock and outcome fields — no wall-clock — which is
the surface the determinism contract covers: the same (seed, workload
spec) must produce bit-identical log entries at any worker count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.fusion.package import ExchangePackage
from repro.geometry.transforms import Pose
from repro.network.demand import RoiRequest
from repro.pointcloud.cloud import PointCloud

__all__ = [
    "RequestKind",
    "RequestStatus",
    "PerceptionRequest",
    "RequestRecord",
]


class RequestKind(enum.Enum):
    """What a client is asking the serving engine to compute."""

    DETECT = "detect"
    FUSE_DETECT = "fuse_detect"
    ROI_ANSWER = "roi_answer"

    @property
    def service_class(self) -> str:
        """Batching compatibility class.

        ``DETECT`` and ``FUSE_DETECT`` both end in a detector run over
        one cloud each, so they share a dispatch: one
        :meth:`~repro.detection.spod.SPOD.detect_batch` call, which runs
        the per-cloud pipeline on each; ``ROI_ANSWER`` is pure geometry
        (no detector) and batches only with its own kind.
        """
        return "roi" if self is RequestKind.ROI_ANSWER else "detect"


class RequestStatus(enum.Enum):
    """Terminal outcome of one request."""

    COMPLETED = "completed"
    SHED_DEADLINE = "shed_deadline"
    REJECTED_QUEUE_FULL = "rejected_queue_full"
    LOST_INGRESS = "lost_ingress"
    FAILED_SHARD_DOWN = "failed_shard_down"
    SHED_BROWNOUT = "shed_brownout"


@dataclass(frozen=True)
class PerceptionRequest:
    """One client's perception request on the virtual clock.

    Attributes:
        request_id: dense index assigned in (arrival, client) order by the
            workload generator — the deterministic identity every log and
            tie-break keys on.
        client: requesting vehicle's name.
        kind: what to compute.
        arrival_ms: virtual arrival time at the service ingress.
        deadline_ms: absolute virtual deadline; a response completing
            after it missed its SLO, and the engine sheds requests that
            provably cannot meet it.
        priority: higher is served first under contention (safety-path
            requests over bulk refreshes).
        model: name of the detector model the client's fleet runs.  The
            engine maps it to one of its detectors and co-batches only
            requests whose detectors are interchangeable
            (:meth:`~repro.detection.spod.SPOD.equivalent_to`).
        cloud: the native cloud (DETECT / FUSE_DETECT) or the cooperator
            cloud to crop (ROI_ANSWER).
        pose: the receiver's measured pose (FUSE_DETECT) or the
            cooperator's pose (ROI_ANSWER); unused for DETECT.
        packages: cooperator exchange packages to fuse (FUSE_DETECT).
        roi: the demand-driven region request (ROI_ANSWER).
    """

    request_id: int
    client: str
    kind: RequestKind
    arrival_ms: float
    deadline_ms: float
    priority: int = 0
    cloud: PointCloud | None = None
    pose: Pose | None = None
    packages: tuple[ExchangePackage, ...] = ()
    roi: RoiRequest | None = None
    model: str = "default"

    def __post_init__(self) -> None:
        object.__setattr__(self, "packages", tuple(self.packages))
        if self.arrival_ms < 0:
            raise ValueError("arrival_ms must be non-negative")
        if self.deadline_ms <= self.arrival_ms:
            raise ValueError("deadline_ms must be after arrival_ms")
        if self.cloud is None:
            raise ValueError(f"{self.kind.value} request needs a cloud")
        if self.kind is RequestKind.FUSE_DETECT and self.pose is None:
            raise ValueError("fuse_detect request needs the receiver pose")
        if self.kind is RequestKind.ROI_ANSWER and (
            self.roi is None or self.pose is None
        ):
            raise ValueError("roi_answer request needs roi + cooperator pose")

    @property
    def num_points(self) -> int:
        """Total points the request carries (the service-cost driver)."""
        total = len(self.cloud)
        for package in self.packages:
            total += len(package.cloud)
        return total


@dataclass
class RequestRecord:
    """The engine's account of one request's lifecycle.

    Virtual-clock fields (``*_ms``) and outcome fields are part of the
    determinism contract; ``wall_service_seconds`` is real measured time
    and deliberately excluded from :meth:`log_entry`.

    Attributes:
        request_id / client / kind / priority / model / arrival_ms /
            deadline_ms: echoed from the request.
        status: terminal outcome (None while in flight).
        decided_ms: when the terminal decision fell (rejection time,
            shed time, or completion time).
        dispatch_ms: when the request's batch started service.
        queue_ms: time spent queued (dispatch - arrival).
        service_ms: virtual service time of its batch.
        latency_ms: completion - arrival (completed requests only).
        deadline_met: completed at or before the deadline.
        batch_id: which dispatch served it (-1 when never dispatched).
        batch_size: how many requests shared that dispatch.
        num_results: detections returned (detect kinds) or reply points
            (ROI_ANSWER).
        attempts: delivery attempts the router made (1 without faults).
        failovers: how many times the request moved past its primary
            shard in the fallback chain (0 = served at home).
        wall_service_seconds: measured wall-clock share of its batch's
            real compute (observability only — never in the log).
    """

    request_id: int
    client: str
    kind: RequestKind
    priority: int
    arrival_ms: float
    deadline_ms: float
    model: str = "default"
    status: RequestStatus | None = None
    decided_ms: float = -1.0
    dispatch_ms: float = -1.0
    queue_ms: float = -1.0
    service_ms: float = -1.0
    latency_ms: float = -1.0
    deadline_met: bool = False
    batch_id: int = -1
    batch_size: int = 0
    num_results: int = 0
    attempts: int = 1
    failovers: int = 0
    wall_service_seconds: float = field(default=0.0, repr=False)

    @classmethod
    def for_request(cls, request: PerceptionRequest) -> "RequestRecord":
        """A fresh in-flight record echoing the request's identity."""
        return cls(
            request_id=request.request_id,
            client=request.client,
            kind=request.kind,
            priority=request.priority,
            model=request.model,
            arrival_ms=request.arrival_ms,
            deadline_ms=request.deadline_ms,
        )

    def log_entry(self) -> dict:
        """The determinism-covered projection of this record.

        Virtual times are rounded to nanosecond-of-virtual-time precision
        (6 decimals of a millisecond) purely to make the JSON stable to
        the eye; the underlying floats are already bit-identical across
        worker counts because every one of them is computed parent-side.
        """
        return {
            "id": self.request_id,
            "client": self.client,
            "kind": self.kind.value,
            "priority": self.priority,
            "model": self.model,
            "arrival_ms": round(self.arrival_ms, 6),
            "deadline_ms": round(self.deadline_ms, 6),
            "status": self.status.value if self.status else "in_flight",
            "decided_ms": round(self.decided_ms, 6),
            "dispatch_ms": round(self.dispatch_ms, 6),
            "queue_ms": round(self.queue_ms, 6),
            "service_ms": round(self.service_ms, 6),
            "latency_ms": round(self.latency_ms, 6),
            "deadline_met": self.deadline_met,
            "batch_id": self.batch_id,
            "batch_size": self.batch_size,
            "num_results": self.num_results,
            "attempts": self.attempts,
            "failovers": self.failovers,
        }
