"""Seeded open-loop load generation for the serving engine.

The workload is a pure function of ``(spec, pool)``: every arrival time,
request kind, priority, deadline and payload choice is drawn from RNG
streams derived via :func:`repro.runtime.derive_seed`, so the same spec
produces the same request sequence in every process — the first half of
the engine's end-to-end determinism contract.

Two load models coexist:

* **Open-loop** (:class:`WorkloadSpec` / :func:`generate_workload`) —
  clients do not wait for responses (the honest model for overload
  studies: offered load is what the fleet generates, not what the server
  admits), Poisson-like per client: exponential inter-arrival gaps,
  optionally compressed by a deterministic square-wave burst pattern so
  the engine sees realistic platoon-crossing spikes, not just a smooth
  mean rate.
* **Closed-loop** (:class:`ClosedLoopSpec` / :class:`ClosedLoopClient`)
  — platooning control loops that issue one request, wait for its
  terminal outcome, think for a seeded gap, and re-issue.  Their request
  ids come from a reserved high range (:data:`CLOSED_LOOP_ID_BASE`), so
  open-loop trace ids (dense from 0) and closed-loop ids never collide;
  each client's entire decision stream is a pure function of its derived
  seed and the engine-reported outcome times, which keeps mixed
  open+closed workloads inside the determinism contract.

Payloads come from a :class:`ScenarioPool` — a small set of pre-scanned
cooperative scenes the requests reference (many vehicles asking about a
bounded world, the serving regime Cooper targets).  Ingress channel
faults (a request lost before reaching the service) are applied by
:func:`apply_ingress_loss` with the same Gilbert-Elliott burst machinery
the exchange channel uses (:mod:`repro.faults`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.base import CooperativeCase, make_case
from repro.faults.models import BurstLossModel
from repro.fusion.package import ExchangePackage
from repro.geometry.transforms import Pose
from repro.network.demand import RoiRequest
from repro.pointcloud.cloud import PointCloud
from repro.runtime import derive_seed
from repro.scene.layouts import parking_lot, t_junction
from repro.sensors.lidar import VLP_16, BeamPattern
from repro.serve.requests import PerceptionRequest, RequestKind

__all__ = [
    "PoolEntry",
    "ScenarioPool",
    "WorkloadSpec",
    "ClosedLoopSpec",
    "ClosedLoopClient",
    "make_closed_loop_clients",
    "generate_workload",
    "apply_ingress_loss",
    "CLOSED_LOOP_ID_BASE",
    "CLOSED_LOOP_ID_STRIDE",
]

CLOSED_LOOP_ID_BASE = 1_000_000_000
"""First request id of the closed-loop range (open-loop ids are dense
from 0, so the two streams can never collide)."""

CLOSED_LOOP_ID_STRIDE = 1_000_000
"""Id stride per closed-loop client: client ``i`` owns ids
``BASE + i*STRIDE .. BASE + (i+1)*STRIDE - 1``."""

KIND_WEIGHTS = (0.6, 0.3, 0.1)
"""Relative mix of (DETECT, FUSE_DETECT, ROI_ANSWER) requests, open and
closed loop alike."""

PRIORITY_WEIGHTS = (0.7, 0.2, 0.1)
"""Relative mix of priorities ``0..len-1`` (the index is the priority;
later entries are higher priority), open and closed loop alike."""

DEADLINE_RANGE_MS = (150.0, 400.0)
"""Per-request SLO, drawn uniformly from this (min, max) interval after
arrival: every closed-loop request, and open-loop ones by default."""

BURST_PERIOD_MS = 1000.0
"""Period of the open-loop square-wave burst pattern."""

BURST_DUTY = 0.25
"""Share of every burst period, from its start, that is a burst."""

THINK_MS_RANGE = (20.0, 80.0)
"""A closed-loop client's seeded uniform think time between receiving a
reply and issuing its next request."""

RETRY_BACKOFF_MS = 40.0
"""A closed-loop client's fixed back-off after a shed or rejected request
(faster than it would think, but never instant: hammering a saturated
queue helps nobody)."""

START_SPREAD_MS = 50.0
"""Closed-loop first issues spread uniformly over this window, so a fleet
of loops does not arrive as one spike."""


@dataclass(frozen=True)
class PoolEntry:
    """One scene's worth of request payloads.

    Attributes:
        name: scene identifier.
        native_cloud / native_pose: the receiver's own scan and measured
            pose (DETECT payload; FUSE_DETECT native side).
        packages: cooperator exchange packages (FUSE_DETECT payload).
        coop_cloud / coop_pose: one cooperator's scan and measured pose
            (ROI_ANSWER payload — the cloud being cropped).
        roi: a demand-driven region request in the receiver's frame.
    """

    name: str
    native_cloud: PointCloud
    native_pose: Pose
    packages: tuple[ExchangePackage, ...]
    coop_cloud: PointCloud
    coop_pose: Pose
    roi: RoiRequest


@dataclass(frozen=True)
class ScenarioPool:
    """The bounded payload universe the workload draws from."""

    entries: tuple[PoolEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("scenario pool must not be empty")

    @classmethod
    def from_cases(
        cls, cases: list[CooperativeCase], roi_margin: float = 1.5
    ) -> "ScenarioPool":
        """Build pool entries from cooperative cases.

        The ROI request covers the scene's ground-truth target boxes
        (expanded by ``roi_margin``) expressed in the receiver's frame —
        the regions a demand-driven exchange would actually ask about.
        """
        entries = []
        for case in cases:
            receiver = case.receiver
            receiver_obs = case.observations[receiver]
            coop_name = next(
                name for name in case.observer_names if name != receiver
            )
            coop_obs = case.observations[coop_name]
            to_receiver = receiver_obs.true_pose.from_world()
            regions = tuple(
                box.transformed(to_receiver).expanded(roi_margin)
                for box in case.world.target_boxes()
            )
            entries.append(
                PoolEntry(
                    name=case.name,
                    native_cloud=receiver_obs.scan.cloud,
                    native_pose=receiver_obs.measured_pose,
                    packages=tuple(case.packages_for_receiver()),
                    coop_cloud=coop_obs.scan.cloud,
                    coop_pose=coop_obs.measured_pose,
                    roi=RoiRequest(
                        regions=regions,
                        requester_pose=receiver_obs.measured_pose,
                    ),
                )
            )
        return cls(entries=tuple(entries))

    @classmethod
    def build(
        cls,
        seed: int = 0,
        pattern: BeamPattern = VLP_16,
        variants: int = 2,
    ) -> "ScenarioPool":
        """The default serving pool: parking-lot and T-junction scenes.

        ``variants`` re-scans each layout under different sensor seeds so
        the pool is not a single cloud repeated — batch occupancy then
        mixes genuinely different payload sizes.
        """
        cases: list[CooperativeCase] = []
        for variant in range(max(1, variants)):
            case_seed = derive_seed(seed, "pool", variant) % (2**16)
            lot = parking_lot()
            cases.append(
                make_case(
                    name=f"serve/parking_lot/v{variant}",
                    scenario="parking_lot",
                    world=lot.world,
                    poses={
                        "car1": lot.viewpoint("car1"),
                        "car2": lot.viewpoint("car2"),
                    },
                    receiver="car1",
                    pattern=pattern,
                    seed=case_seed,
                )
            )
            junction = t_junction()
            cases.append(
                make_case(
                    name=f"serve/t_junction/v{variant}",
                    scenario="t_junction",
                    world=junction.world,
                    poses={
                        "t1": junction.viewpoint("t1"),
                        "t2": junction.viewpoint("t2"),
                    },
                    receiver="t1",
                    pattern=pattern,
                    seed=case_seed + 17,
                )
            )
        return cls.from_cases(cases)


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of an open-loop serving workload.

    Attributes:
        duration_ms: length of the arrival window (virtual clock).
        rate_rps: mean offered load across all clients, requests/second.
        num_clients: independent arrival processes (vehicles).
        deadline_range_ms: per-request SLO sampled uniformly from this
            (min, max) interval after arrival.
        burst_factor: arrival-rate multiplier inside burst windows (1.0
            disables bursting); the windows are the first
            :data:`BURST_DUTY` of every :data:`BURST_PERIOD_MS`.
        seed: base seed every RNG stream is derived from.

    Kinds and priorities follow :data:`KIND_WEIGHTS` and
    :data:`PRIORITY_WEIGHTS`.
    """

    duration_ms: float = 4000.0
    rate_rps: float = 40.0
    num_clients: int = 4
    deadline_range_ms: tuple[float, float] = DEADLINE_RANGE_MS
    burst_factor: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.num_clients < 1:
            raise ValueError("num_clients must be at least 1")
        lo, hi = self.deadline_range_ms
        if not 0 < lo <= hi:
            raise ValueError("deadline_range_ms must satisfy 0 < min <= max")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1 (1 disables bursts)")

    def in_burst(self, t_ms: float) -> bool:
        """Is virtual time ``t_ms`` inside a burst window?"""
        if self.burst_factor <= 1.0:
            return False
        return (t_ms % BURST_PERIOD_MS) < BURST_DUTY * BURST_PERIOD_MS


def _pick(rng: np.random.Generator, weights) -> int:
    """Draw an index proportionally to ``weights`` (one uniform draw)."""
    weights = np.asarray(weights, dtype=float)
    edges = np.cumsum(weights / weights.sum())
    return int(np.searchsorted(edges, rng.random(), side="right"))


_KINDS = (RequestKind.DETECT, RequestKind.FUSE_DETECT, RequestKind.ROI_ANSWER)


def _build_request(
    request_id: int,
    client: str,
    kind: RequestKind,
    arrival_ms: float,
    deadline_ms: float,
    priority: int,
    entry: PoolEntry,
) -> PerceptionRequest:
    """Assemble one request's payload from a pool entry."""
    if kind is RequestKind.DETECT:
        return PerceptionRequest(
            request_id, client, kind, arrival_ms, deadline_ms, priority,
            cloud=entry.native_cloud,
        )
    if kind is RequestKind.FUSE_DETECT:
        return PerceptionRequest(
            request_id, client, kind, arrival_ms, deadline_ms, priority,
            cloud=entry.native_cloud,
            pose=entry.native_pose,
            packages=entry.packages,
        )
    return PerceptionRequest(
        request_id, client, kind, arrival_ms, deadline_ms, priority,
        cloud=entry.coop_cloud,
        pose=entry.coop_pose,
        roi=entry.roi,
    )


def generate_workload(
    spec: WorkloadSpec, pool: ScenarioPool
) -> list[PerceptionRequest]:
    """Generate the full request trace of one workload.

    Each client is an independent exponential arrival process; inside a
    burst window the gap shrinks by ``burst_factor``.  The merged trace
    is sorted by ``(arrival_ms, client)`` and request ids are assigned
    densely in that order, making the id itself deterministic.
    """
    staged: list[tuple[float, str, RequestKind, float, int, PoolEntry]] = []
    per_client_rate = spec.rate_rps / spec.num_clients
    for client_index in range(spec.num_clients):
        client = f"veh{client_index:02d}"
        rng = np.random.default_rng(derive_seed(spec.seed, "arrivals", client))
        t = 0.0
        while True:
            gap = rng.exponential(1000.0 / per_client_rate)
            if spec.in_burst(t):
                gap /= spec.burst_factor
            t += gap
            if t >= spec.duration_ms:
                break
            kind = _KINDS[_pick(rng, KIND_WEIGHTS)]
            priority = _pick(rng, PRIORITY_WEIGHTS)
            lo, hi = spec.deadline_range_ms
            deadline = t + lo + (hi - lo) * rng.random()
            entry = pool.entries[int(rng.integers(len(pool.entries)))]
            staged.append((t, client, kind, deadline, priority, entry))
    staged.sort(key=lambda item: (item[0], item[1]))
    return [
        _build_request(
            request_id, client, kind, arrival, deadline, priority, entry
        )
        for request_id, (
            arrival, client, kind, deadline, priority, entry,
        ) in enumerate(staged)
    ]


@dataclass(frozen=True)
class ClosedLoopSpec:
    """Declarative description of a closed-loop (platooning) client set.

    Attributes:
        duration_ms: clients stop re-issuing once the virtual clock
            passes this horizon.
        num_clients: independent control loops.
        seed: base seed every client stream derives from.

    Timing follows :data:`START_SPREAD_MS`, :data:`THINK_MS_RANGE` and
    :data:`RETRY_BACKOFF_MS`; kinds, priorities and deadlines follow
    :data:`KIND_WEIGHTS`, :data:`PRIORITY_WEIGHTS` and
    :data:`DEADLINE_RANGE_MS`.
    """

    duration_ms: float = 4000.0
    num_clients: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.num_clients < 1:
            raise ValueError("num_clients must be at least 1")


class ClosedLoopClient:
    """One platooning control loop: request → outcome → think → request.

    The engine drives the protocol: :meth:`start` yields the first
    request, and every time a request reaches a terminal state the engine
    calls :meth:`reissue` with the virtual decision time; the client
    answers with the follow-up request (or ``None`` past the horizon).
    All draws come from the client's derived RNG, so the stream of issued
    requests is a pure function of ``(spec, client index, outcome
    times)`` — and outcome times are themselves deterministic, closing
    the loop inside the determinism contract.

    A client instance is single-use: serving mutates its RNG and
    sequence counter.  Build a fresh set per :meth:`~repro.serve.engine.
    ServingEngine.serve` call via :func:`make_closed_loop_clients`.
    """

    def __init__(
        self, spec: ClosedLoopSpec, index: int, pool: ScenarioPool
    ) -> None:
        self.spec = spec
        self.index = index
        self.client = f"loop{index:02d}"
        self.pool = pool
        self.rng = np.random.default_rng(
            derive_seed(spec.seed, "closed-loop", self.client)
        )
        self._next_id = CLOSED_LOOP_ID_BASE + index * CLOSED_LOOP_ID_STRIDE
        self.issued = 0
        self.completed = 0
        self.retried = 0

    def start(self) -> PerceptionRequest | None:
        """The client's first request (spread over :data:`START_SPREAD_MS`)."""
        first_ms = START_SPREAD_MS * float(self.rng.random())
        return self._issue(first_ms)

    def reissue(
        self, decided_ms: float, completed: bool
    ) -> PerceptionRequest | None:
        """The follow-up after a terminal outcome at ``decided_ms``.

        A completed reply triggers a think-time gap; a shed/rejected
        request triggers the fixed retry back-off.  Returns ``None`` once
        the next issue would fall past the horizon.
        """
        if completed:
            self.completed += 1
            lo, hi = THINK_MS_RANGE
            gap = lo + (hi - lo) * float(self.rng.random())
        else:
            self.retried += 1
            gap = RETRY_BACKOFF_MS
        return self._issue(decided_ms + gap)

    def _issue(self, arrival_ms: float) -> PerceptionRequest | None:
        if arrival_ms >= self.spec.duration_ms:
            return None
        kind = _KINDS[_pick(self.rng, KIND_WEIGHTS)]
        priority = _pick(self.rng, PRIORITY_WEIGHTS)
        lo, hi = DEADLINE_RANGE_MS
        deadline = arrival_ms + lo + (hi - lo) * float(self.rng.random())
        entry = self.pool.entries[int(self.rng.integers(len(self.pool.entries)))]
        request_id = self._next_id
        self._next_id += 1
        self.issued += 1
        return _build_request(
            request_id, self.client, kind, arrival_ms, deadline, priority,
            entry,
        )


def make_closed_loop_clients(
    spec: ClosedLoopSpec, pool: ScenarioPool
) -> list[ClosedLoopClient]:
    """A fresh single-use client set for one serve call."""
    return [
        ClosedLoopClient(spec, index, pool) for index in range(spec.num_clients)
    ]


def apply_ingress_loss(
    requests: list[PerceptionRequest],
    loss_rate: float = 0.0,
    seed: int = 0,
    burst_model: BurstLossModel | None = None,
) -> tuple[list[PerceptionRequest], list[PerceptionRequest]]:
    """Split a trace into (delivered, lost) under ingress channel faults.

    With a ``burst_model`` the per-client link follows a Gilbert-Elliott
    chain (one state transition per virtual second, matching the exchange
    channel's cadence) and each request faces the state's loss rate;
    otherwise every request faces the flat ``loss_rate``.  Each request's
    fate comes from an RNG derived from ``(seed, "ingress", request_id)``
    — a pure per-request function, unaffected by worker layout.
    """
    if burst_model is None and not 0.0 <= loss_rate <= 1.0:
        raise ValueError("loss_rate must be in [0, 1]")
    delivered: list[PerceptionRequest] = []
    lost: list[PerceptionRequest] = []
    for request in requests:
        if burst_model is not None:
            link_seed = derive_seed(seed, "ingress-link", request.client)
            state = burst_model.state_at(link_seed, int(request.arrival_ms // 1000))
            rate = burst_model.loss_rate(state)
        else:
            rate = loss_rate
        rng = np.random.default_rng(
            derive_seed(seed, "ingress", request.request_id)
        )
        (lost if rng.random() < rate else delivered).append(request)
    return delivered, lost
