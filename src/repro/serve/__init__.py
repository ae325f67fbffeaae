"""Deterministic perception serving for the Cooper reproduction.

The ROADMAP's end-game is many connected vehicles continuously asking a
shared edge service for fused detections — a *serving* problem.  This
package is that layer: an event-driven, virtual-clock engine that takes
concurrent perception requests from simulated client vehicles and turns
them into scheduled, batched, SLO-tracked work on the SPOD pipeline —
and, at fleet scale, shards that engine behind a deterministic router.

* :class:`~repro.serve.requests.PerceptionRequest` /
  :class:`~repro.serve.requests.RequestRecord` — the three request kinds
  (detect, fuse+detect, ROI answer) and their audited lifecycle.
* :class:`~repro.serve.queues.BoundedPriorityQueue` — admission control:
  bounded depth, documented total order, displace-or-refuse backpressure.
* :class:`~repro.serve.engine.ServingEngine` — dynamic batching of
  requests into one :meth:`~repro.detection.spod.SPOD.detect_batch`
  call per dispatch, which runs the per-cloud pipeline on each cloud
  (heterogeneous detectors co-batch only when
  :meth:`~repro.detection.spod.SPOD.equivalent_to`), deadline-based load
  shedding, queue-depth lane autoscaling, optional fusion fan-out over
  :mod:`repro.runtime` workers.
* :class:`~repro.serve.fleet.FleetEngine` — N independent engine shards
  behind a :func:`~repro.serve.fleet.route_client` hash router (pure
  function of the routing seed; reshard-stable range partition).
* :mod:`~repro.serve.workload` — seeded load generation: open-loop
  Poisson-like arrivals (bursts, priority mixes, ingress channel faults)
  plus closed-loop platooning clients that wait for a reply before
  re-issuing.
* :mod:`~repro.serve.metrics` — p50/p95/p99 latency, throughput, shed
  rates, batch occupancy; fleet-wide + per-shard aggregation.

Resilience (PR 8): a seeded
:class:`~repro.faults.serve.ShardFaultPlan` injects shard crash/restart
windows, brownout service inflation, and bursty ingress drop; the fleet
router answers with a health-aware failover pass
(:func:`~repro.serve.fleet.fallback_chain` + per-shard breakers),
seeded-backoff retries and deduplicated hedges
(:class:`~repro.serve.fleet.FailoverConfig`), and the engine degrades
hysteretically under queue pressure (brownout shedding + a shrunken
batching window).

Determinism contract: the request log of
:meth:`~repro.serve.engine.ServingEngine.serve` (and the shard-tagged
fleet log of :meth:`~repro.serve.fleet.FleetEngine.serve`) is a pure
function of ``(seed, workload spec, engine config)`` — bit-identical at
any worker count, **including under injected shard faults** — because
every scheduling and routing decision runs parent-side on the virtual
clock, and the work fanned out to workers is pure.
"""

from __future__ import annotations

from repro.faults.serve import ShardFaultEvent, ShardFaultPlan, ShardFaultView
from repro.serve.engine import (
    BatchRecord,
    ServeConfig,
    ServeResult,
    ServiceModel,
    ServingEngine,
)
from repro.serve.fleet import (
    FailoverConfig,
    FleetConfig,
    FleetEngine,
    FleetResult,
    fallback_chain,
    hash_bucket,
    route_bucket,
    route_client,
)
from repro.serve.metrics import (
    build_fleet_report,
    build_report,
    percentile,
    render_fleet_report,
    render_report,
)
from repro.serve.queues import BoundedPriorityQueue, request_sort_key
from repro.serve.requests import (
    PerceptionRequest,
    RequestKind,
    RequestRecord,
    RequestStatus,
)
from repro.serve.workload import (
    CLOSED_LOOP_ID_BASE,
    CLOSED_LOOP_ID_STRIDE,
    ClosedLoopClient,
    ClosedLoopSpec,
    PoolEntry,
    ScenarioPool,
    WorkloadSpec,
    apply_ingress_loss,
    generate_workload,
    make_closed_loop_clients,
)

__all__ = [
    "BatchRecord",
    "BoundedPriorityQueue",
    "CLOSED_LOOP_ID_BASE",
    "CLOSED_LOOP_ID_STRIDE",
    "ClosedLoopClient",
    "ClosedLoopSpec",
    "FailoverConfig",
    "FleetConfig",
    "FleetEngine",
    "FleetResult",
    "PerceptionRequest",
    "PoolEntry",
    "RequestKind",
    "RequestRecord",
    "RequestStatus",
    "ScenarioPool",
    "ServeConfig",
    "ServeResult",
    "ServiceModel",
    "ServingEngine",
    "ShardFaultEvent",
    "ShardFaultPlan",
    "ShardFaultView",
    "WorkloadSpec",
    "apply_ingress_loss",
    "build_fleet_report",
    "build_report",
    "fallback_chain",
    "generate_workload",
    "hash_bucket",
    "make_closed_loop_clients",
    "percentile",
    "render_fleet_report",
    "render_report",
    "request_sort_key",
    "route_bucket",
    "route_client",
]
