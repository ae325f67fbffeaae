"""The deterministic perception serving engine.

:class:`ServingEngine` turns a trace of :class:`~repro.serve.requests.
PerceptionRequest`\\ s into scheduled, batched, SLO-tracked work:

* **Virtual clock** — scheduling runs on the workload's virtual
  milliseconds, with service times *modelled* by a deterministic
  :class:`ServiceModel` instead of read off the wall clock.  The model's
  constants are not fitted to today's detector: the repo benchmark's
  ``serve.model_error_ratio_modelled`` (modelled over measured dispatch
  time on the ``serve_trace`` workload) reads above 1, and ROADMAP.md
  item 6 plans the refit.  The entire decision sequence — admission,
  batch composition, shed verdicts, completion times — is therefore a
  pure function of (engine config, request trace), bit-identical in
  every process and at every worker count.  Real wall-clock is still
  measured (the work genuinely runs) and reported through
  :mod:`repro.profiling`, but never feeds back into scheduling.
* **Admission control** — a :class:`~repro.serve.queues.
  BoundedPriorityQueue` per engine; a full queue displaces the worst
  queued request or refuses the arrival (backpressure), so queue memory
  stays bounded under any offered load.
* **Dynamic batching** — a free lane dispatches immediately when
  ``max_batch_size`` compatible requests are queued, else waits at most
  ``max_wait_ms`` past the oldest queued arrival before dispatching a
  partial batch.  The batching window re-anchors whenever admission
  displaces the oldest queued request, so a displaced head-of-queue
  request can never leave a stale timer behind, and no batch dispatches
  before its requests have arrived.  Detect-class batches run through
  one :meth:`~repro.detection.spod.SPOD.detect_batch` call, which runs
  each cloud through the per-cloud detector pipeline; FUSE_DETECT
  requests are fused first — fanned out across a
  :class:`~repro.runtime.WorkerPool` when ``workers > 1`` — and ROI
  answers batch separately as pure geometry.  Each dispatch serves the
  service class of the request at the head of the queue.
* **Closed-loop clients** — alongside the open-loop trace, the engine
  accepts :class:`~repro.serve.workload.ClosedLoopClient` control loops
  that issue their next request only after the previous one reached a
  terminal state (completion, shed or rejection).  Their arrivals are
  injected into the event loop on the virtual clock, so closed-loop
  scheduling stays a pure function of the seed.
* **Lane autoscaling** — with ``max_lanes > lanes`` the engine adds a
  virtual service lane when queue depth reaches :data:`SCALE_UP_DEPTH`
  and retires idle extra lanes when depth falls to
  :data:`SCALE_DOWN_DEPTH`; every decision reads only virtual-clock
  state, and the lane events are part of the determinism log.
* **SLO-aware shedding** — at dispatch, any request that provably cannot
  meet its deadline (even served alone, immediately) is shed instead of
  burning service capacity; its record says so.

The output :class:`ServeResult` carries one :class:`~repro.serve.
requests.RequestRecord` per offered request plus per-batch records; its
:meth:`ServeResult.log_json` projection is the determinism-contract
surface the tests compare across worker counts.
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import dataclass, field

from repro.detection.spod import SPOD
from repro.faults.serve import ShardFaultView
from repro.fusion.align import merge_packages
from repro.fusion.package import ExchangePackage
from repro.geometry.transforms import Pose
from repro.network.demand import RoiRequest, answer_request
from repro.pointcloud.cloud import PointCloud
from repro.profiling import PROFILER
from repro.runtime import WorkerPool, fork_available, resolve_workers
from repro.serve.queues import BoundedPriorityQueue
from repro.serve.requests import (
    PerceptionRequest,
    RequestKind,
    RequestRecord,
    RequestStatus,
)

__all__ = ["ServiceModel", "ServeConfig", "BatchRecord", "ServeResult", "ServingEngine"]

#: Queue depth at or above which an autoscaling engine adds a lane.
SCALE_UP_DEPTH = 12
#: Queue depth at or below which an autoscaling engine retires an idle
#: extra lane.
SCALE_DOWN_DEPTH = 2
#: Multiplier on ``max_wait_ms`` while in brownout: a shrunken batching
#: window drains the queue at lower latency.
BROWNOUT_WAIT_FACTOR = 0.25
#: Arrivals with priority at or below this are shed (``SHED_BROWNOUT``)
#: while in brownout.
BROWNOUT_SHED_PRIORITY = 0


@dataclass(frozen=True)
class ServiceModel:
    """Deterministic *modelled* service time of one dispatch.

    The defaults are estimates of float32 SPOD costs taken when the
    engine was written (a ~12 ms fixed decode/NMS floor per dispatch, a
    few ms per cloud, point-count dominated voxelize/VFE), not a fit to
    the current detector.  They keep scheduling a pure function of the
    trace; how far they sit from measured dispatch times is the repo
    benchmark's ``serve.model_error_ratio_modelled`` (the median over
    ``serve_trace`` dispatches of modelled over measured time), and
    ROADMAP.md item 6 plans their refit.

    Attributes:
        batch_base_ms: fixed cost of one detect-class dispatch.
        per_request_ms: marginal cost per cloud in a detect batch (the
            part dynamic batching does NOT amortise).
        per_kpoint_ms: cost per thousand points across the batch.
        roi_base_ms / roi_per_request_ms / roi_per_kpoint_ms: the same
            three knobs for ROI-answer (pure geometry) dispatches.
    """

    batch_base_ms: float = 12.0
    per_request_ms: float = 6.0
    per_kpoint_ms: float = 0.8
    roi_base_ms: float = 2.0
    roi_per_request_ms: float = 1.0
    roi_per_kpoint_ms: float = 0.05

    def __post_init__(self) -> None:
        for name in (
            "batch_base_ms", "per_request_ms", "per_kpoint_ms",
            "roi_base_ms", "roi_per_request_ms", "roi_per_kpoint_ms",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def batch_ms(
        self, service_class: str, num_requests: int, total_points: int
    ) -> float:
        """Virtual service time of one dispatch."""
        kpoints = total_points / 1000.0
        if service_class == "roi":
            return (
                self.roi_base_ms
                + self.roi_per_request_ms * num_requests
                + self.roi_per_kpoint_ms * kpoints
            )
        return (
            self.batch_base_ms
            + self.per_request_ms * num_requests
            + self.per_kpoint_ms * kpoints
        )

    def floor_ms(self, request: PerceptionRequest) -> float:
        """Fastest conceivable service: alone, dispatched immediately."""
        return self.batch_ms(request.kind.service_class, 1, request.num_points)


@dataclass(frozen=True)
class ServeConfig:
    """Scheduling knobs of the serving engine.

    Attributes:
        max_batch_size: dispatch cap; 1 degenerates to per-request
            serving (the baseline the serving bench compares against).
        max_wait_ms: longest a queued request may wait for co-batchers
            past its arrival before a partial batch dispatches.
        queue_capacity: bounded queue depth (admission control).
        lanes: baseline parallel virtual service lanes (a
            multi-accelerator server; each lane serves one batch at a
            time).
        max_lanes: autoscaling ceiling; 0 disables autoscaling, otherwise
            must be >= ``lanes`` and the engine may grow up to this many
            lanes under queue pressure (:data:`SCALE_UP_DEPTH`,
            :data:`SCALE_DOWN_DEPTH`).
        brownout_enter_depth: queue depth at or above which the engine
            enters *brownout* degradation — shedding arrivals of priority
            at most :data:`BROWNOUT_SHED_PRIORITY` and shrinking the
            batching window by :data:`BROWNOUT_WAIT_FACTOR` — until depth
            falls back to ``brownout_exit_depth`` (hysteresis).  0
            disables brownout.
        brownout_exit_depth: queue depth at or below which a brownout
            ends; must be below ``brownout_enter_depth``.
        service_model: the virtual cost model.
    """

    max_batch_size: int = 8
    max_wait_ms: float = 25.0
    queue_capacity: int = 64
    lanes: int = 1
    max_lanes: int = 0
    brownout_enter_depth: int = 0
    brownout_exit_depth: int = 2
    service_model: ServiceModel = field(default_factory=ServiceModel)

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.lanes < 1:
            raise ValueError("lanes must be at least 1")
        if self.max_lanes and self.max_lanes < self.lanes:
            raise ValueError("max_lanes must be 0 (off) or >= lanes")
        if self.brownout_enter_depth < 0:
            raise ValueError("brownout_enter_depth must be non-negative")
        if self.brownout_enter_depth:
            if self.brownout_exit_depth < 0:
                raise ValueError("brownout_exit_depth must be non-negative")
            if self.brownout_exit_depth >= self.brownout_enter_depth:
                raise ValueError(
                    "brownout_enter_depth must exceed brownout_exit_depth"
                )


@dataclass(frozen=True)
class BatchRecord:
    """One dispatch's summary (``wall_seconds`` is observability-only)."""

    batch_id: int
    service_class: str
    lane: int
    dispatch_ms: float
    service_ms: float
    size: int
    total_points: int
    wall_seconds: float = field(compare=False)

    def log_entry(self) -> dict:
        """Determinism-covered projection (no wall-clock)."""
        return {
            "batch_id": self.batch_id,
            "class": self.service_class,
            "lane": self.lane,
            "dispatch_ms": round(self.dispatch_ms, 6),
            "service_ms": round(self.service_ms, 6),
            "size": self.size,
            "total_points": self.total_points,
        }


@dataclass
class ServeResult:
    """Everything one :meth:`ServingEngine.serve` run produced.

    Attributes:
        records: one record per offered request, in request-id order.
        batches: one record per dispatch, in dispatch order.
        config: the engine config that produced this.
        max_queue_depth: high-water mark of the bounded queue.
        wall_seconds: real time the serve loop took (scheduling + actual
            perception compute; excluded from the determinism log).
        service_wall_seconds: real time spent executing dispatches only —
            the honest measure of server compute, used by the bench to
            compare batched vs per-request sustained throughput.
        lane_events: autoscaling decisions (virtual-clock, deterministic;
            part of the log).
        max_lanes_used: high-water mark of concurrently active lanes.
        fault_events: injected-fault and brownout transitions on the
            virtual clock (crashes, killed batches, brownout
            enter/exit); deterministic, part of the log.
    """

    records: list[RequestRecord]
    batches: list[BatchRecord]
    config: ServeConfig
    max_queue_depth: int
    wall_seconds: float
    service_wall_seconds: float
    lane_events: list[dict] = field(default_factory=list)
    max_lanes_used: int = 1
    fault_events: list[dict] = field(default_factory=list)

    def log(self) -> list[dict]:
        """Per-request + per-batch + lane/fault-event determinism log."""
        return (
            [record.log_entry() for record in self.records]
            + [batch.log_entry() for batch in self.batches]
            + [dict(event, entry="lane") for event in self.lane_events]
            + [dict(event, entry="fault") for event in self.fault_events]
        )

    def log_json(self) -> str:
        """Canonical JSON of :meth:`log` — the bit-identity surface."""
        return json.dumps(self.log(), sort_keys=True, separators=(",", ":"))

    def counts(self) -> dict[str, int]:
        """Requests per terminal status (plus total offered)."""
        counts = {status.value: 0 for status in RequestStatus}
        for record in self.records:
            counts[record.status.value] += 1
        counts["offered"] = len(self.records)
        return counts


class ServingEngine:
    """Event-driven serving of perception requests over one detector.

    One engine owns one detector plus a bounded queue and ``lanes``
    virtual service lanes; every detect-class dispatch runs through that
    detector.  ``workers`` fans the *fusion and ROI geometry* work of
    each dispatch across a :class:`~repro.runtime.WorkerPool`; the
    detector always runs in the parent so batch composition and numerics
    cannot depend on worker layout.
    """

    def __init__(
        self,
        detector: SPOD | None = None,
        config: ServeConfig | None = None,
        workers: int | None = None,
    ) -> None:
        self.detector = detector or SPOD.pretrained()
        self.config = config or ServeConfig()
        self.workers = resolve_workers(workers)

    def serve(
        self,
        requests: list[PerceptionRequest],
        lost: list[PerceptionRequest] = (),
        closed_loop: list = (),
        faults: ShardFaultView | None = None,
    ) -> ServeResult:
        """Serve one workload trace (plus closed-loop clients) to completion.

        ``requests`` are the open-loop arrivals that reach the ingress;
        ``lost`` are requests dropped by ingress channel faults
        (:func:`~repro.serve.workload.apply_ingress_loss`) — they never
        enter the queue but are recorded (``LOST_INGRESS``) so the log
        accounts for every offered request.  ``closed_loop`` clients
        issue their first request themselves and re-issue only after the
        previous one reached a terminal state.  ``faults`` injects this
        engine's slice of a :class:`~repro.faults.serve.ShardFaultPlan`:
        crash windows fail queued and in-flight work
        (``FAILED_SHARD_DOWN``) and refuse arrivals until restart, and
        brownout windows inflate virtual service times — all pure
        functions of the plan, so the log stays bit-identical at any
        worker count.
        """
        wall_start = time.perf_counter()
        arrivals = sorted(requests, key=lambda r: (r.arrival_ms, r.request_id))
        records: dict[int, RequestRecord] = {}
        for request in list(arrivals) + list(lost):
            if request.request_id in records:
                raise ValueError(f"duplicate request_id {request.request_id}")
            records[request.request_id] = RequestRecord.for_request(request)
        for request in lost:
            record = records[request.request_id]
            record.status = RequestStatus.LOST_INGRESS
            record.decided_ms = request.arrival_ms
            PROFILER.count("serve.lost_ingress")

        state = _LoopState(
            source=_ArrivalSource(arrivals, closed_loop),
            records=records,
            queue=BoundedPriorityQueue(self.config.queue_capacity),
            lanes=[0.0] * self.config.lanes,
            max_lanes_used=self.config.lanes,
            fault_view=faults,
            crash_windows=faults.crash_windows() if faults else (),
        )
        pool: WorkerPool | None = None
        try:
            if (
                self.workers > 1
                and fork_available()
                and (arrivals or closed_loop)
            ):
                pool = WorkerPool(self.workers, chunk_size=1)
            batches, service_wall = self._run_loop(state, pool)
        finally:
            if pool is not None:
                pool.close()

        result = ServeResult(
            records=[state.records[rid] for rid in sorted(state.records)],
            batches=batches,
            config=self.config,
            max_queue_depth=state.queue.max_depth,
            wall_seconds=time.perf_counter() - wall_start,
            service_wall_seconds=service_wall,
            lane_events=state.lane_events,
            max_lanes_used=state.max_lanes_used,
            fault_events=state.fault_events,
        )
        counts = result.counts()
        PROFILER.count("serve.offered", counts["offered"])
        PROFILER.count("serve.completed", counts["completed"])
        PROFILER.count("serve.shed_deadline", counts["shed_deadline"])
        PROFILER.count("serve.rejected_queue_full", counts["rejected_queue_full"])
        PROFILER.count("serve.failed_shard_down", counts["failed_shard_down"])
        PROFILER.count("serve.shed_brownout", counts["shed_brownout"])
        PROFILER.count("serve.batches", len(batches))
        return result

    # -- the event loop ----------------------------------------------------
    def _run_loop(
        self, state: "_LoopState", pool: WorkerPool | None
    ) -> tuple[list[BatchRecord], float]:
        batches: list[BatchRecord] = []
        service_wall = 0.0
        while True:
            t_now = min(state.lanes)
            if self._process_crashes(state, t_now):
                continue  # lanes moved past a crash window; re-evaluate
            self._admit_until(state, t_now)
            self._update_brownout(state, t_now)
            self._autoscale(state, t_now)
            lane = min(range(len(state.lanes)), key=lambda i: (state.lanes[i], i))
            t_free = state.lanes[lane]
            if len(state.queue) == 0:
                next_ms = state.source.peek_ms()
                if next_ms is None:
                    break
                # Idle server: jump the clock to the next arrival,
                # keeping the crash schedule in sync with the jump.
                self._process_crashes(state, next_ms)
                self._admit_until(state, next_ms)
                continue
            dispatch_ms = self._dispatch_time(state, t_free)
            crash_ms = self._next_crash_ms(state)
            if crash_ms is not None and crash_ms <= dispatch_ms + 1e-9:
                # The shard dies before this batch would start.
                self._process_crashes(state, dispatch_ms)
                continue
            batch, shed, service_class = self._drain_batch(state, dispatch_ms)
            for request in shed:
                record = state.records[request.request_id]
                record.status = RequestStatus.SHED_DEADLINE
                record.decided_ms = dispatch_ms
                record.queue_ms = dispatch_ms - request.arrival_ms
                state.source.notify(request, dispatch_ms, completed=False)
            if not batch:
                continue  # the whole candidate set was shed; lane still free
            service_ms = self._service_ms(state, batch, service_class, dispatch_ms)
            if crash_ms is not None and crash_ms < dispatch_ms + service_ms - 1e-9:
                # Mid-batch crash: the in-flight work dies with the
                # shard.  No real compute runs, no batch record exists,
                # and no stale lane timer survives — _process_crashes
                # pushes every lane past the restart instant.
                self._kill_batch(state, batch, dispatch_ms, crash_ms)
                self._process_crashes(state, crash_ms)
                continue
            batch_record = self._execute_batch(
                state, batch, len(batches), lane, dispatch_ms,
                service_class, service_ms, pool,
            )
            batches.append(batch_record)
            service_wall += batch_record.wall_seconds
            state.lanes[lane] = batch_record.dispatch_ms + batch_record.service_ms
            complete_ms = state.lanes[lane]
            for request in batch:
                state.source.notify(request, complete_ms, completed=True)
        return batches, service_wall

    def _service_ms(
        self,
        state: "_LoopState",
        batch: list[PerceptionRequest],
        service_class: str,
        dispatch_ms: float,
    ) -> float:
        """Virtual service time of one dispatch, brownout-inflated."""
        model = self.config.service_model
        total_points = sum(request.num_points for request in batch)
        service_ms = model.batch_ms(service_class, len(batch), total_points)
        if state.fault_view is not None:
            service_ms *= state.fault_view.service_factor(dispatch_ms)
        return service_ms

    def _next_crash_ms(self, state: "_LoopState") -> float | None:
        """Start of the next unprocessed crash window (None when clear)."""
        if state.crash_idx >= len(state.crash_windows):
            return None
        return state.crash_windows[state.crash_idx][0]

    def _process_crashes(self, state: "_LoopState", upto_ms: float) -> bool:
        """Apply every crash window starting at or before ``upto_ms``.

        Each crash admits the arrivals that made it in before the window
        opened, fails everything queued at the crash instant
        (``FAILED_SHARD_DOWN``), and pushes every lane past the restart,
        so no batch can be scheduled inside a down window and no timer
        anchored to a flushed request survives.  Returns True when any
        window was applied (the caller's clock view is stale).
        """
        applied = False
        while True:
            crash_ms = self._next_crash_ms(state)
            if crash_ms is None or crash_ms > upto_ms + 1e-9:
                return applied
            start, end = state.crash_windows[state.crash_idx]
            state.crash_idx += 1
            applied = True
            self._admit_until(state, start)
            flushed = 0
            survivors: list[PerceptionRequest] = []
            while len(state.queue) > 0:
                request = state.queue.pop_matching(lambda _request: True, 1)[0]
                if request.arrival_ms >= start:
                    # Admitted ahead of the crash by a look-ahead scan;
                    # it arrives after the restart and survives.
                    survivors.append(request)
                    continue
                record = state.records[request.request_id]
                record.status = RequestStatus.FAILED_SHARD_DOWN
                record.decided_ms = start
                record.queue_ms = start - request.arrival_ms
                state.source.notify(request, start, completed=False)
                flushed += 1
            for request in survivors:
                state.queue.offer(request)
            for index in range(len(state.lanes)):
                state.lanes[index] = max(state.lanes[index], end)
            state.fault_events.append(
                {
                    "t_ms": round(start, 6),
                    "action": "crash",
                    "until_ms": round(end, 6),
                    "flushed": flushed,
                }
            )
            PROFILER.count("serve.shard_crashes")

    def _kill_batch(
        self,
        state: "_LoopState",
        batch: list[PerceptionRequest],
        dispatch_ms: float,
        crash_ms: float,
    ) -> None:
        """Fail one in-flight batch killed by a mid-service crash."""
        for request in batch:
            record = state.records[request.request_id]
            record.status = RequestStatus.FAILED_SHARD_DOWN
            record.decided_ms = crash_ms
            record.dispatch_ms = dispatch_ms
            record.queue_ms = dispatch_ms - request.arrival_ms
            state.source.notify(request, crash_ms, completed=False)
        state.fault_events.append(
            {
                "t_ms": round(crash_ms, 6),
                "action": "batch_killed",
                "dispatch_ms": round(dispatch_ms, 6),
                "size": len(batch),
            }
        )
        PROFILER.count("serve.batches_killed")

    def _update_brownout(self, state: "_LoopState", t_ms: float) -> None:
        """Hysteretic brownout transitions from queue depth."""
        cfg = self.config
        if cfg.brownout_enter_depth <= 0:
            return
        depth = len(state.queue)
        if not state.brownout and depth >= cfg.brownout_enter_depth:
            state.brownout = True
            state.fault_events.append(
                {
                    "t_ms": round(t_ms, 6),
                    "action": "brownout_enter",
                    "depth": depth,
                }
            )
            PROFILER.count("serve.brownout_enter")
        elif state.brownout and depth <= cfg.brownout_exit_depth:
            state.brownout = False
            state.fault_events.append(
                {
                    "t_ms": round(t_ms, 6),
                    "action": "brownout_exit",
                    "depth": depth,
                }
            )

    def _admit_until(self, state: "_LoopState", t_ms: float) -> None:
        """Admit (or refuse) every arrival up to virtual time ``t_ms``.

        Closed-loop reissues spawned by a rejection land back in the
        arrival source; when they fall inside this scan's horizon they
        are admitted in the same pass, in arrival order.
        """
        while True:
            next_ms = state.source.peek_ms()
            if next_ms is None or next_ms > t_ms + 1e-9:
                return
            request = state.source.pop()
            if request.request_id not in state.records:
                state.records[request.request_id] = RequestRecord.for_request(
                    request
                )
            if state.fault_view is not None and state.fault_view.is_down(
                request.arrival_ms
            ):
                # The shard is inside a crash window: the arrival is
                # refused at the (dead) ingress.
                record = state.records[request.request_id]
                record.status = RequestStatus.FAILED_SHARD_DOWN
                record.decided_ms = request.arrival_ms
                state.source.notify(request, request.arrival_ms, completed=False)
                continue
            if state.brownout and request.priority <= BROWNOUT_SHED_PRIORITY:
                record = state.records[request.request_id]
                record.status = RequestStatus.SHED_BROWNOUT
                record.decided_ms = request.arrival_ms
                state.source.notify(request, request.arrival_ms, completed=False)
                PROFILER.count("serve.shed_brownout_arrivals")
                continue
            admitted, displaced = state.queue.offer(request)
            loser = displaced if admitted else request
            if loser is not None:
                record = state.records[loser.request_id]
                record.status = RequestStatus.REJECTED_QUEUE_FULL
                record.decided_ms = request.arrival_ms
                state.source.notify(loser, request.arrival_ms, completed=False)

    def _autoscale(self, state: "_LoopState", t_now: float) -> None:
        """Grow or shrink the lane set from queue depth (virtual clock)."""
        cfg = self.config
        if cfg.max_lanes <= 0:
            return
        depth = len(state.queue)
        if depth >= SCALE_UP_DEPTH and len(state.lanes) < cfg.max_lanes:
            state.lanes.append(t_now)
            state.max_lanes_used = max(state.max_lanes_used, len(state.lanes))
            state.lane_events.append(
                {
                    "t_ms": round(t_now, 6),
                    "action": "scale_up",
                    "lanes": len(state.lanes),
                    "depth": depth,
                }
            )
            PROFILER.count("serve.lane_scale_up")
        elif depth <= SCALE_DOWN_DEPTH and len(state.lanes) > cfg.lanes:
            # Retire the highest-index idle extra lane, if any is idle.
            for index in range(len(state.lanes) - 1, cfg.lanes - 1, -1):
                if state.lanes[index] <= t_now + 1e-9:
                    state.lanes.pop(index)
                    state.lane_events.append(
                        {
                            "t_ms": round(t_now, 6),
                            "action": "scale_down",
                            "lanes": len(state.lanes),
                            "depth": depth,
                        }
                    )
                    PROFILER.count("serve.lane_scale_down")
                    break

    def _dispatch_time(self, state: "_LoopState", t_free: float) -> float:
        """When the free lane should dispatch its next batch.

        Immediately when a full batch is already queued or the batching
        window (``oldest queued arrival + max_wait_ms``) has expired;
        otherwise at whichever comes first of the window closing or the
        arrival that fills the batch.  The window is re-computed after
        every admission inside the scan: an arrival can displace the
        oldest queued request, and the stale window would otherwise fire
        a premature partial batch anchored to a request that is no longer
        queued.  A batch never dispatches before a queued request has
        arrived: after an idle jump the lane's free time precedes the
        arrival the loop just admitted.
        """
        cfg = self.config
        newest = max(request.arrival_ms for request in state.queue)
        t_free = max(t_free, newest)
        wait_ms = cfg.max_wait_ms
        if state.brownout:
            # Brownout: shrink the batching window so queued work drains
            # sooner at the cost of smaller batches.
            wait_ms *= BROWNOUT_WAIT_FACTOR
        while True:
            if len(state.queue) >= cfg.max_batch_size:
                return t_free
            window_close = state.queue.oldest_arrival_ms() + wait_ms
            if window_close <= t_free:
                return t_free
            next_ms = state.source.peek_ms()
            if next_ms is None or next_ms > window_close:
                return window_close
            self._admit_until(state, next_ms)
            if len(state.queue) >= cfg.max_batch_size:
                return max(t_free, next_ms)

    def _drain_batch(
        self, state: "_LoopState", dispatch_ms: float
    ) -> tuple[list[PerceptionRequest], list[PerceptionRequest], str]:
        """Pop the next batch (head's service class), shedding dead SLOs.

        A request is shed when even the fastest conceivable service —
        alone, starting now — would finish past its deadline; shed
        requests do not consume batch slots.
        """
        model = self.config.service_model
        service_class = state.queue.head().kind.service_class
        batch: list[PerceptionRequest] = []
        shed: list[PerceptionRequest] = []
        while len(batch) < self.config.max_batch_size:
            popped = state.queue.pop_class(service_class, 1)
            if not popped:
                break
            request = popped[0]
            if dispatch_ms + model.floor_ms(request) > request.deadline_ms:
                shed.append(request)
            else:
                batch.append(request)
        return batch, shed, service_class

    # -- dispatch execution ------------------------------------------------
    def _execute_batch(
        self,
        state: "_LoopState",
        batch: list[PerceptionRequest],
        batch_id: int,
        lane: int,
        dispatch_ms: float,
        service_class: str,
        service_ms: float,
        pool: WorkerPool | None,
    ) -> BatchRecord:
        """Run one dispatch's real compute and fill its records.

        ``service_ms`` is precomputed by the caller (via
        :meth:`_service_ms`) so brownout inflation is already applied.
        """
        total_points = sum(request.num_points for request in batch)
        complete_ms = dispatch_ms + service_ms

        wall_start = time.perf_counter()
        if service_class == "roi":
            result_counts = self._execute_roi(batch, pool)
        else:
            result_counts = self._execute_detect(batch, pool)
        wall_seconds = time.perf_counter() - wall_start
        PROFILER.record("serve.service", wall_seconds)
        PROFILER.count("serve.batched_requests", len(batch))

        share = wall_seconds / len(batch)
        for request, num_results in zip(batch, result_counts):
            record = state.records[request.request_id]
            record.status = RequestStatus.COMPLETED
            record.decided_ms = complete_ms
            record.dispatch_ms = dispatch_ms
            record.queue_ms = dispatch_ms - request.arrival_ms
            record.service_ms = service_ms
            record.latency_ms = complete_ms - request.arrival_ms
            record.deadline_met = complete_ms <= request.deadline_ms
            record.batch_id = batch_id
            record.batch_size = len(batch)
            record.num_results = num_results
            record.wall_service_seconds = share
            if not record.deadline_met:
                PROFILER.count("serve.slo_misses")
        return BatchRecord(
            batch_id=batch_id,
            service_class=service_class,
            lane=lane,
            dispatch_ms=dispatch_ms,
            service_ms=service_ms,
            size=len(batch),
            total_points=total_points,
            wall_seconds=wall_seconds,
        )

    def _execute_detect(
        self, batch: list[PerceptionRequest], pool: WorkerPool | None
    ) -> list[int]:
        """Fuse where needed, then one detector call over the batch;
        returns per-request detection counts.

        Fusion is a pure function of (cloud, pose, packages), so fanning
        it to workers cannot change the merged clouds; the detector pass
        itself always runs here in the parent over the batch in queue
        order, keeping numerics independent of the worker count.
        """
        fuse_payloads = [
            (request.cloud, request.pose, request.packages)
            for request in batch
            if request.kind is RequestKind.FUSE_DETECT
        ]
        with PROFILER.stage("serve.fuse"):
            if pool is not None and len(fuse_payloads) > 1:
                fused = pool.map(_fuse_payload_task, fuse_payloads)
            else:
                fused = [_fuse_payload_task(p) for p in fuse_payloads]
        fused_iter = iter(fused)
        clouds = [
            next(fused_iter) if request.kind is RequestKind.FUSE_DETECT
            else request.cloud
            for request in batch
        ]
        with PROFILER.stage("serve.detect"):
            all_detections = self.detector.detect_batch(clouds)
        threshold = self.detector.config.detection_threshold
        return [
            sum(1 for d in detections if d.score >= threshold)
            for detections in all_detections
        ]

    def _execute_roi(
        self, batch: list[PerceptionRequest], pool: WorkerPool | None
    ) -> list[int]:
        """Answer each ROI request (pure geometry); returns reply sizes."""
        payloads = [
            (request.roi, request.cloud, request.pose) for request in batch
        ]
        with PROFILER.stage("serve.roi"):
            if pool is not None and len(payloads) > 1:
                replies = pool.map(_roi_answer_task, payloads)
            else:
                replies = [_roi_answer_task(p) for p in payloads]
        return replies


class _ArrivalSource:
    """Merged arrival stream: static open-loop trace + closed-loop clients.

    The trace is consumed in (arrival, id) order; closed-loop arrivals
    live in a heap because a client's next arrival only exists once its
    previous request reached a terminal state.  Ties between the two
    streams break on the lower request id, so the pop order is a total
    deterministic function of the inputs.
    """

    def __init__(self, trace: list[PerceptionRequest], closed_loop) -> None:
        self._trace = trace
        self._index = 0
        self._heap: list[tuple[float, int, PerceptionRequest]] = []
        self._owners: dict[int, object] = {}
        for client in closed_loop:
            first = client.start()
            if first is not None:
                self._push(first, client)

    def _push(self, request: PerceptionRequest, owner) -> None:
        self._owners[request.request_id] = owner
        heapq.heappush(
            self._heap, (request.arrival_ms, request.request_id, request)
        )

    def peek_ms(self) -> float | None:
        """Earliest pending arrival time, or None when drained."""
        trace_ms = (
            self._trace[self._index].arrival_ms
            if self._index < len(self._trace)
            else None
        )
        loop_ms = self._heap[0][0] if self._heap else None
        if trace_ms is None:
            return loop_ms
        if loop_ms is None:
            return trace_ms
        return min(trace_ms, loop_ms)

    def pop(self) -> PerceptionRequest:
        """Pop the earliest pending arrival (lower id breaks exact ties)."""
        trace_next = (
            self._trace[self._index] if self._index < len(self._trace) else None
        )
        loop_next = self._heap[0] if self._heap else None
        take_trace = loop_next is None or (
            trace_next is not None
            and (trace_next.arrival_ms, trace_next.request_id)
            <= (loop_next[0], loop_next[1])
        )
        if take_trace:
            if trace_next is None:
                raise IndexError("pop from drained arrival source")
            self._index += 1
            return trace_next
        return heapq.heappop(self._heap)[2]

    def notify(
        self, request: PerceptionRequest, decided_ms: float, completed: bool
    ) -> None:
        """Tell a closed-loop owner its request reached a terminal state."""
        owner = self._owners.pop(request.request_id, None)
        if owner is None:
            return
        follow_up = owner.reissue(decided_ms, completed)
        if follow_up is not None:
            self._push(follow_up, owner)


@dataclass
class _LoopState:
    """Mutable event-loop state of one :meth:`ServingEngine.serve` run."""

    source: _ArrivalSource
    records: dict[int, RequestRecord]
    queue: BoundedPriorityQueue
    lanes: list[float]
    lane_events: list[dict] = field(default_factory=list)
    max_lanes_used: int = 1
    fault_view: ShardFaultView | None = None
    crash_windows: tuple[tuple[float, float], ...] = ()
    crash_idx: int = 0
    brownout: bool = False
    fault_events: list[dict] = field(default_factory=list)


def _fuse_payload_task(
    payload: tuple[PointCloud, Pose, tuple[ExchangePackage, ...]],
) -> PointCloud:
    """Worker task: align + merge one FUSE_DETECT request's packages."""
    cloud, pose, packages = payload
    return merge_packages(cloud, list(packages), pose)


def _roi_answer_task(
    payload: tuple[RoiRequest, PointCloud, Pose],
) -> int:
    """Worker task: crop one cooperator cloud to a demand-driven ROI."""
    roi, cloud, pose = payload
    return len(answer_request(roi, cloud, pose))
