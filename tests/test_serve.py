"""Tests for the deterministic perception serving engine (repro.serve)."""

import numpy as np
import pytest

from repro.detection.spod import SPOD, SPODConfig
from repro.pointcloud.cloud import PointCloud
from repro.sensors.lidar import BeamPattern
from repro.serve import (
    CLOSED_LOOP_ID_BASE,
    BoundedPriorityQueue,
    ClosedLoopSpec,
    PerceptionRequest,
    RequestKind,
    RequestStatus,
    ScenarioPool,
    ServeConfig,
    ServiceModel,
    ServingEngine,
    WorkloadSpec,
    apply_ingress_loss,
    build_report,
    generate_workload,
    make_closed_loop_clients,
    percentile,
    request_sort_key,
)


@pytest.fixture(scope="module")
def pool() -> ScenarioPool:
    """A cheap low-resolution scenario pool shared by the engine tests."""
    pattern = BeamPattern(
        "serve-16", tuple(np.linspace(-15, 15, 16)), azimuth_resolution_deg=1.0
    )
    return ScenarioPool.build(seed=0, pattern=pattern, variants=1)


def tiny_cloud(n: int = 4) -> PointCloud:
    return PointCloud.from_xyz(np.ones((n, 3)))


def req(
    request_id: int,
    arrival: float = 0.0,
    deadline: float = 10_000.0,
    priority: int = 0,
    points: int = 4,
) -> PerceptionRequest:
    return PerceptionRequest(
        request_id,
        "veh00",
        RequestKind.DETECT,
        arrival,
        deadline,
        priority,
        cloud=tiny_cloud(points),
    )


class TestRequests:
    def test_service_classes(self):
        assert RequestKind.DETECT.service_class == "detect"
        assert RequestKind.FUSE_DETECT.service_class == "detect"
        assert RequestKind.ROI_ANSWER.service_class == "roi"

    def test_deadline_must_follow_arrival(self):
        with pytest.raises(ValueError):
            req(0, arrival=5.0, deadline=5.0)

    def test_cloud_required(self):
        with pytest.raises(ValueError):
            PerceptionRequest(0, "v", RequestKind.DETECT, 0.0, 1.0)

    def test_fuse_needs_pose(self):
        with pytest.raises(ValueError):
            PerceptionRequest(
                0, "v", RequestKind.FUSE_DETECT, 0.0, 1.0, cloud=tiny_cloud()
            )

    def test_roi_needs_roi_and_pose(self):
        with pytest.raises(ValueError):
            PerceptionRequest(
                0, "v", RequestKind.ROI_ANSWER, 0.0, 1.0, cloud=tiny_cloud()
            )

    def test_num_points_includes_packages(self, pool):
        entry = pool.entries[0]
        request = PerceptionRequest(
            0,
            "v",
            RequestKind.FUSE_DETECT,
            0.0,
            1.0,
            cloud=entry.native_cloud,
            pose=entry.native_pose,
            packages=entry.packages,
        )
        expected = len(entry.native_cloud) + sum(
            len(p.cloud) for p in entry.packages
        )
        assert request.num_points == expected

    def test_log_entry_has_no_wall_clock(self):
        from repro.serve import RequestRecord

        record = RequestRecord.for_request(req(7))
        record.wall_service_seconds = 123.0
        entry = record.log_entry()
        assert entry["id"] == 7
        assert entry["status"] == "in_flight"
        assert not any("wall" in key for key in entry)


class TestQueue:
    def test_service_order(self):
        # Priority desc, then EDF, then arrival, then id.
        late = req(0, arrival=1.0, deadline=500.0)
        urgent = req(1, arrival=2.0, deadline=100.0)
        vip = req(2, arrival=3.0, deadline=900.0, priority=5)
        assert sorted(
            [late, urgent, vip], key=request_sort_key
        ) == [vip, urgent, late]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BoundedPriorityQueue(0)

    def test_displaces_worst_when_better(self):
        queue = BoundedPriorityQueue(2)
        assert queue.offer(req(0)) == (True, None)
        assert queue.offer(req(1)) == (True, None)
        admitted, displaced = queue.offer(req(2, priority=5))
        assert admitted and displaced.request_id == 1  # worst: same key, top id
        assert len(queue) == 2

    def test_refuses_when_worse(self):
        queue = BoundedPriorityQueue(1)
        queue.offer(req(0, priority=5))
        admitted, displaced = queue.offer(req(1, priority=0))
        assert (admitted, displaced) == (False, None)
        assert queue.head().request_id == 0

    def test_max_depth_high_water(self):
        queue = BoundedPriorityQueue(8)
        for i in range(3):
            queue.offer(req(i))
        queue.pop_class("detect", 3)
        assert len(queue) == 0
        assert queue.max_depth == 3

    def test_pop_class_keeps_other_class(self, pool):
        queue = BoundedPriorityQueue(8)
        entry = pool.entries[0]
        roi = PerceptionRequest(
            0,
            "v",
            RequestKind.ROI_ANSWER,
            0.0,
            10.0,
            priority=9,
            cloud=entry.coop_cloud,
            pose=entry.coop_pose,
            roi=entry.roi,
        )
        queue.offer(roi)
        queue.offer(req(1))
        taken = queue.pop_class("detect", 4)
        assert [r.request_id for r in taken] == [1]
        assert queue.head().request_id == 0  # the ROI request kept its spot

    def test_oldest_arrival(self):
        queue = BoundedPriorityQueue(4)
        queue.offer(req(0, arrival=9.0, deadline=20.0))
        queue.offer(req(1, arrival=3.0, deadline=900.0))
        assert queue.oldest_arrival_ms() == 3.0

    def test_oldest_arrival_empty_queue_raises(self):
        # Regression: an empty queue must fail loudly, not feed a stale
        # or garbage anchor into the batching-window computation.
        queue = BoundedPriorityQueue(4)
        with pytest.raises(ValueError, match="empty"):
            queue.oldest_arrival_ms()

    def test_pop_matching_preserves_positions(self):
        queue = BoundedPriorityQueue(8)
        for i in range(5):
            queue.offer(req(i))
        taken = queue.pop_matching(lambda r: r.request_id % 2 == 0, 2)
        assert [r.request_id for r in taken] == [0, 2]
        assert queue.head().request_id == 1


class TestWorkload:
    def spec(self, **overrides) -> WorkloadSpec:
        defaults = dict(duration_ms=2000.0, rate_rps=30.0, seed=0)
        defaults.update(overrides)
        return WorkloadSpec(**defaults)

    def test_trace_is_deterministic(self, pool):
        a = generate_workload(self.spec(), pool)
        b = generate_workload(self.spec(), pool)
        assert [(r.request_id, r.arrival_ms, r.client, r.kind) for r in a] == [
            (r.request_id, r.arrival_ms, r.client, r.kind) for r in b
        ]

    def test_ids_dense_and_sorted(self, pool):
        trace = generate_workload(self.spec(), pool)
        assert [r.request_id for r in trace] == list(range(len(trace)))
        arrivals = [r.arrival_ms for r in trace]
        assert arrivals == sorted(arrivals)

    def test_rate_scales_volume(self, pool):
        low = generate_workload(self.spec(rate_rps=10.0), pool)
        high = generate_workload(self.spec(rate_rps=80.0), pool)
        assert len(high) > 3 * len(low)
        # Poisson-like: the mean offered count tracks rate * duration.
        assert len(high) == pytest.approx(80.0 * 2.0, rel=0.4)

    def test_bursts_concentrate_arrivals(self, pool):
        spec = self.spec(
            rate_rps=60.0, burst_factor=4.0, burst_period_ms=500.0,
            burst_duty=0.25,
        )
        trace = generate_workload(spec, pool)
        in_burst = sum(1 for r in trace if spec.in_burst(r.arrival_ms))
        # 25% of the window holds well over 25% of the arrivals.
        assert in_burst / len(trace) > 0.4

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            self.spec(rate_rps=0.0)
        with pytest.raises(ValueError):
            self.spec(burst_factor=0.5)
        with pytest.raises(ValueError):
            self.spec(deadline_range_ms=(400.0, 150.0))
        with pytest.raises(ValueError):
            self.spec(kind_weights=(0.0, 0.0, 0.0))

    def test_ingress_loss_extremes(self, pool):
        trace = generate_workload(self.spec(), pool)
        delivered, lost = apply_ingress_loss(trace, loss_rate=0.0)
        assert (len(delivered), len(lost)) == (len(trace), 0)
        delivered, lost = apply_ingress_loss(trace, loss_rate=1.0)
        assert (len(delivered), len(lost)) == (0, len(trace))
        with pytest.raises(ValueError):
            apply_ingress_loss(trace, loss_rate=1.5)

    def test_ingress_loss_deterministic(self, pool):
        trace = generate_workload(self.spec(), pool)
        first = apply_ingress_loss(trace, loss_rate=0.3, seed=7)
        second = apply_ingress_loss(trace, loss_rate=0.3, seed=7)
        assert [r.request_id for r in first[1]] == [
            r.request_id for r in second[1]
        ]
        assert 0 < len(first[1]) < len(trace)


class TestEngine:
    def serve(self, detector, pool, spec, config, workers=None, loss=0.0):
        requests = generate_workload(spec, pool)
        delivered, lost = apply_ingress_loss(
            requests, loss_rate=loss, seed=spec.seed
        )
        engine = ServingEngine(detector, config, workers=workers)
        return engine.serve(delivered, lost)

    def test_under_capacity_all_complete(self, detector, pool):
        spec = WorkloadSpec(duration_ms=800.0, rate_rps=15.0, seed=1)
        result = self.serve(detector, pool, spec, ServeConfig())
        assert result.records
        assert all(
            r.status is RequestStatus.COMPLETED for r in result.records
        )
        assert all(r.latency_ms > 0 for r in result.records)

    def test_every_kind_completes(self, detector, pool):
        entry = pool.entries[0]
        requests = [
            PerceptionRequest(
                0, "a", RequestKind.DETECT, 0.0, 5000.0,
                cloud=entry.native_cloud,
            ),
            PerceptionRequest(
                1, "b", RequestKind.FUSE_DETECT, 1.0, 5000.0,
                cloud=entry.native_cloud, pose=entry.native_pose,
                packages=entry.packages,
            ),
            PerceptionRequest(
                2, "c", RequestKind.ROI_ANSWER, 2.0, 5000.0,
                cloud=entry.coop_cloud, pose=entry.coop_pose, roi=entry.roi,
            ),
        ]
        result = ServingEngine(detector, ServeConfig()).serve(requests)
        assert [r.status for r in result.records] == [
            RequestStatus.COMPLETED
        ] * 3
        roi_record = result.records[2]
        assert roi_record.num_results > 0  # the ROI crop found points
        # Detect and ROI classes never share a dispatch.
        classes = {b.service_class for b in result.batches}
        assert classes == {"detect", "roi"}

    def test_duplicate_request_id_rejected(self, detector, pool):
        entry = pool.entries[0]
        dupe = PerceptionRequest(
            0, "a", RequestKind.DETECT, 0.0, 5000.0, cloud=entry.native_cloud
        )
        with pytest.raises(ValueError, match="duplicate"):
            ServingEngine(detector, ServeConfig()).serve([dupe, dupe])

    def test_overload_sheds_and_stays_bounded(self, detector, pool):
        spec = WorkloadSpec(
            duration_ms=800.0, rate_rps=250.0, seed=2,
            deadline_range_ms=(60.0, 150.0),
        )
        config = ServeConfig(queue_capacity=8)
        result = self.serve(detector, pool, spec, config)
        counts = result.counts()
        assert counts["shed_deadline"] + counts["rejected_queue_full"] > 0
        assert counts["completed"] > 0
        assert result.max_queue_depth <= config.queue_capacity
        # Exactly one terminal status per offered request.
        assert (
            counts["completed"]
            + counts["shed_deadline"]
            + counts["rejected_queue_full"]
            + counts["lost_ingress"]
        ) == counts["offered"]

    def test_displacement_prefers_priority(self, detector, pool):
        entry = pool.entries[0]
        requests = [
            PerceptionRequest(
                i, f"v{i}", RequestKind.DETECT, 0.0, 5000.0, priority=p,
                cloud=entry.native_cloud,
            )
            for i, p in enumerate([0, 0, 5, 5])
        ]
        config = ServeConfig(max_batch_size=2, queue_capacity=2)
        result = ServingEngine(detector, config).serve(requests)
        by_id = {r.request_id: r.status for r in result.records}
        assert by_id[2] is RequestStatus.COMPLETED
        assert by_id[3] is RequestStatus.COMPLETED
        assert RequestStatus.REJECTED_QUEUE_FULL in (by_id[0], by_id[1])

    def test_hopeless_deadline_is_shed(self, detector, pool):
        entry = pool.entries[0]
        hopeless = PerceptionRequest(
            0, "a", RequestKind.DETECT, 0.0, 1.0, cloud=entry.native_cloud
        )
        model = ServiceModel()
        assert model.floor_ms(hopeless) > 1.0  # provably unservable
        result = ServingEngine(detector, ServeConfig()).serve([hopeless])
        assert result.records[0].status is RequestStatus.SHED_DEADLINE
        assert not result.batches

        # With shedding off, it is served late instead.
        lenient = ServeConfig(shed_deadlines=False)
        result = ServingEngine(detector, lenient).serve([hopeless])
        record = result.records[0]
        assert record.status is RequestStatus.COMPLETED
        assert not record.deadline_met

    def test_batching_coalesces(self, detector, pool):
        spec = WorkloadSpec(duration_ms=600.0, rate_rps=80.0, seed=3)
        batched = self.serve(
            detector, pool, spec, ServeConfig(max_batch_size=8)
        )
        per_request = self.serve(
            detector, pool, spec,
            ServeConfig(max_batch_size=1, max_wait_ms=0.0),
        )
        assert max(b.size for b in batched.batches) > 1
        assert all(b.size == 1 for b in per_request.batches)
        assert len(batched.batches) < len(per_request.batches)

    @pytest.mark.parametrize(
        "config",
        [ServeConfig(max_batch_size=1, max_wait_ms=0.0), ServeConfig()],
        ids=["per_request", "default"],
    )
    def test_no_dispatch_before_arrival(self, detector, pool, config):
        """After an idle jump the lane's free time precedes the admitted
        arrival; a full queue must still wait for its requests."""
        spec = WorkloadSpec(duration_ms=600.0, rate_rps=10.0, seed=1)
        result = self.serve(detector, pool, spec, config)
        completed = [
            r for r in result.records if r.status is RequestStatus.COMPLETED
        ]
        assert completed
        for record in completed:
            assert record.dispatch_ms >= record.arrival_ms
            # latency is complete - arrival: equal to service up to rounding
            assert record.latency_ms >= record.service_ms - 1e-9

    def test_lost_ingress_recorded_not_served(self, detector, pool):
        spec = WorkloadSpec(duration_ms=600.0, rate_rps=30.0, seed=4)
        result = self.serve(
            detector, pool, spec, ServeConfig(), loss=0.4
        )
        statuses = {r.status for r in result.records}
        assert RequestStatus.LOST_INGRESS in statuses
        lost = [
            r for r in result.records if r.status is RequestStatus.LOST_INGRESS
        ]
        assert all(r.batch_id == -1 for r in lost)

    def test_log_bit_identical_across_worker_counts(self, detector, pool):
        """The acceptance criterion: worker count never changes the log."""
        spec = WorkloadSpec(duration_ms=500.0, rate_rps=40.0, seed=5)
        config = ServeConfig(max_batch_size=4, queue_capacity=16)
        serial = self.serve(
            detector, pool, spec, config, workers=1, loss=0.1
        )
        fanned = self.serve(
            detector, pool, spec, config, workers=4, loss=0.1
        )
        assert serial.log_json() == fanned.log_json()

    def test_multi_lane_serves_in_parallel(self, detector, pool):
        spec = WorkloadSpec(duration_ms=600.0, rate_rps=80.0, seed=6)
        one = self.serve(detector, pool, spec, ServeConfig(lanes=1))
        two = self.serve(detector, pool, spec, ServeConfig(lanes=2))
        assert {b.lane for b in two.batches} == {0, 1}
        completed = lambda res: res.counts()["completed"]  # noqa: E731
        assert completed(two) >= completed(one)


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 11)]
        assert percentile(values, 0.50) == 5.0
        assert percentile(values, 0.95) == 10.0
        assert percentile(values, 0.0) == 1.0
        assert percentile([], 0.5) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 1.5)

    def test_percentile_rank_is_decimal_exact(self):
        # Regression for the float-ceil rank: 25 * 0.28 is
        # 7.000000000000001 in binary, so ceil(n*f) computed in floats
        # lands on rank 8 where the nearest-rank definition says 7.
        values = [float(v) for v in range(1, 26)]
        assert percentile(values, 0.28) == 7.0

    def test_percentile_boundaries(self):
        values = [float(v) for v in range(1, 21)]  # n=20
        # n*f exactly integral: rank = n*f.
        assert percentile(values, 0.05) == 1.0
        assert percentile(values, 0.50) == 10.0
        # Just above an integral product: next rank up.
        assert percentile(values, 0.501) == 11.0
        # Just below: stays on the lower rank's ceiling.
        assert percentile(values, 0.499) == 10.0
        # Extremes: f=0 is the minimum, f=1 the maximum.
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 20.0
        assert percentile([42.0], 0.0) == 42.0
        assert percentile([42.0], 1.0) == 42.0

    def test_percentile_matches_exact_ceil_everywhere(self):
        # Sweep every (n, f) in a dense grid against exact arithmetic.
        from fractions import Fraction
        from math import ceil

        for n in range(1, 120):
            values = [float(v) for v in range(1, n + 1)]
            for k in range(0, 101, 7):
                f = k / 100.0
                rank = max(1, ceil(n * Fraction(str(f))))
                assert percentile(values, f) == float(rank), (n, f)

    def test_build_report_accounts_everything(self, detector, pool):
        spec = WorkloadSpec(duration_ms=600.0, rate_rps=40.0, seed=7)
        requests = generate_workload(spec, pool)
        delivered, lost = apply_ingress_loss(requests, loss_rate=0.2, seed=7)
        result = ServingEngine(detector, ServeConfig()).serve(delivered, lost)
        report = build_report(result, spec.duration_ms)
        assert report["offered"] == len(requests)
        assert (
            report["completed"]
            + report["shed_deadline"]
            + report["rejected_queue_full"]
            + report["lost_ingress"]
        ) == report["offered"]
        assert report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]
        with pytest.raises(ValueError):
            build_report(result, 0.0)

    def test_queue_wait_excludes_shed_requests(self, detector, pool):
        # Regression: under overload, shed requests sit in the queue
        # until the engine gives up on them; their waits must land in
        # shed_wait_ms, not inflate the served-path queue_wait_ms.
        spec = WorkloadSpec(
            duration_ms=800.0, rate_rps=250.0, seed=2,
            deadline_range_ms=(60.0, 150.0),
        )
        requests = generate_workload(spec, pool)
        result = ServingEngine(
            detector, ServeConfig(queue_capacity=8)
        ).serve(requests)
        shed = [
            r for r in result.records
            if r.status is RequestStatus.SHED_DEADLINE and r.queue_ms >= 0
        ]
        completed = [
            r for r in result.records
            if r.status is RequestStatus.COMPLETED and r.queue_ms >= 0
        ]
        assert shed and completed  # the workload genuinely overloads
        report = build_report(result, spec.duration_ms)
        completed_max = max(r.queue_ms for r in completed)
        assert report["queue_wait_ms"]["max"] == completed_max
        assert report["shed_wait_ms"]["max"] == max(r.queue_ms for r in shed)
        # The pre-fix report mixed both populations; prove the shed
        # waits would actually have moved the number.
        mixed_max = max(r.queue_ms for r in shed + completed)
        assert mixed_max > completed_max


class TestBatchingWindow:
    """Regression tests for the stale-dispatch-timer bug: the batching
    window must re-anchor when admission displaces the oldest queued
    request."""

    def entry_req(self, pool, request_id, client, arrival, deadline,
                  priority=0):
        entry = pool.entries[0]
        return PerceptionRequest(
            request_id, client, RequestKind.DETECT, arrival, deadline,
            priority, cloud=entry.native_cloud,
        )

    def test_window_reanchors_after_displacement(self, detector, pool):
        # Capacity-1 queue: A arrives at t=0 (low priority), B at t=10
        # (high priority) displaces A.  The batching window must re-anchor
        # to B's arrival (10 + 25 = 35); the pre-fix code kept the stale
        # anchor from A (0 + 25 = 25) and dispatched B 10 ms early.
        a = self.entry_req(pool, 0, "a", 0.0, 5000.0, priority=0)
        b = self.entry_req(pool, 1, "b", 10.0, 5000.0, priority=5)
        config = ServeConfig(
            max_batch_size=8, max_wait_ms=25.0, queue_capacity=1
        )
        result = ServingEngine(detector, config).serve([a, b])
        by_id = {r.request_id: r for r in result.records}
        assert by_id[0].status is RequestStatus.REJECTED_QUEUE_FULL
        assert by_id[1].status is RequestStatus.COMPLETED
        assert by_id[1].dispatch_ms == 35.0

    def test_no_empty_batches_under_displacement_churn(self, detector, pool):
        # A hostile trace: tight queue, tight deadlines, displacement on
        # nearly every arrival.  Every dispatched batch must be non-empty
        # and every batch's dispatch honours the true (post-displacement)
        # window.
        spec = WorkloadSpec(
            duration_ms=600.0, rate_rps=300.0, seed=11,
            deadline_range_ms=(40.0, 120.0),
            priority_weights=(0.4, 0.3, 0.3),
        )
        requests = generate_workload(spec, pool)
        config = ServeConfig(queue_capacity=4, max_wait_ms=20.0)
        result = ServingEngine(detector, config).serve(requests)
        assert result.batches
        assert all(batch.size >= 1 for batch in result.batches)
        # Dispatches never predate the requests they serve.
        by_id = {r.request_id: r for r in result.records}
        for record in by_id.values():
            if record.status is RequestStatus.COMPLETED:
                assert record.dispatch_ms >= record.arrival_ms


class TestConfigValidation:
    """Degenerate config values fail loudly at construction (PR 8)."""

    def test_scale_depths_validated_without_autoscaling(self):
        # Regression: before PR 8 the scale-depth sanity checks only ran
        # when max_lanes was set, so a fixed-lane config could silently
        # carry an inverted hysteresis band.
        with pytest.raises(ValueError, match="scale_up_depth"):
            ServeConfig(scale_up_depth=1, scale_down_depth=5)
        with pytest.raises(ValueError, match="scale_up_depth"):
            ServeConfig(scale_up_depth=0)
        with pytest.raises(ValueError, match="scale_down_depth"):
            ServeConfig(scale_down_depth=-1)

    def test_service_model_rejects_negative_times(self):
        from repro.serve import ServiceModel

        with pytest.raises(ValueError):
            ServiceModel(batch_base_ms=-1.0)
        with pytest.raises(ValueError):
            ServiceModel(roi_per_kpoint_ms=-0.5)

    def test_brownout_band_validated(self):
        with pytest.raises(ValueError, match="brownout_exit_depth"):
            ServeConfig(brownout_enter_depth=4, brownout_exit_depth=4)
        with pytest.raises(ValueError, match="brownout_wait_factor"):
            ServeConfig(
                brownout_enter_depth=4,
                brownout_exit_depth=1,
                brownout_wait_factor=0.0,
            )
        with pytest.raises(ValueError, match="brownout_wait_factor"):
            ServeConfig(
                brownout_enter_depth=4,
                brownout_exit_depth=1,
                brownout_wait_factor=1.5,
            )
        # Disabled brownout (enter depth 0) skips the band check.
        ServeConfig(brownout_enter_depth=0, brownout_exit_depth=9)


class TestAutoscaling:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_lanes"):
            ServeConfig(lanes=4, max_lanes=2)
        with pytest.raises(ValueError, match="scale_up_depth"):
            ServeConfig(max_lanes=4, scale_up_depth=2, scale_down_depth=2)

    def test_scales_up_under_pressure_and_back_down(self, detector, pool):
        spec = WorkloadSpec(
            duration_ms=1200.0, rate_rps=220.0, seed=12,
            deadline_range_ms=(300.0, 900.0),
        )
        requests = generate_workload(spec, pool)
        config = ServeConfig(
            lanes=1, max_lanes=4, scale_up_depth=10, scale_down_depth=2,
            queue_capacity=64,
        )
        result = ServingEngine(detector, config).serve(requests)
        assert result.max_lanes_used > 1
        actions = [event["action"] for event in result.lane_events]
        assert "scale_up" in actions and "scale_down" in actions
        # Lane events are part of the determinism log.
        assert any(
            entry.get("entry") == "lane" for entry in result.log()
        )

    def test_autoscaling_improves_on_fixed_single_lane(self, detector, pool):
        spec = WorkloadSpec(
            duration_ms=1200.0, rate_rps=220.0, seed=12,
            deadline_range_ms=(300.0, 900.0),
        )
        requests = generate_workload(spec, pool)
        fixed = ServingEngine(
            detector, ServeConfig(lanes=1)
        ).serve(requests)
        scaled = ServingEngine(
            detector, ServeConfig(lanes=1, max_lanes=4)
        ).serve(requests)
        assert (
            scaled.counts()["completed"] >= fixed.counts()["completed"]
        )
        met = lambda res: sum(  # noqa: E731
            1 for r in res.records if r.deadline_met
        )
        assert met(scaled) > met(fixed)


class TestHeterogeneousBatching:
    @pytest.fixture(scope="class")
    def f64_detector(self) -> SPOD:
        return SPOD.pretrained(SPODConfig(dtype="float64"))

    def entry_req(self, pool, request_id, model, arrival=0.0):
        entry = pool.entries[0]
        return PerceptionRequest(
            request_id, f"v{request_id}", RequestKind.DETECT, arrival,
            50_000.0, cloud=entry.native_cloud, model=model,
        )

    def test_unknown_model_rejected_upfront(self, detector, pool):
        engine = ServingEngine(detector)
        with pytest.raises(ValueError, match="unknown detector model"):
            engine.serve([self.entry_req(pool, 0, "absent")])

    def test_detector_and_detectors_mutually_exclusive(self, detector):
        with pytest.raises(ValueError, match="not both"):
            ServingEngine(detector, detectors={"a": detector})

    def test_incompatible_models_never_co_batch(
        self, detector, f64_detector, pool
    ):
        # float32 vs float64 pretrained weights are NOT equivalent, so
        # their requests must land in separate dispatches even when they
        # arrive together.
        assert not detector.equivalent_to(f64_detector)
        engine = ServingEngine(
            detectors={"edge32": detector, "edge64": f64_detector},
            config=ServeConfig(max_batch_size=8),
        )
        requests = [
            self.entry_req(pool, i, "edge32" if i % 2 == 0 else "edge64")
            for i in range(6)
        ]
        result = engine.serve(requests)
        assert all(
            r.status is RequestStatus.COMPLETED for r in result.records
        )
        groups = {b.group for b in result.batches}
        assert groups == {"edge32", "edge64"}
        by_batch = {}
        for record in result.records:
            by_batch.setdefault(record.batch_id, set()).add(record.model)
        assert all(len(models) == 1 for models in by_batch.values())

    def test_equivalent_models_share_one_group(self, pool):
        # Two separately-built pretrained detectors with the same config
        # compute the same thing -> one batch group, full co-batching.
        a, b = SPOD.pretrained(), SPOD.pretrained()
        assert a.equivalent_to(b)
        engine = ServingEngine(
            detectors={"east": a, "west": b},
            config=ServeConfig(max_batch_size=8),
        )
        assert engine.batch_group("east") == engine.batch_group("west")
        requests = [
            self.entry_req(pool, i, "east" if i % 2 == 0 else "west")
            for i in range(6)
        ]
        result = engine.serve(requests)
        assert all(
            r.status is RequestStatus.COMPLETED for r in result.records
        )
        assert max(b.size for b in result.batches) > 1
        mixed = {
            frozenset(
                r.model for r in result.records if r.batch_id == batch.batch_id
            )
            for batch in result.batches
        }
        assert frozenset(("east", "west")) in mixed


class TestClosedLoop:
    def loops(self, pool, n=3, seed=9, duration=900.0):
        return make_closed_loop_clients(
            ClosedLoopSpec(
                duration_ms=duration, num_clients=n, seed=seed,
                think_ms_range=(20.0, 60.0),
            ),
            pool,
        )

    def test_ids_live_in_reserved_range(self, detector, pool):
        result = ServingEngine(detector).serve(
            [], closed_loop=self.loops(pool)
        )
        assert result.records
        assert all(
            r.request_id >= CLOSED_LOOP_ID_BASE for r in result.records
        )

    def test_one_in_flight_per_client(self, detector, pool):
        result = ServingEngine(detector).serve(
            [], closed_loop=self.loops(pool)
        )
        per_client = {}
        for record in result.records:
            per_client.setdefault(record.client, []).append(record)
        for records in per_client.values():
            records.sort(key=lambda r: r.arrival_ms)
            assert len(records) > 1  # the loop actually looped
            for prev, nxt in zip(records, records[1:]):
                # The next request is issued only after the previous
                # one's terminal decision.
                assert nxt.arrival_ms >= prev.decided_ms

    def test_closed_loop_log_deterministic(self, detector, pool):
        spec = WorkloadSpec(duration_ms=700.0, rate_rps=40.0, seed=9)
        open_trace = generate_workload(spec, pool)
        first = ServingEngine(detector, workers=1).serve(
            list(open_trace), closed_loop=self.loops(pool)
        )
        second = ServingEngine(detector, workers=2).serve(
            list(open_trace), closed_loop=self.loops(pool)
        )
        assert first.log_json() == second.log_json()

    def test_models_cycle_across_workload_clients(self, pool):
        spec = WorkloadSpec(
            duration_ms=400.0, rate_rps=40.0, num_clients=4, seed=3,
            models=("alpha", "beta"),
        )
        trace = generate_workload(spec, pool)
        models = {r.client: r.model for r in trace}
        assert models["veh00"] == "alpha"
        assert models["veh01"] == "beta"
        assert models["veh02"] == "alpha"
