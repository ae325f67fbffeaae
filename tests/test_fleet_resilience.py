"""Tests for fleet resilience: seeded shard faults, failover, retries.

Covers :mod:`repro.faults.serve` (the ShardFaultPlan), the fallback
chain and resilient routing pass in :mod:`repro.serve.fleet`, and the
engine-side crash/brownout handling in :mod:`repro.serve.engine`.
"""

import numpy as np
import pytest

from repro.faults.models import BurstLossModel
from repro.faults.serve import ShardFaultEvent, ShardFaultPlan
from repro.sensors.lidar import BeamPattern
from repro.serve import (
    FailoverConfig,
    FleetConfig,
    FleetEngine,
    RequestStatus,
    ScenarioPool,
    ServeConfig,
    ServingEngine,
    WorkloadSpec,
    fallback_chain,
    generate_workload,
    hash_bucket,
    route_bucket,
    route_client,
)


@pytest.fixture(scope="module")
def pool() -> ScenarioPool:
    """A cheap low-resolution scenario pool shared by these tests."""
    pattern = BeamPattern(
        "resil-16", tuple(np.linspace(-15, 15, 16)), azimuth_resolution_deg=1.0
    )
    return ScenarioPool.build(seed=0, pattern=pattern, variants=1)


def workload(pool, duration_ms=1200.0, rate_rps=50.0, num_clients=12, seed=0):
    spec = WorkloadSpec(
        duration_ms=duration_ms,
        rate_rps=rate_rps,
        num_clients=num_clients,
        burst_factor=1.5,
        seed=seed,
    )
    return generate_workload(spec, pool)


def full_window_crash(shard: int, duration_ms: float) -> ShardFaultEvent:
    return ShardFaultEvent(
        kind="crash",
        start_ms=0.0,
        duration_ms=duration_ms + 1000.0,
        shard=shard,
    )


class TestShardFaultPlan:
    def test_windows_deterministic_and_seed_sensitive(self):
        kwargs = dict(
            horizon_ms=60000.0,
            crash_rate_per_min=6.0,
            brownout_rate_per_min=4.0,
        )
        a = ShardFaultPlan(seed=7, **kwargs)
        b = ShardFaultPlan(seed=7, **kwargs)
        c = ShardFaultPlan(seed=8, **kwargs)
        for shard in range(4):
            assert a.crash_windows(shard) == b.crash_windows(shard)
            assert a.brownout_windows(shard) == b.brownout_windows(shard)
        assert any(
            a.crash_windows(s) != c.crash_windows(s) for s in range(4)
        ), "reseeding never moved a crash window"

    def test_shards_draw_independent_windows(self):
        plan = ShardFaultPlan(seed=0, crash_rate_per_min=10.0)
        windows = [plan.crash_windows(s) for s in range(4)]
        assert len({tuple(w) for w in windows}) > 1

    def test_scripted_window_boundaries(self):
        # Start-inclusive, end-exclusive: down at start, up again at end.
        event = ShardFaultEvent(kind="crash", start_ms=100.0, duration_ms=50.0)
        plan = ShardFaultPlan(events=(event,))
        for shard in range(3):
            assert not plan.is_down(shard, 99.999)
            assert plan.is_down(shard, 100.0)
            assert plan.is_down(shard, 149.999)
            assert not plan.is_down(shard, 150.0)
            assert plan.down_until(shard, 120.0) == 150.0

    def test_event_shard_scoping(self):
        event = ShardFaultEvent(
            kind="crash", start_ms=0.0, duration_ms=100.0, shard=2
        )
        plan = ShardFaultPlan(events=(event,))
        assert plan.is_down(2, 50.0)
        assert not plan.is_down(0, 50.0)
        assert not plan.is_down(1, 50.0)

    def test_brownout_inflates_service(self):
        event = ShardFaultEvent(
            kind="brownout", start_ms=200.0, duration_ms=100.0
        )
        plan = ShardFaultPlan(events=(event,), brownout_factor=3.0)
        assert plan.service_factor(0, 250.0) == 3.0
        assert plan.service_factor(0, 199.0) == 1.0
        assert plan.service_factor(0, 300.0) == 1.0

    def test_none_plan_is_quiet(self):
        plan = ShardFaultPlan.none()
        assert plan.crash_windows(0) == ()
        assert not plan.is_down(0, 0.0)
        assert plan.service_factor(0, 1e6) == 1.0

    def test_overlapping_windows_coalesce(self):
        events = (
            ShardFaultEvent(kind="crash", start_ms=100.0, duration_ms=100.0),
            ShardFaultEvent(kind="crash", start_ms=150.0, duration_ms=100.0),
        )
        plan = ShardFaultPlan(events=events)
        assert plan.crash_windows(0) == ((100.0, 250.0),)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardFaultEvent(kind="meteor", start_ms=0.0, duration_ms=1.0)
        with pytest.raises(ValueError):
            ShardFaultPlan(crash_rate_per_min=-1.0)
        with pytest.raises(ValueError):
            ShardFaultPlan(crash_duration_ms=(500.0, 100.0))
        with pytest.raises(ValueError):
            ShardFaultPlan(brownout_factor=0.5)

    def test_from_spec_round_trip(self):
        plan = ShardFaultPlan.from_spec(
            "crash-rate=6,crash-ms=200:400,brownout-rate=2,"
            "brownout-factor=3,ingress-loss=0.1,horizon=30000,seed=5"
        )
        assert plan.crash_rate_per_min == 6.0
        assert plan.crash_duration_ms == (200.0, 400.0)
        assert plan.brownout_rate_per_min == 2.0
        assert plan.brownout_factor == 3.0
        assert plan.ingress_burst is not None
        assert plan.horizon_ms == 30000.0
        assert plan.seed == 5

    def test_from_spec_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="valid keys"):
            ShardFaultPlan.from_spec("crash-rate=6,bogus-key=1")

    def test_ingress_drop_deterministic(self):
        plan = ShardFaultPlan(
            seed=3, ingress_burst=BurstLossModel.for_target_loss(0.5)
        )
        draws = [
            plan.ingress_dropped(0, rid, 0, rid * 10.0) for rid in range(200)
        ]
        again = [
            plan.ingress_dropped(0, rid, 0, rid * 10.0) for rid in range(200)
        ]
        assert draws == again
        assert any(draws) and not all(draws)


class TestFallbackChain:
    def test_permutation_headed_by_primary(self):
        for num_shards in (1, 2, 3, 4, 7, 16):
            for client_index in range(50):
                bucket = hash_bucket(0, f"veh{client_index:03d}")
                chain = fallback_chain(bucket, num_shards)
                assert sorted(chain) == list(range(num_shards))
                assert chain[0] == route_bucket(bucket, num_shards)

    def test_deterministic(self):
        bucket = hash_bucket(1, "veh000")
        assert fallback_chain(bucket, 8) == fallback_chain(bucket, 8)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            fallback_chain(0, 0)


class TestFailoverRouting:
    """Properties of the resilient routing pass on real fleet runs."""

    def shards_by_record(self, result):
        served = {}
        for shard_index, shard_result in enumerate(result.shard_results):
            for record in shard_result.records:
                served[record.request_id] = (shard_index, record)
        return served

    def test_only_downed_shards_clients_move(self, detector, pool):
        # Property across shard counts: with shard `down` dark for the
        # whole window, every delivered request from a client whose
        # primary is NOT `down` stays on its primary shard.
        requests = workload(pool, duration_ms=800.0, rate_rps=40.0)
        for num_shards in (2, 3, 4):
            down = num_shards - 1
            config = FleetConfig(
                num_shards=num_shards,
                routing_seed=0,
                shard_faults=ShardFaultPlan(
                    events=(full_window_crash(down, 800.0),)
                ),
            )
            result = FleetEngine(detector, config).serve(requests)
            served = self.shards_by_record(result)
            moved = 0
            for request in requests:
                primary = route_client(0, request.client, num_shards)
                entry = served.get(request.request_id)
                if entry is None:
                    continue  # unrouted (all shards in chain failed)
                shard_index, record = entry
                if primary != down:
                    assert shard_index == primary, (
                        f"client {request.client} (primary {primary}) "
                        f"moved to shard {shard_index} though its "
                        f"primary never failed"
                    )
                    assert record.failovers == 0
                else:
                    assert shard_index != down
                    moved += 1
            assert moved > 0, "no traffic from the downed shard's clients"

    def test_recovered_shard_reclaims_its_clients(self, detector, pool):
        # Crash [0, 400) then recovery: arrivals after the restart from
        # the downed shard's clients are served by their primary again
        # (the breaker closes on the first post-restart success).
        duration = 1200.0
        requests = workload(pool, duration_ms=duration, rate_rps=40.0)
        down = 1
        config = FleetConfig(
            num_shards=2,
            routing_seed=0,
            shard_faults=ShardFaultPlan(
                events=(
                    ShardFaultEvent(
                        kind="crash", start_ms=0.0, duration_ms=400.0,
                        shard=down,
                    ),
                )
            ),
            failover=FailoverConfig(cooldown_ms=100.0),
        )
        result = FleetEngine(detector, config).serve(requests)
        served = self.shards_by_record(result)
        reclaimed = 0
        for request in requests:
            if route_client(0, request.client, 2) != down:
                continue
            entry = served.get(request.request_id)
            if entry is None:
                continue
            shard_index, record = entry
            # The routed arrival (post-retry) is what lands on the
            # shard; failovers==0 means the primary served it.
            if request.arrival_ms >= 500.0:
                assert shard_index == down, (
                    f"arrival at {request.arrival_ms:.0f} ms (restart at "
                    f"400 ms + cooldown) still served by shard "
                    f"{shard_index}, not the recovered primary"
                )
                reclaimed += 1
        assert reclaimed > 0, "no post-recovery arrivals to check"

    def test_attempts_bounded_and_ids_unique(self, detector, pool):
        requests = workload(pool, duration_ms=800.0, rate_rps=40.0)
        failover = FailoverConfig(max_retries=2, hedge_ms=10.0)
        config = FleetConfig(
            num_shards=2,
            shard_faults=ShardFaultPlan(
                seed=1, crash_rate_per_min=40.0,
                crash_duration_ms=(100.0, 300.0),
            ),
            failover=failover,
        )
        result = FleetEngine(detector, config).serve(requests)
        merged = result.merged()
        ids = [record.request_id for record in merged.records]
        assert len(ids) == len(set(ids)), "a hedged request was served twice"
        assert len(ids) == len(requests), "records lost or duplicated"
        for record in merged.records:
            # 1 initial + max_retries + 1 hedge.
            assert record.attempts <= 1 + failover.max_retries + 1
            assert record.failovers >= 0

    def test_unrouted_fail_fast_and_account(self, detector, pool):
        # Every shard dark for the whole window: nothing is delivered,
        # every request fails parent-side, the log still accounts 1:1.
        requests = workload(pool, duration_ms=400.0, rate_rps=30.0)
        config = FleetConfig(
            num_shards=2,
            shard_faults=ShardFaultPlan(
                events=(full_window_crash(-1, 400.0),)
            ),
        )
        result = FleetEngine(detector, config).serve(requests)
        merged = result.merged()
        assert len(merged.records) == len(requests)
        assert all(
            record.status is RequestStatus.FAILED_SHARD_DOWN
            for record in merged.records
        )
        assert result.routing["unrouted"] == len(requests)

    def test_delivered_latency_includes_retry_delay(self, detector, pool):
        # A request delivered after failover carries end-to-end latency:
        # queue+service on the serving shard PLUS the routing delay.
        requests = workload(pool, duration_ms=800.0, rate_rps=40.0)
        config = FleetConfig(
            num_shards=2,
            shard_faults=ShardFaultPlan(
                events=(
                    ShardFaultEvent(
                        kind="crash", start_ms=0.0, duration_ms=300.0,
                        shard=0,
                    ),
                )
            ),
            failover=FailoverConfig(retry_backoff_ms=50.0),
        )
        result = FleetEngine(detector, config).serve(requests)
        retried = [
            record
            for record in result.merged().records
            if record.status is RequestStatus.COMPLETED
            and record.attempts > 1
        ]
        assert retried, "no completed request ever retried"
        for record in retried:
            assert record.latency_ms > 0
            # decided - arrival == latency must hold after the patch
            # restored the original arrival stamp.
            assert record.decided_ms - record.arrival_ms == pytest.approx(
                record.latency_ms
            )


class TestDeterminismUnderFaults:
    def test_worker_count_invariant(self, detector, pool):
        requests = workload(pool, duration_ms=600.0, rate_rps=40.0)
        config = FleetConfig(
            num_shards=2,
            shard_faults=ShardFaultPlan(
                seed=2,
                crash_rate_per_min=30.0,
                brownout_rate_per_min=20.0,
            ),
            failover=FailoverConfig(hedge_ms=15.0),
        )
        serial = FleetEngine(detector, config, workers=1).serve(requests)
        parallel = FleetEngine(detector, config, workers=4).serve(requests)
        rerun = FleetEngine(detector, config, workers=1).serve(requests)
        assert serial.digest() == parallel.digest()
        assert serial.digest() == rerun.digest()

    def test_fault_free_plan_matches_no_plan(self, detector, pool):
        # A quiet plan must not perturb the fault-free fleet log.
        requests = workload(pool, duration_ms=600.0, rate_rps=40.0)
        bare = FleetEngine(detector, FleetConfig(num_shards=2)).serve(requests)
        quiet = FleetEngine(
            detector,
            FleetConfig(num_shards=2, shard_faults=ShardFaultPlan.none()),
        ).serve(requests)
        assert bare.digest() == quiet.digest()


class TestEngineCrashAndBrownout:
    def test_no_batch_straddles_a_down_window(self, detector, pool):
        # Mid-batch crash kill: no completed batch's service interval
        # may intersect a down window, and requests queued at the crash
        # are failed, not silently dropped.
        requests = workload(pool, duration_ms=1000.0, rate_rps=60.0)
        plan = ShardFaultPlan(
            events=(
                ShardFaultEvent(
                    kind="crash", start_ms=250.0, duration_ms=200.0
                ),
            )
        )
        engine = ServingEngine(detector, ServeConfig(max_batch_size=8))
        result = engine.serve(requests, faults=plan.view(0))
        windows = plan.crash_windows(0)
        for batch in result.batches:
            start, end = batch.dispatch_ms, batch.dispatch_ms + batch.service_ms
            for w_start, w_end in windows:
                assert not (start < w_end and end > w_start), (
                    f"batch [{start:.1f}, {end:.1f}) overlaps down window "
                    f"[{w_start:.1f}, {w_end:.1f})"
                )
        downed = [
            record
            for record in result.records
            if record.status is RequestStatus.FAILED_SHARD_DOWN
        ]
        assert downed, "a 200 ms crash under load failed no requests"
        assert len(result.records) == len(requests)
        kinds = {event["action"] for event in result.fault_events}
        assert "crash" in kinds

    def test_brownout_hysteresis_sheds_and_recovers(self, detector, pool):
        requests = workload(pool, duration_ms=800.0, rate_rps=120.0)
        config = ServeConfig(
            max_batch_size=4,
            max_wait_ms=25.0,
            queue_capacity=64,
            brownout_enter_depth=6,
            brownout_exit_depth=2,
        )
        engine = ServingEngine(detector, config)
        result = engine.serve(
            requests, faults=ShardFaultPlan.none().view(0)
        )
        actions = [event["action"] for event in result.fault_events]
        assert "brownout_enter" in actions
        shed = [
            record
            for record in result.records
            if record.status is RequestStatus.SHED_BROWNOUT
        ]
        assert shed, "brownout never shed a low-priority arrival"
        assert all(record.priority <= 0 for record in shed)
