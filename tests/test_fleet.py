"""Tests for fleet-scale sharded serving (repro.serve.fleet)."""

import subprocess
import sys

import numpy as np
import pytest

from repro.profiling import PROFILER
from repro.sensors.lidar import BeamPattern
from repro.serve import (
    ClosedLoopSpec,
    FleetConfig,
    FleetEngine,
    ScenarioPool,
    ServeConfig,
    ServingEngine,
    WorkloadSpec,
    apply_ingress_loss,
    build_fleet_report,
    generate_workload,
    hash_bucket,
    make_closed_loop_clients,
    render_fleet_report,
    route_bucket,
    route_client,
)

_BUCKETS = 2**32


@pytest.fixture(scope="module")
def pool() -> ScenarioPool:
    """A cheap low-resolution scenario pool shared by the fleet tests."""
    pattern = BeamPattern(
        "fleet-16", tuple(np.linspace(-15, 15, 16)), azimuth_resolution_deg=1.0
    )
    return ScenarioPool.build(seed=0, pattern=pattern, variants=1)


def clients(n: int) -> list[str]:
    return [f"veh{i:03d}" for i in range(n)]


class TestRouter:
    def test_assignment_factorizes_through_bucket(self):
        # route_client is exactly route_bucket(hash_bucket(...)) — the
        # resharding behaviour depends on the client only via its
        # shard-count-independent bucket.
        for client in clients(64):
            bucket = hash_bucket(0, client)
            assert 0 <= bucket < _BUCKETS
            for shards in (1, 2, 3, 4, 7, 16):
                shard = route_client(0, client, shards)
                assert shard == route_bucket(bucket, shards)
                assert 0 <= shard < shards

    def test_single_shard_takes_everyone(self):
        assert all(route_client(5, c, 1) == 0 for c in clients(32))

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            route_client(0, "veh000", 0)

    def test_assignment_deterministic_and_seed_sensitive(self):
        names = clients(200)
        first = [route_client(3, c, 4) for c in names]
        second = [route_client(3, c, 4) for c in names]
        assert first == second
        reseeded = [route_client(4, c, 4) for c in names]
        assert first != reseeded  # the seed genuinely reshuffles

    def test_balance_is_reasonable(self):
        # CRC-32 is not a crypto hash, but over hundreds of clients the
        # range partition should not collapse onto few shards.
        names = clients(400)
        for shards in (2, 4, 8):
            counts = [0] * shards
            for client in names:
                counts[route_client(0, client, shards)] += 1
            assert min(counts) > 0
            assert max(counts) < 2.5 * (len(names) / shards)

    def test_resharding_moves_only_to_new_shards(self):
        # The jump-hash property: growing N -> M shards, a client either
        # keeps its shard or moves to one of the *added* shards — no
        # client is shuffled between surviving shards (the failure mode
        # of modulo routing) — and the moved fraction stays near the
        # minimal 1 - N/M.
        names = clients(500)
        for n_shards, m_shards in ((2, 3), (4, 5), (4, 8), (3, 7)):
            moved = 0
            for client in names:
                before = route_client(0, client, n_shards)
                after = route_client(0, client, m_shards)
                if before != after:
                    moved += 1
                    assert after >= n_shards  # moved onto a new shard only
            expected = 1.0 - n_shards / m_shards
            assert moved / len(names) <= expected + 0.10
            assert moved / len(names) >= expected - 0.10

    def test_assignment_stable_across_processes(self):
        # The PR-2 DSRC bug class: anything built on Python's hash()
        # changes per process under PYTHONHASHSEED randomization.  The
        # router must not.
        names = clients(16)
        script = (
            "from repro.serve import route_client\n"
            f"print([route_client(9, c, 4) for c in {names!r}])\n"
        )
        outputs = set()
        for hash_seed in ("0", "1", "12345"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": hash_seed},
                check=True,
            )
            outputs.add(proc.stdout.strip())
        assert len(outputs) == 1
        assert outputs.pop() == str(
            [route_client(9, c, 4) for c in names]
        )


class TestFleetEngine:
    def workload(self, pool, rate=90.0, duration=900.0, n_clients=12, seed=5):
        spec = WorkloadSpec(
            duration_ms=duration, rate_rps=rate, num_clients=n_clients,
            seed=seed,
        )
        requests = generate_workload(spec, pool)
        return spec, apply_ingress_loss(requests, loss_rate=0.05, seed=seed)

    def test_requests_land_on_routed_shard(self, detector, pool):
        spec, (delivered, lost) = self.workload(pool)
        fleet = FleetEngine(detector, FleetConfig(num_shards=3))
        result = fleet.serve(delivered, lost=lost)
        for shard, shard_result in enumerate(result.shard_results):
            for record in shard_result.records:
                assert fleet.route(record.client) == shard
                assert result.assignments[record.client] == shard

    def test_conservation_across_shards(self, detector, pool):
        spec, (delivered, lost) = self.workload(pool)
        fleet = FleetEngine(detector, FleetConfig(num_shards=4))
        result = fleet.serve(delivered, lost=lost)
        counts = result.counts()
        assert counts["offered"] == len(delivered) + len(lost)
        assert (
            counts["completed"]
            + counts["shed_deadline"]
            + counts["rejected_queue_full"]
            + counts["lost_ingress"]
        ) == counts["offered"]
        merged_ids = sorted(
            r.request_id for r in result.merged().records
        )
        assert merged_ids == sorted(
            r.request_id for r in delivered + lost
        )

    def test_log_bit_identical_across_worker_counts(self, detector, pool):
        spec, (delivered, lost) = self.workload(pool)
        config = FleetConfig(num_shards=3)
        serial = FleetEngine(detector, config, workers=1).serve(
            delivered, lost=lost
        )
        fanned = FleetEngine(detector, config, workers=3).serve(
            delivered, lost=lost
        )
        assert serial.log_json() == fanned.log_json()
        assert serial.digest() == fanned.digest()

    def test_log_bit_identical_across_runs(self, detector, pool):
        spec, (delivered, lost) = self.workload(pool)
        config = FleetConfig(num_shards=2, routing_seed=7)
        first = FleetEngine(detector, config).serve(delivered, lost=lost)
        second = FleetEngine(detector, config).serve(delivered, lost=lost)
        assert first.digest() == second.digest()

    def test_shard_equals_standalone_engine(self, detector, pool):
        # A fleet shard's log is exactly what a lone engine serving that
        # shard's slice would have produced — shards share nothing.
        spec, (delivered, lost) = self.workload(pool)
        fleet = FleetEngine(detector, FleetConfig(num_shards=2))
        result = fleet.serve(delivered, lost=lost)
        shard0_requests = [
            r for r in delivered if fleet.route(r.client) == 0
        ]
        shard0_lost = [r for r in lost if fleet.route(r.client) == 0]
        standalone = ServingEngine(
            detector, fleet.config.shard_config, workers=1
        ).serve(shard0_requests, lost=shard0_lost)
        assert (
            standalone.log_json() == result.shard_results[0].log_json()
        )

    def test_closed_loop_clients_routed_and_sticky(self, detector, pool):
        loops = make_closed_loop_clients(
            ClosedLoopSpec(duration_ms=700.0, num_clients=4, seed=3), pool
        )
        fleet = FleetEngine(detector, FleetConfig(num_shards=2))
        result = fleet.serve([], closed_loop=loops)
        for shard, shard_result in enumerate(result.shard_results):
            for record in shard_result.records:
                assert fleet.route(record.client) == shard

    def test_fleet_report_aggregates(self, detector, pool):
        spec, (delivered, lost) = self.workload(pool)
        fleet = FleetEngine(detector, FleetConfig(num_shards=2))
        result = fleet.serve(delivered, lost=lost)
        report = build_fleet_report(result, spec.duration_ms)
        assert report["num_shards"] == 2
        assert len(report["shards"]) == 2
        assert report["offered"] == sum(
            s["offered"] for s in report["shards"]
        )
        assert report["completed"] == sum(
            s["completed"] for s in report["shards"]
        )
        assert sum(report["clients_per_shard"]) == len(
            result.assignments
        )
        rendered = render_fleet_report(report)
        assert "shard 0" in rendered and "shard 1" in rendered


class TestFleetProfiles:
    def test_shard_profiles_merge_exactly(self, detector, pool):
        # The fleet-level profile must equal the sum of the per-shard
        # snapshots — same exactness contract as the worker pool's chunk
        # merge, inline and pooled alike.
        spec = WorkloadSpec(
            duration_ms=500.0, rate_rps=60.0, num_clients=8, seed=8
        )
        requests = generate_workload(spec, pool)
        for workers in (1, 2):
            PROFILER.reset()
            PROFILER.enable()
            try:
                fleet = FleetEngine(
                    detector, FleetConfig(num_shards=2), workers=workers
                )
                result = fleet.serve(requests)
                merged = PROFILER.snapshot()
            finally:
                PROFILER.disable()
                PROFILER.reset()
            assert len(result.shard_profiles) == 2
            for name in ("serve.offered", "serve.completed", "serve.batches"):
                per_shard = sum(
                    profile["counters"].get(name, 0.0)
                    for profile in result.shard_profiles
                )
                assert merged["counters"][name] == per_shard, (workers, name)
            per_shard_detect = sum(
                profile["stages"].get("serve.detect", {}).get("count", 0)
                for profile in result.shard_profiles
            )
            assert per_shard_detect > 0
            assert (
                merged["stages"]["serve.detect"]["count"] == per_shard_detect
            )
            assert merged["counters"]["serve.offered"] == len(requests)
