"""Tests for the DSRC channel, ROI policies and exchange simulation."""

import numpy as np
import pytest

from repro.fusion.package import ExchangePackage
from repro.geometry.transforms import Pose
from repro.network.dsrc import MAX_RETRIES, DsrcChannel
from repro.network.roi_policy import RoiCategory, RoiPolicy, extract_roi
from repro.network.simulator import ExchangeSimulator
from repro.pointcloud.cloud import PointCloud
from repro.scene.layouts import two_lane_road
from repro.scene.trajectories import StationaryTrajectory, StraightTrajectory
from repro.sensors.lidar import BeamPattern, LidarModel
from repro.sensors.rig import SensorRig


class TestDsrc:
    def test_serialization_time(self):
        assert DsrcChannel().serialization_seconds(6_000_000) == pytest.approx(1.0)

    def test_transmit_latency(self):
        report = DsrcChannel().transmit(600_000)
        assert report.delivered
        assert report.attempts == 1
        assert report.seconds == pytest.approx(0.102)

    def test_loss_retries(self):
        report = DsrcChannel().transmit(1000, seed=1, loss_rate=0.9)
        assert report.delivered
        assert 1 < report.attempts <= MAX_RETRIES + 1
        # Every attempt pays the base latency and the serialisation again.
        assert report.seconds == pytest.approx(report.attempts * (0.002 + 1000 / 6e6))

    def test_total_bits_counts_retransmissions(self):
        """On a lossy retried send, payload_bits stays one copy and
        total_bits accounts for every attempt's airtime.

        Regression: payload_bits was documented as including
        retransmissions while holding the single-copy size, and no field
        exposed the retransmitted volume.
        """
        report = DsrcChannel().transmit(1000, seed=1, loss_rate=0.9)
        assert report.attempts > 1
        assert report.payload_bits == 1000
        assert report.total_bits == 1000 * report.attempts

    def test_loss_exhausts_budget(self):
        # A near-certain loss spends the whole retry budget on some seed.
        outcomes = [
            DsrcChannel().transmit(1000, seed=s, loss_rate=0.99) for s in range(20)
        ]
        lost = [r for r in outcomes if not r.delivered]
        assert lost
        assert all(r.attempts == MAX_RETRIES + 1 for r in lost)
        assert all(r.total_bits == 1000 * (MAX_RETRIES + 1) for r in lost)

    def test_utilization(self):
        assert DsrcChannel().utilization(3_000_000) == pytest.approx(0.5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DsrcChannel().transmit(-1)

    def test_negative_config_rejected(self):
        """Regression: a negative latency silently passed validation and
        produced nonsense timings."""
        with pytest.raises(ValueError):
            DsrcChannel().transmit(1000, extra_latency_ms=-1.0)

    def test_loss_rate_override(self):
        """The per-call loss_rate (the fault plan's hook) decides loss;
        without one the link is clean."""
        channel = DsrcChannel()
        assert not channel.transmit(1000, seed=0, loss_rate=1.0).delivered
        assert channel.transmit(1000, seed=0, loss_rate=0.0).delivered
        clean = [channel.transmit(1000, seed=s) for s in range(20)]
        assert all(r.delivered and r.attempts == 1 for r in clean)


def front_heavy_cloud() -> PointCloud:
    rng = np.random.default_rng(0)
    n = 4000
    azimuth = rng.uniform(-np.pi, np.pi, n)
    r = rng.uniform(2, 60, n)
    xyz = np.column_stack(
        [r * np.cos(azimuth), r * np.sin(azimuth), rng.uniform(-1.7, 1.0, n)]
    )
    return PointCloud.from_xyz(xyz)


class TestRoiPolicy:
    def test_category_directionality(self):
        assert RoiCategory.FULL_FRAME.bidirectional
        assert RoiCategory.FRONT_SECTOR.bidirectional
        assert not RoiCategory.FORWARD_CORRIDOR.bidirectional

    def test_volume_ordering_full_sector_corridor(self):
        """Fig. 12's ordering: ROI1 >= ROI2 >= ROI3 in points."""
        cloud = front_heavy_cloud()
        sizes = {}
        for category in RoiCategory:
            policy = RoiPolicy(category=category, subtract_known_background=False)
            sizes[category] = len(extract_roi(cloud, policy))
        assert sizes[RoiCategory.FULL_FRAME] >= sizes[RoiCategory.FRONT_SECTOR]
        assert sizes[RoiCategory.FRONT_SECTOR] >= sizes[RoiCategory.FORWARD_CORRIDOR]

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            RoiPolicy(exchange_rate_hz=0.0)

    def test_background_subtraction_applied(self):
        from repro.geometry.boxes import Box3D

        cloud = front_heavy_cloud()
        building = Box3D(np.array([20.0, 0.0, 2.0]), 20.0, 20.0, 8.0)
        policy = RoiPolicy(category=RoiCategory.FULL_FRAME)
        with_subtraction = extract_roi(cloud, policy, [building])
        without = extract_roi(
            cloud,
            RoiPolicy(category=RoiCategory.FULL_FRAME, subtract_known_background=False),
            [building],
        )
        assert len(with_subtraction) < len(without)


class TestExchangeSimulator:
    @pytest.fixture(scope="class")
    def simulator(self):
        layout = two_lane_road()
        pattern = BeamPattern("sim-16", tuple(np.linspace(-15, 15, 16)), 1.0)
        rig = lambda name: SensorRig(  # noqa: E731
            lidar=LidarModel(pattern=pattern, dropout=0.0), name=name
        )
        return (
            ExchangeSimulator(world=layout.world, rig_a=rig("a"), rig_b=rig("b")),
            layout,
        )

    def test_trace_shape(self, simulator):
        sim, layout = simulator
        trace = sim.run(
            StationaryTrajectory(layout.viewpoint("ego")),
            StationaryTrajectory(layout.viewpoint("oncoming")),
            RoiPolicy(category=RoiCategory.FULL_FRAME),
            duration_seconds=4.0,
        )
        assert len(trace.volume_megabits) == 4
        assert trace.peak_volume_megabits > 0
        assert all(trace.delivered)

    def test_one_way_cheaper_than_two_way(self, simulator):
        sim, layout = simulator
        ego = StationaryTrajectory(layout.viewpoint("ego"))
        leader = StationaryTrajectory(layout.viewpoint("leader"))
        full = sim.run(
            ego, leader, RoiPolicy(category=RoiCategory.FULL_FRAME), 3.0
        )
        corridor = sim.run(
            ego, leader, RoiPolicy(category=RoiCategory.FORWARD_CORRIDOR), 3.0
        )
        assert corridor.mean_volume_megabits < full.mean_volume_megabits

    def test_within_dsrc_capacity(self, simulator):
        """The paper's conclusion: 1 Hz ROI exchange fits DSRC."""
        sim, layout = simulator
        trace = sim.run(
            StraightTrajectory(layout.viewpoint("ego"), speed=5.0),
            StationaryTrajectory(layout.viewpoint("oncoming")),
            RoiPolicy(category=RoiCategory.FULL_FRAME, exchange_rate_hz=1.0),
            duration_seconds=4.0,
        )
        assert trace.within_capacity()

    def test_trace_records_attempts(self, simulator):
        """ExchangeTrace exposes per-package transmission attempts."""
        sim, layout = simulator
        trace = sim.run(
            StationaryTrajectory(layout.viewpoint("ego")),
            StationaryTrajectory(layout.viewpoint("oncoming")),
            RoiPolicy(category=RoiCategory.FULL_FRAME),
            duration_seconds=3.0,
        )
        assert len(trace.attempts) == len(trace.delivered)
        assert all(a >= 1 for a in trace.attempts)

    def test_higher_rate_more_volume(self, simulator):
        sim, layout = simulator
        ego = StationaryTrajectory(layout.viewpoint("ego"))
        other = StationaryTrajectory(layout.viewpoint("oncoming"))
        slow = sim.run(
            ego, other, RoiPolicy(category=RoiCategory.FRONT_SECTOR,
                                  exchange_rate_hz=1.0), 3.0
        )
        fast = sim.run(
            ego, other, RoiPolicy(category=RoiCategory.FRONT_SECTOR,
                                  exchange_rate_hz=4.0), 3.0
        )
        assert fast.mean_volume_megabits > 2 * slow.mean_volume_megabits
