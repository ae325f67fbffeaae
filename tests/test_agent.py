"""Tests for the per-timestep Cooper agent and multi-agent session."""

import numpy as np
import pytest

from repro.faults import BurstLossModel, FaultPlan
from repro.fusion.agent import CooperAgent, CooperSession
from repro.fusion.cooper import Cooper
from repro.network.roi_policy import RoiCategory, RoiPolicy
from repro.scene.layouts import parking_lot
from repro.scene.trajectories import StationaryTrajectory, StraightTrajectory
from repro.sensors.lidar import BeamPattern, LidarModel
from repro.sensors.rig import SensorRig

FAST_16 = BeamPattern("fast-16", tuple(np.linspace(-15, 15, 16)), 0.8)


@pytest.fixture(scope="module")
def session_setup(detector):
    layout = parking_lot(seed=51, rows=3, cols=6, occupancy=0.8)
    cooper = Cooper(detector=detector)

    def make_agent(name, viewpoint, speed=0.0):
        pose = layout.viewpoint(viewpoint)
        trajectory = (
            StraightTrajectory(pose, speed=speed) if speed else StationaryTrajectory(pose)
        )
        return CooperAgent(
            name=name,
            rig=SensorRig(lidar=LidarModel(pattern=FAST_16), name=name),
            trajectory=trajectory,
            policy=RoiPolicy(category=RoiCategory.FULL_FRAME),
            cooper=cooper,
        )

    agents = [make_agent("alpha", "car1", speed=2.0), make_agent("beta", "car2")]
    return layout, CooperSession(world=layout.world, agents=agents)


class TestCooperSession:
    @pytest.fixture(scope="class")
    def logs(self, session_setup):
        _layout, session = session_setup
        return session.run(duration_seconds=3.0, period_seconds=1.0, seed=0)

    def test_all_agents_logged(self, logs):
        assert set(logs) == {"alpha", "beta"}
        assert all(len(steps) == 3 for steps in logs.values())

    def test_packages_flow_both_ways(self, logs):
        for steps in logs.values():
            for step in steps:
                assert len(step.received_packages) == 1
                assert step.sent_bits > 0

    def test_received_sender_identity(self, logs):
        assert all(
            p.sender == "beta"
            for step in logs["alpha"]
            for p in step.received_packages
        )

    def test_detections_produced(self, logs):
        total = sum(len(step.detections) for step in logs["alpha"])
        assert total > 0

    def test_fusion_beats_single_within_session(self, session_setup, detector):
        """Inside the session, fused detection >= the agent's own view."""
        _layout, session = session_setup
        logs = session.run(duration_seconds=1.0, period_seconds=1.0, seed=3)
        step = logs["alpha"][0]
        single = detector.detect(step.observation.scan.cloud)
        assert len(step.detections) >= len(single)

    def test_moving_agent_changes_pose(self, logs):
        poses = [s.observation.true_pose.position[0] for s in logs["alpha"]]
        assert poses[-1] > poses[0]

    def test_lossy_channel_drops_packages(self, session_setup):
        layout, session = session_setup
        # 95% loss per attempt in either channel state, so most broadcasts
        # exhaust the retry budget.
        plan = FaultPlan(burst=BurstLossModel(loss_good=0.95, loss_bad=0.95))
        lossy = CooperSession(
            world=layout.world, agents=session.agents, faults=plan
        )
        logs = lossy.run(duration_seconds=2.0, period_seconds=1.0, seed=1)
        deliveries = [
            flag
            for steps in logs.values()
            for step in steps
            for flag in step.delivered
        ]
        assert not all(deliveries)

    def test_invalid_period(self, session_setup):
        _layout, session = session_setup
        with pytest.raises(ValueError):
            session.run(period_seconds=0.0)
