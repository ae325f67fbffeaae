"""Tests for the session's graceful-degradation machinery.

Covers the resilience contract the fault layer exists to prove: a
:class:`CooperSession` survives *any* fault schedule without raising,
keeps yielding perception results every step, degrades in ways the
degradation counters account for, and stays bit-identical at any worker
count while doing so.
"""

import numpy as np
import pytest

from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.fusion.agent import CooperAgent, CooperSession, PeerHealth
from repro.fusion.cooper import Cooper
from repro.geometry.transforms import Pose
from repro.network.roi_policy import RoiCategory, RoiPolicy
from repro.profiling import PROFILER
from repro.runtime import fork_available
from repro.scene.objects import make_car
from repro.scene.trajectories import StationaryTrajectory, StraightTrajectory
from repro.scene.world import World
from repro.sensors.lidar import BeamPattern, LidarModel
from repro.sensors.rig import SensorRig

FAST_16 = BeamPattern(
    "resil-16", tuple(np.linspace(-15, 15, 16)), azimuth_resolution_deg=1.0
)

#: Degradation counters the session is allowed to emit.
KNOWN_COUNTERS = {
    "breaker_skips",
    "channel_blackouts",
    "ego_only_steps",
    "gps_bias_steps",
    "gps_dropouts",
    "imu_glitches",
    "lidar_blackouts",
    "sanity_rejects",
    "stale_fallbacks",
}


def build_session(detector, faults=None, stale_fallback=True):
    """A small two-agent session over a three-car world."""
    world = World(
        (
            make_car(8.0, 2.0, name="car-a"),
            make_car(14.0, -3.0, name="car-b"),
            make_car(20.0, 1.0, name="car-c"),
        )
    )
    cooper = Cooper(detector=detector)

    def make_agent(name, x, y, speed=0.0):
        pose = Pose(np.array([x, y, 1.73]))
        trajectory = (
            StraightTrajectory(pose, speed=speed)
            if speed
            else StationaryTrajectory(pose)
        )
        return CooperAgent(
            name=name,
            rig=SensorRig(
                lidar=LidarModel(pattern=FAST_16, dropout=0.0), name=name
            ),
            trajectory=trajectory,
            policy=RoiPolicy(category=RoiCategory.FULL_FRAME),
            cooper=cooper,
        )

    return CooperSession(
        world=world,
        agents=[make_agent("alpha", 0.0, 0.0, speed=1.0),
                make_agent("beta", 4.0, -4.0)],
        faults=faults,
        stale_fallback=stale_fallback,
    )


class TestCrashFreedom:
    """Property-style: randomized chaos plans never break the loop."""

    @pytest.mark.parametrize("chaos_seed", range(4))
    def test_chaos_never_crashes(self, detector, chaos_seed):
        plan = FaultPlan.chaos(chaos_seed)
        session = build_session(detector, faults=plan)
        logs = session.run(duration_seconds=4.0, seed=chaos_seed)

        assert set(logs) == {"alpha", "beta"}
        for steps in logs.values():
            assert len(steps) == 4
            for step in steps:
                # Every step yields a perception result, degraded or not.
                assert isinstance(step.detections, list)
                assert len(step.delivered) == 1  # one peer
                assert step.stale_count <= len(step.received_packages)
        # Counters reconcile: only known counters, all non-negative, and
        # fallbacks never exceed what the cache could have served.
        assert set(session.degradation) <= KNOWN_COUNTERS
        assert all(v >= 0 for v in session.degradation.values())
        total_stale = sum(
            step.stale_count for steps in logs.values() for step in steps
        )
        assert session.degradation.get("stale_fallbacks", 0) == total_stale

    def test_total_blackout_degrades_to_ego_only(self, detector):
        """Burst loss ~1 in the BAD state with no recovery: ego-only, no crash."""
        plan = FaultPlan(
            seed=0,
            events=tuple(
                FaultEvent(FaultKind.CHANNEL_BLACKOUT, step=s)
                for s in range(5)
            ),
        )
        session = build_session(detector, faults=plan, stale_fallback=False)
        logs = session.run(duration_seconds=5.0, seed=1)
        for steps in logs.values():
            for step in steps:
                assert step.delivered == [False]
                assert step.received_packages == []
        # Each sender blacks out at steps 0-2, which opens its breaker, and
        # is skipped at steps 3-4: all 2 senders x 5 broadcasts are lost.
        assert session.degradation["channel_blackouts"] == 6
        assert session.degradation["breaker_skips"] == 4
        assert session.degradation["ego_only_steps"] == 10


class TestWorkerParity:
    def test_faulted_logs_identical_across_workers(self, detector):
        if not fork_available():
            pytest.skip("fork start method unavailable")
        plan = FaultPlan.chaos(2)

        def run(workers):
            session = build_session(detector, faults=plan)
            PROFILER.reset()
            PROFILER.enable()
            try:
                logs = session.run(duration_seconds=4.0, seed=3,
                                   workers=workers)
            finally:
                PROFILER.disable()
            counters = dict(PROFILER.counters)
            return session, logs, counters

        s1, l1, c1 = run(1)
        s4, l4, c4 = run(4)
        assert s1.degradation == s4.degradation
        assert c1["session.packages_lost"] == c4["session.packages_lost"]
        assert c1["session.packages_received"] == (
            c4["session.packages_received"]
        )
        for name in l1:
            for a, b in zip(l1[name], l4[name]):
                assert a.delivered == b.delivered
                assert a.stale_count == b.stale_count
                assert np.array_equal(
                    a.observation.measured_pose.position,
                    b.observation.measured_pose.position,
                )
                assert len(a.received_packages) == len(b.received_packages)
                assert len(a.detections) == len(b.detections)
                for da, db in zip(a.detections, b.detections):
                    assert np.allclose(da.box.center, db.box.center)
                    assert da.score == db.score


class TestStaleFallback:
    def test_lost_step_served_from_cache(self, detector):
        plan = FaultPlan(
            seed=0,
            events=(FaultEvent(FaultKind.CHANNEL_BLACKOUT, step=1,
                               agent="beta"),),
        )
        session = build_session(detector, faults=plan)
        logs = session.run(duration_seconds=3.0, seed=0)
        step1 = logs["alpha"][1]
        assert step1.delivered == [False]
        assert step1.stale_count == 1
        assert len(step1.received_packages) == 1
        assert step1.received_packages[0].sender == "beta"
        assert session.degradation["stale_fallbacks"] == 1

    def test_fallback_disabled_drops_to_ego(self, detector):
        plan = FaultPlan(
            seed=0,
            events=(FaultEvent(FaultKind.CHANNEL_BLACKOUT, step=1,
                               agent="beta"),),
        )
        session = build_session(detector, faults=plan, stale_fallback=False)
        logs = session.run(duration_seconds=3.0, seed=0)
        step1 = logs["alpha"][1]
        assert step1.received_packages == []
        assert session.degradation.get("stale_fallbacks", 0) == 0

    def test_cache_expires(self, detector):
        """An outage longer than ``MAX_STALE_STEPS`` (3) leaves nothing to
        serve."""
        events = tuple(
            FaultEvent(FaultKind.CHANNEL_BLACKOUT, step=s, agent="beta")
            for s in range(1, 6)
        )
        session = build_session(
            detector, faults=FaultPlan(seed=0, events=events)
        )
        logs = session.run(duration_seconds=6.0, seed=0)
        counts = [len(s.received_packages) for s in logs["alpha"]]
        # Fresh at step 0; stale at steps 1-3 (blackouts, then the breaker
        # opens); expired from step 4 on, while the breaker skips beta.
        assert counts == [1, 1, 1, 1, 0, 0]
        assert [s.stale_count for s in logs["alpha"]] == [0, 1, 1, 1, 0, 0]
        assert session.degradation["breaker_skips"] == 2


class TestCircuitBreaker:
    def test_opens_and_recovers(self, detector):
        events = tuple(
            FaultEvent(FaultKind.CHANNEL_BLACKOUT, step=s, agent="beta")
            for s in range(3)
        )
        session = build_session(
            detector, faults=FaultPlan(seed=0, events=events),
            stale_fallback=False,
        )
        logs = session.run(duration_seconds=7.0, seed=0)
        delivered = [s.delivered[0] for s in logs["alpha"]]
        # Steps 0-2 black out, 3-4 are breaker skips, 5 is the probe —
        # the outage is over, so it lands and the link recovers.
        assert delivered == [False, False, False, False, False, True, True]
        assert session.degradation["channel_blackouts"] == 3
        assert session.degradation["breaker_skips"] == 2

    def test_peer_health_unit(self):
        health = PeerHealth()
        for step in range(3):
            health.record_failure(step)
        assert health.is_open(3) and health.is_open(4)
        assert not health.is_open(5)  # the probe step
        health.record_success()
        assert health.consecutive_failures == 0


class TestSanityGate:
    def test_corrupt_pose_rejected_before_merge(self, detector):
        """A wildly implausible GPS fix never reaches Eq. (2)."""
        plan = FaultPlan(
            seed=0,
            events=(FaultEvent(FaultKind.GPS_BIAS, step=1, agent="beta",
                               magnitude=10_000.0),),
        )
        session = build_session(detector, faults=plan)
        logs = session.run(duration_seconds=3.0, seed=0)
        step1 = logs["alpha"][1]
        # The broadcast *was* delivered, but the gate quarantined it; the
        # step-0 package serves as the stale fallback instead.
        assert step1.delivered == [True]
        assert step1.stale_count == 1
        assert len(step1.received_packages) == 1
        assert session.degradation["sanity_rejects"] >= 1


class TestFaultFreeParity:
    def test_no_plan_means_no_degradation(self, detector):
        session = build_session(detector)
        logs = session.run(duration_seconds=3.0, seed=0)
        assert session.degradation == {}
        for steps in logs.values():
            for step in steps:
                assert step.delivered == [True]
                assert step.stale_count == 0
                assert len(step.received_packages) == 1
