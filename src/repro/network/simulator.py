"""Frame-by-frame exchange simulation (paper Fig. 12).

"We simulated and gathered the total data consumption between two cars,
both utilizing a 16-beam LiDAR, every second over an eight second time
frame."  The simulator drives two vehicles along trajectories through a
world, applies an ROI policy at the configured exchange rate, compresses
each package, and records the per-second data volume plus the DSRC
delivery report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fusion.package import ExchangePackage
from repro.network.dsrc import BANDWIDTH_MBPS, DsrcChannel
from repro.network.roi_policy import RoiPolicy, extract_roi
from repro.scene.trajectories import Trajectory
from repro.scene.world import World
from repro.sensors.rig import SensorRig

__all__ = ["ExchangeTrace", "ExchangeSimulator"]


@dataclass
class ExchangeTrace:
    """Result of one simulated exchange session.

    Attributes:
        seconds: the sampled timestamps.
        volume_megabits: total Mbit exchanged in each 1-second bucket
            (summing both directions where the policy is bidirectional) —
            the Fig. 12 y-axis.
        per_frame_megabits: Mbit of each individual package sent.
        delivered: per-package DSRC delivery outcome.
        latencies: per-package transmission latency (seconds).
        attempts: per-package transmission attempts — exposes the
            retransmission cost a lossy link adds to the Fig. 12 trace.
    """

    seconds: np.ndarray
    volume_megabits: np.ndarray
    per_frame_megabits: list[float] = field(default_factory=list)
    delivered: list[bool] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    attempts: list[int] = field(default_factory=list)

    @property
    def peak_volume_megabits(self) -> float:
        """Largest single-second volume."""
        return float(self.volume_megabits.max()) if len(self.volume_megabits) else 0.0

    @property
    def mean_volume_megabits(self) -> float:
        """Average per-second volume."""
        return float(self.volume_megabits.mean()) if len(self.volume_megabits) else 0.0

    def within_capacity(self) -> bool:
        """Does every second's volume fit the DSRC sustained rate?"""
        return bool((self.volume_megabits <= BANDWIDTH_MBPS).all())


@dataclass
class ExchangeSimulator:
    """Simulates ROI data exchange between two cooperating vehicles over
    the DSRC link (:class:`~repro.network.dsrc.DsrcChannel`).

    Attributes:
        world: the environment both vehicles scan.
        rig_a / rig_b: the two vehicles' sensor rigs (16-beam by default).
    """

    world: World
    rig_a: SensorRig
    rig_b: SensorRig

    def run(
        self,
        trajectory_a: Trajectory,
        trajectory_b: Trajectory,
        policy: RoiPolicy,
        duration_seconds: float = 8.0,
        seed: int = 0,
    ) -> ExchangeTrace:
        """Simulate ``duration_seconds`` of exchange under ``policy``.

        Packages are produced at ``policy.exchange_rate_hz``; category 3
        (forward corridor) is one-way (leader -> follower), the others are
        bidirectional, matching the paper's accounting.
        """
        dt = 1.0 / policy.exchange_rate_hz
        times = np.arange(0.0, duration_seconds, dt)
        buckets = np.zeros(int(np.ceil(duration_seconds)))
        trace = ExchangeTrace(seconds=np.arange(len(buckets)), volume_megabits=buckets)

        channel = DsrcChannel()
        background = [a.box for a in self.world.background()]
        for step, t in enumerate(times):
            pose_a = trajectory_a.pose_at(float(t))
            pose_b = trajectory_b.pose_at(float(t))
            senders = [(self.rig_a, pose_a, "a")]
            if policy.category.bidirectional:
                senders.append((self.rig_b, pose_b, "b"))
            for rig, pose, tag in senders:
                obs = rig.observe(self.world, pose, seed=seed + step * 7)
                local_background = [
                    b.transformed(pose.from_world()) for b in background
                ]
                roi_cloud = extract_roi(obs.scan.cloud, policy, local_background)
                package = ExchangePackage(
                    cloud=roi_cloud,
                    pose=obs.measured_pose,
                    sender=f"{rig.name}-{tag}",
                    beam_count=rig.lidar.pattern.num_beams,
                    timestamp=float(t),
                )
                bits = package.size_bytes() * 8
                report = channel.transmit(bits, seed=seed + step * 13)
                bucket = min(int(t), len(buckets) - 1)
                trace.volume_megabits[bucket] += bits / 1e6
                trace.per_frame_megabits.append(bits / 1e6)
                trace.delivered.append(report.delivered)
                trace.latencies.append(report.seconds)
                trace.attempts.append(report.attempts)
        return trace
