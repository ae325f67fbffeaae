"""The mounted sensor rig: LiDAR + GPS + IMU on one vehicle.

One :meth:`SensorRig.observe` call produces everything a Cooper exchange
package needs (Section II-D): the LiDAR scan in the sensor frame and the
*measured* pose assembled from the GPS position reading and the IMU
attitude reading.  The measured pose — not the true one — is what gets
transmitted, so GPS drift propagates into alignment exactly as in Fig. 10.

Fault injection happens here, at the boundary where real sensors fail:
a :class:`repro.faults.SensorFaults` value (resolved per step/agent by a
:class:`repro.faults.FaultPlan`) can black out the LiDAR frame, degrade
the GPS fix to a dead-reckoned guess, add drift bias, or glitch the IMU
yaw — and every downstream consumer sees the corrupted observation the
way a deployed OBU would.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.faults.plan import SensorFaults
from repro.geometry.transforms import Pose
from repro.pointcloud.cloud import PointCloud
from repro.scene.world import World
from repro.sensors.gps import GpsSkew, read_gps
from repro.sensors.imu import read_imu
from repro.sensors.lidar import LidarModel, LidarScan

__all__ = ["RigObservation", "SensorRig"]


@dataclass
class RigObservation:
    """One synchronised observation from a vehicle's rig.

    Attributes:
        scan: the LiDAR scan (points in the sensor frame, truth pose inside).
        measured_pose: the GPS+IMU pose estimate that would be transmitted.
        true_pose: ground truth, kept for evaluation only.
    """

    scan: LidarScan
    measured_pose: Pose
    true_pose: Pose


@dataclass(frozen=True)
class SensorRig:
    """A vehicle's full sensor suite: a LiDAR plus the GPS and IMU
    readers (:func:`~repro.sensors.gps.read_gps`,
    :func:`~repro.sensors.imu.read_imu`).

    Attributes:
        lidar: the LiDAR simulator.
        name: vehicle identifier carried into frames and packages.
    """

    lidar: LidarModel = field(default_factory=LidarModel)
    name: str = "vehicle"

    def observe(
        self,
        world: World,
        true_pose: Pose,
        seed: int = 0,
        gps_skew: GpsSkew = GpsSkew.NONE,
        faults: SensorFaults | None = None,
        scan_cache=None,
    ) -> RigObservation:
        """Scan the world and read the positioning sensors.

        ``seed`` controls all sensor noise for the observation; pass
        ``gps_skew`` to run the Fig. 10 robustness protocols and
        ``faults`` to inject a resolved per-step fault state (LiDAR
        blackout, GPS dropout/bias, IMU yaw glitch).  ``faults=None`` is
        byte-identical to the fault-free path.  ``scan_cache`` (a
        :class:`repro.sensors.lidar.ScanGeometryCache`) reuses raycast
        geometry across frames; scans are bit-identical with or without it.
        """
        blackout = faults is not None and faults.lidar_blackout
        if blackout:
            scan = _blackout_scan(true_pose)
        else:
            scan = self.lidar.scan(world, true_pose, seed=seed, cache=scan_cache)
        gps_pose = read_gps(true_pose, seed=seed + 1, skew=gps_skew)
        imu_pose = read_imu(true_pose, seed=seed + 2)
        measured = Pose(
            gps_pose.position,
            yaw=imu_pose.yaw,
            pitch=imu_pose.pitch,
            roll=imu_pose.roll,
        )
        if faults is not None and faults.any:
            measured = _apply_pose_faults(measured, true_pose, seed, faults)
        return RigObservation(scan=scan, measured_pose=measured, true_pose=true_pose)


def _blackout_scan(true_pose: Pose) -> LidarScan:
    """An empty frame: the LiDAR produced no returns this period."""
    return LidarScan(
        cloud=PointCloud.empty(frame_id="sensor"),
        actor_index=np.empty(0, dtype=np.uint8),
        actor_names=(),
        pose=true_pose,
    )


def _apply_pose_faults(
    measured: Pose, true_pose: Pose, seed: int, faults: SensorFaults
) -> Pose:
    """Corrupt a measured pose according to the resolved fault state.

    A GPS dropout replaces the fix with a dead-reckoned estimate: truth
    plus an error of up to ``gps_error_m`` in a seed-determined
    direction (the RNG stream is ``seed + 3``, disjoint from the nominal
    GPS/IMU streams, so a dropout never reshuffles the other noise).
    Bias and yaw glitch are additive.
    """
    position = measured.position
    if faults.gps_dropout:
        rng = np.random.default_rng(seed + 3)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        magnitude = rng.uniform(0.5, 1.0) * faults.gps_error_m
        position = true_pose.position + magnitude * np.array(
            [np.cos(angle), np.sin(angle), 0.0]
        )
    if faults.gps_bias != (0.0, 0.0, 0.0):
        position = position + np.asarray(faults.gps_bias)
    return replace(
        measured,
        position=position,
        yaw=measured.yaw + np.deg2rad(faults.imu_yaw_offset_deg),
    )
