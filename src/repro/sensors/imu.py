"""IMU attitude reading.

The exchange package carries the IMU's yaw/pitch/roll so the receiver can
build the Eq. (1) rotation.  A real IMU reports attitude with small noise;
we model zero-mean Gaussian errors per angle.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.transforms import Pose

__all__ = ["IMU_ANGLE_NOISE_STD_DEG", "read_imu"]

#: Per-angle Gaussian noise (degrees).  Automotive MEMS units integrated
#: with GPS resolve heading to ~0.1 degrees.
IMU_ANGLE_NOISE_STD_DEG = 0.1


def read_imu(true_pose: Pose, seed: int = 0) -> Pose:
    """Return the pose with IMU-corrupted attitude (position untouched)."""
    rng = np.random.default_rng(seed)
    noise = np.deg2rad(rng.normal(0.0, IMU_ANGLE_NOISE_STD_DEG, size=3))
    return Pose(
        true_pose.position,
        yaw=true_pose.yaw + noise[0],
        pitch=true_pose.pitch + noise[1],
        roll=true_pose.roll + noise[2],
    )
