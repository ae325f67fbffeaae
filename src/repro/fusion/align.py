"""Point-cloud alignment: the paper's Eq. (1)-(3) made executable.

"A rotation matrix R will be generated in Equation 1 ... The transform is
calculated by Equation 1, using the IMU value difference between the
transmitter and the receiver."  The translation comes from the GPS
difference, and the merged frame is the union of Eq. (2).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.fusion.package import ExchangePackage
from repro.geometry.transforms import Pose, RigidTransform
from repro.pointcloud.cloud import PointCloud, merge_clouds
from repro.profiling import PROFILER

__all__ = [
    "alignment_transform",
    "align_package",
    "merge_packages",
    "package_intrinsically_sane",
    "pose_delta_plausible",
]


def alignment_transform(
    transmitter_pose: Pose, receiver_pose: Pose
) -> RigidTransform:
    """The Eq. (3) transform mapping transmitter-frame points to receiver frame.

    ``R`` is built from the yaw/pitch/roll difference of the two IMU
    readings (Eq. 1); the translation is the GPS position difference
    expressed in the receiver's frame.
    """
    return transmitter_pose.relative_to(receiver_pose)


def align_package(
    package: ExchangePackage, receiver_pose: Pose
) -> PointCloud:
    """Express a received package's points in the receiver's LiDAR frame."""
    with PROFILER.stage("fuse.align"):
        transform = alignment_transform(package.pose, receiver_pose)
        return package.cloud.transformed(
            transform, frame_id=f"{package.sender}->receiver"
        )


def merge_packages(
    native: PointCloud,
    packages: Sequence[ExchangePackage],
    receiver_pose: Pose,
) -> PointCloud:
    """Produce the cooperative cloud: Eq. (2)'s union over all cooperators."""
    with PROFILER.stage("fuse.merge"):
        aligned = [align_package(p, receiver_pose) for p in packages]
        return merge_clouds([native, *aligned], frame_id="cooperative")


def package_intrinsically_sane(
    package: ExchangePackage, max_point_range_m: float = 300.0
) -> bool:
    """Receiver-independent corruption checks on one package.

    A package that decodes but carries non-finite pose components,
    non-finite points, or points far outside any LiDAR's physical range
    was corrupted in flight (or fabricated) and must never reach the
    Eq. (2) merge — a single NaN poisons voxelisation, and absurd
    coordinates blow up the detector's crop window.  The point checks read
    only the cloud's per-column bounds.
    """
    pose = package.pose
    if not (
        np.all(np.isfinite(pose.position))
        and np.isfinite(pose.yaw)
        and np.isfinite(pose.pitch)
        and np.isfinite(pose.roll)
    ):
        return False
    if package.cloud.is_empty():
        return True
    # The per-column extremes decide both point checks: a NaN propagates
    # into its column's min and max, an infinity is an extreme, and the
    # largest |coordinate| is the larger of -min and max.
    lo, hi = package.cloud.bounds()
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        return False
    return bool(max(-lo.min(), hi.max()) <= max_point_range_m)


def pose_delta_plausible(
    package: ExchangePackage,
    receiver_pose: Pose,
    max_peer_distance_m: float = 500.0,
) -> bool:
    """Is the sender's claimed pose physically reachable from the receiver?

    DSRC is a single-hop, sub-kilometre radio: a package claiming to come
    from tens of kilometres away is a corrupted (or spoofed) GPS fix, and
    aligning by it would translate the cooperator's points into nonsense.
    """
    delta = package.pose.position - receiver_pose.position
    return bool(np.hypot(delta[0], delta[1]) <= max_peer_distance_m)

