"""Fusion-level baselines (paper Section I-B).

The paper classifies multi-sensor fusion into low-level (raw data),
feature-level and high-level (object) fusion [23], and argues object-level
fusion "relies too heavily on single vehicular sensors ... objects
[undetected by both] will remain undetected even after fusion".  These
baselines make that argument measurable:

* :func:`single_shot_baseline` — no cooperation at all.
* :func:`object_level_fusion` — each vehicle detects on its own cloud;
  only the resulting *boxes* are exchanged, aligned and merged by NMS.
* :func:`feature_level_fusion` — F-Cooper: vehicles exchange voxel
  feature maps through the feature wire format; the receiver aligns them
  onto its own grid, fuses by elementwise max and detects on the fused
  map (the same tap and receiver step the session's feature mode runs).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.detection.detections import Detection
from repro.detection.nms import rotated_nms
from repro.detection.spod import NMS_IOU, SPOD
from repro.fusion.align import alignment_transform
from repro.fusion.feature import (
    FeaturePackage,
    FeatureTap,
    build_feature_package,
    perceive_features,
)
from repro.fusion.package import ExchangePackage
from repro.geometry.transforms import Pose
from repro.pointcloud.cloud import PointCloud

__all__ = ["single_shot_baseline", "object_level_fusion", "feature_level_fusion"]


def single_shot_baseline(detector: SPOD, cloud: PointCloud) -> list[Detection]:
    """Detect on the vehicle's own cloud only."""
    return detector.detect(cloud)


def object_level_fusion(
    detector: SPOD,
    native_cloud: PointCloud,
    receiver_pose: Pose,
    packages: Sequence[ExchangePackage],
) -> list[Detection]:
    """High-level fusion: merge per-vehicle *detections*, not points.

    Each cooperator runs SPOD on its own cloud; detected boxes are
    transformed into the receiver frame and deduplicated with the
    detector's own NMS threshold (:data:`~repro.detection.spod.NMS_IOU`),
    so one car seen by two vehicles leaves one box.  Objects
    below every single vehicle's detection threshold can never appear in
    the output — the structural weakness the paper's low-level fusion
    avoids.
    """
    fused = list(detector.detect(native_cloud))
    for package in packages:
        remote_detections = detector.detect(package.cloud)
        transform = alignment_transform(package.pose, receiver_pose)
        fused.extend(d.transformed(transform) for d in remote_detections)
    return rotated_nms(fused, NMS_IOU)


def feature_level_fusion(
    detector: SPOD,
    native_cloud: PointCloud,
    receiver_pose: Pose,
    packages: Sequence[ExchangePackage],
) -> list[Detection]:
    """Mid-level fusion: F-Cooper over the packages' clouds.

    Each cooperator taps its own cloud in its own frame and ships the
    voxel features through the feature wire format; the receiver aligns
    them onto its grid, maxout-fuses them with its own tap and decodes
    (:func:`~repro.fusion.feature.perceive_features`).  Compared with raw
    fusion this loses cross-cloud intra-voxel structure (points from two
    vehicles never meet inside one voxel feature), which is the fidelity
    gap the paper's low-level choice closes.
    """
    spec = detector.config.voxel_spec
    received = []
    for package in packages:
        tap = FeatureTap.of(detector, package.cloud)
        payload = build_feature_package(
            spec,
            tap.coords,
            tap.features,
            package.pose,
            package.sender,
            timestamp=package.timestamp,
        ).serialize()
        received.append(FeaturePackage.deserialize(payload))
    return perceive_features(detector, native_cloud, receiver_pose, received)
