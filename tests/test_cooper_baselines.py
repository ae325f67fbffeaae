"""Tests for the Cooper pipeline and the fusion-level baselines.

The crafted scene puts one car in each vehicle's exclusive view and one car
that *neither* sees well — the exact situation of paper Section I-B where
object-level fusion structurally fails and raw fusion succeeds.
"""

import numpy as np
import pytest

from repro.detection.spod import SPOD
from repro.fusion.baselines import (
    feature_level_fusion,
    object_level_fusion,
    single_shot_baseline,
)
from repro.fusion.cooper import Cooper
from repro.fusion.feature import (
    FeaturePackage,
    build_feature_package,
    perceive_features,
)
from repro.fusion.package import ExchangePackage
from repro.geometry.transforms import Pose
from repro.pointcloud.cloud import PointCloud
from tests.test_refine_calibrate import GROUND, car_surface_points


def scene(*chunks, seed=0) -> PointCloud:
    rng = np.random.default_rng(seed)
    ground = np.column_stack(
        [
            rng.uniform(-20, 40, 2500),
            rng.uniform(-20, 20, 2500),
            rng.normal(GROUND, 0.02, 2500),
        ]
    )
    return PointCloud.from_xyz(np.vstack([ground, *chunks]))


@pytest.fixture(scope="module")
def cooperative_setup(detector):
    """Receiver + one cooperator, with a split-evidence 'hard' car.

    receiver sees: car A fully, car C's rear half (weakly).
    cooperator sees: car B fully, car C's front half (weakly).
    The co-located frames keep the geometry trivial: the cooperator sits at
    the same position as the receiver (zero relative transform), so its
    cloud is already receiver-frame — alignment correctness is covered by
    test_package_align; here we isolate fusion semantics.
    """
    pose = Pose(np.array([0.0, 0.0, 1.73]))
    car_a = car_surface_points(10.0, 5.0, density=20.0)
    car_b = car_surface_points(12.0, -6.0, density=20.0)
    weak_rear = car_surface_points(25.0, 0.0, faces=("rear",), density=7.0)
    weak_front = car_surface_points(25.0, 0.0, faces=("front", "left"), density=7.0)

    receiver_cloud = scene(car_a, weak_rear, seed=0)
    cooperator_cloud = scene(car_b, weak_front, seed=1)
    package = ExchangePackage(cooperator_cloud, pose, sender="coop")
    return pose, receiver_cloud, cooperator_cloud, package


def _detected_positions(detections):
    return {tuple(np.round(d.box.center[:2] / 3).astype(int)) for d in detections}


def _canonical(detections):
    return [
        (d.box.center.tobytes(), d.box.length, d.box.width, d.box.yaw,
         d.score, d.label)
        for d in detections
    ]


class TestCooper:
    def test_merged_detects_union_plus_hard(self, detector, cooperative_setup):
        pose, receiver_cloud, cooperator_cloud, package = cooperative_setup
        cooper = Cooper(detector=detector)
        single_r = cooper.perceive_single(receiver_cloud).detections
        single_c = cooper.perceive_single(cooperator_cloud).detections
        result = cooper.perceive(receiver_cloud, pose, [package])

        # Neither single shot sees the weak car at (25, 0)...
        hard_cell = (8, 0)
        assert hard_cell not in _detected_positions(single_r)
        assert hard_cell not in _detected_positions(single_c)
        # ...but the merged cloud does, plus both exclusive cars.
        merged_cells = _detected_positions(result.detections)
        assert hard_cell in merged_cells
        assert len(result.detections) >= 3

    def test_result_metadata(self, detector, cooperative_setup):
        pose, receiver_cloud, _, package = cooperative_setup
        cooper = Cooper(detector=detector)
        result = cooper.perceive(receiver_cloud, pose, [package])
        assert result.num_cooperators == 1
        assert result.fuse_seconds >= 0.0
        assert result.detect_seconds > 0.0
        assert result.total_seconds == pytest.approx(
            result.fuse_seconds + result.detect_seconds
        )
        assert len(result.merged_cloud) > len(receiver_cloud)

    def test_no_packages_degrades_to_single(self, detector, cooperative_setup):
        pose, receiver_cloud, _, _ = cooperative_setup
        cooper = Cooper(detector=detector)
        with_none = cooper.perceive(receiver_cloud, pose, [])
        single = cooper.perceive_single(receiver_cloud)
        assert len(with_none.detections) == len(single.detections)


class TestBaselines:
    def test_object_level_cannot_recover_hard_car(self, detector, cooperative_setup):
        """Section I-B: 'previously undetected objects ... remain undetected
        even after fusion' at the object level."""
        pose, receiver_cloud, _, package = cooperative_setup
        fused = object_level_fusion(detector, receiver_cloud, pose, [package])
        assert (8, 0) not in _detected_positions(fused)

    def test_object_level_merges_exclusive_views(self, detector, cooperative_setup):
        pose, receiver_cloud, _, package = cooperative_setup
        fused = object_level_fusion(detector, receiver_cloud, pose, [package])
        cells = _detected_positions(fused)
        assert (3, 2) in cells  # car A (10, 5)
        assert (4, -2) in cells  # car B (12, -6)

    def test_object_level_dedupes_shared_detections(self, detector):
        pose = Pose(np.array([0.0, 0.0, 1.73]))
        shared = car_surface_points(10.0, 0.0, density=20.0)
        cloud = scene(shared, seed=2)
        package = ExchangePackage(scene(shared, seed=3), pose, sender="coop")
        fused = object_level_fusion(detector, cloud, pose, [package])
        near_target = [
            d for d in fused if np.linalg.norm(d.box.center[:2] - [10, 0]) < 2.5
        ]
        assert len(near_target) == 1

    def test_single_shot_baseline_matches_detector(self, detector, cooperative_setup):
        _, receiver_cloud, _, _ = cooperative_setup
        a = single_shot_baseline(detector, receiver_cloud)
        b = detector.detect(receiver_cloud)
        assert len(a) == len(b)

    def test_feature_level_between_object_and_raw(self, detector, cooperative_setup):
        """Feature fusion finds the union of views (better than object level
        on exclusive cars) and runs end to end."""
        pose, receiver_cloud, _, package = cooperative_setup
        fused = feature_level_fusion(detector, receiver_cloud, pose, [package])
        cells = _detected_positions(fused)
        assert (3, 2) in cells
        assert (4, -2) in cells
        # It is F-Cooper over the package's cloud: the sender's own tap,
        # round-tripped through the feature wire format.
        tap = detector.forward_features(package.cloud, tap=True)
        wire = build_feature_package(
            detector.config.voxel_spec,
            np.asarray(tap["grid"].coords),
            np.asarray(tap["middle"].features, dtype=np.float64),
            package.pose,
            package.sender,
        ).serialize()
        expected = perceive_features(
            detector, receiver_cloud, pose, [FeaturePackage.deserialize(wire)]
        )
        assert _canonical(fused) == _canonical(expected)
