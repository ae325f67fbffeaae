"""End-to-end tests for the SPOD detector."""

import numpy as np
import pytest

from repro.detection.spod import SPOD, SPODConfig
from repro.pointcloud.cloud import PointCloud
from repro.pointcloud.voxel import VoxelGridSpec
from tests.test_refine_calibrate import GROUND, car_surface_points, wall_points


def scene_cloud(*chunks) -> PointCloud:
    """Assemble a synthetic obstacle+ground cloud from xyz chunks."""
    rng = np.random.default_rng(42)
    ground = np.column_stack(
        [
            rng.uniform(-20, 40, 3000),
            rng.uniform(-20, 20, 3000),
            rng.normal(GROUND, 0.02, 3000),
        ]
    )
    return PointCloud.from_xyz(np.vstack([ground, *chunks]))


class TestConfig:
    def test_defaults_valid(self):
        SPODConfig()

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            SPODConfig(candidate_threshold=0.0)
        with pytest.raises(ValueError):
            SPODConfig(detection_threshold=1.5)

    @pytest.mark.parametrize(
        "build", [SPOD.pretrained, SPOD], ids=["pretrained", "plain"]
    )
    def test_rpn_heads_follow_anchor_yaws(self, build):
        """One objectness channel and one 7-value regression block per
        anchor yaw, the layout the decode and the trainer read."""
        detector = build()
        tensors = detector.forward(scene_cloud(car_surface_points(12.0, 2.0)))
        yaws = len(detector.anchors.yaws)
        assert tensors["cls_logits"].shape[1] == yaws
        assert tensors["reg"].shape[1] == 7 * yaws
        assert detector.rpn_apply(tensors["bev"]).shape[1] == yaws


class TestDetection:
    def test_detects_dense_car(self, detector):
        cloud = scene_cloud(car_surface_points(12.0, 2.0, density=25.0))
        detections = detector.detect(cloud)
        assert len(detections) == 1
        assert np.linalg.norm(detections[0].box.center[:2] - [12.0, 2.0]) < 1.2
        assert detections[0].score >= 0.5

    def test_misses_sparse_car(self, detector):
        """The paper's X cells: too few points to support a detection."""
        cloud = scene_cloud(car_surface_points(30.0, 5.0, density=0.6))
        assert detector.detect(cloud) == []

    def test_detect_all_exposes_subthreshold(self, detector):
        cloud = scene_cloud(car_surface_points(30.0, 5.0, density=2.2))
        reported = detector.detect(cloud)
        everything = detector.detect_all(cloud)
        assert len(everything) >= len(reported)

    def test_two_separated_cars(self, detector):
        cloud = scene_cloud(
            car_surface_points(12.0, 4.0, density=20.0),
            car_surface_points(20.0, -6.0, density=20.0),
        )
        detections = detector.detect(cloud)
        assert len(detections) == 2

    def test_wall_not_detected(self, detector):
        cloud = scene_cloud(wall_points(10.0, 8.0, 40.0, 8.0, height=5.0))
        assert detector.detect(cloud) == []

    def test_denser_evidence_higher_score(self, detector):
        sparse = scene_cloud(car_surface_points(15.0, 0.0, density=4.0))
        dense = scene_cloud(car_surface_points(15.0, 0.0, density=30.0))
        sparse_dets = detector.detect_all(sparse)
        dense_dets = detector.detect(dense)
        assert dense_dets and sparse_dets
        assert dense_dets[0].score > sparse_dets[0].score

    def test_merging_increases_score(self, detector):
        """The Cooper effect in isolation: union of two half views."""
        half_a = car_surface_points(15.0, 0.0, faces=("rear", "left"), density=14.0)
        half_b = car_surface_points(15.0, 0.0, faces=("front", "right"), density=14.0)
        score_a = max(
            (d.score for d in detector.detect_all(scene_cloud(half_a))), default=0.0
        )
        merged = detector.detect(scene_cloud(half_a, half_b))
        assert merged
        assert merged[0].score > score_a

    def test_empty_cloud(self, detector):
        assert detector.detect(PointCloud.empty()) == []

    def test_forward_exposes_tensors(self, detector):
        cloud = scene_cloud(car_surface_points(12.0, 2.0))
        tensors = detector.forward(cloud)
        assert set(tensors) >= {"pre", "grid", "bev", "cls_logits", "reg"}
        assert tensors["cls_logits"].shape[1] == len(detector.anchors.yaws)


class TestCustomConfig:
    def test_smaller_range(self):
        config = SPODConfig(
            voxel_spec=VoxelGridSpec(
                point_range=(0.0, -10.0, -3.0, 20.0, 10.0, 1.0),
                voxel_size=(0.4, 0.4, 0.8),
            )
        )
        detector = SPOD.pretrained(config)
        cloud = scene_cloud(car_surface_points(10.0, 0.0, density=20.0))
        assert len(detector.detect(cloud)) == 1

    def test_out_of_range_car_ignored(self):
        config = SPODConfig(
            voxel_spec=VoxelGridSpec(
                point_range=(0.0, -10.0, -3.0, 20.0, 10.0, 1.0),
                voxel_size=(0.4, 0.4, 0.8),
            )
        )
        detector = SPOD.pretrained(config)
        cloud = scene_cloud(car_surface_points(30.0, 0.0, density=20.0))
        assert detector.detect(cloud) == []

    def test_high_threshold_filters(self, detector):
        strict = SPOD.pretrained(SPODConfig(detection_threshold=0.99))
        cloud = scene_cloud(car_surface_points(12.0, 2.0, density=20.0))
        assert strict.detect(cloud) == []


class TestLearnedHeadsPath:
    def test_learned_decode_runs(self):
        """The trained-head path decodes anchors (untrained: smoke only)."""
        config = SPODConfig(
            voxel_spec=VoxelGridSpec(
                point_range=(0.0, -10.0, -3.0, 20.0, 10.0, 1.0),
                voxel_size=(1.0, 1.0, 0.8),
            ),
            use_learned_heads=True,
            candidate_threshold=0.9,
        )
        detector = SPOD(config)
        cloud = scene_cloud(car_surface_points(10.0, 0.0))
        detections = detector.detect_all(cloud)
        assert isinstance(detections, list)
