"""Tests for demand-driven ROI requests (Sections II-C / IV-G)."""

import numpy as np
import pytest

from repro.detection.detections import Detection
from repro.geometry.boxes import Box3D
from repro.geometry.transforms import Pose
from repro.network.demand import (
    RoiRequest,
    answer_request,
    fuse_reply,
    weak_regions,
)
from repro.pointcloud.cloud import PointCloud
from tests.test_roi import face_cloud, random_boxes, whole_cloud_union


def det(x, y, score) -> Detection:
    return Detection(Box3D(np.array([x, y, 0.0]), 4.2, 1.8, 1.6), score)


class TestWeakRegions:
    def test_selects_uncertain_band(self):
        candidates = [det(10, 0, 0.9), det(20, 0, 0.3), det(30, 0, 0.05)]
        regions = weak_regions(candidates, detection_threshold=0.5)
        assert len(regions) == 1
        np.testing.assert_allclose(regions[0].center[:2], [20, 0])

    def test_margin_grows_region(self):
        regions = weak_regions([det(10, 0, 0.3)], margin=2.0)
        assert regions[0].length == pytest.approx(4.2 + 4.0)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            weak_regions([], detection_threshold=0.5, uncertainty_floor=0.6)

    def test_empty_when_confident(self):
        assert weak_regions([det(10, 0, 0.9)]) == []


class TestAnswerRequest:
    def test_cooperator_crops_requested_region(self):
        """Co-located frames: region maps one-to-one onto the cooperator."""
        pose = Pose(np.array([0.0, 0.0, 1.7]))
        request = RoiRequest(
            regions=(Box3D(np.array([20.0, 0.0, 0.0]), 6.0, 6.0, 4.0),),
            requester_pose=pose,
        )
        cloud = PointCloud.from_xyz(
            np.array([[20.0, 0.0, 0.0], [50.0, 0.0, 0.0]])
        )
        reply = answer_request(request, cloud, pose)
        assert len(reply) == 1
        assert reply.xyz[0, 0] == pytest.approx(20.0)

    def test_region_mapped_into_cooperator_frame(self):
        """The cooperator sits 10 m ahead: a region at requester-x 20 is at
        cooperator-x 10."""
        requester = Pose(np.array([0.0, 0.0, 1.7]))
        cooperator = Pose(np.array([10.0, 0.0, 1.7]))
        request = RoiRequest(
            regions=(Box3D(np.array([20.0, 0.0, 0.0]), 6.0, 6.0, 6.0),),
            requester_pose=requester,
        )
        cloud = PointCloud.from_xyz(np.array([[10.0, 0.0, 0.0]]))
        reply = answer_request(request, cloud, cooperator)
        assert len(reply) == 1

    @pytest.mark.parametrize("margin", [0.0, 0.25, 1.5])
    def test_reply_equals_whole_cloud_loop(self, margin):
        """Each region is mapped into the cooperator's frame and tested only
        on the rows of its window; the reply equals testing every point
        against every mapped region."""
        rng = np.random.default_rng(int(margin * 100) + 1)
        requester = Pose(np.array([0.0, 0.0, 1.7]), yaw=0.3)
        cooperator = Pose(np.array([6.0, -4.0, 1.7]), yaw=-1.1)
        regions = tuple(random_boxes(rng, 5))
        mapped = [
            r.transformed(requester.relative_to(cooperator)) for r in regions
        ]
        cloud = face_cloud(rng, mapped, margin)
        expected = whole_cloud_union(cloud.data, mapped, margin)
        assert 0 < expected.sum() < len(cloud)
        reply = answer_request(
            RoiRequest(regions=regions, requester_pose=requester),
            cloud,
            cooperator,
            margin=margin,
        )
        assert reply.data.tobytes() == cloud.data[expected].tobytes()

    def test_empty_request(self):
        pose = Pose(np.array([0.0, 0.0, 1.7]))
        reply = answer_request(
            RoiRequest((), pose), PointCloud.from_xyz(np.ones((5, 3))), pose
        )
        assert reply.is_empty()

    def test_zero_weak_regions_round_trip(self):
        """A confident vehicle asks for nothing and gets nothing back."""
        pose = Pose(np.array([0.0, 0.0, 1.7]))
        regions = weak_regions([det(10, 0, 0.9), det(20, 0, 0.95)])
        assert regions == []
        reply = answer_request(
            RoiRequest(tuple(regions), pose),
            PointCloud.from_xyz(np.ones((5, 3))),
            pose,
        )
        assert reply.is_empty()
        assert reply.frame_id == "roi-reply"

    def test_empty_cooperator_cloud(self):
        pose = Pose(np.array([0.0, 0.0, 1.7]))
        request = RoiRequest(
            regions=(Box3D(np.array([20.0, 0.0, 0.0]), 6.0, 6.0, 4.0),),
            requester_pose=pose,
        )
        reply = answer_request(request, PointCloud.empty(), pose)
        assert reply.is_empty()

    def test_reply_much_smaller_than_frame(self):
        pose = Pose(np.array([0.0, 0.0, 1.7]))
        rng = np.random.default_rng(0)
        big_cloud = PointCloud.from_xyz(rng.uniform(-50, 50, size=(5000, 3)))
        request = RoiRequest(
            regions=(Box3D(np.array([10.0, 0.0, 0.0]), 8.0, 8.0, 8.0),),
            requester_pose=pose,
        )
        reply = answer_request(request, big_cloud, pose)
        assert 0 < len(reply) < len(big_cloud) * 0.05


class TestFuseReply:
    def test_fused_cloud_gains_points(self):
        receiver = Pose(np.array([0.0, 0.0, 1.7]))
        cooperator = Pose(np.array([10.0, 0.0, 1.7]))
        native = PointCloud.from_xyz(np.array([[5.0, 0.0, 0.0]]))
        reply = PointCloud.from_xyz(np.array([[2.0, 0.0, 0.0]]))
        fused = fuse_reply(native, reply, cooperator, receiver)
        assert len(fused) == 2
        # The reply point sits 2 m ahead of the cooperator => 12 m ahead.
        assert sorted(np.round(fused.xyz[:, 0], 3)) == [5.0, 12.0]

    def test_empty_reply_leaves_native_unchanged(self):
        """No cooperator points in the ROI: fusion is a no-op merge."""
        receiver = Pose(np.array([0.0, 0.0, 1.7]))
        cooperator = Pose(np.array([10.0, 0.0, 1.7]))
        native = PointCloud.from_xyz(np.array([[5.0, 0.0, 0.0]]))
        fused = fuse_reply(
            native, PointCloud.empty(frame_id="roi-reply"), cooperator, receiver
        )
        assert len(fused) == len(native)
        np.testing.assert_allclose(fused.xyz, native.xyz)
        assert fused.frame_id == "demand-cooperative"

    def test_demand_driven_end_to_end(self, detector):
        """Weak single-shot candidate -> request -> reply -> confirmed."""
        from tests.test_refine_calibrate import GROUND, car_surface_points

        rng = np.random.default_rng(1)
        ground = np.column_stack(
            [
                rng.uniform(-10, 40, 2500),
                rng.uniform(-15, 15, 2500),
                rng.normal(GROUND, 0.02, 2500),
            ]
        )
        weak_car = car_surface_points(22.0, 3.0, faces=("rear",), density=6.0)
        native = PointCloud.from_xyz(np.vstack([ground, weak_car]))
        pose = Pose(np.array([0.0, 0.0, 1.73]))

        candidates = detector.detect_all(native)
        regions = weak_regions(candidates, margin=2.0)
        assert regions, "the weak car must produce an uncertain candidate"

        # The cooperator (co-located for simplicity) has the full car.
        full_car = car_surface_points(22.0, 3.0, density=20.0)
        cooperator_cloud = PointCloud.from_xyz(np.vstack([ground, full_car]))
        reply = answer_request(
            RoiRequest(tuple(regions), pose), cooperator_cloud, pose, margin=0.5
        )
        assert 0 < len(reply) < len(cooperator_cloud) * 0.2

        fused = fuse_reply(native, reply, pose, pose)
        confirmed = [
            d
            for d in detector.detect(fused)
            if np.linalg.norm(d.box.center[:2] - [22.0, 3.0]) < 2.5
        ]
        assert confirmed and confirmed[0].score >= 0.5
