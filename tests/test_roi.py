"""Tests for ROI extraction and background subtraction (Section IV-G)."""

import numpy as np
import pytest

from repro.geometry.boxes import Box3D, points_in_any_box, points_in_box
from repro.pointcloud.cloud import PointCloud
from repro.pointcloud.roi import (
    crop_box,
    crop_sector,
    forward_corridor,
    subtract_background,
)


def cloud_of(*points) -> PointCloud:
    return PointCloud(np.array(points, dtype=np.float32))


def random_boxes(rng, count) -> list[Box3D]:
    """Random boxes plus two axis-aligned ones whose grown faces are exact
    in float32 (dyadic centre, size and the margins used below) and one
    whose diagonal lies along x, so a corner touches its window's edge."""
    boxes = [
        Box3D(np.array([4.0, -2.5, 0.5]), 4.5, 1.75, 1.5, 0.0),
        Box3D(np.array([-6.25, 8.0, 1.0]), 10.0, 3.0, 6.0, 0.0),
        Box3D(np.array([12.0, 5.0, 0.0]), 4.0, 2.0, 1.5, -np.arctan2(2.0, 4.0)),
    ]
    for _ in range(count):
        boxes.append(
            Box3D(
                np.append(rng.uniform(-25.0, 25.0, 2), rng.uniform(-1.0, 3.0)),
                rng.uniform(0.3, 12.0),
                rng.uniform(0.3, 6.0),
                rng.uniform(0.5, 8.0),
                rng.uniform(-np.pi, np.pi),
            )
        )
    return boxes


def face_cloud(rng, boxes, margin, n_random=3000) -> PointCloud:
    """Random float32 points plus, on each grown face of every box, points
    on the face (exactly, for the axis-aligned dyadic boxes) and its
    corners, each also one float32 ulp either side."""
    parts = [rng.uniform([-30, -30, -3], [30, 30, 6], size=(n_random, 3))]
    corners = np.array(
        [[i, j, k] for i in (-1, 1) for j in (-1, 1) for k in (-1, 1)], dtype=float
    )
    for box in boxes:
        half = np.array([box.length, box.width, box.height]) / 2 + margin
        faces = [corners * half]
        for axis in range(3):
            for sign in (-1.0, 1.0):
                local = rng.uniform(-half, half, size=(8, 3))
                local[:, axis] = sign * half[axis]
                faces.append(local)
        local = np.vstack(faces)
        c, s = np.cos(box.yaw), np.sin(box.yaw)
        parts.append(
            box.center
            + np.column_stack(
                [
                    c * local[:, 0] - s * local[:, 1],
                    s * local[:, 0] + c * local[:, 1],
                    local[:, 2],
                ]
            )
        )
    on_face = np.vstack(parts).astype(np.float32)
    down, up = np.float32(-np.inf), np.float32(np.inf)
    xyz = np.vstack([on_face, np.nextafter(on_face, down), np.nextafter(on_face, up)])
    return PointCloud.from_xyz(xyz)


def whole_cloud_union(data, boxes, margin) -> np.ndarray:
    """The reference: one points_in_box pass over every point per box."""
    union = np.zeros(len(data), dtype=bool)
    for box in boxes:
        union |= points_in_box(data, box, margin=margin)
    return union


class TestCropSector:
    def test_120_degree_front(self):
        c = cloud_of([10, 0, 0, 0], [0, 10, 0, 0], [-10, 0, 0, 0])
        kept = crop_sector(c)
        assert len(kept) == 1
        assert kept.xyz[0, 0] == pytest.approx(10.0)

    def test_sector_boundary_inclusive(self):
        # 60 degrees off-centre is exactly on the 120-degree boundary.
        c = cloud_of([np.cos(np.pi / 3), np.sin(np.pi / 3), 0, 0])
        assert len(crop_sector(c)) == 1

    def test_empty_cloud(self):
        assert crop_sector(PointCloud.empty()).is_empty()


class TestCropBoxAndCorridor:
    def test_crop_box(self):
        box = Box3D(np.array([5.0, 0.0, 0.0]), 2.0, 2.0, 2.0)
        c = cloud_of([5, 0, 0, 0], [8, 0, 0, 0])
        assert len(crop_box(c, box)) == 1

    def test_forward_corridor_one_way_geometry(self):
        c = cloud_of([10, 0, 0, 0], [10, 10, 0, 0], [-5, 0, 0, 0])
        kept = forward_corridor(c)
        assert len(kept) == 1
        assert kept.xyz[0, 0] == pytest.approx(10.0)


class TestBackgroundSubtraction:
    def test_removes_building_points(self):
        building = Box3D(np.array([10.0, 0.0, 4.0]), 10.0, 10.0, 8.0)
        c = cloud_of([10, 0, 2, 0], [30, 0, 1, 0])
        kept = subtract_background(c, [building])
        assert len(kept) == 1
        assert kept.xyz[0, 0] == pytest.approx(30.0)

    def test_no_background_is_noop(self):
        c = cloud_of([1, 0, 0, 0])
        assert subtract_background(c, []) is c

    def test_empty_cloud(self):
        building = Box3D(np.array([0.0, 0.0, 0.0]), 1.0, 1.0, 1.0)
        assert subtract_background(PointCloud.empty(), [building]).is_empty()

    def test_margin_grows_removal(self):
        building = Box3D(np.array([10.0, 0.0, 0.0]), 2.0, 2.0, 2.0)
        edge = cloud_of([11.1, 0, 0, 0])
        assert len(subtract_background(edge, [building], margin=0.0)) == 1
        assert len(subtract_background(edge, [building], margin=0.3)) == 0

    @pytest.mark.parametrize("margin", [0.0, 0.25, 1.5])
    def test_windowed_helper_equals_whole_cloud_loop(self, margin):
        rng = np.random.default_rng(int(margin * 100))
        boxes = random_boxes(rng, 6)
        cloud = face_cloud(rng, boxes, margin)
        expected = whole_cloud_union(cloud.data, boxes, margin)
        assert 0 < expected.sum() < len(cloud)
        np.testing.assert_array_equal(
            points_in_any_box(cloud.data, boxes, margin), expected
        )
        kept = subtract_background(cloud, boxes, margin=margin)
        assert kept.data.tobytes() == cloud.data[~expected].tobytes()
