"""Tests for SPOD preprocessing: range crop, ground removal, densification."""

import numpy as np
import pytest

from repro.detection.preprocess import (
    estimate_ground_z,
    preprocess,
    remove_ground,
)
from repro.pointcloud.cloud import PointCloud


def cloud_with_ground(n_ground=500, n_obstacle=100, ground_z=-1.7, seed=0):
    rng = np.random.default_rng(seed)
    ground = np.column_stack(
        [
            rng.uniform(-30, 30, n_ground),
            rng.uniform(-30, 30, n_ground),
            rng.normal(ground_z, 0.02, n_ground),
        ]
    )
    obstacle = np.column_stack(
        [
            rng.uniform(-10, 10, n_obstacle),
            rng.uniform(-10, 10, n_obstacle),
            rng.uniform(ground_z + 0.5, ground_z + 1.5, n_obstacle),
        ]
    )
    return PointCloud.from_xyz(np.vstack([ground, obstacle]))


class TestGroundEstimation:
    def test_estimates_plane_height(self):
        cloud = cloud_with_ground(ground_z=-1.7)
        assert estimate_ground_z(cloud) == pytest.approx(-1.7, abs=0.1)

    def test_empty_cloud(self):
        assert estimate_ground_z(PointCloud.empty()) == 0.0

    def test_removal_keeps_obstacles(self):
        cloud = cloud_with_ground(n_ground=500, n_obstacle=100)
        obstacles, ground_z = remove_ground(cloud)
        assert 80 <= len(obstacles) <= 120
        assert ground_z == pytest.approx(-1.7, abs=0.1)

    def test_explicit_ground_height(self):
        cloud = cloud_with_ground()
        obstacles, ground_z = remove_ground(cloud, ground_z=-1.7, clearance=0.3)
        assert ground_z == -1.7
        assert obstacles.xyz[:, 2].min() > -1.4


class TestPreprocess:
    def test_returns_all_fields(self):
        result = preprocess(cloud_with_ground())
        assert result.ground_z == pytest.approx(-1.7, abs=0.1)
        assert len(result.obstacles) < len(result.full)

    def test_range_crop(self):
        far = PointCloud.from_xyz(np.array([[500.0, 0.0, 0.0]]))
        cloud = cloud_with_ground().concat(far)
        result = preprocess(cloud, max_range=100.0)
        assert len(result.full) == len(cloud) - 1

    def test_all_in_range_cloud_is_not_copied(self):
        cloud = cloud_with_ground()
        assert preprocess(cloud, max_range=100.0).full is cloud

    @pytest.mark.parametrize("bad", [[500.0, 0.0, 0.0], [np.nan, 1.0, 0.0]])
    def test_out_of_range_or_nan_points_still_cropped(self, bad):
        cloud = cloud_with_ground().concat(PointCloud.from_xyz(np.array([bad])))
        result = preprocess(cloud, max_range=100.0)
        assert result.full is not cloud
        assert result.full.data.tobytes() == cloud.data[:-1].tobytes()

    def test_densify_path_runs(self):
        result = preprocess(cloud_with_ground(), densify=True)
        # Densification collapses multi-return cells; output stays non-empty.
        assert len(result.full) > 0

    def test_empty_cloud(self):
        result = preprocess(PointCloud.empty())
        assert result.obstacles.is_empty()
