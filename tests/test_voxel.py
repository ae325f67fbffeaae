"""Tests for VoxelNet-style voxelisation."""

import numpy as np
import pytest

from repro.pointcloud.cloud import PointCloud
from repro.pointcloud.voxel import VoxelGridSpec, voxelize

SPEC = VoxelGridSpec(
    point_range=(0.0, -4.0, -1.0, 8.0, 4.0, 1.0),
    voxel_size=(1.0, 1.0, 1.0),
    max_points_per_voxel=5,
)


def cloud_of(*points) -> PointCloud:
    return PointCloud(np.array(points, dtype=np.float32))


class TestSpec:
    def test_grid_shape(self):
        assert SPEC.grid_shape == (8, 8, 2)

    def test_default_is_kitti_like(self):
        spec = VoxelGridSpec()
        assert spec.grid_shape[2] >= 1

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            VoxelGridSpec(point_range=(1, 0, 0, 0, 1, 1))

    def test_rejects_bad_voxel_size(self):
        with pytest.raises(ValueError):
            VoxelGridSpec(voxel_size=(0.0, 1.0, 1.0))

    def test_rejects_bad_max_points(self):
        with pytest.raises(ValueError):
            VoxelGridSpec(max_points_per_voxel=0)

    def test_voxel_center(self):
        center = SPEC.voxel_center(np.array([[0, 0, 0]]))[0]
        np.testing.assert_allclose(center, [0.5, -3.5, -0.5])


class TestVoxelize:
    def test_single_point(self):
        grid = voxelize(cloud_of([0.5, -3.5, -0.5, 0.9]), SPEC)
        assert grid.num_voxels == 1
        np.testing.assert_array_equal(grid.coords[0], [0, 0, 0])
        assert grid.counts[0] == 1
        assert grid.points[0, 0, 3] == pytest.approx(0.9, abs=1e-6)

    def test_out_of_range_dropped(self):
        grid = voxelize(cloud_of([100.0, 0.0, 0.0, 0.0]), SPEC)
        assert grid.num_voxels == 0

    def test_grouping(self):
        grid = voxelize(
            cloud_of([0.1, -3.9, -0.9, 0], [0.2, -3.8, -0.8, 0], [7.9, 3.9, 0.9, 0]),
            SPEC,
        )
        assert grid.num_voxels == 2
        assert sorted(grid.counts.tolist()) == [1, 2]

    def test_max_points_truncation(self):
        points = [[0.5, -3.5, -0.5, float(i) / 10] for i in range(10)]
        grid = voxelize(cloud_of(*points), SPEC)
        assert grid.counts[0] == 5
        # Padding rows beyond the count are zero.
        np.testing.assert_allclose(grid.points[0, 5:], 0.0)

    def test_overfull_voxel_keeps_seeded_random_subset(self):
        """The docstring promises a seeded random subset, not the first T.

        Regression: the implementation used to truncate to the first
        ``max_points_per_voxel`` points in scan order and ignore ``seed``.
        """
        points = [[0.5, -3.5, -0.5, float(i) / 100] for i in range(50)]
        cloud = cloud_of(*points)
        kept = {
            seed: sorted(voxelize(cloud, SPEC, seed=seed).points[0, :5, 3].tolist())
            for seed in range(8)
        }
        # Clouds store float32; compare against the stored values.
        stored = cloud.data[:, 3].tolist()
        first_five = sorted(stored[:5])
        # Some seed must pick a subset other than the first five points...
        assert any(v != first_five for v in kept.values())
        # ...and the choice must vary with the seed.
        assert len({tuple(v) for v in kept.values()}) > 1
        # Every kept point is one of the originals (no fabricated rows).
        assert all(set(v) <= set(stored) for v in kept.values())

    def test_overfull_sampling_reproducible(self):
        points = [[0.5, -3.5, -0.5, float(i) / 100] for i in range(50)]
        a = voxelize(cloud_of(*points), SPEC, seed=3)
        b = voxelize(cloud_of(*points), SPEC, seed=3)
        np.testing.assert_array_equal(a.points, b.points)

    def test_under_cap_voxels_keep_scan_order(self):
        """Voxels at or below the cap are untouched by the sampler."""
        points = [[0.5, -3.5, -0.5, float(i) / 10] for i in range(4)]
        grid = voxelize(cloud_of(*points), SPEC, seed=9)
        np.testing.assert_allclose(
            grid.points[0, :4, 3], [p[3] for p in points]
        )

    def test_overflow_sampling_is_per_voxel_independent(self):
        # Each overflowing voxel draws from its own seeded RNG stream:
        # adding points that land in another voxel must not change which
        # points either voxel keeps.
        rng = np.random.default_rng(6)
        cluster_a = np.hstack(
            [
                rng.uniform([0.1, 0.1, -0.9], [0.9, 0.9, -0.1], size=(12, 3)),
                rng.uniform(0.0, 1.0, size=(12, 1)),
            ]
        ).astype(np.float32)
        cluster_b = np.hstack(
            [
                rng.uniform([5.1, 2.1, 0.1], [5.9, 2.9, 0.9], size=(12, 3)),
                rng.uniform(0.0, 1.0, size=(12, 1)),
            ]
        ).astype(np.float32)
        both = voxelize(
            PointCloud(np.vstack([cluster_a, cluster_b])), SPEC, seed=9
        )
        for cluster in (cluster_a, cluster_b):
            alone = voxelize(PointCloud(cluster), SPEC, seed=9)
            assert alone.num_voxels == 1 and alone.counts[0] == 5
            row = np.flatnonzero((both.coords == alone.coords[0]).all(axis=1))
            assert len(row) == 1
            np.testing.assert_array_equal(both.points[row[0]], alone.points[0])

    def test_empty_cloud(self):
        grid = voxelize(PointCloud.empty(), SPEC)
        assert grid.num_voxels == 0
        assert grid.coords.shape == (0, 3)

    def test_occupancy_bev(self):
        grid = voxelize(
            cloud_of([0.5, -3.5, -0.5, 0], [0.5, -3.5, 0.5, 0], [4.5, 0.5, 0.5, 0]),
            SPEC,
        )
        bev = grid.occupancy_bev()
        assert bev.shape == (8, 8)
        assert bev[0, 0] == 2.0  # two z-bins in the same column
        assert bev[4, 4] == 1.0

    def test_deterministic(self):
        points = np.random.default_rng(3).uniform(
            low=[0, -4, -1, 0], high=[8, 4, 1, 1], size=(200, 4)
        )
        a = voxelize(PointCloud(points), SPEC)
        b = voxelize(PointCloud(points), SPEC)
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_array_equal(a.points, b.points)

    def test_boundary_point_on_upper_edge_excluded(self):
        grid = voxelize(cloud_of([8.0, 0.0, 0.0, 0.0]), SPEC)
        assert grid.num_voxels == 0
