"""Tests for the PointCloud container and merging (Eq. 2)."""

import numpy as np
import pytest

from repro.geometry.transforms import RigidTransform
from repro.pointcloud.cloud import PointCloud, merge_clouds


def cloud_of(*points) -> PointCloud:
    return PointCloud(np.array(points, dtype=np.float32))


def reference_clouds() -> list:
    """Random clouds built from float32 and float64 arrays, 1-point clouds,
    and rows holding NaN, +/-inf and -0.0."""
    rng = np.random.default_rng(18)
    params = []
    for dtype in (np.float32, np.float64):
        name = np.dtype(dtype).name
        for n in (1, 2, 9, 20000):
            cloud = PointCloud((rng.normal(size=(n, 4)) * 40).astype(dtype))
            params.append(pytest.param(cloud, id=f"{name}-random-{n}"))
        special = (rng.normal(size=(16, 4)) * 40).astype(dtype)
        special[3, :3] = [np.nan, 1.0, -2.0]
        special[5, :3] = [np.inf, -np.inf, 0.0]
        special[7, :3] = [-0.0, -0.0, -0.0]
        special[9, :3] = [0.0, -0.0, np.nan]
        signed_zeros = np.array([[-0.0, 0.0, -0.0, 0.0]], dtype=dtype)
        params += [
            pytest.param(PointCloud(special), id=f"{name}-nan-inf-zeros"),
            pytest.param(PointCloud(special[7:8]), id=f"{name}-negative-zero"),
            pytest.param(PointCloud(signed_zeros), id=f"{name}-signed-zeros"),
        ]
    return params


class TestConstruction:
    def test_xyz_only_gets_zero_reflectance(self):
        c = PointCloud(np.zeros((5, 3)))
        assert c.data.shape == (5, 4)
        np.testing.assert_allclose(c.reflectance, 0.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((5, 5)))
        with pytest.raises(ValueError):
            PointCloud(np.zeros(12))

    def test_from_xyz_mismatched_reflectance(self):
        with pytest.raises(ValueError):
            PointCloud.from_xyz(np.zeros((3, 3)), np.zeros(2))

    def test_empty(self):
        assert PointCloud.empty().is_empty()
        assert len(PointCloud.empty()) == 0

    def test_dtype_is_float32(self):
        c = PointCloud(np.zeros((2, 4), dtype=np.float64))
        assert c.data.dtype == np.float32


class TestAccessors:
    def test_ranges(self):
        c = cloud_of([3, 4, 0, 0.5])
        assert c.ranges[0] == pytest.approx(5.0)

    def test_bounds(self):
        c = cloud_of([0, 0, 0, 0], [1, 2, 3, 0])
        lo, hi = c.bounds()
        np.testing.assert_allclose(lo, [0, 0, 0])
        np.testing.assert_allclose(hi, [1, 2, 3])

    def test_bounds_empty_raises(self):
        with pytest.raises(ValueError):
            PointCloud.empty().bounds()

    # Exact equality, NaN matching NaN.  Ranges are never -0.0, so for them
    # this is bit equality on every other row; a zero bound may take either
    # sign, as min and max of equal zeros may in any order.
    @pytest.mark.parametrize("cloud", reference_clouds())
    def test_bounds_equal_axis_reductions(self, cloud):
        lo, hi = cloud.bounds()
        assert lo.dtype == hi.dtype == np.float32
        np.testing.assert_array_equal(lo, cloud.xyz.min(axis=0))
        np.testing.assert_array_equal(hi, cloud.xyz.max(axis=0))

    @pytest.mark.parametrize("cloud", reference_clouds())
    def test_ranges_equal_linalg_norm(self, cloud):
        ranges = cloud.ranges
        assert ranges.dtype == np.float32
        np.testing.assert_array_equal(ranges, np.linalg.norm(cloud.xyz, axis=1))

    def test_size_bytes(self):
        assert cloud_of([0, 0, 0, 0]).size_bytes() == 16


class TestOperations:
    def test_transform_preserves_reflectance(self):
        c = cloud_of([1, 0, 0, 0.7])
        moved = c.transformed(RigidTransform.from_euler(translation=[1, 1, 1]))
        np.testing.assert_allclose(moved.xyz[0], [2, 1, 1], atol=1e-6)
        assert moved.reflectance[0] == pytest.approx(0.7, abs=1e-6)

    def test_transform_roundtrip(self):
        c = cloud_of([1, 2, 3, 0.5], [-1, 0, 4, 0.1])
        t = RigidTransform.from_euler(yaw=0.8, translation=[3, -2, 1])
        back = c.transformed(t).transformed(t.inverse())
        np.testing.assert_allclose(back.xyz, c.xyz, atol=1e-5)

    def test_transform_empty(self):
        moved = PointCloud.empty().transformed(RigidTransform.identity())
        assert moved.is_empty()

    def test_select_mask(self):
        c = cloud_of([1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0])
        picked = c.select(c.xyz[:, 0] > 1.5)
        assert len(picked) == 2

    @pytest.mark.parametrize("share", [0.0, 0.1, 0.9, 1.0])
    def test_select_mask_equals_boolean_indexing(self, share):
        rng = np.random.default_rng(7)
        c = PointCloud(rng.normal(size=(5000, 4)))
        mask = rng.random(len(c)) < share
        picked, expected = c.select(mask).data, c.data[mask]
        assert picked.dtype == expected.dtype
        assert picked.shape == expected.shape
        assert picked.flags.c_contiguous
        assert picked.tobytes() == expected.tobytes()

    def test_select_index_array_equals_fancy_indexing(self):
        rng = np.random.default_rng(8)
        c = PointCloud(rng.normal(size=(5000, 4)))
        idx = rng.integers(-len(c), len(c), size=3000)  # repeats, negatives
        picked, expected = c.select(idx).data, c.data[idx]
        assert picked.dtype == expected.dtype
        assert picked.shape == expected.shape
        assert picked.flags.c_contiguous
        assert picked.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("length", [1, 3])
    def test_select_mask_of_wrong_length_raises(self, length):
        c = cloud_of([1, 0, 0, 0], [2, 0, 0, 0])
        with pytest.raises(IndexError):
            c.select(np.ones(length, dtype=bool))

    def test_subsample_deterministic(self):
        c = PointCloud(np.random.default_rng(0).normal(size=(100, 4)))
        a = c.subsampled(10, seed=42)
        b = c.subsampled(10, seed=42)
        np.testing.assert_array_equal(a.data, b.data)
        assert len(a) == 10

    def test_subsample_no_op_when_small(self):
        c = cloud_of([1, 0, 0, 0])
        assert c.subsampled(10) is c

    def test_subsample_negative_raises(self):
        with pytest.raises(ValueError):
            cloud_of([0, 0, 0, 0]).subsampled(-1)

    def test_concat(self):
        c = cloud_of([1, 0, 0, 0]).concat(cloud_of([2, 0, 0, 0]))
        assert len(c) == 2


class TestMerge:
    def test_merge_counts(self):
        merged = merge_clouds([cloud_of([1, 0, 0, 0]), cloud_of([2, 0, 0, 0])])
        assert len(merged) == 2
        assert merged.frame_id == "merged"

    def test_merge_empty_list(self):
        assert merge_clouds([]).is_empty()

    def test_merge_is_union(self):
        """Eq. (2): the cooperative frame is the union of both clouds."""
        a = cloud_of([1, 0, 0, 0.1])
        b = cloud_of([2, 0, 0, 0.2], [3, 0, 0, 0.3])
        merged = merge_clouds([a, b])
        xs = sorted(merged.xyz[:, 0])
        assert xs == [1.0, 2.0, 3.0]
