"""VoxelNet-style voxelisation of point clouds.

SPOD's first stage groups the (sparse, irregular) points into a regular 3D
voxel grid; only non-empty voxels are materialised, each holding at most
``max_points_per_voxel`` points.  The output feeds the voxel feature
encoder and, through coordinates, the sparse convolutional middle layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pointcloud.cloud import PointCloud
from repro.profiling import PROFILER
from repro.runtime.seeding import derive_seed

__all__ = ["VoxelGridSpec", "VoxelGrid"]


@dataclass(frozen=True)
class VoxelGridSpec:
    """Geometry of the voxel grid.

    Attributes:
        point_range: ``(xmin, ymin, zmin, xmax, ymax, zmax)`` crop in metres.
            Default matches the KITTI front-view car detection range used by
            VoxelNet/SECOND.
        voxel_size: ``(vx, vy, vz)`` voxel edge lengths in metres.
        max_points_per_voxel: cap on points kept per voxel (paper lineage
            uses 35 for cars).
    """

    point_range: tuple[float, float, float, float, float, float] = (
        0.0,
        -40.0,
        -3.0,
        70.4,
        40.0,
        1.0,
    )
    voxel_size: tuple[float, float, float] = (0.4, 0.4, 0.8)
    max_points_per_voxel: int = 35

    def __post_init__(self) -> None:
        if len(self.point_range) != 6:
            raise ValueError("point_range must have 6 entries")
        if any(v <= 0 for v in self.voxel_size):
            raise ValueError("voxel sizes must be positive")
        if self.max_points_per_voxel < 1:
            raise ValueError("max_points_per_voxel must be >= 1")
        for axis in range(3):
            if self.point_range[axis] >= self.point_range[axis + 3]:
                raise ValueError("point_range min must be below max per axis")

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        """Number of voxels along (x, y, z)."""
        spans = (
            self.point_range[3] - self.point_range[0],
            self.point_range[4] - self.point_range[1],
            self.point_range[5] - self.point_range[2],
        )
        return tuple(
            int(np.ceil(span / size - 1e-9))
            for span, size in zip(spans, self.voxel_size)
        )

    def voxel_center(self, coords: np.ndarray) -> np.ndarray:
        """World-space centres for integer voxel coordinates ``(N, 3)``."""
        coords = np.asarray(coords, dtype=float)
        origin = np.array(self.point_range[:3])
        size = np.array(self.voxel_size)
        return origin + (coords + 0.5) * size


@dataclass
class VoxelGrid:
    """The sparse voxelisation result.

    Attributes:
        spec: the grid geometry used.
        coords: ``(V, 3)`` integer voxel coordinates (ix, iy, iz).
        points: ``(V, T, 4)`` padded per-voxel points (zero padding).
        counts: ``(V,)`` number of valid points in each voxel.
    """

    spec: VoxelGridSpec
    coords: np.ndarray
    points: np.ndarray
    counts: np.ndarray

    @property
    def num_voxels(self) -> int:
        """Number of non-empty voxels."""
        return len(self.coords)

    def occupancy_bev(self) -> np.ndarray:
        """Project counts onto the BEV plane: an (nx, ny) point-count image."""
        nx, ny, _ = self.spec.grid_shape
        image = np.zeros((nx, ny), dtype=np.float32)
        np.add.at(image, (self.coords[:, 0], self.coords[:, 1]), self.counts)
        return image


def voxelize(
    cloud: PointCloud,
    spec: VoxelGridSpec,
    seed: int = 0,
    dtype: np.dtype | None = None,
) -> VoxelGrid:
    """Group a cloud into the sparse voxel grid described by ``spec``.

    Points outside ``spec.point_range`` are dropped.  When a voxel receives
    more than ``max_points_per_voxel`` points, a deterministic random
    subset keyed by ``seed`` *and the voxel's linear index* is kept (the
    paper lineage randomly samples; we seed for repeatability — and seed
    per voxel, so one voxel's sample never depends on any other voxel's
    contents).  Voxels at or under the cap keep their points in stable
    scan order.

    ``dtype`` sets the storage dtype of the padded voxel tensor handed to
    the downstream kernels (default float32, the sensor dtype).  Grouping
    itself always runs on the raw float32 sensor data, so the choice
    cannot move a point between voxels.
    """
    with PROFILER.stage("voxel.voxelize"):
        return _voxelize(cloud.data, spec, seed, dtype)


def _assign_voxels(
    data: np.ndarray, spec: VoxelGridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row voxel assignment: ``(inside_mask, linear_of_inside_rows)``.

    The crop and the floor run in float32 against float32 bounds, so a
    point's voxel is the same whatever storage ``dtype`` the grid uses.
    """
    origin = np.array(spec.point_range[:3], dtype=np.float32)
    size = np.array(spec.voxel_size, dtype=np.float32)
    upper = np.array(spec.point_range[3:], dtype=np.float32)

    inside = np.all((data[:, :3] >= origin) & (data[:, :3] < upper), axis=1)
    pts = data[inside]
    if len(pts) == 0:
        return inside, np.zeros(0, dtype=np.int64)
    coords_all = np.floor((pts[:, :3] - origin) / size).astype(np.int32)
    grid_shape = spec.grid_shape
    np.clip(coords_all, 0, np.array(grid_shape) - 1, out=coords_all)
    linear = (
        coords_all[:, 0].astype(np.int64) * (grid_shape[1] * grid_shape[2])
        + coords_all[:, 1] * grid_shape[2]
        + coords_all[:, 2]
    )
    return inside, linear


def _overflow_positions(
    positions: np.ndarray,
    start_idx: np.ndarray,
    group_counts: np.ndarray,
    unique_linear: np.ndarray,
    t_max: int,
    seed: int,
) -> None:
    """Re-draw slot permutations for overflowing voxels, in place.

    Each overflowing voxel draws from its own RNG stream —
    ``derive_seed(seed, "voxel-overflow", linear)`` — so the sample kept
    in one voxel is a pure function of (seed, voxel, member count),
    independent of what every other voxel received: adding or removing
    points elsewhere in the cloud never changes which points a voxel
    keeps.
    """
    overflowing = np.nonzero(group_counts > t_max)[0]
    for g in overflowing:
        start, count = start_idx[g], group_counts[g]
        rng = np.random.default_rng(
            derive_seed(seed, "voxel-overflow", int(unique_linear[g]))
        )
        positions[start : start + count] = rng.permutation(count)


def _voxelize(
    data: np.ndarray,
    spec: VoxelGridSpec,
    seed: int,
    dtype: np.dtype | None = None,
) -> VoxelGrid:
    out_dtype = np.dtype(dtype) if dtype is not None else np.float32
    inside, linear = _assign_voxels(data, spec)
    data_in = data[inside]
    t_max = spec.max_points_per_voxel
    if len(data_in) == 0:
        return VoxelGrid(
            spec,
            np.zeros((0, 3), dtype=np.int32),
            np.zeros((0, t_max, 4), dtype=out_dtype),
            np.zeros(0, dtype=np.int32),
        )

    # Group points by voxel using a stable (radix) sort of linear indices.
    order = np.argsort(linear, kind="stable")
    linear_sorted = linear[order]
    data_sorted = data_in[order]

    unique_linear, start_idx, group_counts = np.unique(
        linear_sorted, return_index=True, return_counts=True
    )
    grid_shape = spec.grid_shape
    num_voxels = len(unique_linear)
    points = np.zeros((num_voxels, t_max, 4), dtype=out_dtype)
    counts = np.minimum(group_counts, t_max).astype(np.int32)
    # Decode voxel coordinates from the unique linear indices directly —
    # cheaper than gathering a per-point coordinate table.
    cx, rem = np.divmod(unique_linear, grid_shape[1] * grid_shape[2])
    cy, cz = np.divmod(rem, grid_shape[2])
    coords = np.stack([cx, cy, cz], axis=1).astype(np.int32)

    group_ids = np.repeat(np.arange(num_voxels), group_counts)
    positions = np.arange(len(data_sorted)) - np.repeat(start_idx, group_counts)

    # Overfull voxels keep a seeded random subset: each point draws a slot
    # from a permutation and only slots below the cap survive.  Voxels at
    # or under the cap are untouched, so the common case stays in stable
    # scan order and pays nothing.
    _overflow_positions(
        positions, start_idx, group_counts, unique_linear, t_max, seed
    )

    keep = positions < t_max
    points[group_ids[keep], positions[keep]] = data_sorted[keep]
    return VoxelGrid(spec, coords, points, counts)
