"""The eager voxel point tensor, as voxelisation built it before it turned lazy.

:func:`repro.pointcloud.voxel.voxelize` fills ``VoxelGrid.points`` on first
read.  This module keeps the eager build in its plainest form, one voxel
at a time: the voxel's rows in stable scan order, and for an overfull
voxel a permutation drawn from its own stream
``derive_seed(seed, "voxel-overflow", linear index)``, whose slots below
the cap keep their points.  Tests require the lazy tensor to equal it
byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.pointcloud.cloud import PointCloud
from repro.pointcloud.voxel import VoxelGridSpec, _assign_voxels
from repro.runtime.seeding import derive_seed


def eager_points(
    cloud: PointCloud, spec: VoxelGridSpec, seed: int = 0, dtype=None
) -> tuple[np.ndarray, int]:
    """The ``(V, T, 4)`` padded point tensor and the number of overfull
    voxels of ``voxelize(cloud, spec, seed, dtype)``."""
    out_dtype = np.dtype(dtype) if dtype is not None else np.float32
    rows, linear = _assign_voxels(cloud.data, spec)
    cap = spec.max_points_per_voxel
    order = np.argsort(linear, kind="stable")
    keys, starts, sizes = np.unique(
        linear[order], return_index=True, return_counts=True
    )
    points = np.zeros((len(keys), cap, 4), dtype=out_dtype)
    overfull = 0
    for v, (key, start, size) in enumerate(zip(keys, starts, sizes)):
        members = rows[order[start : start + size]]
        if size <= cap:
            points[v, :size] = members
            continue
        overfull += 1
        rng = np.random.default_rng(derive_seed(seed, "voxel-overflow", int(key)))
        slots = rng.permutation(size)
        kept = slots < cap
        points[v, slots[kept]] = members[kept]
    return points, overfull
