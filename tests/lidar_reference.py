"""Dense reference implementations of the LiDAR's nearest-hit search and scan.

The simulator slab-tests each actor only on the rays inside its azimuth
wedge and merges the hits ray by ray (:mod:`repro.sensors.lidar`).  This
module keeps the straightforward form of the same maths: every actor is
slab-tested against every ray into an ``(A, N)`` hit matrix, and each
ray's nearest hit is the matrix's ``argmin``.  Tests compare the two
bit for bit.

:func:`reference_scan` keeps a whole scan in its straightforward form:
the dense cast, each return built in the world frame and mapped back,
and a per-point string array of actor names.  Tests require the
simulator's scans and rebuilt labels to equal it byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.pointcloud.cloud import PointCloud
from repro.sensors.lidar import (
    _GROUND_LABEL,
    _GROUND_REFLECTANCE,
    MIN_RANGE_M,
    _ray_direction_table,
)


def ray_boxes_batch(
    origin: np.ndarray, directions: np.ndarray, boxes: list
) -> np.ndarray:
    """Nearest-hit distances of shared-origin rays against many boxes.

    One slab test over all ``(box, ray)`` pairs at once, axis by axis so no
    temporary grows beyond ``(A, N)``.  Boxes are yaw-only rotated, so each
    box's frame is a 2D rotation of x/y with z passed through.  Returns an
    ``(A, N)`` array with +inf for misses and hits behind the origin.
    """
    origin = np.asarray(origin, dtype=float)
    yaws = np.array([b.yaw for b in boxes])
    centers = np.array([b.center for b in boxes], dtype=float)
    halves = (
        np.array([[b.length, b.width, b.height] for b in boxes], dtype=float)
        / 2.0
    )
    cos_y, sin_y = np.cos(yaws), np.sin(yaws)

    rel = origin[None, :] - centers  # (A, 3)
    local_origin_x = cos_y * rel[:, 0] + sin_y * rel[:, 1]
    local_origin_y = -sin_y * rel[:, 0] + cos_y * rel[:, 1]
    dx, dy, dz = directions[:, 0], directions[:, 1], directions[:, 2]
    local_dirs_x = cos_y[:, None] * dx[None, :] + sin_y[:, None] * dy[None, :]
    local_dirs_y = -sin_y[:, None] * dx[None, :] + cos_y[:, None] * dy[None, :]
    local_dirs_z = np.broadcast_to(dz[None, :], local_dirs_x.shape)

    t_near = np.full(local_dirs_x.shape, -np.inf)
    t_far = np.full(local_dirs_x.shape, np.inf)
    slabs = (
        (local_dirs_x, local_origin_x, halves[:, 0]),
        (local_dirs_y, local_origin_y, halves[:, 1]),
        (local_dirs_z, rel[:, 2], halves[:, 2]),
    )
    for local_dir, local_orig, half in slabs:
        d = np.where(np.abs(local_dir) < 1e-12, 1e-12, local_dir)
        inv = 1.0 / d
        t_a = (-half[:, None] - local_orig[:, None]) * inv
        t_b = (half[:, None] - local_orig[:, None]) * inv
        np.maximum(t_near, np.minimum(t_a, t_b), out=t_near)
        np.minimum(t_far, np.maximum(t_a, t_b), out=t_far)

    hit = (t_near <= t_far) & (t_far >= 0)
    t = np.where(t_near >= 0, t_near, t_far)  # inside-box rays exit forward
    return np.where(hit, t, np.inf)


def nearest_hits(t_hits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per ray, the nearest actor's index and hit distance (read-only).

    ``t_hits`` is an ``(A, N)`` hit matrix; ties go to the lowest index.
    """
    best_label = t_hits.argmin(axis=0)
    best_t = t_hits[best_label, np.arange(t_hits.shape[1])]
    best_label.setflags(write=False)
    best_t.setflags(write=False)
    return best_label, best_t


def reference_scan(lidar, world, pose, seed):
    """A whole scan in its straightforward form: ``(cloud data, labels)``.

    The dense cast above finds each ray's nearest hit.  Each return is
    built as ``origin + directions[valid] * t`` in the world frame and
    mapped back with ``p @ R.T + t``, and its actor's name is gathered
    into a per-point ``<U…>`` string array.  The noise streams are drawn
    in the simulator's order, so :meth:`repro.sensors.lidar.LidarModel.scan`
    with the same arguments must equal this byte for byte.
    """
    rng = np.random.default_rng(seed)
    directions = _ray_direction_table(lidar.pattern) @ pose.to_world().rotation.T
    origin = pose.position.astype(float)
    actors = list(world.actors)
    if actors:
        best_label, best_t = nearest_hits(
            ray_boxes_batch(origin, directions, [a.box for a in actors])
        )
    else:
        best_t = np.full(len(directions), np.inf)
        best_label = np.zeros(len(directions), dtype=np.int64)
    dz = directions[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = (world.ground_z - origin[2]) / dz
    t_ground = np.where((dz < -1e-9) & (t_ground > 0), t_ground, np.inf)
    better = t_ground < best_t
    best_t = np.where(better, t_ground, best_t)
    best_label = np.where(better, -2, best_label)  # ground sentinel
    valid = (
        np.isfinite(best_t)
        & (best_t >= MIN_RANGE_M)
        & (best_t <= lidar.pattern.max_range)
    )
    if lidar.dropout > 0:
        valid &= rng.random(len(directions)) >= lidar.dropout
    t = best_t[valid]
    if lidar.range_noise_std > 0:
        t = t + rng.normal(0.0, lidar.range_noise_std, size=len(t))
        np.clip(t, MIN_RANGE_M, lidar.pattern.max_range, out=t)
    hit_world = origin + directions[valid] * t[:, None]
    if len(t):
        from_world = pose.from_world()
        hit_world = hit_world @ from_world.rotation.T + from_world.translation
    table_idx = np.where(best_label[valid] == -2, len(actors), best_label[valid])
    reflectance_table = np.array(
        [a.reflectance for a in actors] + [_GROUND_REFLECTANCE],
        dtype=np.float32,
    )
    reflectance = reflectance_table[table_idx] + rng.normal(
        0.0, 0.02, size=len(t)
    ).astype(np.float32)
    reflectance = np.clip(reflectance, 0.0, 1.0)
    names = np.array([a.name for a in actors] + [_GROUND_LABEL])
    cloud = PointCloud.from_xyz(hit_world, reflectance, frame_id="sensor")
    return cloud.data, names[table_idx]
