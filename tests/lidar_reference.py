"""Dense reference implementation of the LiDAR's nearest-hit search.

The simulator slab-tests each actor only on the rays inside its azimuth
wedge and merges the hits ray by ray (:mod:`repro.sensors.lidar`).  This
module keeps the straightforward form of the same maths: every actor is
slab-tested against every ray into an ``(A, N)`` hit matrix, and each
ray's nearest hit is the matrix's ``argmin``.  Tests compare the two
bit for bit, and patch :func:`reference_nearest_hits` into
:mod:`repro.sensors.lidar` to produce reference scans.

:func:`reference_nearest_hits` counts its calls in ``calls``, so a test
can assert that the reference really ran.
"""

from __future__ import annotations

import numpy as np


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


def reference_nearest_hits(pattern, pose, origin, directions, boxes):
    """Drop-in for :func:`repro.sensors.lidar._nearest_hits`: dense + argmin."""
    reference_nearest_hits.calls += 1
    return nearest_hits(ray_boxes_batch(origin, directions, boxes))


reference_nearest_hits.calls = 0
