"""Oriented 3D bounding boxes, point containment and IoU.

Vehicles in the scene substrate, anchors in the RPN, and detections in the
evaluation harness are all oriented boxes: ``(cx, cy, cz)`` centre,
``(length, width, height)`` size and a yaw about the z-axis.  ``length``
runs along the heading direction.  :func:`points_in_any_box` tests many
boxes against one cloud, each on the rows inside its axis-aligned window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.geometry.rotations import normalize_angle, yaw_matrix_2d
from repro.geometry.transforms import RigidTransform

__all__ = [
    "Box3D",
    "box_corners_bev",
    "box_corners_3d",
    "points_in_box",
    "points_in_any_box",
    "iou_bev",
    "iou_bev_from_corners",
    "iou_3d",
    "pairwise_iou_bev",
]


@dataclass(frozen=True)
class Box3D:
    """An oriented 3D box: centre, size (length/width/height) and yaw.

    The centre is the geometric centre of the box (not the bottom face).
    ``yaw = 0`` points the length axis along +x.
    """

    center: np.ndarray
    length: float
    width: float
    height: float
    yaw: float = 0.0

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=float).reshape(3)
        if min(self.length, self.width, self.height) <= 0:
            raise ValueError("box dimensions must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "length", float(self.length))
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "height", float(self.height))
        object.__setattr__(self, "yaw", normalize_angle(float(self.yaw)))

    @property
    def volume(self) -> float:
        """Box volume in cubic metres."""
        return self.length * self.width * self.height

    @property
    def bottom_z(self) -> float:
        """z coordinate of the bottom face."""
        return float(self.center[2] - self.height / 2.0)

    @property
    def top_z(self) -> float:
        """z coordinate of the top face."""
        return float(self.center[2] + self.height / 2.0)

    def transformed(self, transform: RigidTransform) -> "Box3D":
        """Apply a rigid transform.

        Only yaw-preserving transforms keep the box axis-aligned in z; for
        the planar motions used throughout the paper (vehicles on roads)
        this is exact.  The new yaw adds the transform's in-plane rotation.
        """
        new_center = transform.apply(self.center)
        heading = transform.apply_vector(
            np.array([np.cos(self.yaw), np.sin(self.yaw), 0.0])
        )
        new_yaw = float(np.arctan2(heading[1], heading[0]))
        return replace(self, center=new_center, yaw=new_yaw)

    def translated(self, delta: np.ndarray) -> "Box3D":
        """Return a copy shifted by ``delta``."""
        return replace(self, center=self.center + np.asarray(delta, dtype=float))

    def expanded(self, margin: float) -> "Box3D":
        """Return a copy grown by ``margin`` metres on every side."""
        return replace(
            self,
            length=self.length + 2 * margin,
            width=self.width + 2 * margin,
            height=self.height + 2 * margin,
        )

    def as_vector(self) -> np.ndarray:
        """Return ``[cx, cy, cz, l, w, h, yaw]`` (the RPN regression target)."""
        return np.array(
            [*self.center, self.length, self.width, self.height, self.yaw]
        )

    @staticmethod
    def from_vector(vector: np.ndarray) -> "Box3D":
        """Inverse of :meth:`as_vector`."""
        vector = np.asarray(vector, dtype=float).reshape(7)
        return Box3D(vector[:3], vector[3], vector[4], vector[5], vector[6])


def box_corners_bev(box: Box3D) -> np.ndarray:
    """Return the four BEV (x, y) corners, counter-clockwise."""
    half = np.array(
        [
            [box.length / 2, box.width / 2],
            [-box.length / 2, box.width / 2],
            [-box.length / 2, -box.width / 2],
            [box.length / 2, -box.width / 2],
        ]
    )
    return half @ yaw_matrix_2d(box.yaw).T + box.center[:2]


def box_corners_3d(box: Box3D) -> np.ndarray:
    """Return the eight 3D corners, bottom face first (matching BEV order)."""
    bev = box_corners_bev(box)
    bottom = np.column_stack([bev, np.full(4, box.bottom_z)])
    top = np.column_stack([bev, np.full(4, box.top_z)])
    return np.vstack([bottom, top])


def points_in_box(points: np.ndarray, box: Box3D, margin: float = 0.0) -> np.ndarray:
    """Return a boolean mask of the points inside the (optionally grown) box."""
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return np.zeros(0, dtype=bool)
    pts = points[:, :3] - box.center
    rot = yaw_matrix_2d(-box.yaw)
    xy = pts[:, :2] @ rot.T
    half_l = box.length / 2 + margin
    half_w = box.width / 2 + margin
    half_h = box.height / 2 + margin
    return (
        (np.abs(xy[:, 0]) <= half_l)
        & (np.abs(xy[:, 1]) <= half_w)
        & (np.abs(pts[:, 2]) <= half_h)
    )


#: Widening (m) of :func:`points_in_any_box`'s windows, far above the
#: float64 rounding of the rotation in :func:`points_in_box`.
WINDOW_SLACK = 1e-3


def points_in_any_box(
    points: np.ndarray, boxes, margin: float = 0.0
) -> np.ndarray:
    """Boolean mask of the points inside at least one (grown) box.

    Equals OR-ing :func:`points_in_box` over ``boxes``, but each box tests
    only the rows in its axis-aligned window: the square of half-side
    ``hypot(l/2 + margin, w/2 + margin) + WINDOW_SLACK`` about its centre,
    which holds the grown footprint.  The window compares the points' own
    columns against bounds rounded to their dtype; rounding to nearest can
    only widen a window over values of that dtype.  :func:`points_in_box`
    gives a row the same answer whatever other rows it runs with, so the
    mask is exact.
    """
    points = np.asarray(points)
    union = np.zeros(len(points), dtype=bool)
    if len(points) == 0:
        return union
    x, y = points[:, 0], points[:, 1]
    for box in boxes:
        reach = (
            math.hypot(box.length / 2 + margin, box.width / 2 + margin)
            + WINDOW_SLACK
        )
        cx, cy = float(box.center[0]), float(box.center[1])
        x_lo, x_hi, y_lo, y_hi = np.array(
            [cx - reach, cx + reach, cy - reach, cy + reach], dtype=points.dtype
        )
        rows = np.flatnonzero((x >= x_lo) & (x <= x_hi) & (y >= y_lo) & (y <= y_hi))
        if len(rows):
            inside = points_in_box(points.take(rows, axis=0), box, margin=margin)
            union[rows[inside]] = True
    return union


def _polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a simple polygon given as an (N, 2) vertex array.

    Polygons here are box footprints and their clips (4-8 vertices), where
    a plain accumulation loop beats the array rolls it replaced.
    """
    n = len(poly)
    if n < 3:
        return 0.0
    vertices = [(float(p[0]), float(p[1])) for p in poly]
    x2, y2 = vertices[-1]
    area = 0.0
    for x1, y1 in vertices:
        area += x2 * y1 - y2 * x1
        x2, y2 = x1, y1
    return 0.5 * abs(area)


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clipping of ``subject`` by convex ``clip`` polygon.

    Both polygons must be counter-clockwise.  Returns the (possibly empty)
    intersection polygon.  The arithmetic runs on plain floats — these are
    4-8 vertex polygons, where per-element numpy scalar overhead dominated
    the NMS profile.
    """
    output = [(float(p[0]), float(p[1])) for p in subject]
    edges = [(float(p[0]), float(p[1])) for p in clip]
    n = len(edges)
    for i in range(n):
        ax, ay = edges[i]
        bx, by = edges[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        input_list = output
        output = []
        if not input_list:
            break
        px, py = input_list[-1]
        previous_inside = ex * (py - ay) - ey * (px - ax) >= 0
        for cx, cy in input_list:
            current_inside = ex * (cy - ay) - ey * (cx - ax) >= 0
            if current_inside:
                if not previous_inside:
                    output.append(
                        _line_intersection(px, py, cx, cy, ax, ay, bx, by)
                    )
                output.append((cx, cy))
            elif previous_inside:
                output.append(
                    _line_intersection(px, py, cx, cy, ax, ay, bx, by)
                )
            px, py, previous_inside = cx, cy, current_inside
    return np.array(output) if output else np.zeros((0, 2))


def _line_intersection(
    px: float, py: float, cx: float, cy: float,
    ax: float, ay: float, bx: float, by: float,
) -> tuple[float, float]:
    """Intersection point of segment p-c with the infinite line a-b."""
    d1x, d1y = cx - px, cy - py
    d2x, d2y = bx - ax, by - ay
    denom = d1x * d2y - d1y * d2x
    if abs(denom) < 1e-12:
        return (cx, cy)
    t = ((ax - px) * d2y - (ay - py) * d2x) / denom
    return (px + t * d1x, py + t * d1y)


def _bev_intersection_area(box_a: Box3D, box_b: Box3D) -> float:
    corners_a = box_corners_bev(box_a)
    corners_b = box_corners_bev(box_b)
    return _polygon_area(_clip_polygon(corners_a, corners_b))


def iou_bev_from_corners(
    corners_a: np.ndarray,
    area_a: float,
    corners_b: np.ndarray,
    area_b: float,
) -> float:
    """BEV IoU from precomputed corner polygons and areas.

    Callers that evaluate many pairs over the same boxes (NMS, matching)
    compute corners and areas once and reuse them here instead of paying
    :func:`box_corners_bev` per pair.
    """
    inter = _polygon_area(_clip_polygon(corners_a, corners_b))
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def iou_bev(box_a: Box3D, box_b: Box3D) -> float:
    """Bird's-eye-view IoU of two oriented boxes."""
    return iou_bev_from_corners(
        box_corners_bev(box_a),
        box_a.length * box_a.width,
        box_corners_bev(box_b),
        box_b.length * box_b.width,
    )


def iou_3d(box_a: Box3D, box_b: Box3D) -> float:
    """3D IoU: BEV intersection times vertical overlap over the union."""
    inter_bev = _bev_intersection_area(box_a, box_b)
    z_overlap = max(
        0.0, min(box_a.top_z, box_b.top_z) - max(box_a.bottom_z, box_b.bottom_z)
    )
    inter = inter_bev * z_overlap
    union = box_a.volume + box_b.volume - inter
    return inter / union if union > 0 else 0.0


def pairwise_iou_bev(boxes_a: list[Box3D], boxes_b: list[Box3D]) -> np.ndarray:
    """Return the |A| x |B| matrix of BEV IoUs.

    Uses a cheap circumscribed-radius rejection test before the exact
    polygon clip, which matters when matching hundreds of anchors.
    """
    result = np.zeros((len(boxes_a), len(boxes_b)))
    if not boxes_a or not boxes_b:
        return result
    centers_a = np.array([b.center[:2] for b in boxes_a])
    centers_b = np.array([b.center[:2] for b in boxes_b])
    radii_a = np.array([np.hypot(b.length, b.width) / 2 for b in boxes_a])
    radii_b = np.array([np.hypot(b.length, b.width) / 2 for b in boxes_b])
    dist = np.linalg.norm(centers_a[:, None, :] - centers_b[None, :, :], axis=-1)
    candidates = dist <= radii_a[:, None] + radii_b[None, :]
    for i, j in zip(*np.nonzero(candidates)):
        result[i, j] = iou_bev(boxes_a[i], boxes_b[j])
    return result
