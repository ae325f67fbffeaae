"""Geometry core: rotations, rigid transforms, poses and oriented 3D boxes.

This package implements the mathematical substrate the Cooper paper relies
on: the basic rotation matrices of Eq. (1), the rigid transform of Eq. (3)
used to map a transmitter's point cloud into the receiver frame, vehicle
poses built from GPS + IMU readings, and oriented 3D bounding boxes with
BEV / 3D IoU used by the detector and the evaluation harness.
"""

from repro.geometry.rotations import (
    rotation_x,
    rotation_y,
    rotation_z,
    euler_to_matrix,
    matrix_to_euler,
    is_rotation_matrix,
    normalize_angle,
    normalize_angles,
    angle_difference,
    yaw_matrix_2d,
)
from repro.geometry.transforms import RigidTransform, Pose
from repro.geometry.boxes import (
    Box3D,
    box_corners_bev,
    box_corners_3d,
    points_in_box,
    points_in_any_box,
    iou_bev,
    iou_3d,
    pairwise_iou_bev,
)
from repro.geometry.primitives import (
    Ray,
    aabb_of_corners,
    ray_aabb_intersection,
    ray_box_intersection,
    ray_ground_intersection,
)

__all__ = [
    "rotation_x",
    "rotation_y",
    "rotation_z",
    "euler_to_matrix",
    "matrix_to_euler",
    "is_rotation_matrix",
    "normalize_angle",
    "normalize_angles",
    "angle_difference",
    "yaw_matrix_2d",
    "RigidTransform",
    "Pose",
    "Box3D",
    "box_corners_bev",
    "box_corners_3d",
    "points_in_box",
    "points_in_any_box",
    "iou_bev",
    "iou_3d",
    "pairwise_iou_bev",
    "Ray",
    "aabb_of_corners",
    "ray_aabb_intersection",
    "ray_box_intersection",
    "ray_ground_intersection",
]
