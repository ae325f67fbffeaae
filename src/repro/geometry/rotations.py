"""Basic rotation matrices and Euler-angle conversions (paper Eq. 1).

The Cooper paper builds the alignment rotation ``R = Rz(alpha) @ Ry(beta) @
Rx(gamma)`` from the yaw, pitch and roll differences reported by the IMUs of
the transmitting and receiving vehicles.  This module provides those basic
rotations plus the conversions and angle utilities used throughout the
reproduction; :func:`normalize_angles` wraps whole arrays bit-identically
to :func:`normalize_angle`.
"""

from __future__ import annotations

import math

import numpy as np

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
]

_TWO_PI = 2.0 * math.pi


def rotation_x(gamma: float) -> np.ndarray:
    """Return the 3x3 basic rotation about the x-axis by ``gamma`` radians.

    This is ``Rx(gamma)`` from Eq. (1) of the paper (roll).
    """
    c, s = math.cos(gamma), math.sin(gamma)
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, c, -s],
            [0.0, s, c],
        ]
    )


def rotation_y(beta: float) -> np.ndarray:
    """Return the 3x3 basic rotation about the y-axis by ``beta`` radians.

    This is ``Ry(beta)`` from Eq. (1) of the paper (pitch).
    """
    c, s = math.cos(beta), math.sin(beta)
    return np.array(
        [
            [c, 0.0, s],
            [0.0, 1.0, 0.0],
            [-s, 0.0, c],
        ]
    )


def rotation_z(alpha: float) -> np.ndarray:
    """Return the 3x3 basic rotation about the z-axis by ``alpha`` radians.

    This is ``Rz(alpha)`` from Eq. (1) of the paper (yaw).
    """
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array(
        [
            [c, -s, 0.0],
            [s, c, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


def euler_to_matrix(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Compose ``R = Rz(yaw) @ Ry(pitch) @ Rx(roll)`` exactly as in Eq. (1).

    Angles are in radians.  The resulting matrix rotates column vectors from
    the body frame into the reference frame.
    """
    return rotation_z(yaw) @ rotation_y(pitch) @ rotation_x(roll)


def matrix_to_euler(matrix: np.ndarray) -> tuple[float, float, float]:
    """Recover ``(yaw, pitch, roll)`` from a ZYX rotation matrix.

    Inverse of :func:`euler_to_matrix`.  At the gimbal-lock singularity
    (``|pitch| = pi/2``) the yaw/roll split is not unique; we follow the
    common convention of assigning the whole in-plane rotation to yaw.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {matrix.shape}")
    # sin(pitch) = -m[2, 0]
    sp = -matrix[2, 0]
    sp = min(1.0, max(-1.0, sp))
    pitch = math.asin(sp)
    if abs(sp) < 1.0 - 1e-9:
        yaw = math.atan2(matrix[1, 0], matrix[0, 0])
        roll = math.atan2(matrix[2, 1], matrix[2, 2])
    else:
        # Gimbal lock: pitch = +/- pi/2. Only yaw -/+ roll is observable.
        yaw = math.atan2(-matrix[0, 1], matrix[1, 1])
        roll = 0.0
    return yaw, pitch, roll


def is_rotation_matrix(matrix: np.ndarray, atol: float = 1e-6) -> bool:
    """Check that ``matrix`` is a proper rotation (orthogonal, det = +1)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (3, 3):
        return False
    identity_error = np.abs(matrix @ matrix.T - np.eye(3)).max()
    return identity_error <= atol and abs(np.linalg.det(matrix) - 1.0) <= atol


def normalize_angle(angle: float) -> float:
    """Wrap ``angle`` into ``(-pi, pi]``."""
    wrapped = math.fmod(angle, _TWO_PI)
    if wrapped > math.pi:
        wrapped -= _TWO_PI
    elif wrapped <= -math.pi:
        wrapped += _TWO_PI
    return wrapped


def normalize_angles(angles: np.ndarray) -> np.ndarray:
    """Wrap every angle into ``(-pi, pi]``: :func:`normalize_angle` on arrays.

    The same float64 ``fmod`` and the same two conditional shifts, so each
    element equals ``normalize_angle`` of it bit for bit.
    """
    wrapped = np.fmod(np.asarray(angles, dtype=float), _TWO_PI)
    return np.where(
        wrapped > math.pi,
        wrapped - _TWO_PI,
        np.where(wrapped <= -math.pi, wrapped + _TWO_PI, wrapped),
    )


def angle_difference(a: float, b: float) -> float:
    """Return the signed smallest difference ``a - b`` wrapped to (-pi, pi]."""
    return normalize_angle(a - b)


def yaw_matrix_2d(yaw: float) -> np.ndarray:
    """Return the 2x2 in-plane rotation used for BEV box corners."""
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s], [s, c]])
