"""Rigid transforms and vehicle poses (paper Eq. 2-3).

A :class:`RigidTransform` is the ``(R, t)`` pair of Eq. (3): points are
mapped as ``p' = R @ p + t``.  A :class:`Pose` bundles the GPS position and
IMU attitude of a vehicle, mirroring the exchange package contents the paper
describes in Section II-D, and converts between them and rigid transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.rotations import (
    euler_to_matrix,
    is_rotation_matrix,
    matrix_to_euler,
    normalize_angle,
)

__all__ = ["RigidTransform", "Pose"]


@dataclass(frozen=True)
class RigidTransform:
    """A proper rigid transform ``p -> rotation @ p + translation``.

    Attributes:
        rotation: 3x3 proper rotation matrix.
        translation: length-3 translation vector.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rotation = np.asarray(self.rotation, dtype=float)
        translation = np.asarray(self.translation, dtype=float).reshape(3)
        if not is_rotation_matrix(rotation, atol=1e-5):
            raise ValueError("rotation is not a proper rotation matrix")
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    @staticmethod
    def identity() -> "RigidTransform":
        """The identity transform."""
        return RigidTransform(np.eye(3), np.zeros(3))

    @staticmethod
    def from_euler(
        yaw: float = 0.0,
        pitch: float = 0.0,
        roll: float = 0.0,
        translation: np.ndarray | None = None,
    ) -> "RigidTransform":
        """Build a transform from ZYX Euler angles and a translation."""
        t = np.zeros(3) if translation is None else np.asarray(translation, dtype=float)
        return RigidTransform(euler_to_matrix(yaw, pitch, roll), t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply the transform to an ``(N, 3)`` array of points.

        This is Eq. (3) of the paper: ``p' = R p + delta_d``.  The
        translation is added in place into the product, so a call
        allocates one ``(N, 3)`` array.
        """
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = np.atleast_2d(points)
        if pts.shape[-1] != 3:
            raise ValueError(f"expected (N, 3) points, got shape {points.shape}")
        out = pts @ self.rotation.T
        out += self.translation
        return out[0] if single else out

    def apply_vector(self, vectors: np.ndarray) -> np.ndarray:
        """Rotate direction vectors (no translation)."""
        vectors = np.asarray(vectors, dtype=float)
        single = vectors.ndim == 1
        vecs = np.atleast_2d(vectors)
        out = vecs @ self.rotation.T
        return out[0] if single else out

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return ``self o other`` (apply ``other`` first, then ``self``)."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def __matmul__(self, other: "RigidTransform") -> "RigidTransform":
        return self.compose(other)

    def inverse(self) -> "RigidTransform":
        """Return the inverse transform."""
        rot_inv = self.rotation.T
        return RigidTransform(rot_inv, -rot_inv @ self.translation)

    def as_matrix(self) -> np.ndarray:
        """Return the 4x4 homogeneous matrix."""
        matrix = np.eye(4)
        matrix[:3, :3] = self.rotation
        matrix[:3, 3] = self.translation
        return matrix

    @staticmethod
    def from_matrix(matrix: np.ndarray) -> "RigidTransform":
        """Build from a 4x4 homogeneous matrix."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {matrix.shape}")
        return RigidTransform(matrix[:3, :3], matrix[:3, 3])

    def almost_equal(self, other: "RigidTransform", atol: float = 1e-8) -> bool:
        """Element-wise comparison with tolerance."""
        return bool(
            np.allclose(self.rotation, other.rotation, atol=atol)
            and np.allclose(self.translation, other.translation, atol=atol)
        )


@dataclass(frozen=True)
class Pose:
    """A vehicle pose: GPS position + IMU attitude (yaw/pitch/roll).

    This mirrors the metadata encapsulated in a Cooper exchange package
    (Section II-D): the GPS reading fixes the translation of the LiDAR
    frame's centre point, and the IMU reading fixes its orientation.

    Attributes:
        position: ``(x, y, z)`` in a shared world frame (metres).
        yaw: rotation about z, radians (alpha in Eq. 1).
        pitch: rotation about y, radians (beta in Eq. 1).
        roll: rotation about x, radians (gamma in Eq. 1).
    """

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    yaw: float = 0.0
    pitch: float = 0.0
    roll: float = 0.0

    def __post_init__(self) -> None:
        position = np.asarray(self.position, dtype=float).reshape(3)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "yaw", normalize_angle(float(self.yaw)))
        object.__setattr__(self, "pitch", normalize_angle(float(self.pitch)))
        object.__setattr__(self, "roll", normalize_angle(float(self.roll)))

    def to_world(self) -> RigidTransform:
        """Transform mapping body-frame points to world-frame points."""
        return RigidTransform(
            euler_to_matrix(self.yaw, self.pitch, self.roll), self.position
        )

    def from_world(self) -> RigidTransform:
        """Transform mapping world-frame points into this body frame."""
        return self.to_world().inverse()

    def relative_to(self, other: "Pose") -> RigidTransform:
        """Transform taking points in ``self``'s frame into ``other``'s frame.

        This is exactly the paper's alignment step: a transmitter with pose
        ``self`` sends points in its own LiDAR frame, and the receiver with
        pose ``other`` applies ``R`` (from the IMU difference) and the GPS
        translation difference to place them in its own frame (Eq. 2-3).
        """
        return other.from_world().compose(self.to_world())

    @staticmethod
    def from_transform(transform: RigidTransform) -> "Pose":
        """Recover a pose from a body-to-world rigid transform."""
        yaw, pitch, roll = matrix_to_euler(transform.rotation)
        return Pose(transform.translation.copy(), yaw, pitch, roll)

    def translated(self, delta: np.ndarray) -> "Pose":
        """Return a copy shifted by ``delta`` in the world frame."""
        return Pose(self.position + np.asarray(delta, dtype=float), self.yaw, self.pitch, self.roll)

    def distance_to(self, other: "Pose") -> float:
        """Euclidean distance between the two GPS positions (paper's delta-d)."""
        return float(np.linalg.norm(self.position - other.position))
