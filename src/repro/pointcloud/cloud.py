"""The :class:`PointCloud` container and merge operation (paper Eq. 2).

A point cloud is an ``(N, 4)`` float32 array: ``x, y, z`` in metres in the
owning vehicle's LiDAR frame plus a reflectance in ``[0, 1]``.  Merging two
clouds — the union of Eq. (2) — is a simple concatenation once the
transmitter's points have been transformed into the receiver's frame.

Every point of a frame passes through these accessors, so they work per
column: numpy reduces a narrow ``(N, 3)`` array along axis 0 and indexes
rows with a boolean mask at several times the cost of the same work done
one column at a time (``ranges``, ``bounds``) or with ``np.compress`` /
``take`` (``select``).  The results equal the axis-wise forms exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.geometry.transforms import RigidTransform

__all__ = ["PointCloud", "merge_clouds"]


class PointCloud:
    """An immutable-by-convention LiDAR point cloud.

    Attributes:
        data: ``(N, 4)`` float32 array of ``x, y, z, reflectance``.
        frame_id: name of the coordinate frame the points live in (useful
            when debugging fusion: "car1", "car2/aligned-to-car1", ...).
    """

    __slots__ = ("data", "frame_id")

    def __init__(self, data: np.ndarray, frame_id: str = "lidar") -> None:
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 2 or data.shape[1] not in (3, 4):
            raise ValueError(
                f"expected an (N, 3) or (N, 4) array, got shape {data.shape}"
            )
        if data.shape[1] == 3:
            data = np.column_stack(
                [data, np.zeros(len(data), dtype=np.float32)]
            )
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.frame_id = frame_id

    # -- construction ----------------------------------------------------
    @staticmethod
    def empty(frame_id: str = "lidar") -> "PointCloud":
        """An empty cloud."""
        return PointCloud(np.zeros((0, 4), dtype=np.float32), frame_id)

    @staticmethod
    def from_xyz(
        xyz: np.ndarray,
        reflectance: np.ndarray | None = None,
        frame_id: str = "lidar",
    ) -> "PointCloud":
        """Build from separate coordinate and reflectance arrays."""
        xyz = np.asarray(xyz, dtype=np.float32).reshape(-1, 3)
        if reflectance is None:
            reflectance = np.zeros(len(xyz), dtype=np.float32)
        reflectance = np.asarray(reflectance, dtype=np.float32).reshape(-1)
        if len(reflectance) != len(xyz):
            raise ValueError("xyz and reflectance lengths differ")
        return PointCloud(np.column_stack([xyz, reflectance]), frame_id)

    # -- basic accessors -------------------------------------------------
    def __len__(self) -> int:
        return len(self.data)

    @property
    def xyz(self) -> np.ndarray:
        """The ``(N, 3)`` coordinate block (a view, do not mutate)."""
        return self.data[:, :3]

    @property
    def reflectance(self) -> np.ndarray:
        """The ``(N,)`` reflectance column (a view, do not mutate)."""
        return self.data[:, 3]

    @property
    def ranges(self) -> np.ndarray:
        """Euclidean distance of each point from the frame origin.

        ``sqrt((x*x + y*y) + z*z)`` in float32: the order in which
        ``np.linalg.norm(xyz, axis=1)`` adds, so the two agree bit for bit.
        """
        x, y, z = self.data[:, 0], self.data[:, 1], self.data[:, 2]
        return np.sqrt((x * x + y * y) + z * z)

    def is_empty(self) -> bool:
        """True when the cloud holds no points."""
        return len(self.data) == 0

    # -- transforms ------------------------------------------------------
    def transformed(
        self, transform: RigidTransform, frame_id: str | None = None
    ) -> "PointCloud":
        """Return a new cloud with coordinates mapped by ``transform``.

        Reflectance is viewpoint-independent and carried through unchanged.
        """
        if self.is_empty():
            return PointCloud.empty(frame_id or self.frame_id)
        new_xyz = transform.apply(self.data[:, :3].astype(float))
        return PointCloud.from_xyz(
            new_xyz, self.data[:, 3], frame_id or self.frame_id
        )

    def select(self, mask: np.ndarray, frame_id: str | None = None) -> "PointCloud":
        """Return the sub-cloud selected by a boolean mask or index array.

        The rows, their order and the C-contiguous float32 copy equal
        ``data[mask]``; ``np.compress`` (masks) and ``take`` (index arrays)
        make that copy several times faster.
        """
        mask = np.asarray(mask)
        if mask.dtype != bool:
            rows = self.data.take(mask, axis=0)
        elif mask.shape == (len(self.data),):
            rows = np.compress(mask, self.data, axis=0)
        else:
            raise IndexError(
                f"mask of shape {mask.shape} does not match {len(self.data)} points"
            )
        return PointCloud(rows, frame_id or self.frame_id)

    def subsampled(self, max_points: int, seed: int = 0) -> "PointCloud":
        """Return at most ``max_points`` points, sampled without replacement."""
        if max_points < 0:
            raise ValueError("max_points must be non-negative")
        if len(self) <= max_points:
            return self
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self), size=max_points, replace=False)
        idx.sort()
        return self.select(idx)

    def concat(self, other: "PointCloud", frame_id: str | None = None) -> "PointCloud":
        """Concatenate two clouds assumed to share a frame."""
        return PointCloud(
            np.vstack([self.data, other.data]), frame_id or self.frame_id
        )

    # -- stats -----------------------------------------------------------
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(min_xyz, max_xyz)``; raises on an empty cloud.

        Reduced per column: min and max are exact in any order and a NaN
        propagates within its column, so this equals
        ``xyz.min(axis=0), xyz.max(axis=0)``.
        """
        if self.is_empty():
            raise ValueError("empty cloud has no bounds")
        columns = (self.data[:, 0], self.data[:, 1], self.data[:, 2])
        return (
            np.array([c.min() for c in columns]),
            np.array([c.max() for c in columns]),
        )

    def size_bytes(self, bytes_per_point: int = 16) -> int:
        """Raw (uncompressed) size: 4 float32 fields per point by default."""
        return len(self) * bytes_per_point

    def __repr__(self) -> str:
        return f"PointCloud(n={len(self)}, frame={self.frame_id!r})"


def merge_clouds(
    clouds: Sequence[PointCloud] | Iterable[PointCloud],
    frame_id: str = "merged",
) -> PointCloud:
    """Union of already-aligned clouds (paper Eq. 2).

    All inputs must already be expressed in the receiver's frame; the
    alignment itself lives in :mod:`repro.fusion.align`.
    """
    clouds = list(clouds)
    if not clouds:
        return PointCloud.empty(frame_id)
    return PointCloud(np.vstack([c.data for c in clouds]), frame_id)
