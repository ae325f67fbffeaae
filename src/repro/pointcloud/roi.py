"""Region-of-interest extraction and background subtraction (Section IV-G).

The networking feasibility study hinges on sending only the points a
cooperator actually needs: a full frame (ROI 1), a 120-degree front sector
(ROI 2), or a forward corridor along the driving path (ROI 3).  Background
structures (buildings, trees) that each vehicle can map for itself are
subtracted before transmission.

Both run once per frame over every point of a scan, so each box tests only
the rows inside its axis-aligned window
(:func:`repro.geometry.boxes.points_in_any_box`), and the sector crop wraps
azimuths with the array form of ``normalize_angle``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.geometry.boxes import Box3D, points_in_any_box, points_in_box
from repro.geometry.rotations import normalize_angles
from repro.pointcloud.cloud import PointCloud

__all__ = [
    "crop_range",
    "crop_sector",
    "crop_box",
    "forward_corridor",
    "subtract_background",
]


def crop_range(cloud: PointCloud, max_range: float, min_range: float = 0.0) -> PointCloud:
    """Keep points whose distance from the sensor is within the band."""
    if max_range <= min_range:
        raise ValueError("max_range must exceed min_range")
    r = cloud.ranges
    return cloud.select((r >= min_range) & (r <= max_range))


def crop_sector(
    cloud: PointCloud,
    fov_deg: float = 120.0,
    center_azimuth_deg: float = 0.0,
    max_range: float | None = None,
) -> PointCloud:
    """Keep points inside an azimuthal sector (ROI category 2).

    ``fov_deg`` is the full opening angle; the default 120 degrees matches
    the front-view camera alignment the paper uses.
    """
    if not 0 < fov_deg <= 360:
        raise ValueError("fov_deg must be in (0, 360]")
    azimuth = np.arctan2(cloud.xyz[:, 1], cloud.xyz[:, 0])
    center = np.deg2rad(center_azimuth_deg)
    half = np.deg2rad(fov_deg) / 2.0
    delta = np.abs(normalize_angles(azimuth - center))
    mask = delta <= half + 1e-6  # tolerance: float32 points on the boundary
    if max_range is not None:
        mask &= cloud.ranges <= max_range
    return cloud.select(mask)


def crop_box(cloud: PointCloud, box: Box3D, margin: float = 0.0) -> PointCloud:
    """Keep points inside an oriented box (per-object ROI extraction)."""
    return cloud.select(points_in_box(cloud.data, box, margin=margin))


def forward_corridor(
    cloud: PointCloud,
    length: float = 50.0,
    width: float = 8.0,
    height: float = 4.0,
) -> PointCloud:
    """Keep points in a forward corridor along +x (ROI category 3).

    Models the trailing-car case: only the leading car's forward field of
    view along the driving path is needed, a one-way transfer.
    """
    if min(length, width, height) <= 0:
        raise ValueError("corridor dimensions must be positive")
    corridor = Box3D(
        center=np.array([length / 2.0, 0.0, height / 2.0 - 2.0]),
        length=length,
        width=width,
        height=height,
        yaw=0.0,
    )
    return crop_box(cloud, corridor)


def subtract_background(
    cloud: PointCloud,
    background_boxes: Sequence[Box3D],
    margin: float = 0.2,
) -> PointCloud:
    """Remove points belonging to known static background volumes.

    The paper notes buildings and trees can be reconstructed by each
    vehicle after several mapping passes, so cooperators drop them before
    transmission.  We model the known background as a set of volumes.
    """
    if cloud.is_empty() or not background_boxes:
        return cloud
    return cloud.select(~points_in_any_box(cloud.data, background_boxes, margin))
