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
    "CORRIDOR_HEIGHT_M",
    "CORRIDOR_LENGTH_M",
    "CORRIDOR_WIDTH_M",
    "SECTOR_FOV_DEG",
    "crop_sector",
    "crop_box",
    "forward_corridor",
    "subtract_background",
]

#: Full opening angle of the front sector (ROI category 2): the
#: front-view camera alignment the paper uses.
SECTOR_FOV_DEG = 120.0

#: The forward corridor (ROI category 3) along +x from the sensor, metres.
CORRIDOR_LENGTH_M = 50.0
CORRIDOR_WIDTH_M = 8.0
CORRIDOR_HEIGHT_M = 4.0


def crop_sector(cloud: PointCloud) -> PointCloud:
    """Keep points inside the :data:`SECTOR_FOV_DEG` sector centred on +x
    (ROI category 2), at any range."""
    azimuth = np.arctan2(cloud.xyz[:, 1], cloud.xyz[:, 0])
    half = np.deg2rad(SECTOR_FOV_DEG) / 2.0
    delta = np.abs(normalize_angles(azimuth))
    mask = delta <= half + 1e-6  # tolerance: float32 points on the boundary
    return cloud.select(mask)


def crop_box(cloud: PointCloud, box: Box3D, margin: float = 0.0) -> PointCloud:
    """Keep points inside an oriented box (per-object ROI extraction)."""
    return cloud.select(points_in_box(cloud.data, box, margin=margin))


def forward_corridor(cloud: PointCloud) -> PointCloud:
    """Keep points in the forward corridor along +x (ROI category 3).

    Models the trailing-car case: only the leading car's forward field of
    view along the driving path is needed, a one-way transfer.
    """
    corridor = Box3D(
        center=np.array(
            [CORRIDOR_LENGTH_M / 2.0, 0.0, CORRIDOR_HEIGHT_M / 2.0 - 2.0]
        ),
        length=CORRIDOR_LENGTH_M,
        width=CORRIDOR_WIDTH_M,
        height=CORRIDOR_HEIGHT_M,
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
