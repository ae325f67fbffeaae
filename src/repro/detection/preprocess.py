"""SPOD preprocessing: range crop, ground estimation/removal, densification.

The paper projects clouds onto a sphere (the [27] representation) "to
obtain a more compact representation" before voxelisation.  We expose that
projection as an optional densification step and always perform the two
steps every LiDAR detector needs: cropping to the detection range and
separating ground returns from obstacle returns.  A range crop that keeps
every point returns the input cloud rather than a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pointcloud.cloud import PointCloud
from repro.pointcloud.spherical import spherical_project

__all__ = ["PreprocessResult", "estimate_ground_z", "remove_ground", "preprocess"]


@dataclass
class PreprocessResult:
    """Output of :func:`preprocess`.

    Attributes:
        obstacles: the non-ground points fed to the voxeliser.
        ground_z: the estimated ground height (sensor frame), needed later
            by the confidence calibrator to measure height above ground.
        full: the cropped cloud before ground removal.
    """

    obstacles: PointCloud
    ground_z: float
    full: PointCloud


def estimate_ground_z(cloud: PointCloud, percentile: float = 5.0) -> float:
    """Estimate the ground-plane height as a low percentile of point z.

    With the sensor mounted ~1.7 m above a flat road the ground dominates
    the low-z tail, so a low percentile is a robust estimator even when
    the cloud merges scans from two vehicles with slightly different GPS
    altitudes.
    """
    if cloud.is_empty():
        return 0.0
    return float(np.percentile(cloud.xyz[:, 2], percentile))


def remove_ground(
    cloud: PointCloud, ground_z: float | None = None, clearance: float = 0.25
) -> tuple[PointCloud, float]:
    """Drop points within ``clearance`` of the (estimated) ground plane."""
    if ground_z is None:
        ground_z = estimate_ground_z(cloud)
    keep = cloud.xyz[:, 2] > ground_z + clearance
    return cloud.select(keep), ground_z


def preprocess(
    cloud: PointCloud,
    max_range: float = 100.0,
    ground_clearance: float = 0.25,
    densify: bool = False,
    densify_shape: tuple[int, int] = (64, 1024),
) -> PreprocessResult:
    """Run SPOD's preprocessing stage.

    When ``densify`` is set, the cloud is round-tripped through the
    spherical projection of [27]: points collapse onto a regular (beam,
    azimuth) grid, deduplicating returns and normalising clouds from
    different beam counts onto one representation.

    When every point is within ``max_range`` (and densify is off),
    ``full`` is ``cloud`` itself, not a copy: consumers only read it.
    """
    keep = cloud.ranges <= max_range
    cropped = cloud if keep.all() else cloud.select(keep)
    if densify and not cropped.is_empty():
        projection = spherical_project(
            cropped, height=densify_shape[0], width=densify_shape[1]
        )
        cropped = projection.to_cloud(frame_id=cloud.frame_id)
    obstacles, ground_z = remove_ground(cropped, clearance=ground_clearance)
    return PreprocessResult(obstacles=obstacles, ground_z=ground_z, full=cropped)
