"""Alignment diagnostics and misaligned-package gating.

Section II-B: "the detected results from other cars are hard to
authenticate and trust issues further complicate this matter".  Raw-data
exchange gives the receiver something object lists never can: the received
points must *physically agree* with its own where the views overlap.  The
residual measured here — an upper-quartile nearest-neighbour distance from
the aligned cooperator structure to the native structure in the overlap —
is small (sensor-noise scale) for an honest, well-localised cooperator and
grows directly with GPS/IMU error or a fabricated cloud.  Gating on it
lets :class:`~repro.fusion.cooper.Cooper` quarantine bad packages instead
of corrupting its merged frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from repro.fusion.align import align_package
from repro.fusion.package import ExchangePackage
from repro.geometry.transforms import Pose
from repro.pointcloud.cloud import PointCloud

__all__ = [
    "RESIDUAL_THRESHOLD_M",
    "AlignmentReport",
    "alignment_residual",
    "validate_package",
]

#: Alignment residual (metres) above which a package is inconsistent: well
#: above combined sensor noise plus in-spec GPS/IMU error (~0.1-0.2 m
#: residual) and well below what a metre-scale localisation fault produces.
RESIDUAL_THRESHOLD_M = 0.35


@dataclass(frozen=True)
class AlignmentReport:
    """Outcome of checking one aligned cloud against the native one.

    Attributes:
        residual: 80th-percentile nearest-neighbour distance (metres) in
            the overlap region; ``inf`` when there is no overlap to judge.
        overlap_points: how many received points fell inside the native
            cloud's neighbourhood and contributed to the residual.
        consistent: residual at or below :data:`RESIDUAL_THRESHOLD_M`.
    """

    residual: float
    overlap_points: int
    consistent: bool


def alignment_residual(
    native: PointCloud,
    aligned: PointCloud,
    overlap_radius: float = 1.5,
    max_samples: int = 2000,
    seed: int = 0,
) -> tuple[float, int]:
    """Upper-quartile NN distance from aligned points to the native cloud.

    Only aligned points with *some* native structure within
    ``overlap_radius`` count — regions the receiver cannot see are exactly
    what cooperation adds and must not be penalised.  Returns
    ``(residual, overlap_count)``; ``(inf, 0)`` without usable overlap.
    """
    from repro.detection.preprocess import remove_ground

    if native.is_empty() or aligned.is_empty():
        return float("inf"), 0
    # Ground is a self-similar plane: a mislocalised cloud's ground still
    # lands on ground, hiding the error.  Judge *structure* only, and in
    # BEV — vertical beam-ring offsets between two viewpoints are sampling
    # artefacts, while lateral disagreement is exactly the fault signal.
    native_structure, ground_z = remove_ground(native)
    aligned_structure, _ = remove_ground(aligned, ground_z=ground_z)
    if native_structure.is_empty() or aligned_structure.is_empty():
        return float("inf"), 0
    sample = aligned_structure.subsampled(max_samples, seed=seed)
    tree = cKDTree(native_structure.xyz[:, :2])
    distances, _ = tree.query(sample.xyz[:, :2])
    in_overlap = distances <= overlap_radius
    count = int(in_overlap.sum())
    if count < 30:
        return float("inf"), count
    # Upper-quartile rather than median: self-similar structure (walls
    # along the error direction, periodic parking rows) lets *most* points
    # re-match something, but a localisation fault always strands a
    # substantial tail of structure in empty space.
    return float(np.percentile(distances[in_overlap], 80)), count


def validate_package(
    native: PointCloud, package: ExchangePackage, receiver_pose: Pose
) -> AlignmentReport:
    """Check a received package's physical consistency with the native scan.

    Packages with *no* overlap cannot be checked; they are accepted (their
    content is additive-only) with ``residual = inf`` and
    ``overlap_points = 0``.
    """
    aligned = align_package(package, receiver_pose)
    residual, overlap = alignment_residual(native, aligned)
    if overlap == 0:
        return AlignmentReport(residual, overlap, consistent=True)
    return AlignmentReport(residual, overlap, residual <= RESIDUAL_THRESHOLD_M)
