"""Demand-driven ROI requests (paper Sections II-C and IV-G).

"For object detection purpose, ROI data will be extracted whenever failure
detection happened on this area" — instead of shipping whole frames, a
vehicle identifies *where its own perception is weak* (sub-threshold
candidates, blind sectors behind occluders) and requests only those regions
from cooperators.  The cooperator answers with the matching crop of its own
cloud, typically a small fraction of a full frame: each region tests only
the rows inside its axis-aligned window
(:func:`repro.geometry.boxes.points_in_any_box`).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.detection.detections import Detection
from repro.geometry.boxes import Box3D, points_in_any_box
from repro.geometry.transforms import Pose
from repro.pointcloud.cloud import PointCloud, merge_clouds

__all__ = ["RoiRequest", "weak_regions", "answer_request"]


@dataclass(frozen=True)
class RoiRequest:
    """A request for cooperator data covering specific world regions.

    Attributes:
        regions: boxes (in the *requester's* sensor frame) where detection
            failed or was uncertain.
        requester_pose: the requester's measured pose, letting cooperators
            map the regions into their own frames.
    """

    regions: tuple[Box3D, ...]
    requester_pose: Pose

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(self.regions))

    @property
    def num_regions(self) -> int:
        """Number of requested regions."""
        return len(self.regions)


def weak_regions(
    all_candidates: Sequence[Detection],
    detection_threshold: float = 0.5,
    uncertainty_floor: float = 0.15,
    margin: float = 1.5,
) -> list[Box3D]:
    """Regions where the vehicle's own detection was weak.

    A candidate scoring in ``[uncertainty_floor, detection_threshold)`` is
    evidence of *something* the vehicle could not confirm — exactly the
    areas worth asking cooperators about.  Each yields its box grown by
    ``margin`` metres.
    """
    if not 0.0 <= uncertainty_floor < detection_threshold:
        raise ValueError("need 0 <= uncertainty_floor < detection_threshold")
    return [
        d.box.expanded(margin)
        for d in all_candidates
        if uncertainty_floor <= d.score < detection_threshold
    ]


def answer_request(
    request: RoiRequest,
    cooperator_cloud: PointCloud,
    cooperator_pose: Pose,
    margin: float = 0.0,
) -> PointCloud:
    """A cooperator's reply: its points inside the requested regions.

    The regions arrive in the requester's frame; they are mapped into the
    cooperator's frame before cropping, and the reply stays in the
    cooperator's frame (it travels inside a normal exchange package whose
    pose field lets the requester align it).
    """
    if request.num_regions == 0 or cooperator_cloud.is_empty():
        return PointCloud.empty(frame_id="roi-reply")
    to_cooperator = request.requester_pose.relative_to(cooperator_pose)
    regions = [region.transformed(to_cooperator) for region in request.regions]
    keep = points_in_any_box(cooperator_cloud.data, regions, margin=margin)
    return cooperator_cloud.select(keep, frame_id="roi-reply")


def fuse_reply(
    native: PointCloud,
    reply: PointCloud,
    cooperator_pose: Pose,
    receiver_pose: Pose,
) -> PointCloud:
    """Merge an ROI reply into the requester's cloud (Eq. 2 on a crop)."""
    aligned = reply.transformed(
        cooperator_pose.relative_to(receiver_pose), frame_id="roi-aligned"
    )
    return merge_clouds([native, aligned], frame_id="demand-cooperative")
