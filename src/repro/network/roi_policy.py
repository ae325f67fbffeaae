"""Region-of-interest exchange categories (paper Fig. 11).

Three situations, three data shapes:

1. **FULL_FRAME** — opposite-direction traffic separated only by a lane
   divider: "we transfer the entirety of the frame of LiDAR data", the most
   costly case (~1.8 Mbit/frame compressed for a 16-beam scan).
2. **FRONT_SECTOR** — junctions where cars face each other: only the
   driver-perspective 120-degree field of view, exchanged both ways.
3. **FORWARD_CORRIDOR** — a trailing car asking its leader for the road
   ahead: a narrow corridor, transferred one way only.

Background (buildings, trees) that the recipient can map for itself is
subtracted before transmission in every category.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Sequence

from repro.geometry.boxes import Box3D
from repro.pointcloud.cloud import PointCloud
from repro.pointcloud.roi import crop_sector, forward_corridor, subtract_background
from repro.profiling import PROFILER

__all__ = ["RoiCategory", "RoiPolicy", "extract_roi"]


class RoiCategory(enum.Enum):
    """The three exchange categories of Fig. 11."""

    FULL_FRAME = 1
    FRONT_SECTOR = 2
    FORWARD_CORRIDOR = 3

    @property
    def bidirectional(self) -> bool:
        """Whether both vehicles transmit (categories 1 and 2) or one (3)."""
        return self is not RoiCategory.FORWARD_CORRIDOR


@dataclass(frozen=True)
class RoiPolicy:
    """Parameters of the ROI extraction.

    Attributes:
        category: which Fig. 11 situation applies; FRONT_SECTOR keeps the
            paper's 120-degree sector and FORWARD_CORRIDOR a 50 x 8 m
            corridor (the defaults of :func:`crop_sector` and
            :func:`forward_corridor`).
        subtract_known_background: drop mapped static structure first.
        exchange_rate_hz: how often packages are sent (the paper settles
            on 1 Hz as sufficient).
    """

    category: RoiCategory = RoiCategory.FULL_FRAME
    subtract_known_background: bool = True
    exchange_rate_hz: float = 1.0

    def __post_init__(self) -> None:
        if self.exchange_rate_hz <= 0:
            raise ValueError("exchange rate must be positive")


def extract_roi(
    cloud: PointCloud,
    policy: RoiPolicy,
    background_boxes: Sequence[Box3D] = (),
) -> PointCloud:
    """Apply an ROI policy to a sender's cloud (sender's LiDAR frame)."""
    with PROFILER.stage("roi.extract"):
        working = cloud
        if policy.subtract_known_background and background_boxes:
            working = subtract_background(working, list(background_boxes))
        if policy.category is RoiCategory.FULL_FRAME:
            return working
        if policy.category is RoiCategory.FRONT_SECTOR:
            return crop_sector(working)
        if policy.category is RoiCategory.FORWARD_CORRIDOR:
            return forward_corridor(working)
        raise AssertionError(f"unhandled category {policy.category}")
