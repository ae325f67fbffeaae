"""Detection <-> ground-truth matching.

One-to-one assignment by BEV centre distance (Hungarian algorithm via
scipy), with a gating radius: a detection farther than the gate from every
ground-truth car is a false positive.  Centre-distance gating is the right
metric here because the analytic SPOD path fits template-sized boxes — what
the paper's grids report is *which* cars were found and with what score,
not box tightness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.detection.detections import Detection
from repro.geometry.boxes import Box3D

__all__ = ["MatchResult", "match_detections", "in_eval_area"]

_UNMATCHABLE = 1e6


def in_eval_area(
    box: Box3D, point_range: tuple[float, ...], max_eval_range: float
) -> bool:
    """True when a ground-truth box can be scored from the sensor origin.

    Its BEV centre must lie inside the detector's ``point_range`` crop and
    within ``max_eval_range`` metres of the sensor (the box is in the
    sensor frame).
    """
    x, y = box.center[:2]
    r = point_range
    if not (r[0] <= x <= r[3] and r[1] <= y <= r[4]):
        return False
    return float(np.hypot(x, y)) <= max_eval_range


@dataclass
class MatchResult:
    """Outcome of matching detections to ground truth.

    Attributes:
        assignments: gt index -> detection index for every matched pair.
        gt_scores: per-gt detection score (0.0 where unmatched).
        unmatched_gt: indices of ground-truth boxes nobody claimed.
        false_positives: detection indices matched to nothing.
    """

    assignments: dict[int, int] = field(default_factory=dict)
    gt_scores: np.ndarray = field(default_factory=lambda: np.zeros(0))
    unmatched_gt: list[int] = field(default_factory=list)
    false_positives: list[int] = field(default_factory=list)

    @property
    def num_matched(self) -> int:
        """Count of matched ground-truth objects."""
        return len(self.assignments)


def match_detections(
    detections: list[Detection],
    ground_truth: list[Box3D],
    gate_distance: float = 2.5,
) -> MatchResult:
    """Assign detections to ground-truth boxes one-to-one.

    Cost is BEV centre distance; pairs farther apart than ``gate_distance``
    can never match.
    """
    if gate_distance <= 0:
        raise ValueError("gate_distance must be positive")
    result = MatchResult(gt_scores=np.zeros(len(ground_truth)))
    if not detections or not ground_truth:
        result.unmatched_gt = list(range(len(ground_truth)))
        result.false_positives = list(range(len(detections)))
        return result

    det_centers = np.array([d.box.center[:2] for d in detections])
    gt_centers = np.array([b.center[:2] for b in ground_truth])
    cost = np.linalg.norm(
        gt_centers[:, None, :] - det_centers[None, :, :], axis=-1
    )
    cost = np.where(cost <= gate_distance, cost, _UNMATCHABLE)
    rows, cols = linear_sum_assignment(cost)
    matched_dets: set[int] = set()
    for gt_idx, det_idx in zip(rows, cols):
        if cost[gt_idx, det_idx] >= _UNMATCHABLE:
            continue
        result.assignments[int(gt_idx)] = int(det_idx)
        result.gt_scores[gt_idx] = detections[det_idx].score
        matched_dets.add(int(det_idx))
    result.unmatched_gt = [
        i for i in range(len(ground_truth)) if i not in result.assignments
    ]
    result.false_positives = [
        i for i in range(len(detections)) if i not in matched_dets
    ]
    return result
