"""Per-proposal reference implementations of the analytic decode.

The detector refines and scores a cloud's proposals in flat array passes
over cell-sorted point indexes (:mod:`repro.detection.refine`,
:mod:`repro.detection.calibrate`).  These classes keep the
straightforward per-proposal form of the same maths — one loop iteration
per proposal, one ``_fit`` per gathered point set, one evidence
measurement per box — and replace every bounded lookup with an
independent one: the refiner's radius rounds query a ``cKDTree``, each
ground-shadow count reads the whole ground set, each box's evidence
reads every obstacle point, and cluster extents are measured over the
whole cloud.  Tests patch them into :mod:`repro.detection.spod` and
require byte-identical detections.

Each class counts its brute-force lookups in ``lookups``, so a test can
assert that the reference really ran.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.detection.calibrate import (
    BIAS,
    CAR_MAX_HEIGHT,
    COUNT_CAP,
    COUNT_WEIGHT,
    COVERAGE_BINS,
    COVERAGE_WEIGHT,
    FOOTPRINT_PAD,
    OVERRUN_PENALTY,
    TALL_PENALTY,
    BoxEvidence,
    ConfidenceCalibrator,
    _grid_labels,
)
from repro.detection.classes import classify_cluster
from repro.detection.refine import (
    GATHER_RADIUS,
    MEANSHIFT_ITERATIONS,
    MEANSHIFT_RADIUS,
    MIN_POINTS,
    SEED_RADIUS,
    BoxRefiner,
    Fit,
)
from repro.geometry.boxes import Box3D, points_in_box


class ReferenceRefiner(BoxRefiner):
    """Per-proposal refinement on a KD-tree; every ground-shadow count sees
    all ground."""

    lookups = 0

    def __init__(self, *args, ground_xy=None, **kwargs):
        super().__init__(*args, ground_xy=ground_xy, **kwargs)
        self._all_ground = None
        if ground_xy is not None and len(ground_xy[0]):
            self._all_ground = tuple(np.asarray(c, dtype=float) for c in ground_xy)
        self._tree = None
        if len(self._car_points):
            self._tree = cKDTree(self._car_points[:, :2])

    def refine_batch(self, proposals_xy) -> list[Fit | None]:
        n = len(proposals_xy)
        fits: list[Fit | None] = [None] * n
        if self._tree is None or n == 0:
            return fits
        centers = np.array([p[:2] for p in proposals_xy], dtype=float)
        seed_lists = self._tree.query_ball_point(
            centers, SEED_RADIUS, return_sorted=True
        )
        seed_clusters: list[np.ndarray | None] = [None] * n
        modes = centers.copy()
        shifting = np.zeros(n, dtype=bool)
        for i in range(n):
            seed_idx = np.asarray(seed_lists[i], dtype=int)
            if not len(seed_idx):
                continue
            distances = np.linalg.norm(
                self._car_points[seed_idx, :2] - centers[i], axis=1
            )
            cutoff = max(0.7, float(distances.min()) + 0.25)
            seed_clusters[i] = np.unique(
                self._clusters[seed_idx[distances <= cutoff]]
            )
            shifting[i] = True
        for _ in range(MEANSHIFT_ITERATIONS):
            live = np.flatnonzero(shifting)
            if not len(live):
                break
            near_lists = self._tree.query_ball_point(
                modes[live], MEANSHIFT_RADIUS, return_sorted=True
            )
            for j, i in enumerate(live):
                near = np.asarray(near_lists[j], dtype=int)
                near = near[np.isin(self._clusters[near], seed_clusters[i])]
                if len(near) < MIN_POINTS:
                    shifting[i] = False
                    continue
                new_mode = self._car_points[near, :2].mean(axis=0)
                if new_mode[0] == modes[i, 0] and new_mode[1] == modes[i, 1]:
                    shifting[i] = False
                modes[i] = new_mode
        seeded = [i for i in range(n) if seed_clusters[i] is not None]
        if not seeded:
            return fits
        gather_lists = self._tree.query_ball_point(
            modes[seeded], GATHER_RADIUS, return_sorted=True
        )
        for j, i in enumerate(seeded):
            idx = np.asarray(gather_lists[j], dtype=int)
            idx = idx[np.isin(self._clusters[idx], seed_clusters[i])]
            if len(idx) >= MIN_POINTS:
                fits[i] = self._fit(self._car_points[idx])
        return fits

    def _fit(self, local: np.ndarray) -> Fit:
        local_xy = local[:, :2]
        centroid = local_xy.mean(axis=0)
        centered = local_xy - centroid
        cov = centered.T @ centered / len(local_xy)
        eigenvalues, eigenvectors = np.linalg.eigh(cov)
        projected = centered @ eigenvectors
        spans = projected.max(axis=0) - projected.min(axis=0)
        height_span = float(local[:, 2].max() - self.ground_z)
        object_class = classify_cluster(float(spans[1]), float(spans[0]), height_span)
        length, width, height = object_class.template
        axis = eigenvectors[:, int(np.argmax(eigenvalues))]
        base_yaw = float(np.arctan2(axis[1], axis[0]))
        best = None
        for yaw in (base_yaw, base_yaw + np.pi / 2.0):
            boxes = [
                Box3D(
                    np.array([c[0], c[1], self.ground_z + height / 2.0]),
                    length,
                    width,
                    height,
                    yaw,
                )
                for c in l_shape_centers(local_xy, yaw, length, width, centroid)
            ]
            chosen = boxes[0]
            flipped = 0.0
            shadow = self._shadow(chosen)
            if len(boxes) == 2:
                shadow_mirrored = self._shadow(boxes[1])
                if shadow >= 8 and shadow_mirrored * 2 <= shadow:
                    chosen = boxes[1]
                    shadow = shadow_mirrored
                    flipped = 1.0
            inside = int(points_in_box(local, chosen, margin=0.1).sum())
            fitness = inside - 2 * (len(local) - inside)
            key = (fitness, -float(shadow), -flipped)
            if best is None or key > best[:3]:
                best = (fitness, -float(shadow), -flipped, chosen)
        return Fit(best[3], local, object_class)

    def _shadow(self, box: Box3D) -> int:
        type(self).lookups += 1
        return ground_points_under(self._all_ground, box)


def ground_points_under(ground, box: Box3D) -> int:
    """Ground returns ``(x, y)`` inside the footprint's interior (0.4 m in)."""
    if ground is None:
        return 0
    ground_x, ground_y = ground
    rx = ground_x - float(box.center[0])
    ry = ground_y - float(box.center[1])
    cos_y, sin_y = np.cos(-box.yaw), np.sin(-box.yaw)
    u = rx * cos_y - ry * sin_y
    v = rx * sin_y + ry * cos_y
    return int(
        (
            (np.abs(u) <= box.length / 2 - 0.4)
            & (np.abs(v) <= box.width / 2 - 0.4)
        ).sum()
    )


def l_shape_centers(xy, yaw, length, width, centroid) -> list[np.ndarray]:
    """Both slide directions' box centres for a partial view (deduplicated)."""
    c0, c1 = float(centroid[0]), float(centroid[1])
    cos_y, sin_y = float(np.cos(yaw)), float(np.sin(yaw))
    dx = xy[:, 0] - c0
    dy = xy[:, 1] - c1
    u = dx * cos_y + dy * sin_y
    v = dy * cos_y - dx * sin_y
    sensor_u = -c0 * cos_y - c1 * sin_y
    sensor_v = c0 * sin_y - c1 * cos_y
    norm = float(np.sqrt(sensor_u * sensor_u + sensor_v * sensor_v))
    if norm > 1e-9:
        unit_u, unit_v = sensor_u / norm, sensor_v / norm
    else:
        unit_u = unit_v = 0.0
    primary_uv = [0.0, 0.0]
    mirrored_uv = [0.0, 0.0]
    for axis, dim, unit, proj in ((0, length, unit_u, u), (1, width, unit_v, v)):
        lo, hi = float(proj.min()), float(proj.max())
        observed_mid = (lo + hi) / 2.0
        deficit = max(0.0, (dim - (hi - lo)) / 2.0)
        primary_uv[axis] = observed_mid - deficit * unit
        mirrored_uv[axis] = observed_mid + deficit * unit
    px = c0 + primary_uv[0] * cos_y - primary_uv[1] * sin_y
    py = c1 + primary_uv[0] * sin_y + primary_uv[1] * cos_y
    mx = c0 + mirrored_uv[0] * cos_y - mirrored_uv[1] * sin_y
    my = c1 + mirrored_uv[0] * sin_y + mirrored_uv[1] * cos_y
    if abs(px - mx) <= 1e-9 + 1e-5 * abs(mx) and abs(py - my) <= 1e-9 + 1e-5 * abs(my):
        return [np.array([px, py])]
    return [np.array([px, py]), np.array([mx, my])]


class ReferenceCalibrator(ConfidenceCalibrator):
    """Per-box scoring; every box reads evidence from all points, and the
    cluster extents come from one pass over the whole cloud."""

    lookups = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cluster_ids, self._cluster_extents, self._cluster_minors = (
            label_clusters(self.points[:, :2])
        )

    def score_batch(self, boxes, object_classes) -> np.ndarray:
        return np.array(
            [
                reference_score(self.reference_evidence(box), cls)
                for box, cls in zip(boxes, object_classes)
            ]
        )

    def reference_evidence(self, box: Box3D) -> BoxEvidence:
        type(self).lookups += 1
        if not len(self.points):
            return BoxEvidence(0, 0.0, 0, 0.0)
        rel = self.points[:, :2] - box.center[:2]
        cos_y, sin_y = np.cos(-box.yaw), np.sin(-box.yaw)
        u = rel[:, 0] * cos_y - rel[:, 1] * sin_y
        v = rel[:, 0] * sin_y + rel[:, 1] * cos_y
        in_footprint = (np.abs(u) <= box.length / 2 + FOOTPRINT_PAD) & (
            np.abs(v) <= box.width / 2 + FOOTPRINT_PAD
        )
        dz = self.points[:, 2] - box.center[2]
        in_column = in_footprint & (np.abs(dz - 2.0) <= (box.height + 6.0) / 2 + 0.1)
        tall_count = int(
            (self.points[in_column, 2] > self.ground_z + CAR_MAX_HEIGHT).sum()
        )
        inside = in_footprint & (np.abs(dz) <= box.height / 2 + 0.1)
        box_points = self.points[inside]
        if len(box_points) == 0:
            return BoxEvidence(0, 0.0, tall_count, 0.0)
        clusters = np.unique(self._cluster_ids[np.flatnonzero(inside)])
        thin = clusters[self._cluster_minors[clusters] < 1.0]
        overrun = 0.0
        if len(thin):
            extent = float(self._cluster_extents[thin].max())
            car_limit = float(np.hypot(box.length, box.width)) + 0.6
            overrun = max(0.0, extent - car_limit)
        rel = box_points[:, :2] - box.center[:2]
        azimuth = np.arctan2(rel[:, 1], rel[:, 0])
        bins = ((azimuth + np.pi) / (2 * np.pi) * COVERAGE_BINS).astype(int)
        bins = np.clip(bins, 0, COVERAGE_BINS - 1)
        occupied = np.count_nonzero(np.bincount(bins, minlength=COVERAGE_BINS))
        coverage = occupied / COVERAGE_BINS
        return BoxEvidence(int(len(box_points)), float(coverage), tall_count, overrun)


def reference_score(ev: BoxEvidence, object_class=None) -> float:
    """The calibrator's logistic model for one box, in scalars."""
    bias = BIAS
    count_cap = COUNT_CAP
    if object_class is not None:
        bias += object_class.bias_offset
        count_cap = min(count_cap, object_class.count_cap)
    logit = (
        COUNT_WEIGHT * np.log1p(min(ev.num_points, count_cap))
        + COVERAGE_WEIGHT * ev.coverage
        - TALL_PENALTY * np.log1p(ev.tall_count)
        - OVERRUN_PENALTY * ev.length_overrun
        - bias
    )
    return float(1.0 / (1.0 + np.exp(-np.clip(logit, -60, 60))))


def label_clusters(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cluster BEV points by grid connected components, measuring every
    cluster.

    Returns per-point cluster ids (``_grid_labels``) plus, per cluster, the
    extent along the principal axis and along the secondary axis.
    """
    if len(xy) == 0:
        return np.zeros(0, dtype=int), np.zeros(1), np.zeros(1)
    point_labels = _grid_labels(xy)
    num = int(point_labels.max()) + 1
    counts = np.bincount(point_labels, minlength=num)
    safe = np.maximum(counts, 1)
    mean_x = np.bincount(point_labels, weights=xy[:, 0], minlength=num) / safe
    mean_y = np.bincount(point_labels, weights=xy[:, 1], minlength=num) / safe
    cx = xy[:, 0] - mean_x[point_labels]
    cy = xy[:, 1] - mean_y[point_labels]
    a = np.bincount(point_labels, weights=cx * cx, minlength=num) / safe
    b = np.bincount(point_labels, weights=cx * cy, minlength=num) / safe
    c = np.bincount(point_labels, weights=cy * cy, minlength=num) / safe
    theta = 0.5 * np.arctan2(2.0 * b, a - c)
    ux, uy = np.cos(theta), np.sin(theta)
    proj_major = cx * ux[point_labels] + cy * uy[point_labels]
    proj_minor = cy * ux[point_labels] - cx * uy[point_labels]
    majors = np.zeros(num)
    minors = np.zeros(num)
    multi = counts >= 2
    if multi.any():
        hi = np.full(num, -np.inf)
        lo = np.full(num, np.inf)
        np.maximum.at(hi, point_labels, proj_major)
        np.minimum.at(lo, point_labels, proj_major)
        majors[multi] = (hi - lo)[multi]
        hi.fill(-np.inf)
        lo.fill(np.inf)
        np.maximum.at(hi, point_labels, proj_minor)
        np.minimum.at(lo, point_labels, proj_minor)
        minors[multi] = (hi - lo)[multi]
    return point_labels, majors, minors
