"""Point-evidence box refinement for RPN proposals.

The analytic inference path decodes a proposal by fitting a car-template
box to the obstacle points around the proposing BEV cell: re-centre on the
local centroid, orient along the principal axis of the local point spread,
and rest the box on the estimated ground.  This replaces the learned
regression head when SPOD runs with analytic weights (the learned head is
used when the network has been trained).

Refinement is *cluster-scoped*: points are first grouped into contiguous
structures (same grid clustering the calibrator uses), and a proposal only
fits to the cluster(s) directly under it.  Without this, a dense neighbour
two metres away drags the centroid off the actual object — visible as
detections "migrating" between adjacent parked cars on merged clouds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from repro.detection.anchors import CAR_ANCHOR_SIZE
from repro.detection.classes import CAR, ObjectClass, classify_cluster
from repro.geometry.boxes import Box3D, points_in_box

__all__ = ["BoxRefiner", "RefinementSpec", "Fit"]


@dataclass(frozen=True)
class Fit:
    """A refined proposal: the fitted box, its supporting points and class."""

    box: Box3D
    points: np.ndarray
    object_class: ObjectClass = CAR

    def __iter__(self):
        # Unpacks as (box, points) for backwards compatibility; the class
        # rides along as an attribute.
        yield self.box
        yield self.points


@dataclass(frozen=True)
class RefinementSpec:
    """Tuning knobs of the point-based box fit.

    Attributes:
        gather_radius: BEV radius (m) of points considered around a proposal.
        seed_radius: radius locating the cluster(s) under the proposal.
        multi_class: pick the box template per cluster shape
            (:func:`~repro.detection.classes.classify_cluster`); when False
            every fit uses ``template_size``.
        meanshift_radius: BEV radius (m) of each mean-shift round that
            moves a proposal onto its local density mode.
        meanshift_iterations: maximum number of mean-shift rounds.
        min_points: proposals with fewer local points are dropped.
        template_size: (l, w, h) of the fitted box (mean car) when
            ``multi_class`` is off.
    """

    gather_radius: float = 2.4
    seed_radius: float = 1.4
    multi_class: bool = True
    meanshift_radius: float = 1.5
    meanshift_iterations: int = 3
    min_points: int = 4
    template_size: tuple[float, float, float] = CAR_ANCHOR_SIZE


class BoxRefiner:
    """Fits car-template boxes to local obstacle points.

    Build once per cloud (it indexes the points in a KD-tree, labels
    structural clusters and sorts the ground returns by x), then call
    :meth:`refine` per proposal.
    """

    def __init__(
        self,
        obstacle_xyz: np.ndarray,
        ground_z: float,
        spec: RefinementSpec | None = None,
        ground_xy: np.ndarray | None = None,
    ) -> None:
        from repro.detection.calibrate import _label_clusters

        self.spec = spec or RefinementSpec()
        self.points = np.asarray(obstacle_xyz, dtype=float).reshape(-1, 3)
        self.ground_z = float(ground_z)
        # Ground returns disambiguate partial views: the ground beneath a
        # real vehicle is shadowed, so of two candidate box placements the
        # one covering fewer ground returns is the physical one.  A cloud
        # has ~50 such lookups against up to ~80k ground returns, so one
        # sort by x (a lookup is then an x-slab) beats building a KD-tree.
        self._ground_x = self._ground_y = None
        if ground_xy is not None and len(ground_xy):
            ground_xy = np.asarray(ground_xy, dtype=float).reshape(-1, 2)
            order = np.argsort(ground_xy[:, 0])
            self._ground_x = ground_xy[:, 0].take(order)
            self._ground_y = ground_xy[:, 1].take(order)
        # Cars live below ~2.3 m above ground; taller returns (walls, trees)
        # must not drag the fit.
        car_band = self.points[:, 2] <= self.ground_z + 2.3
        self._car_points = self.points[car_band]
        if len(self._car_points):
            self._tree = cKDTree(self._car_points[:, :2])
            self._clusters, _majors, _minors = _label_clusters(self._car_points[:, :2])
        else:
            self._tree = None
            self._clusters = np.zeros(0, dtype=int)

    def refine(self, proposal_xy: np.ndarray) -> Fit | None:
        """Fit a box near ``proposal_xy``.

        Returns a :class:`Fit` (unpacks as ``(box, local_points)``) or None
        when the neighbourhood is too sparse to support an object
        hypothesis.
        """
        return self.refine_batch([proposal_xy])[0]

    def refine_batch(self, proposals_xy) -> list[Fit | None]:
        """Fit boxes near each proposal; one entry per input, None = drop.

        Identical results to calling :meth:`refine` per proposal, but the
        KD-tree lookups (seed, each mean-shift round, gather) are issued
        as *vector* queries across all still-active proposals — the decode
        path hands over ~40 proposals per cloud, and per-call query
        overhead dominated the scalar version's profile.
        """
        spec = self.spec
        n = len(proposals_xy)
        fits: list[Fit | None] = [None] * n
        if self._tree is None or n == 0:
            return fits
        centers = np.array([p[:2] for p in proposals_xy], dtype=float)
        seed_lists = self._tree.query_ball_point(
            centers, spec.seed_radius, return_sorted=True
        )
        seed_clusters: list[np.ndarray | None] = [None] * n
        modes = centers.copy()
        shifting = np.zeros(n, dtype=bool)
        for i in range(n):
            seed_idx = np.asarray(seed_lists[i], dtype=int)
            if not len(seed_idx):
                continue
            # Adopt the *nearest* structure under the proposal, plus
            # anything almost as close — but not a neighbouring object that
            # merely grazes the seed radius (a pedestrian proposal must not
            # adopt the car parked 1.2 m away).
            distances = np.linalg.norm(
                self._car_points[seed_idx, :2] - centers[i], axis=1
            )
            cutoff = max(0.7, float(distances.min()) + 0.25)
            seed_clusters[i] = np.unique(
                self._clusters[seed_idx[distances <= cutoff]]
            )
            shifting[i] = True
        # Mean-shift with a sub-car radius: converge onto the local density
        # mode (one vehicle's own point mass) instead of the centroid of
        # whatever the proposal radius happens to cover.  Essential on
        # merged clouds, where two viewpoints can fuse a whole row of
        # parked cars into one connected cluster.
        for _ in range(spec.meanshift_iterations):
            live = np.flatnonzero(shifting)
            if not len(live):
                break
            near_lists = self._tree.query_ball_point(
                modes[live], spec.meanshift_radius, return_sorted=True
            )
            for j, i in enumerate(live):
                near = np.asarray(near_lists[j], dtype=int)
                near = near[_in_clusters(self._clusters[near], seed_clusters[i])]
                if len(near) < spec.min_points:
                    shifting[i] = False
                    continue
                new_mode = self._car_points[near, :2].mean(axis=0)
                if new_mode[0] == modes[i, 0] and new_mode[1] == modes[i, 1]:
                    # A fixed point: every further round would reproduce
                    # this exact mode, so the remaining queries are pure
                    # cost.
                    shifting[i] = False
                modes[i] = new_mode
        seeded = [i for i in range(n) if seed_clusters[i] is not None]
        if not seeded:
            return fits
        gather_lists = self._tree.query_ball_point(
            modes[seeded], spec.gather_radius, return_sorted=True
        )
        for j, i in enumerate(seeded):
            idx = np.asarray(gather_lists[j], dtype=int)
            idx = idx[_in_clusters(self._clusters[idx], seed_clusters[i])]
            if len(idx) >= spec.min_points:
                fits[i] = self._fit(self._car_points[idx])
        return fits

    def _fit(self, local: np.ndarray) -> Fit:
        """Fit a template box to the gathered local points of one proposal."""
        spec = self.spec
        local_xy = local[:, :2]
        # Extents (classification) and yaw share one principal-axis
        # analysis: both need the same centred covariance and its
        # eigendecomposition, so compute it once per proposal.
        centroid = local_xy.mean(axis=0)
        if len(local_xy) >= 2:
            centered = local_xy - centroid
            cov = centered.T @ centered / len(local_xy)
            eigenvalues, eigenvectors = np.linalg.eigh(cov)
            projected = centered @ eigenvectors
            spans = projected.max(axis=0) - projected.min(axis=0)
            major, minor = float(spans[1]), float(spans[0])
        else:
            major = minor = 0.0
        object_class = CAR
        if spec.multi_class:
            height_span = float(local[:, 2].max() - self.ground_z)
            object_class = classify_cluster(major, minor, height_span)
            length, width, height = object_class.template
        else:
            length, width, height = spec.template_size
        if len(local_xy) >= 3:
            axis = eigenvectors[:, int(np.argmax(eigenvalues))]
            base_yaw = float(np.arctan2(axis[1], axis[0]))
        else:
            base_yaw = 0.0
        # PCA orientation is ambiguous on merged clouds: a row of parked
        # cars fused into one cluster has its principal axis along the
        # *row*, perpendicular to every car in it.  Fit both orientations
        # and keep the box that explains the local points best (many
        # inside, few left out).  For partial views the L-shape slide
        # direction is itself ambiguous when the points were contributed by
        # a *cooperator* (the receiver-frame origin is not their sensor):
        # both slide directions are tried, tie-broken by the ground-shadow
        # test — the real vehicle sits where the ground shows no returns.
        yaw_candidates = [
            (yaw, _l_shape_centers(local_xy, yaw, length, width, centroid=centroid))
            for yaw in (base_yaw, base_yaw + np.pi / 2.0)
        ]
        ground = self._ground_neighborhood(yaw_candidates, length, width)
        best: tuple[float, float, float, Box3D] | None = None
        for yaw, candidates in yaw_candidates:
            boxes = [
                Box3D(
                    np.array([c[0], c[1], self.ground_z + height / 2.0]),
                    length,
                    width,
                    height,
                    yaw,
                )
                for c in candidates
            ]
            chosen = boxes[0]
            flipped = 0.0
            shadow = _ground_points_under(ground, chosen)
            if len(boxes) == 2:
                # Override the receiver-as-sensor slide only on decisive
                # ground evidence: many returns under the default placement
                # and clearly fewer under the mirrored one.  Doubly-shadowed
                # ground (occluders on both sides) must not flip the box.
                shadow_mirrored = _ground_points_under(ground, boxes[1])
                if shadow >= 8 and shadow_mirrored * 2 <= shadow:
                    chosen = boxes[1]
                    shadow = shadow_mirrored
                    flipped = 1.0
            inside = int(points_in_box(local, chosen, margin=0.1).sum())
            fitness = inside - 2 * (len(local) - inside)
            # Orientation choice: best point fit first; then the placement
            # whose footprint shadows the ground (a box sticking out over
            # visible ground has the wrong yaw for this cluster); finally,
            # prefer an unflipped candidate — where ground sampling is too
            # sparse to decide, the receiver-as-sensor slide is the prior.
            key = (fitness, -float(shadow), -flipped)
            if best is None or key > best[:3]:
                best = (fitness, -float(shadow), -flipped, chosen)
        return Fit(best[3], local, object_class)

    def _ground_neighborhood(
        self,
        yaw_candidates: list,
        length: float,
        width: float,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Ground returns ``(x, y)`` covering every candidate footprint of one fit.

        Returns the ground inside the axis-aligned rectangle that holds
        each candidate centre's footprint circumcircle: a superset of
        every footprint, so :func:`_ground_points_under` counts exactly
        what it would over the whole ground set.  The rectangle's x-range
        is a slice of the sorted ground; its y-range filters that slab.
        """
        if self._ground_x is None:
            return None
        reach = float(np.hypot(length, width)) / 2.0
        xs = [float(c[0]) for _yaw, candidates in yaw_candidates for c in candidates]
        ys = [float(c[1]) for _yaw, candidates in yaw_candidates for c in candidates]
        lo = int(np.searchsorted(self._ground_x, min(xs) - reach, side="left"))
        hi = int(np.searchsorted(self._ground_x, max(xs) + reach, side="right"))
        x = self._ground_x[lo:hi]
        y = self._ground_y[lo:hi]
        keep = (y >= min(ys) - reach) & (y <= max(ys) + reach)
        return x[keep], y[keep]


def _ground_points_under(
    ground: tuple[np.ndarray, np.ndarray] | None, box: Box3D
) -> int:
    """Ground returns inside the box footprint.

    ``ground`` holds the x and y of a superset of the footprint's ground
    returns (see :meth:`BoxRefiner._ground_neighborhood`); None means no
    ground data.  Interior only (negative margin): returns hugging the box
    *edges* are object-face points grazing the ground band, not open
    ground.  The test is purely planar — the z comparison is vacuous for
    ground returns — so only the footprint rotation is computed.
    """
    if ground is None:
        return 0
    ground_x, ground_y = ground
    cx, cy = float(box.center[0]), float(box.center[1])
    rx = ground_x - cx
    ry = ground_y - cy
    cos_y, sin_y = np.cos(-box.yaw), np.sin(-box.yaw)
    u = rx * cos_y - ry * sin_y
    v = rx * sin_y + ry * cos_y
    return int(
        (
            (np.abs(u) <= box.length / 2 - 0.4)
            & (np.abs(v) <= box.width / 2 - 0.4)
        ).sum()
    )


def _in_clusters(labels: np.ndarray, seed_clusters: np.ndarray) -> np.ndarray:
    """Membership mask of ``labels`` in ``seed_clusters``.

    Equivalent to ``np.isin`` but skips its sort-based machinery for the
    common few-seed-cluster cases (a proposal usually sits on one or two
    structures), which profile hot inside refine.
    """
    if len(seed_clusters) == 1:
        return labels == seed_clusters[0]
    if len(seed_clusters) <= 4:
        mask = labels == seed_clusters[0]
        for cluster in seed_clusters[1:]:
            mask |= labels == cluster
        return mask
    return np.isin(labels, seed_clusters)


def _l_shape_centers(
    xy: np.ndarray,
    yaw: float,
    length: float,
    width: float,
    centroid: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Candidate box centres for a partial view: both slide directions.

    A LiDAR sees only the faces turned towards it, so the raw centroid sits
    *on* those faces rather than at the vehicle centre.  In the box's yaw
    frame, wherever the observed extent along an axis falls short of the
    template dimension, the centre moves by half the shortfall.  The first
    candidate moves away from the sensor at the frame origin (the
    receiver-as-sensor assumption), scaled by the sensor direction's unit
    component so that a face-on view does not flip a half-car shift.  The
    second moves the opposite way (correct when the points came from a
    cooperator on the far side).  Identical candidates (full views, no
    deficit) are deduplicated.

    Both candidates share every intermediate (centroid, yaw frame,
    observed extents); only the final slide direction differs.  The maths
    is kept in scalars — this runs twice per proposal and array-op
    overhead on 2-vectors dominated its profile.
    """
    if centroid is None:
        centroid = xy.mean(axis=0)
    c0, c1 = float(centroid[0]), float(centroid[1])
    cos_y, sin_y = float(np.cos(yaw)), float(np.sin(yaw))
    dx = xy[:, 0] - c0
    dy = xy[:, 1] - c1
    u = dx * cos_y + dy * sin_y
    v = dy * cos_y - dx * sin_y
    # The sensor sits at the frame origin; project it into the yaw frame.
    sensor_u = -c0 * cos_y - c1 * sin_y
    sensor_v = c0 * sin_y - c1 * cos_y
    norm = float(np.sqrt(sensor_u * sensor_u + sensor_v * sensor_v))
    if norm > 1e-9:
        unit_u, unit_v = sensor_u / norm, sensor_v / norm
    else:
        unit_u = unit_v = 0.0
    primary_uv = [0.0, 0.0]
    mirrored_uv = [0.0, 0.0]
    for axis, dim, unit, proj in (
        (0, length, unit_u, u),
        (1, width, unit_v, v),
    ):
        lo, hi = float(proj.min()), float(proj.max())
        observed_mid = (lo + hi) / 2.0
        deficit = max(0.0, (dim - (hi - lo)) / 2.0)
        primary_uv[axis] = observed_mid - deficit * unit
        mirrored_uv[axis] = observed_mid + deficit * unit
    px = c0 + primary_uv[0] * cos_y - primary_uv[1] * sin_y
    py = c1 + primary_uv[0] * sin_y + primary_uv[1] * cos_y
    mx = c0 + mirrored_uv[0] * cos_y - mirrored_uv[1] * sin_y
    my = c1 + mirrored_uv[0] * sin_y + mirrored_uv[1] * cos_y
    # Same tolerance semantics as np.allclose(primary, mirrored, atol=1e-9)
    # without its (measurably slow) broadcasting machinery.
    if abs(px - mx) <= 1e-9 + 1e-5 * abs(mx) and abs(py - my) <= 1e-9 + 1e-5 * abs(my):
        return [np.array([px, py])]
    return [np.array([px, py]), np.array([mx, my])]
