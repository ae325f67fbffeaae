"""Point-evidence confidence calibration.

The paper's detection scores (Figs. 3, 6) track how much LiDAR evidence an
object has: dense, multi-view objects score high; objects with "scarcity or
blockage of point clouds" fall below the reporting threshold and show as X.
The calibrator makes that relationship explicit: the final confidence is a
logistic function of

* the log point count inside the candidate box (evidence quantity),
* the angular coverage of those points around the box centre — which is
  exactly what a second viewpoint improves,
* a penalty for returns *above car height* over the footprint (walls,
  trees and trucks carry mass where no car has any), and
* a penalty for structure that continues contiguously past a car's length
  in any direction (walls and trucks are long and unbroken; rows of parked
  cars are broken by the gaps between vehicles and survive).

The score is deliberately *monotone in evidence*, which is why Cooper's
merged clouds raise it: merging adds points (count term) and new viewing
angles (coverage term).

The structural clusters come from a grid labelling (``_grid_labels``) that
the box refiner shares; only the calibrator measures cluster shapes, and
only those of the clusters under scored boxes (``_cluster_extents``).

Every neighbour lookup of the analytic decode goes through one index type,
``_CellIndex``: BEV points bucketed by square cell, read back as one flat
``(index, owner)`` array per batch of query rectangles.  A cloud's
distinct boxes are scored in one pass
(:meth:`ConfidenceCalibrator.score_batch`): one lookup gathers the cells
under every box's footprint, and each evidence term is a segment
operation over the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.boxes import Box3D

__all__ = ["ConfidenceCalibrator", "BoxEvidence"]

#: No real car carries LiDAR mass this far above the ground.
CAR_MAX_HEIGHT = 2.0

#: Padding (m) of the box footprint that every evidence term reads.
FOOTPRINT_PAD = 0.1

#: Widening (m) of a footprint's bounding rectangle in the neighbour lookup,
#: far above float64 rounding in the footprint test.
LOOKUP_SLACK = 1e-3

#: Cell size (m) of the obstacle-point indexes.  SPOD's preprocess keeps
#: points within 108 m, at most 217 x 217 cells, so keys sort by radix.
LOOKUP_CELL = 1.0

#: Grid cell size for structural clustering.  With 8-connected labelling,
#: sub-cell gaps merge (one physical object) while the >1 m spaces between
#: parked cars stay separate.
CLUSTER_CELL = 0.35

# The logistic model's weights.  They are calibrated so that typical
# single-shot scores land in the paper's reported 0.5-0.9 band, objects
# with under ~40 supporting points fall below the 0.5 reporting
# threshold, and doubling the evidence (one extra viewpoint) raises the
# score by roughly 10%.
COUNT_WEIGHT = 0.6
COVERAGE_WEIGHT = 1.2
TALL_PENALTY = 1.0
OVERRUN_PENALTY = 1.2
BIAS = 2.5
#: Point count past which more evidence no longer raises the score.
COUNT_CAP = 500
#: Azimuth bins of the coverage term.
COVERAGE_BINS = 8


@dataclass
class BoxEvidence:
    """The raw evidence features for one candidate box.

    Attributes:
        num_points: obstacle points inside the box.
        coverage: fraction of azimuth bins (around the box centre) occupied.
        tall_count: footprint-column points above car height.
        length_overrun: metres by which the contiguous structure through
            the box exceeds a car's bounding-diagonal extent.
    """

    num_points: int
    coverage: float
    tall_count: int
    length_overrun: float = 0.0


class ConfidenceCalibrator:
    """Scores candidate boxes from the obstacle cloud around them.

    Build once per cloud (it buckets the points by BEV cell and labels
    structural clusters), then score the cloud's distinct boxes with one
    :meth:`score_batch` call.
    """

    def __init__(self, obstacle_xyz: np.ndarray, ground_z: float) -> None:
        self.points = np.asarray(obstacle_xyz, dtype=float).reshape(-1, 3)
        self.ground_z = float(ground_z)
        x, y = self.points[:, 0], self.points[:, 1]
        self._index = _CellIndex(x, y, LOOKUP_CELL)
        self._cluster_ids = _grid_labels(self.points[:, :2]) if len(x) else None

    def evidence(self, box: Box3D) -> BoxEvidence:
        """Measure the point evidence supporting ``box``."""
        num_points, coverage, tall_count, overrun = self._evidence([box])
        return BoxEvidence(
            int(num_points[0]),
            float(coverage[0]),
            int(tall_count[0]),
            float(overrun[0]),
        )

    def score(self, box: Box3D, object_class=None) -> float:
        """Confidence in [0, 1] for ``box`` (optionally class-aware)."""
        return float(self.score_batch([box], [object_class])[0])

    def score_batch(self, boxes, object_classes) -> np.ndarray:
        """Confidences of many boxes (one class or None per box) in one pass."""
        return self._confidence(*self._evidence(boxes), object_classes)

    def score_from_evidence(self, ev: BoxEvidence, object_class=None) -> float:
        """Apply the logistic model to measured evidence."""
        return float(
            self._confidence(
                np.array([ev.num_points]),
                np.array([ev.coverage]),
                np.array([ev.tall_count]),
                np.array([ev.length_overrun]),
                [object_class],
            )[0]
        )

    def _evidence(self, boxes) -> tuple[np.ndarray, ...]:
        """Evidence arrays ``(num_points, coverage, tall_count, length_overrun)``
        of ``boxes``, one entry per box.

        One index lookup serves all boxes: it returns the points inside
        each padded footprint, which every evidence term reads.  Every
        term reduces them with counts, ``np.maximum.at`` or boolean bins,
        so the lookup's order changes nothing.
        """
        m = len(boxes)
        num_points = np.zeros(m, dtype=np.intp)
        tall_count = np.zeros(m, dtype=np.intp)
        coverage = np.zeros(m)
        overrun = np.zeros(m)
        if self._cluster_ids is None or m == 0:
            return num_points, coverage, tall_count, overrun
        center = np.array([box.center for box in boxes])
        length, width, height, yaw = np.array(
            [(box.length, box.width, box.height, box.yaw) for box in boxes]
        ).T
        idx, owner, rel_x, rel_y = self._index.in_footprints(
            center[:, 0],
            center[:, 1],
            length / 2 + FOOTPRINT_PAD,
            width / 2 + FOOTPRINT_PAD,
            np.cos(-yaw),
            np.sin(-yaw),
        )
        # The box test and the column test (same footprint extruded in z,
        # catching wall points above the box) share the footprint.
        z = np.take(self.points[:, 2], idx)
        dz = z - np.take(center[:, 2], owner)
        in_column = np.abs(dz - 2.0) <= ((height + 6.0) / 2 + 0.1)[owner]
        tall = in_column & (z > self.ground_z + CAR_MAX_HEIGHT)
        tall_count = np.bincount(owner[tall], minlength=m)
        inside = np.abs(dz) <= (height / 2 + 0.1)[owner]
        box_of = owner[inside]
        num_points = np.bincount(box_of, minlength=m)
        # Extent of the contiguous structure through each box, over car
        # size.  Points were clustered once at construction time (grid-based
        # connected components, true 2D — a truck parked a metre away stays
        # a *separate* object).  Only *thin* structure counts against a car
        # hypothesis: building walls are long and under ~1 m deep, while a
        # row of parked cars — which can fuse into one long cluster once two
        # viewpoints fill in the gaps — is several metres deep and must not
        # be penalised.
        clusters = self._cluster_ids[idx[inside]]
        extents, minors = _cluster_extents(
            self.points[:, :2], self._cluster_ids, np.unique(clusters)
        )
        thin = minors[clusters] < 1.0
        longest = np.full(m, -np.inf)
        np.maximum.at(longest, box_of[thin], extents[clusters[thin]])
        excess = longest - (np.hypot(length, width) + 0.6)
        overrun = np.where(excess > 0.0, excess, 0.0)
        # Angular coverage: occupied azimuth bins around each box centre.
        azimuth = np.arctan2(rel_y[inside], rel_x[inside])
        bins = ((azimuth + np.pi) / (2 * np.pi) * COVERAGE_BINS).astype(int)
        bins = np.clip(bins, 0, COVERAGE_BINS - 1)
        occupied = np.zeros((m, COVERAGE_BINS), dtype=bool)
        occupied[box_of, bins] = True
        coverage = np.count_nonzero(occupied, axis=1) / COVERAGE_BINS
        return num_points, coverage, tall_count, overrun

    def _confidence(
        self,
        num_points: np.ndarray,
        coverage: np.ndarray,
        tall_count: np.ndarray,
        overrun: np.ndarray,
        object_classes,
    ) -> np.ndarray:
        """The logistic model over evidence arrays.

        An object class (a :class:`repro.detection.classes.ObjectClass`)
        shifts the bias and the evidence cap: a pedestrian is fully
        confirmed by far fewer points than a car.  None keeps the model's
        own bias and cap.
        """
        bias = np.array(
            [BIAS if c is None else BIAS + c.bias_offset for c in object_classes]
        )
        count_cap = np.array(
            [COUNT_CAP if c is None else min(COUNT_CAP, c.count_cap)
             for c in object_classes]
        )
        # Evidence saturates: past ~count_cap points an object is as
        # confirmed as it gets, keeping scores inside the paper's band.
        logit = (
            COUNT_WEIGHT * np.log1p(np.minimum(num_points, count_cap))
            + COVERAGE_WEIGHT * coverage
            - TALL_PENALTY * np.log1p(tall_count)
            - OVERRUN_PENALTY * overrun
            - bias
        )
        return 1.0 / (1.0 + np.exp(-np.clip(logit, -60, 60)))


class _CellIndex:
    """BEV points bucketed by square cell, for batched rectangle lookups.

    The points' integer ``(x, y)`` cells get row-major keys, and one stable
    sort of those keys puts each cell's points in one contiguous run, in
    ascending index order, with per-cell start offsets from a count of the
    keys: the ``sphash`` / ``sphashquery`` / ``spcount`` pattern of
    torchsparse on a dense grid.  Keys are uint16, which numpy sorts by
    radix, when the grid has at most 65,536 cells.  A rectangle then covers
    one run per cell row, and a batch of rectangles expands into one flat
    ``(index, owner)`` pair of arrays in a single vectorised pass.

    Points and query bounds map to cells through the same float64
    arithmetic, so a rectangle's cells hold every point inside it.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, cell: float) -> None:
        self.x, self.y = x, y
        self.cell = float(cell)
        self.origin = (
            (np.float64(x.min()), np.float64(y.min())) if len(x) else (0.0, 0.0)
        )
        col_x = self._cells(x, 0).astype(np.intp)
        col_y = self._cells(y, 1).astype(np.intp)
        self.rows = int(col_x.max()) + 1 if len(x) else 0
        self.cols = int(col_y.max()) + 1 if len(x) else 0
        key = col_x * self.cols + col_y
        if self.rows * self.cols <= 1 << 16:
            key = key.astype(np.uint16)
        self.order = np.argsort(key, kind="stable")
        self.starts = np.zeros(self.rows * self.cols + 1, dtype=np.intp)
        np.cumsum(
            np.bincount(key, minlength=self.rows * self.cols), out=self.starts[1:]
        )

    def _cells(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Float cell coordinates of ``values`` along ``axis`` (0 = x)."""
        return np.floor(
            np.subtract(values, self.origin[axis], dtype=float) / self.cell
        )

    def rectangles(
        self,
        x_lo: np.ndarray,
        x_hi: np.ndarray,
        y_lo: np.ndarray,
        y_hi: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Points in the cells under each rectangle ``[x_lo, x_hi] x
        [y_lo, y_hi]``: a superset of the points inside it.

        Returns point indices and their owners (rectangle positions),
        grouped by owner in ascending order.
        """
        first_x = np.clip(self._cells(x_lo, 0), 0, self.rows).astype(np.intp)
        last_x = np.clip(self._cells(x_hi, 0), -1, self.rows - 1).astype(np.intp)
        first_y = np.clip(self._cells(y_lo, 1), 0, self.cols).astype(np.intp)
        last_y = np.clip(self._cells(y_hi, 1), -1, self.cols - 1).astype(np.intp)
        # One run of sorted points per (rectangle, cell row).
        rows_of = np.maximum(last_x - first_x + 1, 0)
        run_owner = np.repeat(np.arange(len(rows_of)), rows_of)
        row = _runs(first_x, rows_of)
        begin = self.starts[row * self.cols + first_y[run_owner]]
        end = self.starts[row * self.cols + last_y[run_owner] + 1]
        length = np.maximum(end - begin, 0)
        return self.order[_runs(begin, length)], np.repeat(run_owner, length)

    def in_footprints(
        self,
        center_x: np.ndarray,
        center_y: np.ndarray,
        half_l: np.ndarray,
        half_w: np.ndarray,
        cos_y: np.ndarray,
        sin_y: np.ndarray,
    ) -> tuple[np.ndarray, ...]:
        """Points inside each yawed footprint: ``|u| <= half_l`` and
        ``|v| <= half_w`` in the footprint's frame, where ``cos_y`` and
        ``sin_y`` rotate by minus its yaw.

        Each footprint reads the cells under its rotated bounding
        rectangle, widened by ``LOOKUP_SLACK`` for the rounding of the
        test.  Returns indices and owners as :meth:`rectangles`, plus
        each point's x and y offsets from its footprint's centre.
        """
        reach_x = np.abs(half_l * cos_y) + np.abs(half_w * sin_y) + LOOKUP_SLACK
        reach_y = np.abs(half_l * sin_y) + np.abs(half_w * cos_y) + LOOKUP_SLACK
        idx, owner = self.rectangles(
            center_x - reach_x,
            center_x + reach_x,
            center_y - reach_y,
            center_y + reach_y,
        )
        rel_x = self.x[idx] - center_x[owner]
        rel_y = self.y[idx] - center_y[owner]
        cos_y, sin_y = cos_y[owner], sin_y[owner]
        u = rel_x * cos_y - rel_y * sin_y
        v = rel_x * sin_y + rel_y * cos_y
        inside = (np.abs(u) <= half_l[owner]) & (np.abs(v) <= half_w[owner])
        return idx[inside], owner[inside], rel_x[inside], rel_y[inside]

    def within(
        self, centers: np.ndarray, radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Points at BEV distance at most ``radius`` from each of the
        ``(q, 2)`` ``centers``: indices and owners as :meth:`rectangles`.

        Membership is ``dx*dx + dy*dy <= radius*radius`` in float64, the
        test ``scipy.spatial.cKDTree.query_ball_point`` applies.
        """
        cx, cy = centers[:, 0], centers[:, 1]
        idx, owner = self.rectangles(cx - radius, cx + radius, cy - radius, cy + radius)
        dx = self.x[idx] - cx[owner]
        dy = self.y[idx] - cy[owner]
        near = dx * dx + dy * dy <= radius * radius
        return idx[near], owner[near]


def _runs(begin: np.ndarray, length: np.ndarray) -> np.ndarray:
    """``begin[i], begin[i] + 1, ..., begin[i] + length[i] - 1`` for every
    ``i``, concatenated."""
    ends = np.cumsum(length)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(begin - ends + length, length)


def _grid_labels(xy: np.ndarray) -> np.ndarray:
    """Per-point ids of the 8-connected components of the occupied
    ``CLUSTER_CELL`` grid cells under non-empty BEV points ``xy``.

    The grid's origin and shape are reduced one column at a time, which
    costs a fraction of ``min``/``max`` along axis 0 of the ``(N, 2)``
    array and gives the same values.
    """
    from scipy import ndimage

    origin = np.array([xy[:, 0].min(), xy[:, 1].min()])
    cells = np.floor((xy - origin) / CLUSTER_CELL).astype(int)
    cx, cy = cells[:, 0], cells[:, 1]
    occupancy = np.zeros((cx.max() + 2, cy.max() + 2), dtype=bool)
    # Cells address the grid through its flat view: one index array
    # instead of an (x, y) pair.
    flat = cx * occupancy.shape[1] + cy
    occupancy.reshape(-1)[flat] = True
    labels, _count = ndimage.label(occupancy, structure=np.ones((3, 3), dtype=int))
    return np.take(labels, flat)


def _cluster_extents(
    xy: np.ndarray, labels: np.ndarray, wanted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Shape of the clusters ``wanted`` among the BEV points ``xy``
    labelled ``labels`` (:func:`_grid_labels`).

    Returns, indexed by cluster id, the extent along the principal axis
    (how *long* the structure is) and along the secondary axis (how
    *deep* it is — thin means wall-like); other clusters read 0.  Only
    the wanted clusters' points are read, in ascending index order, so
    every per-cluster sum adds in the order a pass over all points would.
    """
    num = int(labels.max()) + 1
    selected = np.zeros(num, dtype=bool)
    selected[wanted] = True
    members = np.flatnonzero(selected[labels])
    point_labels = labels[members]
    x, y = np.take(xy[:, 0], members), np.take(xy[:, 1], members)
    # All clusters at once: per-cluster 2x2 covariances from label-indexed
    # sums, principal axes in closed form (a 2x2 symmetric eigenproblem is
    # a single rotation angle), spans via per-label extrema.
    counts = np.bincount(point_labels, minlength=num)
    safe = np.maximum(counts, 1)
    mean_x = np.bincount(point_labels, weights=x, minlength=num) / safe
    mean_y = np.bincount(point_labels, weights=y, minlength=num) / safe
    cx = x - mean_x[point_labels]
    cy = y - mean_y[point_labels]
    a = np.bincount(point_labels, weights=cx * cx, minlength=num) / safe
    b = np.bincount(point_labels, weights=cx * cy, minlength=num) / safe
    c = np.bincount(point_labels, weights=cy * cy, minlength=num) / safe
    # Angle of the larger-eigenvalue axis; the eigh convention this
    # replaces ordered eigenvalues ascending, so axis 0 (minor) is the
    # perpendicular and axis 1 (major) is this direction.
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
    return majors, minors
