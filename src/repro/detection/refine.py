"""Point-evidence box refinement for RPN proposals.

The analytic inference path decodes a proposal by fitting a car-template
box to the obstacle points around the proposing BEV cell: re-centre on the
local centroid, orient along the principal axis of the local point spread,
and rest the box on the estimated ground.  This replaces the learned
regression head when SPOD runs with analytic weights (the learned head is
used when the network has been trained).

Refinement is *cluster-scoped*: points are first grouped into contiguous
structures (the calibrator's grid labelling, without the cluster extents
the refiner never reads), and a proposal only fits to the cluster(s)
directly under it.  Without this, a dense neighbour two metres away
drags the centroid off the actual object — visible as detections
"migrating" between adjacent parked cars on merged clouds.

A cloud's proposals are refined together, in flat array passes rather
than a loop per proposal.  The car-band points and the ground returns
are each bucketed once by BEV cell (the calibrator's ``_CellIndex``).
Each radius round (seed, mean-shift, gather) is one index lookup that
yields one index array plus an owner array, filtered to exact
membership (``dx*dx + dy*dy <= r*r``), and cutoffs, cluster membership
and modes are segment operations over it.  Proposals that gather the
same points share one fit, and every distinct fit runs in one pass:
stacked 2x2 eigendecompositions, the L-shape candidates and all
ground-shadow counts at once.  Only the small BLAS products (covariance,
principal-axis projection, box rotation) stay per fit, since an
elementwise rewrite rounds them differently; segment sums use
``np.bincount``, which adds in index order exactly as ``.mean(axis=0)``
does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.calibrate import LOOKUP_CELL, _CellIndex, _grid_labels
from repro.detection.classes import CAR, ObjectClass, classify_cluster
from repro.geometry.boxes import Box3D
from repro.geometry.rotations import normalize_angles

__all__ = ["BoxRefiner", "Fit"]

#: Cell size (m) of the ground-return index.  A ground-shadow footprint
#: reads about half the candidate returns it would read under 2 m cells,
#: and a 108 m cloud still fits 65,536 cells, so keys sort by radix.
GROUND_CELL = 1.0

#: BEV radius (m) of the points a proposal's fit gathers around its mode.
GATHER_RADIUS = 2.4

#: BEV radius (m) locating the cluster(s) under a proposal.
SEED_RADIUS = 1.4

#: BEV radius (m) of each mean-shift round that moves a proposal onto its
#: local density mode.
MEANSHIFT_RADIUS = 1.5

#: Maximum number of mean-shift rounds.
MEANSHIFT_ITERATIONS = 3

#: Proposals with fewer local points are dropped, so every fit holds at
#: least this many (enough for a principal axis).
MIN_POINTS = 4


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


class BoxRefiner:
    """Fits car-template boxes to local obstacle points.

    Build once per cloud (it buckets the car-band points and the ground
    returns by BEV cell and labels structural clusters), then call
    :meth:`refine_batch` with the cloud's proposals.

    ``ground_xy`` is the ``(x, y)`` pair of columns of the cloud's ground
    returns.
    """

    def __init__(
        self,
        obstacle_xyz: np.ndarray,
        ground_z: float,
        ground_xy: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self.points = np.asarray(obstacle_xyz, dtype=float).reshape(-1, 3)
        self.ground_z = float(ground_z)
        # Ground returns disambiguate partial views: the ground beneath a
        # real vehicle is shadowed, so of two candidate box placements the
        # one covering fewer ground returns is the physical one.
        if ground_xy is None:
            ground_xy = (np.zeros(0), np.zeros(0))
        self._ground = _CellIndex(*ground_xy, GROUND_CELL)
        # Cars live below ~2.3 m above ground; taller returns (walls, trees)
        # must not drag the fit.
        car_band = self.points[:, 2] <= self.ground_z + 2.3
        self._car_points = np.compress(car_band, self.points, axis=0)
        car_x, car_y = self._car_points[:, 0], self._car_points[:, 1]
        self._index = _CellIndex(car_x, car_y, LOOKUP_CELL)
        self._clusters = (
            _grid_labels(self._car_points[:, :2])
            if len(car_x)
            else np.zeros(0, dtype=int)
        )

    def refine(self, proposal_xy: np.ndarray) -> Fit | None:
        """Fit a box near ``proposal_xy``.

        Returns a :class:`Fit` (unpacks as ``(box, local_points)``) or None
        when the neighbourhood is too sparse to support an object
        hypothesis.
        """
        return self.refine_batch([proposal_xy])[0]

    def refine_batch(self, proposals_xy) -> list[Fit | None]:
        """Fit boxes near each proposal; one entry per input, None = drop.

        Proposals that gather the same points get the same :class:`Fit`
        object.
        """
        n = len(proposals_xy)
        fits: list[Fit | None] = [None] * n
        if not len(self._car_points) or n == 0:
            return fits
        car_xy = self._car_points[:, :2]
        centers = np.array([p[:2] for p in proposals_xy], dtype=float)
        # Adopt the *nearest* structure under each proposal, plus anything
        # almost as close — but not a neighbouring object that merely
        # grazes the seed radius (a pedestrian proposal must not adopt the
        # car parked 1.2 m away).  ``member[i, c]``: proposal i adopted
        # cluster c.  The lookup returns the seed points grouped by
        # proposal, in ascending order, so per-proposal minima and
        # broadcasts are segment passes; the order inside a group changes
        # nothing.
        seed, owner = self._index.within(centers, SEED_RADIUS)
        found = np.bincount(owner, minlength=n)
        seeded = found > 0
        if not seeded.any():
            return fits
        distances = np.linalg.norm(
            np.take(car_xy, seed, axis=0) - np.repeat(centers, found, axis=0), axis=1
        )
        nearest = np.minimum.reduceat(distances, (np.cumsum(found) - found)[seeded])
        adopted = distances <= np.repeat(np.maximum(0.7, nearest + 0.25), found[seeded])
        clusters = int(self._clusters.max()) + 1
        member = np.zeros((n, clusters), dtype=bool)
        # member[owner, cluster of seed] = True, through the flat array.
        member.reshape(-1)[
            owner[adopted] * clusters + self._clusters[seed[adopted]]
        ] = True
        # Mean-shift with a sub-car radius: converge onto the local density
        # mode (one vehicle's own point mass) instead of the centroid of
        # whatever the proposal radius happens to cover.  Essential on
        # merged clouds, where two viewpoints can fuse a whole row of
        # parked cars into one connected cluster.
        modes = centers.copy()
        shifting = seeded.copy()
        for _ in range(MEANSHIFT_ITERATIONS):
            live = np.flatnonzero(shifting)
            if not len(live):
                break
            near, owner = self._in_adopted(MEANSHIFT_RADIUS, modes, live, member)
            counts = np.bincount(owner, minlength=n)
            enough = counts[live] >= MIN_POINTS
            shifting[live[~enough]] = False
            movers = live[enough]
            new_x = np.bincount(owner, weights=np.take(car_xy[:, 0], near), minlength=n)
            new_y = np.bincount(owner, weights=np.take(car_xy[:, 1], near), minlength=n)
            new_x = new_x[movers] / counts[movers]
            new_y = new_y[movers] / counts[movers]
            # A fixed point: every further round would reproduce this
            # exact mode, so the remaining queries are pure cost.
            fixed = (new_x == modes[movers, 0]) & (new_y == modes[movers, 1])
            shifting[movers[fixed]] = False
            modes[movers, 0] = new_x
            modes[movers, 1] = new_y
        idx, owner = self._in_adopted(
            GATHER_RADIUS, modes, np.flatnonzero(seeded), member
        )
        counts = np.bincount(owner, minlength=n)
        ends = np.cumsum(counts)
        # Nearby proposals often mean-shift onto the same mode and gather
        # the very same points; fit each distinct point set once.
        fit_of = np.full(n, -1)
        first = np.zeros(n, dtype=bool)
        distinct: dict[bytes, int] = {}
        for i in np.flatnonzero(counts >= MIN_POINTS).tolist():
            key = idx[ends[i] - counts[i] : ends[i]].tobytes()
            if key not in distinct:
                distinct[key] = len(distinct)
                first[i] = True
            fit_of[i] = distinct[key]
        if not distinct:
            return fits
        taken = first[owner]
        made = self._fit_batch(idx[taken], fit_of[owner[taken]], len(distinct))
        for i in np.flatnonzero(fit_of >= 0):
            fits[i] = made[fit_of[i]]
        return fits

    def _in_adopted(
        self,
        radius: float,
        modes: np.ndarray,
        live: np.ndarray,
        member: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Car-band points within ``radius`` of each live mode that lie in
        a cluster its proposal adopted: indices grouped by owner, each
        group in ascending index order (the order the mode and fit sums
        add in), and their owners."""
        idx, slot = self._index.within(modes[live], radius)
        owner = live[slot]
        # member[owner, cluster of idx], read from the flat member array.
        keep = np.take(member, owner * member.shape[1] + self._clusters[idx])
        # The lookup groups each owner's points by cell; one sort of the
        # flat (owner, index) keys restores ascending index order.  The
        # keys arrive as ascending runs (one per cell), which the stable
        # sort merges faster than quicksort reorders them.
        size = len(self._car_points)
        keys = owner[keep] * size + idx[keep]
        owner, idx = np.divmod(np.sort(keys, kind="stable"), size)
        return idx, owner

    def _fit_batch(self, idx: np.ndarray, owner: np.ndarray, m: int) -> list[Fit]:
        """Fit a template box to each of ``m`` gathered point sets.

        ``idx`` holds car-band point indices grouped by fit (``owner``,
        ascending), each group in ascending index order, and at least
        ``MIN_POINTS`` indices in each.
        """
        local = np.take(self._car_points, idx, axis=0)
        counts = np.bincount(owner, minlength=m)
        ends = np.cumsum(counts)
        starts = ends - counts
        segments = list(zip(starts.tolist(), ends.tolist()))
        centroid = np.column_stack(
            [
                np.bincount(owner, weights=local[:, 0], minlength=m),
                np.bincount(owner, weights=local[:, 1], minlength=m),
            ]
        ) / counts[:, None]
        # Every per-fit value broadcasts to its points with np.repeat: the
        # points are grouped by fit, so this equals indexing by ``owner``
        # at a fraction of the cost.
        centered = local[:, :2] - np.repeat(centroid, counts, axis=0)
        # Extents (classification) and yaw share one principal-axis
        # analysis of the centred points.
        covariance = np.empty((m, 2, 2))
        for k, part in enumerate(segments):
            c = centered[slice(*part)]
            covariance[k] = c.T @ c / counts[k]
        eigenvalues, eigenvectors = np.linalg.eigh(covariance)
        projected = np.empty_like(centered)
        for k, part in enumerate(segments):
            part = slice(*part)
            np.matmul(centered[part], eigenvectors[k], out=projected[part])
        spans = np.maximum.reduceat(projected, starts, axis=0) - (
            np.minimum.reduceat(projected, starts, axis=0)
        )
        major, minor = spans[:, 1], spans[:, 0]
        principal = np.argmax(eigenvalues, axis=1)
        rows = np.arange(m)
        base_yaw = np.arctan2(
            eigenvectors[rows, 1, principal], eigenvectors[rows, 0, principal]
        )
        height_span = np.maximum.reduceat(local[:, 2], starts) - self.ground_z
        classes = [
            classify_cluster(a, b, h)
            for a, b, h in zip(major.tolist(), minor.tolist(), height_span.tolist())
        ]
        template = np.array([c.template for c in classes], dtype=float)
        length, width, height = template.T
        center_z = self.ground_z + height / 2.0
        # PCA orientation is ambiguous on merged clouds: a row of parked
        # cars fused into one cluster has its principal axis along the
        # *row*, perpendicular to every car in it.  Fit both orientations
        # and keep the box that explains the local points best (many
        # inside, few left out).  For partial views the L-shape slide
        # direction is itself ambiguous when the points were contributed by
        # a *cooperator* (the receiver-frame origin is not their sensor):
        # both slide directions are tried, tie-broken by the ground-shadow
        # test — the real vehicle sits where the ground shows no returns.
        yaws = np.column_stack([base_yaw, base_yaw + np.pi / 2.0])
        # The yaws a Box3D stores; the footprint tests rotate by these.
        wrapped = normalize_angles(yaws)
        # candidates[k, j, s]: fit k, orientation j, slide s (0 = away from
        # the receiver, 1 = mirrored); ``two`` marks distinct slides.
        candidates = np.empty((m, 2, 2, 2))
        two = np.empty((m, 2), dtype=bool)
        for j in range(2):
            candidates[:, j], two[:, j] = _l_shape_centers(
                local[:, :2], counts, starts, centroid, yaws[:, j], length, width
            )
        shadows = self._ground_shadows(
            candidates.reshape(m, 4, 2), np.repeat(wrapped, 2, axis=1), length, width
        ).reshape(m, 2, 2)
        # Override the receiver-as-sensor slide only on decisive ground
        # evidence: many returns under the default placement and clearly
        # fewer under the mirrored one.  Doubly-shadowed ground (occluders
        # on both sides) must not flip the box.
        primary, mirrored = shadows[..., 0], shadows[..., 1]
        flipped = two & (primary >= 8) & (mirrored * 2 <= primary)
        shadow = np.where(flipped, mirrored, primary)
        chosen = np.where(flipped[..., None], candidates[:, :, 1], candidates[:, :, 0])
        # Points inside each orientation's chosen box (0.1 m margin).  The
        # rotation stays a per-fit BLAS product, as in points_in_box.
        within_z = np.abs(local[:, 2] - np.repeat(center_z, counts)) <= np.repeat(
            height / 2 + 0.1, counts
        )
        half_l = np.repeat(length / 2 + 0.1, counts)
        half_w = np.repeat(width / 2 + 0.1, counts)
        inside = np.empty((m, 2), dtype=np.intp)
        for j in range(2):
            cos_y, sin_y = np.cos(-wrapped[:, j]), np.sin(-wrapped[:, j])
            rotation = np.stack(
                [np.stack([cos_y, -sin_y], axis=1), np.stack([sin_y, cos_y], axis=1)],
                axis=1,
            )
            offset = local[:, :2] - np.repeat(chosen[:, j], counts, axis=0)
            rotated = np.empty_like(offset)
            for k, part in enumerate(segments):
                part = slice(*part)
                np.matmul(offset[part], rotation[k].T, out=rotated[part])
            hit = (
                (np.abs(rotated[:, 0]) <= half_l)
                & (np.abs(rotated[:, 1]) <= half_w)
                & within_z
            )
            inside[:, j] = np.bincount(owner[hit], minlength=m)
        # Orientation choice: best point fit first; then the placement
        # whose footprint shadows the ground (a box sticking out over
        # visible ground has the wrong yaw for this cluster); finally,
        # prefer an unflipped candidate — where ground sampling is too
        # sparse to decide, the receiver-as-sensor slide is the prior.
        fitness = inside - 2 * (counts[:, None] - inside)
        second = (fitness[:, 1] > fitness[:, 0]) | (
            (fitness[:, 1] == fitness[:, 0])
            & (
                (shadow[:, 1] < shadow[:, 0])
                | ((shadow[:, 1] == shadow[:, 0]) & (flipped[:, 1] < flipped[:, 0]))
            )
        )
        fits = []
        for k, j in enumerate(second.astype(int).tolist()):
            box = Box3D(
                np.array([chosen[k, j, 0], chosen[k, j, 1], center_z[k]]),
                length[k],
                width[k],
                height[k],
                yaws[k, j],
            )
            fits.append(Fit(box, local[slice(*segments[k])], classes[k]))
        return fits

    def _ground_shadows(
        self,
        centers: np.ndarray,
        yaws: np.ndarray,
        length: np.ndarray,
        width: np.ndarray,
    ) -> np.ndarray:
        """Ground returns under each candidate footprint, counted per fit.

        ``centers`` is ``(m, k, 2)``: k candidate box centres for each of m
        fits; ``yaws`` ``(m, k)`` their wrapped yaws; ``length`` and
        ``width`` ``(m,)`` the fits' templates.  Returns ``(m, k)`` counts.

        Interior only (negative margin): returns hugging the box *edges*
        are object-face points grazing the ground band, not open ground.
        Each candidate reads the ground cells under its own interior, so
        the counts equal counts over the whole ground set.  The test is
        purely planar — the z comparison is vacuous for ground returns.
        """
        m, k = yaws.shape
        center_x, center_y = centers.reshape(m * k, 2).T
        cos_y, sin_y = np.cos(-yaws).ravel(), np.sin(-yaws).ravel()
        half_l = np.repeat(length / 2 - 0.4, k)
        half_w = np.repeat(width / 2 - 0.4, k)
        _, owner, _, _ = self._ground.in_footprints(
            center_x, center_y, half_l, half_w, cos_y, sin_y
        )
        return np.bincount(owner, minlength=m * k).reshape(m, k)


def _l_shape_centers(
    xy: np.ndarray,
    counts: np.ndarray,
    starts: np.ndarray,
    centroid: np.ndarray,
    yaw: np.ndarray,
    length: np.ndarray,
    width: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate box centres for partial views: both slide directions.

    A LiDAR sees only the faces turned towards it, so the raw centroid sits
    *on* those faces rather than at the vehicle centre.  In the box's yaw
    frame, wherever the observed extent along an axis falls short of the
    template dimension, the centre moves by half the shortfall.  The first
    candidate moves away from the sensor at the frame origin (the
    receiver-as-sensor assumption), scaled by the sensor direction's unit
    component so that a face-on view does not flip a half-car shift.  The
    second moves the opposite way (correct when the points came from a
    cooperator on the far side).

    ``xy`` holds every fit's points grouped by fit (``counts`` points
    from ``starts``); ``centroid``, ``yaw``, ``length`` and ``width`` have
    one row per fit.  Returns ``(m, 2, 2)`` centres (fit, slide, xy) and a
    mask of the fits whose two slides differ: identical candidates (full
    views, no deficit) count as one.
    """
    c0, c1 = centroid[:, 0], centroid[:, 1]
    cos_y, sin_y = np.cos(yaw), np.sin(yaw)
    dx = xy[:, 0] - np.repeat(c0, counts)
    dy = xy[:, 1] - np.repeat(c1, counts)
    point_cos, point_sin = np.repeat(cos_y, counts), np.repeat(sin_y, counts)
    u = dx * point_cos + dy * point_sin
    v = dy * point_cos - dx * point_sin
    # The sensor sits at the frame origin; project it into the yaw frame.
    sensor_u = -c0 * cos_y - c1 * sin_y
    sensor_v = c0 * sin_y - c1 * cos_y
    norm = np.sqrt(sensor_u * sensor_u + sensor_v * sensor_v)
    far = norm > 1e-9
    norm = np.where(far, norm, 1.0)
    slides = []
    for dim, sensor, proj in ((length, sensor_u, u), (width, sensor_v, v)):
        unit = np.where(far, sensor / norm, 0.0)
        lo = np.minimum.reduceat(proj, starts)
        hi = np.maximum.reduceat(proj, starts)
        observed_mid = (lo + hi) / 2.0
        deficit = (dim - (hi - lo)) / 2.0
        deficit = np.where(deficit > 0.0, deficit, 0.0)
        slides.append((observed_mid - deficit * unit, observed_mid + deficit * unit))
    (primary_u, mirrored_u), (primary_v, mirrored_v) = slides
    px = c0 + primary_u * cos_y - primary_v * sin_y
    py = c1 + primary_u * sin_y + primary_v * cos_y
    mx = c0 + mirrored_u * cos_y - mirrored_v * sin_y
    my = c1 + mirrored_u * sin_y + mirrored_v * cos_y
    # The tolerance of np.allclose(primary, mirrored, atol=1e-9).
    same = (np.abs(px - mx) <= 1e-9 + 1e-5 * np.abs(mx)) & (
        np.abs(py - my) <= 1e-9 + 1e-5 * np.abs(my)
    )
    centers = np.stack([np.column_stack([px, py]), np.column_stack([mx, my])], axis=1)
    return centers, ~same
