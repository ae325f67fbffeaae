"""Tests for box refinement and confidence calibration."""

import numpy as np
import pytest

import repro.detection.spod as spod_module
from repro.datasets.synthetic_kitti import kitti_cases
from repro.datasets.tj import tj_cases
from repro.detection.calibrate import (
    COUNT_CAP,
    FOOTPRINT_PAD,
    LOOKUP_CELL,
    BoxEvidence,
    ConfidenceCalibrator,
)
from repro.detection.classes import CAR, CYCLIST, PEDESTRIAN
from repro.detection.refine import GROUND_CELL, MIN_POINTS, BoxRefiner
from repro.fusion.align import merge_packages
from repro.geometry.boxes import Box3D
from repro.scenario import FAMILIES, build_case, compile_scenario, scenario_seed
from tests.decode_reference import (
    ReferenceCalibrator,
    ReferenceRefiner,
    ground_points_under,
    reference_score,
)
from tests.family_corpus import FAMILY_INDICES

GROUND = -1.73


def car_surface_points(
    cx, cy, yaw=0.0, length=4.2, width=1.8, height=1.5, density=12.0, faces="all"
):
    """Sample points on a car's vertical faces (what a LiDAR returns)."""
    rng = np.random.default_rng(int(abs(cx * 7 + cy * 13)) + 1)
    points = []
    face_specs = {
        "front": (length / 2, None),
        "rear": (-length / 2, None),
        "left": (None, width / 2),
        "right": (None, -width / 2),
    }
    wanted = face_specs if faces == "all" else {f: face_specs[f] for f in faces}
    for u, v in wanted.values():
        count = int(density * (width if u is not None else length))
        for _ in range(count):
            lu = u if u is not None else rng.uniform(-length / 2, length / 2)
            lv = v if v is not None else rng.uniform(-width / 2, width / 2)
            z = rng.uniform(GROUND + 0.3, GROUND + height)
            c, s = np.cos(yaw), np.sin(yaw)
            points.append([cx + lu * c - lv * s, cy + lu * s + lv * c, z])
    return np.array(points)


def wall_points(x0, y0, x1, y1, height=4.0, density=30.0):
    """Points on a vertical wall segment from (x0, y0) to (x1, y1)."""
    rng = np.random.default_rng(5)
    length = float(np.hypot(x1 - x0, y1 - y0))
    n = int(density * length)
    t = rng.uniform(0, 1, n)
    z = rng.uniform(GROUND + 0.3, GROUND + height, n)
    return np.column_stack([x0 + t * (x1 - x0), y0 + t * (y1 - y0), z])


def gt_box(cx, cy, yaw=0.0) -> Box3D:
    return Box3D(np.array([cx, cy, GROUND + 0.8]), 4.2, 1.8, 1.6, yaw)


class TestRefiner:
    def test_fits_full_car(self):
        points = car_surface_points(10.0, 2.0, yaw=0.4)
        refiner = BoxRefiner(points, GROUND)
        box, local = refiner.refine(np.array([10.0, 2.0]))
        assert np.linalg.norm(box.center[:2] - [10.0, 2.0]) < 0.8
        assert len(local) > 10

    def test_l_shape_corrects_single_face_bias(self):
        """Seeing only the rear face must not leave the centre on the face."""
        points = car_surface_points(15.0, 0.0, faces=("rear",))
        refiner = BoxRefiner(points, GROUND)
        box, _ = refiner.refine(np.array([13.0, 0.0]))
        # Rear face is at x = 12.9; the fitted centre must be pushed toward
        # the true centre (15.0), away from the sensor at the origin.
        assert box.center[0] > 13.5

    def test_none_when_empty(self):
        refiner = BoxRefiner(np.zeros((0, 3)), GROUND)
        assert refiner.refine(np.array([0.0, 0.0])) is None

    def test_none_when_too_sparse(self):
        refiner = BoxRefiner(np.array([[5.0, 0.0, -1.0]]), GROUND)
        assert refiner.refine(np.array([5.0, 0.0])) is None

    def test_none_far_from_any_points(self):
        points = car_surface_points(10.0, 0.0)
        refiner = BoxRefiner(points, GROUND)
        assert refiner.refine(np.array([30.0, 30.0])) is None

    def test_tall_points_excluded_from_fit(self):
        car = car_surface_points(10.0, 0.0)
        overhang = np.array([[12.0, 0.0, GROUND + 5.0]] * 30)
        refiner = BoxRefiner(np.vstack([car, overhang]), GROUND)
        box, _ = refiner.refine(np.array([10.0, 0.0]))
        assert abs(box.center[0] - 10.0) < 0.8

    def test_cluster_scoping_ignores_neighbour(self):
        """A dense neighbour cluster 4 m away must not drag the fit."""
        car = car_surface_points(10.0, 0.0, faces=("rear",))
        neighbour = car_surface_points(10.0, 4.0, density=60.0)
        refiner = BoxRefiner(np.vstack([car, neighbour]), GROUND)
        box, _ = refiner.refine(np.array([8.2, 0.0]))
        assert abs(box.center[1]) < 1.2

    def test_orientation_disambiguation(self):
        """The fitted box should align with the car even when rotated."""
        points = car_surface_points(10.0, 5.0, yaw=np.pi / 2)
        refiner = BoxRefiner(points, GROUND)
        box, _ = refiner.refine(np.array([10.0, 5.0]))
        yaw_error = abs((box.yaw - np.pi / 2 + np.pi / 2) % np.pi - np.pi / 2)
        assert yaw_error < np.deg2rad(25)


class TestCalibrator:
    def test_score_monotone_in_points(self):
        box = gt_box(10.0, 0.0)
        sparse = ConfidenceCalibrator(
            car_surface_points(10.0, 0.0, density=2.0), GROUND
        )
        dense = ConfidenceCalibrator(
            car_surface_points(10.0, 0.0, density=25.0), GROUND
        )
        assert dense.score(box) > sparse.score(box)

    def test_empty_cloud_scores_low(self):
        calibrator = ConfidenceCalibrator(np.zeros((0, 3)), GROUND)
        assert calibrator.score(gt_box(5.0, 0.0)) < 0.1

    def test_coverage_rewards_multiple_faces(self):
        one_face = ConfidenceCalibrator(
            car_surface_points(10.0, 0.0, faces=("rear",), density=20.0), GROUND
        )
        all_faces = ConfidenceCalibrator(
            car_surface_points(10.0, 0.0, density=5.2), GROUND
        )
        box = gt_box(10.0, 0.0)
        ev_one = one_face.evidence(box)
        ev_all = all_faces.evidence(box)
        # Roughly equal point budgets, but full coverage wins.
        assert abs(ev_one.num_points - ev_all.num_points) < 40
        assert ev_all.coverage > ev_one.coverage

    def test_tall_structure_penalised(self):
        box = gt_box(10.0, 0.0)
        car_only = ConfidenceCalibrator(car_surface_points(10.0, 0.0), GROUND)
        with_wall = ConfidenceCalibrator(
            np.vstack(
                [
                    car_surface_points(10.0, 0.0),
                    wall_points(8.0, 0.5, 12.0, 0.5, height=5.0),
                ]
            ),
            GROUND,
        )
        assert with_wall.score(box) < car_only.score(box)

    def test_long_thin_wall_penalised_by_overrun(self):
        """A car-sized box on a long, car-height wall must score low."""
        wall = wall_points(0.0, 5.0, 30.0, 5.0, height=1.8)
        calibrator = ConfidenceCalibrator(wall, GROUND)
        box = gt_box(15.0, 5.0)
        ev = calibrator.evidence(box)
        assert ev.length_overrun > 5.0
        assert calibrator.score(box) < 0.5

    def test_parked_row_not_penalised(self):
        """Cars with >1 m gaps stay separate clusters: no overrun."""
        row = np.vstack(
            [car_surface_points(10.0, y, yaw=np.pi / 2) for y in (0.0, 3.2, 6.4)]
        )
        calibrator = ConfidenceCalibrator(row, GROUND)
        ev = calibrator.evidence(gt_box(10.0, 3.2, yaw=np.pi / 2))
        assert ev.length_overrun == pytest.approx(0.0)

    def test_merged_deep_row_exempt_from_overrun(self):
        """Even if a row fuses into one cluster, its depth exempts it."""
        # Cars almost touching: one connected cluster, but 4.2 m deep.
        row = np.vstack(
            [
                car_surface_points(10.0, y, yaw=np.pi / 2, density=25.0)
                for y in (0.0, 2.0, 4.0)
            ]
        )
        calibrator = ConfidenceCalibrator(row, GROUND)
        ev = calibrator.evidence(gt_box(10.0, 2.0, yaw=np.pi / 2))
        assert ev.length_overrun == pytest.approx(0.0)

    def test_score_from_evidence_matches_score(self):
        calibrator = ConfidenceCalibrator(car_surface_points(10.0, 0.0), GROUND)
        box = gt_box(10.0, 0.0)
        assert calibrator.score(box) == pytest.approx(
            calibrator.score_from_evidence(calibrator.evidence(box))
        )

    def test_count_cap_saturates(self):
        calibrator = ConfidenceCalibrator(np.zeros((0, 3)), GROUND)

        def score(num_points):
            return calibrator.score_from_evidence(BoxEvidence(num_points, 0.5, 0, 0.0))

        assert score(COUNT_CAP - 100) < score(COUNT_CAP)
        assert score(COUNT_CAP) == pytest.approx(score(10_000))


def _edge_points(center_xy, yaw, half_u, half_v, count=9):
    """BEV points exactly on the rectangle with half extents (half_u, half_v)
    around ``center_xy`` at ``yaw``: its four edges and corners."""
    t = np.linspace(-1.0, 1.0, count)
    ones = np.ones(count)
    u = np.concatenate([half_u * ones, -half_u * ones, t * half_u, t * half_u])
    v = np.concatenate([t * half_v, t * half_v, half_v * ones, -half_v * ones])
    c, s = np.cos(yaw), np.sin(yaw)
    return np.column_stack(
        [center_xy[0] + u * c - v * s, center_xy[1] + u * s + v * c]
    )


TEMPLATES = (CAR, CYCLIST, PEDESTRIAN)


def _rounding_escape(half_l, half_w, axis, cell, seed):
    """A yawed footprint whose test passes a point lying past the
    footprint's bounding rectangle, as rounded without slack, along
    ``axis`` (0 = x, 1 = y), with an edge of ``cell``-sized index cells
    between the bound and the point.

    Returns ``(yaw, center, point, anchor)``: the point's coordinate is
    the ulp after ``center + reach`` on that axis, and ``anchor`` (three
    cells behind the point on that axis, 30 m aside on the other) sets an
    index's origin so that the bound and the point fall in different
    cells.
    """
    rng = np.random.default_rng(seed)
    while True:
        yaw = rng.uniform(-np.pi, np.pi)
        center = rng.uniform(-50.0, 50.0, 2)
        c, s = np.cos(-yaw), np.sin(-yaw)
        reach = (
            np.abs(half_l * c) + np.abs(half_w * s),
            np.abs(half_l * s) + np.abs(half_w * c),
        )[axis]
        bound = center[axis] + reach
        corners = [
            center
            + [u * np.cos(yaw) - v * np.sin(yaw), u * np.sin(yaw) + v * np.cos(yaw)]
            for u in (half_l, -half_l)
            for v in (half_w, -half_w)
        ]
        point = max(corners, key=lambda corner: corner[axis])
        point[axis] = np.nextafter(bound, np.inf)
        rx, ry = point - center
        anchor = point.copy()
        anchor[axis] -= 3.0 * cell
        anchor[1 - axis] -= 30.0
        origin = anchor[axis]
        if (
            np.abs(rx * c - ry * s) <= half_l
            and np.abs(rx * s + ry * c) <= half_w
            and np.floor((bound - origin) / cell)
            < np.floor((point[axis] - origin) / cell)
        ):
            return yaw, center, point, anchor


class TestGroundLookup:
    """The batched ground-shadow counts against counts over the whole ground set."""

    @pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t.name)
    def test_counts_match_whole_ground_set(self, template):
        length, width, height = template.template
        rng = np.random.default_rng(17)
        clutter = rng.uniform(-40.0, 40.0, size=(4000, 2))
        interior_counted = 0
        for yaw in np.linspace(-np.pi, np.pi, 48, endpoint=False):
            centroid = rng.uniform(-30.0, 30.0, 2)
            # The candidate layout of one fit: the principal yaw and its
            # perpendicular, each with two slid centres.
            boxes = [
                Box3D(
                    np.array([*(centroid + offset), GROUND + height / 2]),
                    length,
                    width,
                    height,
                    y,
                )
                for y in (yaw, yaw, yaw + np.pi / 2.0, yaw + np.pi / 2.0)
                for offset in [rng.uniform(-1.0, 1.0, 2)]
            ]
            # Points on the interior footprint's edges (where the shadow
            # test's margin puts them), on the full footprint's edges and
            # scattered around the centroid.
            ground = np.vstack(
                [clutter, centroid + rng.normal(0.0, 2.0, size=(600, 2))]
                + [
                    _edge_points(
                        b.center, b.yaw, b.length / 2 - margin, b.width / 2 - margin
                    )
                    for b in boxes
                    for margin in (0.4, 0.0)
                ]
            )
            refiner = BoxRefiner(np.zeros((0, 3)), GROUND, ground_xy=ground.T)
            # The fit under test plus a far-away one sharing the batch.
            centers = np.array(
                [[b.center[:2] for b in boxes], [b.center[:2] + 55.0 for b in boxes]]
            )
            yaws = np.array([[b.yaw for b in boxes]] * 2)
            counts = refiner._ground_shadows(
                centers, yaws, np.full(2, length), np.full(2, width)
            )
            whole = (ground[:, 0], ground[:, 1])
            expected = [ground_points_under(whole, b) for b in boxes]
            assert counts[0].tolist() == expected
            interior_counted += sum(expected)
        # The car footprint has an interior; the smaller templates' margin
        # leaves none, so they never count ground.
        assert (interior_counted > 0) == (template is CAR)

    @pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
    def test_corner_past_rounded_rectangle_counts(self, axis):
        """The lookup's slack covers a footprint point that rounding puts
        past the footprint's bounding rectangle and into the next cell."""
        length, width = CAR.template[:2]
        yaw, center, point, anchor = _rounding_escape(
            length / 2 - 0.4, width / 2 - 0.4, axis, GROUND_CELL, seed=31
        )
        ground = np.array([point, anchor])
        refiner = BoxRefiner(np.zeros((0, 3)), GROUND, ground_xy=ground.T)
        counts = refiner._ground_shadows(
            center[None, None], np.array([[yaw]]), np.array([length]), np.array([width])
        )
        box = Box3D(np.array([*center, GROUND + 0.8]), length, width, 1.6, yaw)
        assert ground_points_under(tuple(ground.T), box) == 1
        assert counts.tolist() == [[1]]

    def test_empty_ground_counts_nothing(self):
        refiner = BoxRefiner(
            car_surface_points(10.0, 0.0), GROUND, ground_xy=np.zeros((2, 0))
        )
        counts = refiner._ground_shadows(
            np.zeros((1, 4, 2)), np.zeros((1, 4)), np.array([4.2]), np.array([1.8])
        )
        assert counts.tolist() == [[0, 0, 0, 0]]


class TestCalibratorLookup:
    """One batched neighbour query against evidence over all points."""

    @pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t.name)
    def test_evidence_matches_all_points(self, template):
        length, width, height = template.template
        rng = np.random.default_rng(23)
        scene = np.vstack(
            [
                car_surface_points(10.0, 0.0),
                car_surface_points(12.0, 4.5, yaw=0.7),
                wall_points(0.0, 8.0, 25.0, 8.0),
                np.column_stack(
                    [
                        rng.uniform(0.0, 25.0, 800),
                        rng.uniform(-5.0, 10.0, 800),
                        rng.uniform(GROUND + 0.2, GROUND + 5.0, 800),
                    ]
                ),
            ]
        )
        boxes = []
        edge_points = []
        for yaw in np.linspace(-np.pi, np.pi, 24, endpoint=False):
            xy = rng.uniform([5.0, -2.0], [18.0, 7.0])
            center = np.array([*xy, GROUND + height / 2])
            boxes.append(Box3D(center, length, width, height, yaw))
            edges = _edge_points(
                center, yaw, length / 2 + FOOTPRINT_PAD, width / 2 + FOOTPRINT_PAD
            )
            z = rng.uniform(GROUND + 0.2, GROUND + 4.0, len(edges))
            edge_points.append(np.column_stack([edges, z]))
        # Every box's padded footprint edges in one cloud, so one batched
        # pass reads each box's edges next to the others'.
        points = np.vstack([scene, *edge_points])
        fast = ConfidenceCalibrator(points, GROUND)
        reference = ReferenceCalibrator(points, GROUND)
        expected = [reference.reference_evidence(box) for box in boxes]
        assert [fast.evidence(box) for box in boxes] == expected
        classes = [template, None] * 12
        scores = fast.score_batch(boxes, classes)
        assert scores.tolist() == [
            reference_score(ev, c) for ev, c in zip(expected, classes)
        ]
        assert sum(ev.num_points > 0 for ev in expected) > 0

    @pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
    def test_corner_past_rounded_rectangle_counts(self, axis):
        """The lookup's slack covers a footprint point that rounding puts
        past the footprint's bounding rectangle and into the next cell."""
        length, width, height = CAR.template
        half_l, half_w = length / 2 + FOOTPRINT_PAD, width / 2 + FOOTPRINT_PAD
        yaw, center, point, anchor = _rounding_escape(
            half_l, half_w, axis, LOOKUP_CELL, seed=37
        )
        z = GROUND + height / 2
        points = np.array([[*point, z], [*anchor, z]])
        box = Box3D(np.array([*center, z]), length, width, height, yaw)
        expected = ReferenceCalibrator(points, GROUND).reference_evidence(box)
        assert expected.num_points == 1
        assert ConfidenceCalibrator(points, GROUND).evidence(box) == expected


def _detection_bytes(detections):
    return [
        (d.box.as_vector().tobytes(), np.float64(d.score).tobytes(), d.label)
        for d in detections
    ]


def _reference_detections(detector, clouds, monkeypatch):
    """``detect_all`` per cloud with the per-proposal reference decode."""
    with monkeypatch.context() as patch:
        patch.setattr(spod_module, "BoxRefiner", ReferenceRefiner)
        patch.setattr(spod_module, "ConfidenceCalibrator", ReferenceCalibrator)
        patch.setattr(ReferenceRefiner, "lookups", 0)
        patch.setattr(ReferenceCalibrator, "lookups", 0)
        detections = [_detection_bytes(detector.detect_all(c)) for c in clouds]
        # The reference really ran: it counted its brute-force lookups.
        assert ReferenceRefiner.lookups > 0
        assert ReferenceCalibrator.lookups > 0
    return detections


def _single_and_merged(case):
    """A case's receiver cloud and its merged cooperative cloud."""
    own = case.cloud_of(case.receiver)
    merged = merge_packages(
        own, case.packages_for_receiver(), case.receiver_measured_pose()
    )
    return [own, merged]


@pytest.fixture(scope="module")
def case_clouds():
    """``case_clouds(dataset)``: the receiver and merged clouds of the four
    KITTI or fifteen T&J cases, built once per module."""
    built = {}

    def clouds(dataset):
        if dataset not in built:
            cases = kitti_cases() if dataset == "kitti" else tj_cases()
            built[dataset] = [
                cloud for case in cases for cloud in _single_and_merged(case)
            ]
        return built[dataset]

    return clouds


class _RecordingRefiner(BoxRefiner):
    """The detector's refiner, keeping every fit it returns in ``fits``."""

    fits: list = []

    def refine_batch(self, proposals_xy):
        fits = super().refine_batch(proposals_xy)
        type(self).fits.extend(fit for fit in fits if fit is not None)
        return fits


class TestDecodeFamilySweep:
    """Decode stays bit-identical to the per-proposal reference on one seeded
    scenario of every ``repro.scenario`` family: each observer's own cloud
    and the receiver's merged cloud."""

    @pytest.mark.parametrize("family_name", sorted(FAMILY_INDICES))
    def test_detect_all_matches_brute_force(
        self, family_name, detector, monkeypatch
    ):
        assert set(FAMILY_INDICES) == set(FAMILIES)
        compiled = compile_scenario(
            FAMILIES[family_name],
            scenario_seed(0, family_name, FAMILY_INDICES[family_name]),
        )
        case = build_case(compiled)
        clouds = [case.cloud_of(name) for name in case.observer_names]
        clouds.append(_single_and_merged(case)[1])
        fast = [_detection_bytes(detector.detect_all(c)) for c in clouds]
        assert fast == _reference_detections(detector, clouds, monkeypatch)
        assert any(fast)


class TestDecodeReferenceCases:
    """Decode stays bit-identical to the per-proposal reference on the four
    KITTI and fifteen T&J cases, single shot and merged."""

    @pytest.mark.parametrize("dataset", ["kitti", "tj"])
    def test_detect_all_matches_reference(
        self, dataset, detector, case_clouds, monkeypatch
    ):
        clouds = case_clouds(dataset)
        fast = [_detection_bytes(detector.detect_all(c)) for c in clouds]
        assert fast == _reference_detections(detector, clouds, monkeypatch)
        assert all(fast)

    def test_refine_batch_matches_reference_on_float64_points(self):
        """Full-precision coordinates, where summation order shows in the
        last bit (cloud coordinates are float32, whose float64 sums are
        exact in any order)."""
        rng = np.random.default_rng(29)
        objects = [
            car_surface_points(12.0, y, yaw=np.pi / 2, faces=faces)
            for y, faces in ((-3.0, "all"), (0.2, ("left", "rear")), (3.4, ("rear",)))
        ] + [
            car_surface_points(20.0, -6.0, yaw=0.3, density=4.0),
            car_surface_points(6.0, 8.0, length=0.6, width=0.6, height=1.7),
            wall_points(0.0, 12.0, 25.0, 12.0, height=1.8),
        ]
        obstacles = np.vstack(objects)
        obstacles[:, :2] += rng.normal(0.0, 0.02, size=(len(obstacles), 2))
        ground = rng.uniform([-5.0, -15.0], [30.0, 15.0], size=(6000, 2))
        proposals = [
            o[:, :2].mean(axis=0) + rng.normal(0.0, 0.6, 2)
            for o in objects
            for _ in range(3)
        ] + list(rng.uniform([-5.0, -15.0], [30.0, 15.0], size=(10, 2)))
        proposals += proposals[:4]
        fast = BoxRefiner(obstacles, GROUND, ground_xy=ground.T).refine_batch(
            proposals
        )
        reference = ReferenceRefiner(
            obstacles, GROUND, ground_xy=ground.T
        ).refine_batch(proposals)
        assert [f is None for f in fast] == [f is None for f in reference]
        pairs = [(f, r) for f, r in zip(fast, reference) if f is not None]
        assert len(pairs) >= 18
        for f, r in pairs:
            assert f.box.as_vector().tobytes() == r.box.as_vector().tobytes()
            assert f.object_class == r.object_class
            assert np.array_equal(f.points, r.points)
        assert min(len(f.points) for f, _ in pairs) >= MIN_POINTS

    @pytest.mark.parametrize("dataset", ["kitti", "tj"])
    def test_every_fit_holds_min_points(
        self, dataset, detector, case_clouds, monkeypatch
    ):
        """No fit reaches the principal-axis analysis with fewer than
        ``MIN_POINTS`` points, single shot or merged."""
        monkeypatch.setattr(spod_module, "BoxRefiner", _RecordingRefiner)
        monkeypatch.setattr(_RecordingRefiner, "fits", [])
        for cloud in case_clouds(dataset):
            detector.detect_all(cloud)
        sizes = [len(fit.points) for fit in _RecordingRefiner.fits]
        assert sizes
        assert min(sizes) >= MIN_POINTS
