"""Tests for the cell-sorted BEV index behind every decode lookup.

Radius membership must equal ``cKDTree.query_ball_point`` exactly (the
refiner's mean-shift and gather sums depend on every member), rectangle
lookups must hold every point a brute-force scan finds inside the
rectangle, and footprint lookups (the calibrator's and the ground-shadow
test's) must return exactly the points passing the footprint test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.detection.calibrate import LOOKUP_CELL, _CellIndex
from repro.detection.preprocess import preprocess
from repro.detection.spod import SPODConfig
from repro.fusion.align import merge_packages
from repro.scenario import FAMILIES, build_case, compile_scenario, scenario_seed
from tests.family_corpus import FAMILY_INDICES

#: The refiner's seed, mean-shift and gather radii.
RADII = (1.4, 1.5, 2.4)


def _groups(idx, owner, count):
    """Sorted member lists per owner; owners must come grouped, ascending."""
    assert np.all(np.diff(owner) >= 0)
    return [sorted(idx[owner == q].tolist()) for q in range(count)]


def assert_matches_kdtree(x, y, centers, radius, cell=LOOKUP_CELL):
    index = _CellIndex(x, y, cell)
    got = _groups(*index.within(centers, radius), len(centers))
    expected = [[] for _ in centers]
    if len(x):
        tree = cKDTree(np.column_stack([x, y]))
        expected = [sorted(m) for m in tree.query_ball_point(centers, radius)]
    assert got == expected
    return got


def assert_rectangles_cover(x, y, rects, cell=LOOKUP_CELL):
    index = _CellIndex(x, y, cell)
    x_lo, x_hi, y_lo, y_hi = (np.asarray(r, dtype=float) for r in zip(*rects))
    idx, owner = index.rectangles(x_lo, x_hi, y_lo, y_hi)
    groups = _groups(idx, owner, len(rects))
    for q, members in enumerate(groups):
        assert len(set(members)) == len(members)
        inside = np.flatnonzero(
            (x >= x_lo[q]) & (x <= x_hi[q]) & (y >= y_lo[q]) & (y <= y_hi[q])
        )
        assert set(inside.tolist()) <= set(members)
    return groups


def _boundary_points(center, radius, angles):
    """Points straddling the circle in the ``d*d <= r*r`` test: for each
    angle, the last x inside and the first outside along the angle's row,
    with one ulp either side of each.  Angles whose row only grazes the
    circle are skipped."""
    cx, cy = center
    r2 = radius * radius
    points = []
    for angle in angles:
        if abs(np.sin(angle)) > 0.99:
            continue
        x = cx + radius * np.cos(angle)
        y = cy + radius * np.sin(angle)
        outward = np.inf if x >= cx else -np.inf
        inward = -outward

        def inside(px):
            dx, dy = px - cx, y - cy
            return dx * dx + dy * dy <= r2

        while not inside(x):
            x = np.nextafter(x, inward)
        while inside(np.nextafter(x, outward)):
            x = np.nextafter(x, outward)
        outside = np.nextafter(x, outward)
        for px in (np.nextafter(x, inward), x, outside, np.nextafter(outside, outward)):
            points.append((px, y))
    return np.array(points)


class TestRadiusBoundary:
    @pytest.mark.parametrize("radius", RADII)
    @pytest.mark.parametrize(
        "center", [(0.0, 0.0), (13.37, -7.21), (-31.9, 44.05)], ids=str
    )
    def test_points_on_circle_and_one_ulp_either_side(self, center, radius):
        angles = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
        points = _boundary_points(center, radius, angles)
        # Spread the grid's origin away from the circle.
        points = np.vstack([points, [(center[0] - 9.1, center[1] - 8.7)]])
        got = assert_matches_kdtree(
            points[:, 0], points[:, 1], np.array([center]), radius
        )
        # Half of each angle's four points pass: the test really straddles.
        assert len(got[0]) == (len(points) - 1) // 2 > 600

    @pytest.mark.parametrize("radius", RADII)
    def test_axis_points_exactly_at_radius(self, radius):
        ulp_in, ulp_out = np.nextafter(radius, 0.0), np.nextafter(radius, 9.0)
        coords = [
            (s * d, 0.0) for s in (1.0, -1.0) for d in (ulp_in, radius, ulp_out)
        ] + [(0.0, s * d) for s in (1.0, -1.0) for d in (ulp_in, radius, ulp_out)]
        points = np.array(coords)
        got = assert_matches_kdtree(
            points[:, 0], points[:, 1], np.zeros((1, 2)), radius
        )
        assert len(got[0]) == 8


class TestCellEdges:
    def test_points_and_bounds_on_cell_edges_and_corners(self):
        cell = LOOKUP_CELL
        grid = np.arange(-4, 5) * cell
        gx, gy = np.meshgrid(grid, grid)
        x, y = gx.ravel(), gy.ravel()
        # Cell edges and corners, one ulp either side of them in x, and
        # an anchor that puts the grid's origin on a corner.
        nudged = np.concatenate([np.nextafter(x, -9.0), np.nextafter(x, 9.0)])
        x = np.concatenate([x, nudged, [-5.0 * cell]])
        y = np.concatenate([y, y, y, [-5.0 * cell]])
        assert _CellIndex(x, y, cell).origin == (-5.0 * cell, -5.0 * cell)
        rects = [
            (lo_x, hi_x, lo_y, hi_y)
            for lo_x in (-2.0 * cell, -cell, np.nextafter(0.0, 1.0))
            for hi_x in (cell, 2.0 * cell, np.nextafter(3.0 * cell, 0.0))
            for lo_y in (-3.0 * cell, 0.0)
            for hi_y in (0.0, cell)
        ]
        assert_rectangles_cover(x, y, rects)
        centers = np.array([(a, b) for a in grid[::2] for b in grid[::3]])
        for radius in (cell, 2.0 * cell, *RADII):
            assert_matches_kdtree(x, y, centers, radius)

    def test_degenerate_rectangles(self):
        x = np.array([0.0, 1.0, 1.0, 2.5])
        y = np.array([0.0, 1.0, 2.0, 2.5])
        # Zero-area rectangles on a point, an edge and a corner.
        groups = assert_rectangles_cover(
            x, y, [(1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 0.0, 3.0), (0.0, 0.0, 0.0, 0.0)]
        )
        assert all(groups)


class TestQueriesOutsideExtent:
    def test_rectangles_and_disks_off_the_grid(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5.0, 5.0, 300)
        y = rng.uniform(-5.0, 5.0, 300)
        far = 1e6
        rects = [
            (-far, -20.0, -far, far),
            (20.0, far, -1.0, 1.0),
            (-1.0, 1.0, 20.0, far),
            (-1.0, 1.0, -far, -20.0),
            (-far, far, -far, far),
            (-8.0, -4.0, 3.0, 9.0),
            (4.0, 8.0, -9.0, -3.0),
        ]
        groups = assert_rectangles_cover(x, y, rects)
        assert groups[:4] == [[], [], [], []]
        assert groups[4] == list(range(300))
        centers = np.array([(-20.0, 0.0), (0.0, 30.0), (far, -far), (5.5, 5.5)])
        got = assert_matches_kdtree(x, y, centers, 2.4)
        assert got[:3] == [[], [], []]


class TestGridShapes:
    def test_one_cell_grid(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 0.9, 50)
        y = rng.uniform(0.0, 0.9, 50)
        index = _CellIndex(x, y, LOOKUP_CELL)
        assert (index.rows, index.cols) == (1, 1)
        assert_rectangles_cover(x, y, [(0.2, 0.4, 0.1, 0.8), (-3.0, -1.0, 0.0, 1.0)])
        assert_matches_kdtree(x, y, np.array([(0.5, 0.5), (2.0, 2.0)]), 0.3)

    def test_grid_over_65536_cells(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.uniform(-150.0, 150.0, 4000), [-150.0, 150.0]])
        y = np.concatenate([rng.uniform(-150.0, 150.0, 4000), [-150.0, 150.0]])
        index = _CellIndex(x, y, LOOKUP_CELL)
        assert index.rows * index.cols > 1 << 16
        centers = rng.uniform(-160.0, 160.0, size=(60, 2))
        for radius in RADII:
            assert_matches_kdtree(x, y, centers, radius)
        rects = [(c[0] - 3.0, c[0] + 2.0, c[1] - 1.0, c[1] + 4.0) for c in centers]
        assert_rectangles_cover(x, y, rects)

    def test_empty_input(self):
        index = _CellIndex(np.zeros(0), np.zeros(0), LOOKUP_CELL)
        bounds = (np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
        idx, owner = index.rectangles(*bounds, *bounds)
        assert idx.size == owner.size == 0
        idx, owner = index.within(np.zeros((3, 2)), 2.4)
        assert idx.size == owner.size == 0
        idx, owner = _CellIndex(np.ones(4), np.ones(4), 1.0).within(
            np.zeros((0, 2)), 2.4
        )
        assert idx.size == owner.size == 0


class TestFamilyCorpus:
    @pytest.mark.parametrize("family_name", sorted(FAMILY_INDICES))
    def test_car_band_lookups_match_kdtree(self, family_name):
        """The refiner's radius rounds on real clouds: each observer's and
        the merged cloud's car-band points, queried near every 23rd point
        at the radii the refiner uses."""
        assert set(FAMILY_INDICES) == set(FAMILIES)
        case = build_case(
            compile_scenario(
                FAMILIES[family_name],
                scenario_seed(0, family_name, FAMILY_INDICES[family_name]),
            )
        )
        own = case.cloud_of(case.receiver)
        merged = merge_packages(
            own, case.packages_for_receiver(), case.receiver_measured_pose()
        )
        spec = SPODConfig().voxel_spec
        max_range = float(np.abs(np.array(spec.point_range)).max() * 1.5)
        checked = 0
        for cloud in [case.cloud_of(n) for n in case.observer_names] + [merged]:
            pre = preprocess(cloud, max_range=max_range)
            xyz = np.asarray(pre.obstacles.xyz, dtype=float)
            band = xyz[xyz[:, 2] <= pre.ground_z + 2.3]
            if not len(band):
                continue
            centers = band[::23, :2] + 0.05
            for radius in RADII:
                got = assert_matches_kdtree(band[:, 0], band[:, 1], centers, radius)
                checked += sum(map(len, got))
        assert checked > 0


coordinate = st.one_of(
    st.floats(-30.0, 30.0),
    st.integers(-60, 60).map(lambda k: k * 0.5),
)


@given(
    points=st.lists(st.tuples(coordinate, coordinate), min_size=0, max_size=60),
    centers=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6),
    radius=st.one_of(st.sampled_from(RADII), st.floats(0.0, 8.0)),
    cell=st.sampled_from([0.35, LOOKUP_CELL, 2.0]),
    spans=st.lists(
        st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0), st.floats(-3.2, 3.2)),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=200, deadline=None)
def test_lookups_match_brute_force(points, centers, radius, cell, spans):
    pts = np.array(points, dtype=float).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    centers = np.array(centers, dtype=float)
    assert_matches_kdtree(x, y, centers, radius, cell)
    centers = centers[: len(spans)]
    half_l, half_w, yaw = np.array(spans[: len(centers)]).T
    rects = [
        (c[0] - w, c[0] + w, c[1] - h, c[1] + h)
        for c, w, h in zip(centers, half_l, half_w)
    ]
    assert_rectangles_cover(x, y, rects, cell)
    # Footprints: exactly the points passing the footprint test.
    cos_y, sin_y = np.cos(-yaw), np.sin(-yaw)
    idx, owner, rel_x, rel_y = _CellIndex(x, y, cell).in_footprints(
        centers[:, 0], centers[:, 1], half_l, half_w, cos_y, sin_y
    )
    for q, center in enumerate(centers):
        rx, ry = x - center[0], y - center[1]
        u = rx * cos_y[q] - ry * sin_y[q]
        v = rx * sin_y[q] + ry * cos_y[q]
        passing = np.flatnonzero((np.abs(u) <= half_l[q]) & (np.abs(v) <= half_w[q]))
        mine = owner == q
        assert sorted(idx[mine].tolist()) == passing.tolist()
        order = np.argsort(idx[mine])
        assert rel_x[mine][order].tolist() == rx[passing].tolist()
        assert rel_y[mine][order].tolist() == ry[passing].tolist()
