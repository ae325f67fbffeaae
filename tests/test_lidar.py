"""Tests for the ray-casting LiDAR simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sensors.lidar as lidar_module
from repro.faults import SensorFaults
from repro.geometry.boxes import Box3D
from repro.geometry.transforms import Pose
from repro.scenario import FAMILIES, compile_scenario, scenario_seed
from repro.scene.objects import make_building, make_car
from repro.scene.world import World
from repro.sensors.lidar import (
    HDL_32E,
    HDL_64E,
    MIN_RANGE_M,
    VLP_16,
    BeamPattern,
    LidarModel,
    ScanGeometryCache,
    _nearest_hits,
    _ray_direction_table,
)
from repro.sensors.rig import SensorRig
from tests.family_corpus import FAMILY_INDICES
from tests.lidar_reference import (
    nearest_hits,
    ray_boxes_batch,
    reference_scan,
)


def pose_at(x=0.0, y=0.0, yaw=0.0) -> Pose:
    return Pose(np.array([x, y, 1.73]), yaw=yaw)


class TestBeamPatterns:
    def test_velodyne_beam_counts(self):
        assert VLP_16.num_beams == 16
        assert HDL_32E.num_beams == 32
        assert HDL_64E.num_beams == 64

    def test_rays_per_scan(self):
        assert VLP_16.rays_per_scan == 16 * 900

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BeamPattern("bad", ())

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            BeamPattern("bad", (0.0,), azimuth_resolution_deg=0.0)

    @pytest.mark.parametrize("resolution", [360.5, 719.0, 720.0, 800.0])
    def test_rejects_resolution_above_full_turn(self, resolution):
        """From 720 degrees up a revolution rounded to zero rays."""
        with pytest.raises(ValueError):
            BeamPattern("bad", (0.0,), azimuth_resolution_deg=resolution)

    def test_full_turn_resolution_fires_one_column(self):
        assert BeamPattern("one", (0.0, 5.0), 360.0).rays_per_scan == 2

    @pytest.mark.parametrize("elevation", [-90.5, 90.5, 135.0, float("nan")])
    def test_rejects_elevation_past_vertical(self, elevation):
        """A beam past +/-90 degrees would point back over the sensor."""
        with pytest.raises(ValueError):
            BeamPattern("bad", (0.0, elevation))

    def test_accepts_vertical_beams(self):
        assert BeamPattern("poles", (-90.0, 0.0, 90.0)).num_beams == 3

    def test_direction_table_is_unit(self, fast_lidar):
        directions = fast_lidar.ray_directions()
        np.testing.assert_allclose(
            np.linalg.norm(directions, axis=1), 1.0, atol=1e-12
        )

    def test_direction_table_count(self, fast_lidar):
        assert len(fast_lidar.ray_directions()) == fast_lidar.pattern.rays_per_scan


class TestScan:
    def test_target_receives_points(self, fast_lidar, simple_world, sensor_pose):
        scan = fast_lidar.scan(simple_world, sensor_pose, seed=0)
        assert scan.points_per_actor().get("target", 0) > 10

    def test_points_in_sensor_frame(self, fast_lidar, simple_world, sensor_pose):
        """The car 10 m ahead must appear around x ~ 10 in the sensor frame."""
        scan = fast_lidar.scan(simple_world, sensor_pose, seed=0)
        car_points = scan.points_labeled("target")
        assert 7.0 < car_points.xyz[:, 0].mean() < 11.0
        assert abs(car_points.xyz[:, 1].mean()) < 1.5

    def test_sensor_frame_invariance(self, fast_lidar, simple_world):
        """Scanning from a rotated pose returns the same local geometry."""
        world_rotated = World(
            (make_car(0.0, 10.0, yaw=np.pi / 2, name="target"),)
        )
        scan_a = fast_lidar.scan(simple_world, pose_at(), seed=0)
        scan_b = fast_lidar.scan(world_rotated, pose_at(yaw=np.pi / 2), seed=0)
        a = scan_a.points_labeled("target").xyz.mean(axis=0)
        b = scan_b.points_labeled("target").xyz.mean(axis=0)
        np.testing.assert_allclose(a, b, atol=0.3)

    def test_occlusion_blocks_hidden_car(self, fast_lidar, sensor_pose):
        blocker = make_building(10.0, 0.0, length=2.0, width=8.0, height=6.0, name="wall")
        hidden = make_car(20.0, 0.0, name="hidden")
        world = World((blocker, hidden))
        scan = fast_lidar.scan(world, sensor_pose, seed=0)
        hits = scan.points_per_actor()
        assert hits.get("wall", 0) > 0
        assert hits.get("hidden", 0) == 0

    def test_ground_returns_present(self, fast_lidar, simple_world, sensor_pose):
        scan = fast_lidar.scan(simple_world, sensor_pose, seed=0)
        assert len(scan.non_ground()) < len(scan.cloud)

    def test_dropout_reduces_returns(self, simple_world, sensor_pose, fast_lidar):
        no_drop = LidarModel(pattern=fast_lidar.pattern, dropout=0.0).scan(
            simple_world, sensor_pose, seed=0
        )
        heavy_drop = LidarModel(pattern=fast_lidar.pattern, dropout=0.5).scan(
            simple_world, sensor_pose, seed=0
        )
        assert len(heavy_drop.cloud) < len(no_drop.cloud) * 0.7

    def test_range_noise_perturbs(self, simple_world, sensor_pose, fast_lidar):
        clean = LidarModel(
            pattern=fast_lidar.pattern, dropout=0.0, range_noise_std=0.0
        ).scan(simple_world, sensor_pose, seed=0)
        noisy = LidarModel(
            pattern=fast_lidar.pattern, dropout=0.0, range_noise_std=0.1
        ).scan(simple_world, sensor_pose, seed=0)
        assert not np.allclose(clean.cloud.xyz, noisy.cloud.xyz)

    def test_min_range_blind_zone(self, sensor_pose, fast_lidar):
        close_wall = make_building(1.0, 0.0, length=0.5, width=1.0, name="wall")
        world = World((close_wall,))
        scan = fast_lidar.scan(world, sensor_pose, seed=0)
        assert scan.points_per_actor().get("wall", 0) == 0

    def test_max_range_cutoff(self, sensor_pose):
        pattern = BeamPattern(
            "short", (0.0,), azimuth_resolution_deg=1.0, max_range=5.0
        )
        lidar = LidarModel(pattern=pattern, dropout=0.0)
        far_car = make_car(10.0, 0.0, name="far")
        scan = lidar.scan(World((far_car,)), sensor_pose, seed=0)
        assert len(scan.cloud) == 0

    def test_reflectance_in_unit_interval(self, fast_lidar, simple_world, sensor_pose):
        scan = fast_lidar.scan(simple_world, sensor_pose, seed=0)
        assert scan.cloud.reflectance.min() >= 0.0
        assert scan.cloud.reflectance.max() <= 1.0

    def test_deterministic_given_seed(self, fast_lidar, simple_world, sensor_pose):
        a = fast_lidar.scan(simple_world, sensor_pose, seed=7)
        b = fast_lidar.scan(simple_world, sensor_pose, seed=7)
        np.testing.assert_array_equal(a.cloud.data, b.cloud.data)

    def test_sparser_pattern_fewer_points(self, simple_world, sensor_pose):
        elevations_64 = tuple(np.linspace(-24.8, 2.0, 64))
        elevations_16 = tuple(np.linspace(-15.0, 15.0, 16))
        dense = LidarModel(
            pattern=BeamPattern("d", elevations_64, 1.0), dropout=0.0
        ).scan(simple_world, sensor_pose, seed=0)
        sparse = LidarModel(
            pattern=BeamPattern("s", elevations_16, 1.0), dropout=0.0
        ).scan(simple_world, sensor_pose, seed=0)
        dense_hits = dense.points_per_actor().get("target", 0)
        sparse_hits = sparse.points_per_actor().get("target", 0)
        assert dense_hits > 2 * sparse_hits

    def test_invalid_dropout(self):
        with pytest.raises(ValueError):
            LidarModel(dropout=1.0)

    def test_invalid_noise(self):
        with pytest.raises(ValueError):
            LidarModel(range_noise_std=-0.1)

    def test_range_noise_respects_range_bounds(self, simple_world, sensor_pose):
        """Noisy hit distances stay inside [MIN_RANGE_M, max_range].

        Regression: noise used to be added *after* the range gate, so a
        large draw could push a return beyond max_range or (pathologically)
        behind the sensor.
        """
        pattern = BeamPattern(
            "noisy-16",
            tuple(np.linspace(-15, 15, 16)),
            azimuth_resolution_deg=1.0,
            max_range=20.0,
        )
        lidar = LidarModel(pattern=pattern, dropout=0.0, range_noise_std=50.0)
        scan = lidar.scan(simple_world, sensor_pose, seed=0)
        assert len(scan.cloud) > 0
        # Clouds store float32, so allow rounding at that precision.
        distances = np.linalg.norm(scan.cloud.xyz, axis=1)
        assert distances.max() <= pattern.max_range + 1e-3
        assert distances.min() >= MIN_RANGE_M - 1e-3


class TestScanCacheMemo:
    """The scan cache memoises each entry's per-ray nearest hit; a cached
    scan must stay byte-identical to a cold one as actors move and stay."""

    @staticmethod
    def _frames():
        static = (
            make_car(12.0, 3.0, name="parked-a"),
            make_car(-9.0, -4.0, yaw=0.7, name="parked-b"),
            make_building(0.0, 25.0, name="wall"),
        )
        mover_x = (8.0, 8.0, 9.5, 9.5, 11.0, 8.0)
        return [
            World((make_car(x, -2.0, name="mover"), *static)) for x in mover_x
        ]

    def test_cached_scans_equal_cold_scans_as_one_actor_moves(self, fast_lidar):
        lidar = LidarModel(pattern=fast_lidar.pattern)  # noise and dropout on
        pose = pose_at(yaw=0.2)
        cache = ScanGeometryCache()
        for seed, world in enumerate(self._frames()):
            cold = lidar.scan(world, pose, seed=seed)
            warm = lidar.scan(world, pose, seed=seed, cache=cache)
            assert warm.cloud.data.tobytes() == cold.cloud.data.tobytes()
            assert warm.labels.tobytes() == cold.labels.tobytes()
        assert (cache.misses, cache.hits, cache.actors_recast) == (1, 5, 3)

    def test_memo_reused_until_a_row_is_recast(self, fast_lidar):
        pose = pose_at(yaw=0.2)
        directions = fast_lidar.ray_directions() @ pose.to_world().rotation.T
        cache = ScanGeometryCache()

        def nearest(world):
            return cache.nearest_hits(
                fast_lidar.pattern,
                pose,
                pose.position,
                directions,
                [a.box for a in world.actors],
            )

        first, same, moved, *_ = self._frames()
        memo = nearest(first)
        assert nearest(same) is memo  # static frame: memo reused
        recast = nearest(moved)  # the mover's window is re-cast
        assert recast is not memo
        assert nearest(moved) is recast
        assert not recast[0].flags.writeable and not recast[1].flags.writeable
        assert not np.array_equal(recast[1], memo[1])


def _cast_both(pattern, pose, boxes):
    """The windowed nearest hits and the dense reference's, as bytes."""
    directions = _ray_direction_table(pattern) @ pose.to_world().rotation.T
    origin = pose.position.astype(float)
    label, t = _nearest_hits(pattern, pose, origin, directions, boxes)
    ref_label, ref_t = nearest_hits(ray_boxes_batch(origin, directions, boxes))
    assert label.dtype == ref_label.dtype and t.dtype == ref_t.dtype
    windowed = (label.tobytes(), t.tobytes())
    return windowed, (ref_label.tobytes(), ref_t.tobytes()), t


def _box(x, y, z, length=4.2, width=1.8, height=1.5, yaw=0.0):
    return Box3D(np.array([x, y, z]), length, width, height, yaw)


ORIGIN = np.array([0.0, 0.0, 1.73])
WIDE_16 = BeamPattern("wide-16", tuple(np.linspace(-60.0, 60.0, 16)), 1.0)

#: Named geometries for the windowed cast: (pattern, pose, boxes).
WINDOW_CASES = {
    # Directly behind the sensor the box's wedge wraps from +pi to -pi.
    "seam": (WIDE_16, Pose(ORIGIN), [_box(-9.0, 0.0, 0.75), _box(6.0, 1.0, 0.75)]),
    "sensor_inside_box": (
        WIDE_16,
        Pose(ORIGIN),
        [_box(0.3, -0.2, 1.5, 6.0, 4.0, 3.0, 0.4), _box(12.0, 3.0, 0.75)],
    ),
    "overhead_around_axis": (
        WIDE_16,
        Pose(ORIGIN),
        [_box(0.4, -0.3, 7.0, 9.0, 8.0, 1.0, 0.3), _box(-7.0, 5.0, 0.75)],
    ),
    "pitched_and_rolled": (
        WIDE_16,
        Pose(ORIGIN, yaw=2.9, pitch=0.35, roll=-0.3),
        [
            _box(-8.0, 1.0, 0.75, yaw=0.3),
            _box(3.0, -6.0, 0.75, yaw=-1.2),
            _box(0.5, 2.5, 3.5, 2.0, 2.0, 1.0),
            _box(-2.0, -2.0, -1.0, 3.0, 3.0, 1.0),
        ],
    ),
    # 360 / 7.3 rounds to 49 columns of 7.35 degrees each.
    "step_not_dividing_360": (
        BeamPattern("odd", tuple(np.linspace(-30.0, 20.0, 9)), 7.3),
        Pose(ORIGIN, yaw=0.7),
        [_box(-6.0, -4.0, 0.75), _box(5.0, 0.2, 0.75, yaw=1.0)],
    ),
    "behind_and_beyond_max_range": (
        BeamPattern("short", tuple(np.linspace(-10.0, 10.0, 8)), 1.5, 40.0),
        Pose(ORIGIN, yaw=-1.0),
        [_box(-20.0, 0.0, 0.75), _box(0.0, 90.0, 0.75), _box(150.0, -30.0, 5.0)],
    ),
    # Every ray that meets one copy meets the other at the same distance;
    # the lower index must win.
    "duplicate_boxes_tie": (
        WIDE_16,
        Pose(ORIGIN, yaw=0.3),
        [_box(8.0, 1.0, 0.75), _box(-5.0, 4.0, 0.75), _box(8.0, 1.0, 0.75)],
    ),
    # A corner sits on the sensor's vertical axis, where the straight-down
    # beam's slab test meets the box top at every azimuth.
    "corner_on_vertical_axis": (
        BeamPattern("down", (-90.0, -20.0, 0.0), 2.0),
        Pose(ORIGIN),
        [_box(2.1, 0.9, 0.75)],
    ),
    "vertical_beams": (
        BeamPattern("poles", (-90.0, -30.0, 0.0, 45.0, 90.0), 3.0),
        Pose(ORIGIN, pitch=0.05),
        [_box(0.0, 0.0, 6.0, 3.0, 3.0, 1.0), _box(0.0, 0.0, -0.5, 3.0, 3.0, 1.0)],
    ),
}


class TestWindowedCast:
    """Each actor is slab-tested only on the rays inside its azimuth
    wedge; the nearest hit must be bit-equal to the dense test's argmin."""

    @pytest.mark.parametrize("case", sorted(WINDOW_CASES))
    def test_named_case_matches_dense_reference(self, case):
        pattern, pose, boxes = WINDOW_CASES[case]
        windowed, reference, t = _cast_both(pattern, pose, boxes)
        assert windowed == reference
        assert np.isfinite(t).any()

    def test_seam_case_hits_both_ends_of_the_table(self):
        pattern, pose, boxes = WINDOW_CASES["seam"]
        _, _, t = _cast_both(pattern, pose, boxes)
        columns = np.flatnonzero(np.isfinite(t)) % pattern.azimuth_steps
        assert columns.min() == 0 and columns.max() == pattern.azimuth_steps - 1

    def test_windows_cover_only_the_wedge(self):
        """An ordinary box gets a narrow window, wrapped across the seam if
        need be; a box around the sensor's vertical axis gets every ray."""

        def windows(case):
            pattern, pose, boxes = WINDOW_CASES[case]
            yaws = np.array([b.yaw for b in boxes])
            first, width = lidar_module._azimuth_windows(
                pattern,
                pose,
                pose.position,
                np.array([b.center for b in boxes]),
                np.array([[b.length, b.width, b.height] for b in boxes]) / 2.0,
                np.cos(yaws),
                np.sin(yaws),
            )
            return first, width, pattern.azimuth_steps

        first, width, steps = windows("seam")
        assert (width < steps // 8).all()
        assert first[0] + width[0] > steps  # wraps from +pi to -pi
        for case in ("sensor_inside_box", "overhead_around_axis"):
            _, width, steps = windows(case)
            assert width[0] == steps

    @given(
        elevations=st.lists(st.floats(-90.0, 90.0), min_size=1, max_size=4),
        resolution=st.floats(0.5, 60.0),
        attitude=st.tuples(
            st.floats(-3.1, 3.1), st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)
        ),
        boxes=st.lists(
            st.tuples(
                st.tuples(*[st.floats(-25.0, 25.0)] * 3),
                st.tuples(*[st.floats(0.2, 12.0)] * 3),
                st.floats(-3.1, 3.1),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_reference(self, elevations, resolution, attitude, boxes):
        pattern = BeamPattern("any", tuple(elevations), resolution, 30.0)
        pose = Pose(ORIGIN, *attitude)
        actors = [Box3D(ORIGIN + np.array(c), *dims, yaw) for c, dims, yaw in boxes]
        windowed, reference, _ = _cast_both(pattern, pose, actors)
        assert windowed == reference


def _compiled_family(family_name):
    return compile_scenario(
        FAMILIES[family_name],
        scenario_seed(0, family_name, FAMILY_INDICES[family_name]),
    )


def _assert_equals_reference(scan, reference):
    data, labels = reference
    assert scan.cloud.data.tobytes() == data.tobytes()
    assert scan.labels.dtype == labels.dtype
    assert scan.labels.tobytes() == labels.tobytes()


def _assert_string_queries(scan):
    """The name queries equal their definitions on the per-point labels."""
    labels = scan.labels
    for name in {*labels.tolist(), *scan.actor_names, "absent"}:
        expected = scan.cloud.select(labels == name).data
        assert scan.points_labeled(name).data.tobytes() == expected.tobytes()
    names, counts = np.unique(labels, return_counts=True)
    expected = {
        str(n): int(c) for n, c in zip(names, counts) if n != "__ground__"
    }
    assert list(scan.points_per_actor().items()) == list(expected.items())
    expected = scan.cloud.select(labels != "__ground__").data
    assert scan.non_ground().data.tobytes() == expected.tobytes()


class TestReferenceScans:
    @pytest.mark.parametrize("family_name", sorted(FAMILY_INDICES))
    def test_family_scans_match_dense_reference(self, family_name):
        """Every observer's scan of one seeded scenario per family, without
        the scan cache, on its miss and on its hit, equals the dense
        reference scan byte for byte: the cloud and the rebuilt labels."""
        assert set(FAMILY_INDICES) == set(FAMILIES)
        compiled = _compiled_family(family_name)
        windowed = []
        for name, pose in compiled.viewpoints.items():
            lidar = LidarModel(pattern=compiled.rigs[name])
            reference = reference_scan(lidar, compiled.world, pose, seed=11)
            cache = ScanGeometryCache()
            scans = [
                lidar.scan(compiled.world, pose, seed=11),
                lidar.scan(compiled.world, pose, seed=11, cache=cache),
                lidar.scan(compiled.world, pose, seed=11, cache=cache),
            ]
            assert (cache.misses, cache.hits) == (1, 1)
            for scan in scans:
                _assert_equals_reference(scan, reference)
            _assert_string_queries(scans[0])
            windowed.append(scans[0])
        assert any(len(s.points_per_actor()) for s in windowed)


def _ring_of_cars(count):
    """``count`` cars on a 30 m ring around the origin."""
    angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    return World(
        tuple(
            make_car(30.0 * np.cos(a), 30.0 * np.sin(a), yaw=a, name=f"car{i}")
            for i, a in enumerate(angles)
        )
    )


RING_LIDAR = LidarModel(pattern=BeamPattern("ring", (-2.0, 0.5), 0.5))


class TestScanStorage:
    """A scan keeps each return's actor as an index into its tuple of
    names, not as a per-point string; every name query and the rebuilt
    labels behave as the per-point strings did."""

    def test_holds_no_per_return_string_array(self, tj_layout):
        scan = LidarModel(pattern=HDL_64E).scan(
            tj_layout.world, tj_layout.viewpoint("car1"), seed=3
        )
        assert "labels" not in vars(scan)
        for value in vars(scan).values():
            if isinstance(value, np.ndarray):
                assert value.dtype.kind not in "USO"
        assert scan.actor_index.dtype == np.uint8
        assert len(scan.actor_index) == len(scan.cloud)
        assert scan.actor_names[-1] == "__ground__"

    @pytest.mark.parametrize(
        "count, dtype", [(1, np.uint8), (255, np.uint8), (256, np.uint16)]
    )
    def test_index_is_the_smallest_unsigned_type(self, count, dtype):
        world = _ring_of_cars(count)
        pose = pose_at()
        scan = RING_LIDAR.scan(world, pose, seed=5)
        assert scan.actor_index.dtype == dtype
        assert len(scan.actor_names) == count + 1
        assert len(scan.points_per_actor()) > count // 2
        _assert_equals_reference(
            scan, reference_scan(RING_LIDAR, world, pose, seed=5)
        )
        _assert_string_queries(scan)

    def test_blackout_scan(self, simple_world, sensor_pose):
        faults = SensorFaults(lidar_blackout=True)
        scan = SensorRig().observe(simple_world, sensor_pose, faults=faults).scan
        assert scan.labels.dtype == np.dtype("<U1")
        assert len(scan.labels) == 0 and len(scan.cloud) == 0
        assert scan.points_per_actor() == {}
        _assert_string_queries(scan)

    def test_world_without_actors(self, sensor_pose):
        lidar = LidarModel(pattern=VLP_16)
        world = World(())
        scan = lidar.scan(world, sensor_pose, seed=2)
        assert len(scan.cloud) > 0
        assert scan.actor_names == ("__ground__",)
        assert scan.points_per_actor() == {}
        assert len(scan.non_ground()) == 0
        _assert_equals_reference(
            scan, reference_scan(lidar, world, sensor_pose, seed=2)
        )
        _assert_string_queries(scan)

    def test_scan_without_returns(self, sensor_pose):
        pattern = BeamPattern("short", (0.0,), 1.0, max_range=5.0)
        lidar = LidarModel(pattern=pattern)
        world = World((make_car(10.0, 0.0, name="far"),))
        scan = lidar.scan(world, sensor_pose, seed=0)
        assert len(scan.cloud) == 0
        _assert_equals_reference(
            scan, reference_scan(lidar, world, sensor_pose, seed=0)
        )
        _assert_string_queries(scan)

    def test_actor_without_hits(self, fast_lidar, sensor_pose):
        wall = make_building(
            10.0, 0.0, length=2.0, width=8.0, height=6.0, name="wall"
        )
        world = World((wall, make_car(20.0, 0.0, name="hidden")))
        scan = fast_lidar.scan(world, sensor_pose, seed=0)
        assert "hidden" in scan.actor_names
        assert "hidden" not in scan.points_per_actor()
        assert len(scan.points_labeled("hidden")) == 0
        _assert_equals_reference(
            scan, reference_scan(fast_lidar, world, sensor_pose, seed=0)
        )
        _assert_string_queries(scan)

    def test_actor_named_like_the_ground(self, fast_lidar, sensor_pose):
        """An actor called ``__ground__`` reads as ground, as its per-point
        name did."""
        world = World(
            (
                make_car(10.0, 0.0, name="__ground__"),
                make_car(-8.0, 3.0, name="other"),
            )
        )
        scan = fast_lidar.scan(world, sensor_pose, seed=0)
        car_hits = int((scan.actor_index == 0).sum())
        ground_hits = int((scan.actor_index == 2).sum())
        assert car_hits > 0 and ground_hits > 0
        assert list(scan.points_per_actor()) == ["other"]
        assert len(scan.points_labeled("__ground__")) == car_hits + ground_hits
        assert len(scan.non_ground()) == len(scan.cloud) - car_hits - ground_hits
        _assert_equals_reference(
            scan, reference_scan(fast_lidar, world, sensor_pose, seed=0)
        )
        _assert_string_queries(scan)
