"""Tests for the frame-delta (temporal) inference layer.

The contract under test everywhere: warm-path outputs are bit-identical
to cold-path outputs — scans, voxel grids, rulebooks, detections and
whole session logs, clean or under chaos, at any worker count.
"""

import numpy as np
import pytest

from repro.detection.nn.sparse import (
    RULEBOOK_CACHE,
    SparseTensor3d,
    SubmanifoldConv3d,
    patch_rulebook,
)
from repro.detection.spod import SPOD
from repro.faults import FaultPlan
from repro.geometry.boxes import Box3D
from repro.geometry.transforms import Pose
from repro.pointcloud.cloud import PointCloud
from repro.pointcloud.voxel import VoxelDeltaCache, VoxelGridSpec, voxelize
from repro.scene.layouts import parking_lot
from repro.scene.objects import Actor
from repro.sensors.lidar import (
    BeamPattern,
    LidarModel,
    ScanGeometryCache,
    _ray_direction_table,
)
from repro.temporal import TemporalConfig, TemporalState
from tests.test_runtime import _canonical_logs, _toy_session


@pytest.fixture(autouse=True)
def _clean_rulebook_cache():
    RULEBOOK_CACHE.clear()
    yield
    RULEBOOK_CACHE.clear()


PATTERN = BeamPattern("temporal-8", tuple(np.linspace(-12.0, 8.0, 8)), 2.0)


def _scan_bytes(scan):
    return (
        scan.cloud.data.tobytes(),
        scan.labels.tobytes(),
    )


class TestScanGeometryCache:
    def test_static_world_scan_bit_identical_and_hits(self):
        layout = parking_lot(seed=7, rows=2, cols=3, occupancy=0.9)
        lidar = LidarModel(pattern=PATTERN)
        pose = layout.viewpoint("car1")
        cache = ScanGeometryCache()
        cold = [lidar.scan(layout.world, pose, seed=s) for s in (0, 1, 0)]
        warm = [
            lidar.scan(layout.world, pose, seed=s, cache=cache)
            for s in (0, 1, 0)
        ]
        for c, w in zip(cold, warm):
            assert _scan_bytes(c) == _scan_bytes(w)
        assert cache.misses == 1
        assert cache.hits == 2
        assert cache.actors_recast == 0

    def test_moved_actor_rows_recast_bit_identical(self):
        layout = parking_lot(seed=7, rows=2, cols=3, occupancy=0.9)
        lidar = LidarModel(pattern=PATTERN)
        pose = layout.viewpoint("car1")
        world0 = layout.world
        mover = world0.targets()[0]
        moved = mover.moved_to(mover.box.center[:2] + np.array([1.5, 0.4]))
        world1 = world0.without_actor(mover.name).with_actor(moved)
        # Same actor count and order matters for the row-patch path: put
        # the moved actor back at its original index.
        actors = [moved if a.name == mover.name else a for a in world0.actors]
        world1 = type(world0)(actors=tuple(actors), ground_z=world0.ground_z)

        cache = ScanGeometryCache()
        lidar.scan(world0, pose, seed=3, cache=cache)
        warm = lidar.scan(world1, pose, seed=3, cache=cache)
        cold = lidar.scan(world1, pose, seed=3)
        assert _scan_bytes(cold) == _scan_bytes(warm)
        assert cache.hits == 1
        assert cache.actors_recast == 1

    def test_pose_change_misses(self):
        layout = parking_lot(seed=7, rows=2, cols=3, occupancy=0.9)
        lidar = LidarModel(pattern=PATTERN)
        pose = layout.viewpoint("car1")
        import dataclasses

        nudged = dataclasses.replace(
            pose, position=pose.position + np.array([0.01, 0.0, 0.0])
        )
        cache = ScanGeometryCache()
        lidar.scan(layout.world, pose, seed=0, cache=cache)
        warm = lidar.scan(layout.world, nudged, seed=0, cache=cache)
        cold = lidar.scan(layout.world, nudged, seed=0)
        assert _scan_bytes(cold) == _scan_bytes(warm)
        assert cache.misses == 2
        assert cache.hits == 0

    def test_lru_bounded(self):
        layout = parking_lot(seed=7, rows=2, cols=3, occupancy=0.9)
        lidar = LidarModel(pattern=PATTERN)
        base = layout.viewpoint("car1")
        import dataclasses

        cache = ScanGeometryCache(maxsize=2)
        for i in range(4):
            pose = dataclasses.replace(
                base, position=base.position + np.array([float(i), 0.0, 0.0])
            )
            lidar.scan(layout.world, pose, seed=0, cache=cache)
        assert len(cache) == 2

    def test_ray_direction_table_shared_by_equal_patterns(self):
        a = BeamPattern("a", (-10.0, 0.0, 10.0), 1.0)
        b = BeamPattern("b", (-10.0, 0.0, 10.0), 1.0)
        assert _ray_direction_table(a) is _ray_direction_table(b)
        c = BeamPattern("c", (-10.0, 0.0, 10.0), 2.0)
        assert _ray_direction_table(a) is not _ray_direction_table(c)


SPEC = VoxelGridSpec(
    point_range=(0.0, -4.0, -1.0, 8.0, 4.0, 1.0),
    voxel_size=(1.0, 1.0, 1.0),
    max_points_per_voxel=4,
)


def _random_cloud(rng, n=400):
    xyz = rng.uniform([-1.0, -5.0, -1.5], [9.0, 5.0, 1.5], size=(n, 3))
    refl = rng.uniform(0.0, 1.0, size=(n, 1))
    return PointCloud(np.hstack([xyz, refl]).astype(np.float32))


def _grids_equal(a, b):
    return (
        np.array_equal(a.coords, b.coords)
        and np.array_equal(a.counts, b.counts)
        and a.points.dtype == b.points.dtype
        and np.array_equal(a.points, b.points)
    )


class TestVoxelDeltaCache:
    def test_identical_frame_hit(self):
        rng = np.random.default_rng(0)
        cloud = _random_cloud(rng)
        cache = VoxelDeltaCache()
        first = voxelize(cloud, SPEC, seed=5, cache=cache)
        again = voxelize(cloud, SPEC, seed=5, cache=cache)
        assert again is first
        assert cache.stats() == {
            "hits": 1,
            "rescatters": 0,
            "patched": 0,
            "misses": 1,
        }

    def test_value_jitter_rescatters_bit_identical(self):
        rng = np.random.default_rng(1)
        cloud = _random_cloud(rng)
        jittered = cloud.data.copy()
        # Reflectance-only change: every point keeps its voxel assignment.
        jittered[::7, 3] = rng.uniform(0.0, 1.0, size=len(jittered[::7]))
        jittered_cloud = PointCloud(jittered)

        cache = VoxelDeltaCache()
        voxelize(cloud, SPEC, seed=5, cache=cache)
        warm = voxelize(jittered_cloud, SPEC, seed=5, cache=cache)
        cold = voxelize(jittered_cloud, SPEC, seed=5)
        assert _grids_equal(cold, warm)
        assert cache.rescatters == 1

    def test_prefix_delta_bit_identical(self):
        rng = np.random.default_rng(2)
        cloud = _random_cloud(rng, n=500)
        cache = VoxelDeltaCache()
        voxelize(cloud, SPEC, seed=5, cache=cache)
        for keep in (450, 400, 500):
            sub = PointCloud(cloud.data[:keep].copy())
            warm = voxelize(sub, SPEC, seed=5, cache=cache)
            cold = voxelize(sub, SPEC, seed=5)
            assert _grids_equal(cold, warm)
        assert cache.patched >= 2

    def test_prefix_grows_bit_identical(self):
        rng = np.random.default_rng(3)
        cloud = _random_cloud(rng, n=400)
        extra = _random_cloud(rng, n=60)
        grown = PointCloud(np.vstack([cloud.data, extra.data]))
        cache = VoxelDeltaCache()
        voxelize(cloud, SPEC, seed=5, cache=cache)
        warm = voxelize(grown, SPEC, seed=5, cache=cache)
        cold = voxelize(grown, SPEC, seed=5)
        assert _grids_equal(cold, warm)
        assert cache.patched == 1

    def test_large_delta_falls_back_to_cold(self):
        rng = np.random.default_rng(4)
        a = _random_cloud(rng, n=400)
        b = _random_cloud(rng, n=400)
        cache = VoxelDeltaCache()
        voxelize(a, SPEC, seed=5, cache=cache)
        warm = voxelize(b, SPEC, seed=5, cache=cache)
        cold = voxelize(b, SPEC, seed=5)
        assert _grids_equal(cold, warm)
        assert cache.misses == 2

    def test_spec_or_seed_change_misses(self):
        rng = np.random.default_rng(5)
        cloud = _random_cloud(rng)
        cache = VoxelDeltaCache()
        voxelize(cloud, SPEC, seed=5, cache=cache)
        voxelize(cloud, SPEC, seed=6, cache=cache)
        assert cache.hits == 0
        assert cache.misses == 2

    def test_overflow_sampling_is_per_voxel_independent(self):
        # The per-voxel RNG streams are what make local delta updates
        # legal: removing points that land in one voxel must not change
        # which points another (untouched) overflowing voxel keeps.
        rng = np.random.default_rng(6)
        cluster_a = np.hstack(
            [
                rng.uniform([0.1, 0.1, -0.9], [0.9, 0.9, -0.1], size=(12, 3)),
                rng.uniform(0.0, 1.0, size=(12, 1)),
            ]
        ).astype(np.float32)
        cluster_b = np.hstack(
            [
                rng.uniform([5.1, 2.1, 0.1], [5.9, 2.9, 0.9], size=(12, 3)),
                rng.uniform(0.0, 1.0, size=(12, 1)),
            ]
        ).astype(np.float32)
        both = voxelize(
            PointCloud(np.vstack([cluster_a, cluster_b])), SPEC, seed=9
        )
        only_a = voxelize(PointCloud(cluster_a), SPEC, seed=9)
        coord_a = tuple(only_a.coords[0])
        row_both = both.voxel_at(coord_a)
        row_only = only_a.voxel_at(coord_a)
        assert np.array_equal(both.points[row_both], only_a.points[row_only])


def _site_tensor(linear_sites, grid=(12, 12, 6), channels=3, seed=0):
    rng = np.random.default_rng(seed)
    nx, ny, nz = grid
    sites = np.asarray(sorted(linear_sites), dtype=np.int64)
    coords = np.column_stack(
        [sites // (ny * nz), (sites // nz) % ny, sites % nz]
    )
    features = rng.normal(size=(len(sites), channels))
    return SparseTensor3d(coords, features, grid)


def _pairs_equal(a, b):
    if len(a.pairs) != len(b.pairs):
        return False
    for (ka, ia, oa), (kb, ib, ob) in zip(a.pairs, b.pairs):
        if ka != kb or not np.array_equal(ia, ib) or not np.array_equal(oa, ob):
            return False
    return True


class TestPatchRulebook:
    def _fresh(self, tensor, kernel_size=3):
        conv = SubmanifoldConv3d(3, 3, kernel_size=kernel_size, seed=0)
        RULEBOOK_CACHE.enabled = False
        try:
            return conv.build_rulebook(tensor)
        finally:
            RULEBOOK_CACHE.enabled = True

    def test_patched_equals_fresh_over_random_churn(self):
        rng = np.random.default_rng(11)
        grid = (12, 12, 6)
        universe = grid[0] * grid[1] * grid[2]
        sites = set(rng.choice(universe, size=120, replace=False).tolist())
        prev_rb = self._fresh(_site_tensor(sites, grid))
        for round_idx in range(6):
            removed = set(
                rng.choice(sorted(sites), size=10, replace=False).tolist()
            )
            added = set(
                rng.choice(
                    sorted(set(range(universe)) - sites), size=10, replace=False
                ).tolist()
            )
            sites = (sites - removed) | added
            tensor = _site_tensor(sites, grid, seed=round_idx)
            fresh = self._fresh(tensor)
            patched = patch_rulebook(prev_rb, tensor, 3)
            assert patched is not None
            assert _pairs_equal(fresh, patched)
            assert np.array_equal(fresh.linear, patched.linear)
            assert np.array_equal(fresh.out_coords, patched.out_coords)
            prev_rb = patched

    def test_forward_with_patched_rulebook_bit_identical(self):
        rng = np.random.default_rng(12)
        grid = (10, 10, 4)
        universe = grid[0] * grid[1] * grid[2]
        prev_sites = set(rng.choice(universe, size=60, replace=False).tolist())
        next_sites = set(list(prev_sites)[:-5]) | set(
            rng.choice(
                sorted(set(range(universe)) - prev_sites), size=5, replace=False
            ).tolist()
        )
        prev_rb = self._fresh(_site_tensor(prev_sites, grid))
        tensor = _site_tensor(next_sites, grid, seed=99)
        conv = SubmanifoldConv3d(3, 4, seed=1)
        fresh_out = conv(tensor, rulebook=self._fresh(tensor))
        patched_out = conv(tensor, rulebook=patch_rulebook(prev_rb, tensor, 3))
        assert np.array_equal(fresh_out.features, patched_out.features)

    def test_large_delta_declined(self):
        rng = np.random.default_rng(13)
        grid = (12, 12, 6)
        universe = grid[0] * grid[1] * grid[2]
        a = set(rng.choice(universe, size=100, replace=False).tolist())
        b = set(rng.choice(universe, size=100, replace=False).tolist())
        prev_rb = self._fresh(_site_tensor(a, grid))
        assert patch_rulebook(prev_rb, _site_tensor(b, grid), 3, 0.1) is None

    def test_grid_mismatch_declined(self):
        prev_rb = self._fresh(_site_tensor({1, 2, 3}, (12, 12, 6)))
        tensor = _site_tensor({1, 2, 3}, (10, 10, 4))
        assert patch_rulebook(prev_rb, tensor, 3) is None

    def test_build_rulebook_uses_temporal_patch(self):
        state = TemporalState()
        rng = np.random.default_rng(14)
        grid = (12, 12, 6)
        universe = grid[0] * grid[1] * grid[2]
        sites = set(rng.choice(universe, size=80, replace=False).tolist())
        conv = SubmanifoldConv3d(3, 3, seed=0)
        conv.build_rulebook(_site_tensor(sites, grid), temporal=state)
        assert state.previous_rulebook(3, grid) is not None
        sites = set(list(sites)[:-4])
        before = RULEBOOK_CACHE.patched
        rb = conv.build_rulebook(_site_tensor(sites, grid), temporal=state)
        assert RULEBOOK_CACHE.patched == before + 1
        fresh = self._fresh(_site_tensor(sites, grid))
        assert _pairs_equal(fresh, rb)


class TestRulebookCacheApi:
    def test_clear_resets_entries_and_stats(self):
        t = _site_tensor({1, 5, 9}, (6, 6, 4))
        conv = SubmanifoldConv3d(3, 3, seed=0)
        conv.build_rulebook(t)
        conv.build_rulebook(t)
        assert RULEBOOK_CACHE.hits >= 1 and len(RULEBOOK_CACHE) >= 1
        RULEBOOK_CACHE.clear()
        assert len(RULEBOOK_CACHE) == 0
        assert (
            RULEBOOK_CACHE.hits
            == RULEBOOK_CACHE.misses
            == RULEBOOK_CACHE.patched
            == 0
        )

    def test_reset_stats_keeps_entries(self):
        t = _site_tensor({1, 5, 9}, (6, 6, 4))
        conv = SubmanifoldConv3d(3, 3, seed=0)
        conv.build_rulebook(t)
        RULEBOOK_CACHE.reset_stats()
        assert len(RULEBOOK_CACHE) == 1
        assert RULEBOOK_CACHE.misses == 0
        conv.build_rulebook(t)
        assert RULEBOOK_CACHE.hits == 1


class TestTemporalState:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TemporalConfig(scan_cache_entries=0)
        with pytest.raises(ValueError):
            TemporalConfig(max_rulebook_delta_fraction=1.5)
        with pytest.raises(ValueError):
            TemporalConfig(pose_jump_m=0.0)

    def test_detect_memo_recall_and_store(self):
        state = TemporalState()
        cloud = PointCloud(
            np.array([[1.0, 2.0, 0.5, 0.3]], dtype=np.float32)
        )
        assert state.detect_recall(cloud) is None
        state.detect_store(cloud, ["sentinel"])
        same = PointCloud(cloud.data.copy())
        assert state.detect_recall(same) == ["sentinel"]
        other = PointCloud(cloud.data + 1.0)
        assert state.detect_recall(other) is None
        assert state.detect_hits == 1
        assert state.detect_misses == 1

    def test_invalidate_scopes(self):
        state = TemporalState()
        cloud = PointCloud(
            np.array([[1.0, 2.0, 0.5, 0.3]], dtype=np.float32)
        )
        state.detect_store(cloud, ["sentinel"])
        state.store_rulebook(3, (4, 4, 4), object())
        state.invalidate("stale_fallback", scope="fuse")
        assert state.detect_recall(cloud) is None
        assert state.previous_rulebook(3, (4, 4, 4)) is None
        assert state.invalidations == {"stale_fallback": 1}
        with pytest.raises(ValueError):
            state.invalidate("bogus", scope="partial")

    def test_memoised_detect_equals_cold(self):
        layout = parking_lot(seed=21, rows=2, cols=3, occupancy=0.9)
        lidar = LidarModel(pattern=PATTERN)
        scan = lidar.scan(layout.world, layout.viewpoint("car1"), seed=0)
        detector = SPOD.pretrained()
        state = TemporalState()
        cold = detector.detect(scan.cloud)
        warm_miss = detector.detect(scan.cloud, temporal=state)
        warm_hit = detector.detect(scan.cloud, temporal=state)
        keys = [_det_keys(d) for d in (cold, warm_miss, warm_hit)]
        assert keys[0] == keys[1] == keys[2]
        assert len(cold) > 0
        assert state.detect_hits == 1


def _det_keys(detections):
    return [
        (d.box.center.tobytes(), d.box.yaw, float(d.score), d.label)
        for d in detections
    ]


def _run_session(temporal, workers, faults_spec=None, seconds=4.0):
    session = _toy_session(SPOD.pretrained())
    if faults_spec is not None:
        session.faults = FaultPlan.from_spec(faults_spec, seed=9)
    session.temporal = temporal
    logs = session.run(duration_seconds=seconds, seed=3, workers=workers)
    return session, _canonical_logs(logs)


class TestSessionWarmPath:
    def test_clean_session_warm_equals_cold(self):
        _, cold = _run_session(False, 1)
        warm_session, warm = _run_session(True, 1)
        assert cold == warm
        stats = warm_session.temporal_states()
        assert stats["beta"].scan.hits > 0  # beta is stationary

    def test_clean_session_warm_equals_cold_workers4(self):
        _, cold = _run_session(False, 1)
        _, warm = _run_session(True, 4)
        assert cold == warm

    # Satellite: warm-vs-cold bit-identity under chaos (LiDAR blackouts +
    # GPS dropouts), serial and at workers=4.
    CHAOS = "heavy,gps-dropout=1.0,lidar-blackout=0.5"

    def test_chaos_session_warm_equals_cold(self):
        cold_session, cold = _run_session(False, 1, self.CHAOS, seconds=5.0)
        warm_session, warm = _run_session(True, 1, self.CHAOS, seconds=5.0)
        assert cold == warm
        assert cold_session.degradation.get("lidar_blackouts", 0) > 0
        assert cold_session.degradation.get("gps_dropouts", 0) > 0
        # The fault schedule must actually exercise the invalidation paths.
        assert warm_session.degradation.get("temporal_invalidations", 0) > 0
        reasons = set()
        for state in warm_session.temporal_states().values():
            reasons |= set(state.invalidations)
        assert "lidar_blackout" in reasons

    def test_chaos_session_warm_equals_cold_workers4(self):
        _, cold = _run_session(False, 1, self.CHAOS, seconds=5.0)
        _, warm = _run_session(True, 4, self.CHAOS, seconds=5.0)
        assert cold == warm

    def test_degradation_counts_match_across_worker_counts(self):
        s1, _ = _run_session(True, 1, self.CHAOS, seconds=5.0)
        s4, _ = _run_session(True, 4, self.CHAOS, seconds=5.0)
        assert s1.degradation == s4.degradation

    def test_steady_state_session_hits_detect_memo(self):
        # Stationary beta re-observes a static scene; with per-step noise
        # seeds the clouds differ, so drive the memo directly instead: the
        # same merged cloud detected twice in a row.
        layout = parking_lot(seed=21, rows=2, cols=3, occupancy=0.9)
        lidar = LidarModel(pattern=PATTERN)
        scan = lidar.scan(layout.world, layout.viewpoint("car1"), seed=0)
        detector = SPOD.pretrained()
        state = TemporalState()
        base = detector.detect_all(scan.cloud, temporal=state)
        again = detector.detect_all(scan.cloud, temporal=state)
        assert _det_keys(base) == _det_keys(again)
        assert state.detect_hits == 1
