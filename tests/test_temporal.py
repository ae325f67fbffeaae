"""Tests for the frame-delta (temporal) inference layer.

The contract under test everywhere: warm-path outputs are bit-identical
to cold-path outputs — scans, detections and whole session logs, clean
or under chaos, at any worker count.
"""

import numpy as np
import pytest

from repro.detection.nn.sparse import (
    RULEBOOK_CACHE,
    SparseTensor3d,
    SubmanifoldConv3d,
)
from repro.detection.spod import SPOD
from repro.faults import FaultPlan
from repro.fusion.agent import CooperAgent, CooperSession
from repro.fusion.cooper import Cooper
from repro.network.roi_policy import RoiCategory, RoiPolicy
from repro.scenario import FAMILIES, compile_scenario, scenario_seed
from repro.scene.layouts import parking_lot
from repro.scene.trajectories import StationaryTrajectory
from repro.sensors.lidar import (
    BeamPattern,
    LidarModel,
    ScanGeometryCache,
    _ray_direction_table,
)
from repro.sensors.rig import SensorRig
from tests.family_corpus import FAMILY_INDICES
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


def _site_tensor(linear_sites, grid=(12, 12, 6), channels=3, seed=0):
    rng = np.random.default_rng(seed)
    nx, ny, nz = grid
    sites = np.asarray(sorted(linear_sites), dtype=np.int64)
    coords = np.column_stack(
        [sites // (ny * nz), (sites // nz) % ny, sites % nz]
    )
    features = rng.normal(size=(len(sites), channels))
    return SparseTensor3d(coords, features, grid)


class TestRulebookCacheApi:
    def test_clear_resets_entries_and_stats(self):
        t = _site_tensor({1, 5, 9}, (6, 6, 4))
        conv = SubmanifoldConv3d(3, 3, seed=0)
        conv.build_rulebook(t)
        conv.build_rulebook(t)
        assert RULEBOOK_CACHE.hits >= 1 and len(RULEBOOK_CACHE) >= 1
        RULEBOOK_CACHE.clear()
        assert len(RULEBOOK_CACHE) == 0
        assert RULEBOOK_CACHE.hits == RULEBOOK_CACHE.misses == 0

    def test_reset_stats_keeps_entries(self):
        t = _site_tensor({1, 5, 9}, (6, 6, 4))
        conv = SubmanifoldConv3d(3, 3, seed=0)
        conv.build_rulebook(t)
        RULEBOOK_CACHE.reset_stats()
        assert len(RULEBOOK_CACHE) == 1
        assert RULEBOOK_CACHE.misses == 0
        conv.build_rulebook(t)
        assert RULEBOOK_CACHE.hits == 1


def _run_session(temporal, workers, faults_spec=None, seconds=4.0):
    session = _toy_session(SPOD.pretrained())
    if faults_spec is not None:
        session.faults = FaultPlan.from_spec(faults_spec, seed=9)
    session.temporal = temporal
    logs = session.run(duration_seconds=seconds, seed=3, workers=workers)
    return session, _canonical_logs(logs)


def _family_session(family_name, index):
    """A stationary session on one compiled scenario, each observer on its
    own sampled rig."""
    compiled = compile_scenario(
        FAMILIES[family_name], scenario_seed(0, family_name, index)
    )
    cooper = Cooper(detector=SPOD.pretrained())
    agents = [
        CooperAgent(
            name=name,
            rig=SensorRig(lidar=LidarModel(pattern=compiled.rigs[name]), name=name),
            trajectory=StationaryTrajectory(pose),
            policy=RoiPolicy(category=RoiCategory.FULL_FRAME),
            cooper=cooper,
        )
        for name, pose in compiled.viewpoints.items()
    ]
    return CooperSession(world=compiled.world, agents=agents)


class TestSessionWarmPath:
    @pytest.mark.parametrize("family_name", sorted(FAMILY_INDICES))
    def test_family_session_warm_equals_cold(self, family_name):
        assert set(FAMILY_INDICES) == set(FAMILIES)
        logs = {}
        for temporal in (False, True):
            session = _family_session(family_name, FAMILY_INDICES[family_name])
            session.temporal = temporal
            logs[temporal] = session.run(duration_seconds=3.0, seed=0, workers=1)
        assert _canonical_logs(logs[False]) == _canonical_logs(logs[True])
        assert any(s.detections for steps in logs[True].values() for s in steps)
        # Stationary observers: steps 2 and 3 reuse step 1's scan geometry.
        for state in session.temporal_states().values():
            assert state.scan.hits == 2

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
        # Blackouts and GPS dropouts leave the true pose, the scan cache's
        # key, alone: the stationary beta misses once, then hits.
        scan = warm_session.temporal_states()["beta"].scan
        assert (scan.misses, scan.hits) == (1, 2)

    def test_chaos_session_warm_equals_cold_workers4(self):
        _, cold = _run_session(False, 1, self.CHAOS, seconds=5.0)
        _, warm = _run_session(True, 4, self.CHAOS, seconds=5.0)
        assert cold == warm

    def test_degradation_counts_match_across_worker_counts(self):
        s1, _ = _run_session(True, 1, self.CHAOS, seconds=5.0)
        s4, _ = _run_session(True, 4, self.CHAOS, seconds=5.0)
        assert s1.degradation == s4.degradation
