"""Property-based tests for the camera, scheduler, mapping and packages."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fusion.package import ExchangePackage
from repro.geometry.transforms import Pose
from repro.network.scheduler import Demand, SharedChannelScheduler
from repro.pointcloud.cloud import PointCloud
from repro.pointcloud.mapping import BackgroundMapper
from repro.sensors.camera import PinholeCamera

CAMERA = PinholeCamera(width=320, height=200, horizontal_fov_deg=100.0)


class TestCameraProperties:
    @given(
        st.floats(1.0, 80.0),
        st.floats(-20.0, 20.0),
        st.floats(-3.0, 5.0),
    )
    @settings(max_examples=60)
    def test_projection_ray_roundtrip(self, x, y, z):
        """A projected point back-projects onto its own viewing ray."""
        point = np.array([[x, y, z]])
        uv, valid = CAMERA.project(point)
        assume(valid[0])
        u, v = uv[0]
        f = CAMERA.focal_pixels
        # Reconstruct the direction the pixel corresponds to.
        direction = np.array(
            [1.0, (CAMERA.width / 2 - u) / f, (CAMERA.height / 2 - v) / f]
        )
        direction /= np.linalg.norm(direction)
        original = point[0] / np.linalg.norm(point[0])
        assert np.dot(direction, original) > 0.9999

    @given(st.floats(1.0, 60.0), st.floats(-10.0, 10.0))
    @settings(max_examples=40)
    def test_depth_ordering_preserved(self, x, y):
        """Doubling a point's distance keeps it on the same pixel ray but
        never moves it to the opposite image half."""
        near = np.array([[x, y, 0.0]])
        far = 2.0 * near
        uv_near, valid_near = CAMERA.project(near)
        uv_far, valid_far = CAMERA.project(far)
        assume(valid_near[0] and valid_far[0])
        # Same azimuth sign -> same side of the image centre.
        assert (uv_near[0, 0] - CAMERA.width / 2) * (
            uv_far[0, 0] - CAMERA.width / 2
        ) >= -1.0


class TestSchedulerProperties:
    demands_strategy = st.lists(
        st.tuples(st.integers(0, 5_000_000), st.integers(0, 3)),
        min_size=0,
        max_size=12,
    )

    @given(demands_strategy)
    @settings(max_examples=60)
    def test_conservation(self, raw):
        """Every demand is either delivered or deferred — none vanish."""
        scheduler = SharedChannelScheduler()
        demands = [Demand(f"v{i}", bits, pri) for i, (bits, pri) in enumerate(raw)]
        report = scheduler.schedule_second(demands)
        assert len(report.delivered) + len(report.deferred) == len(demands)
        delivered_bits = sum(d.bits for d in report.delivered)
        assert delivered_bits <= scheduler.capacity_bits_per_second

    @given(demands_strategy)
    @settings(max_examples=40)
    def test_backlog_drains_eventually(self, raw):
        """With no new demands, the backlog empties in bounded rounds."""
        scheduler = SharedChannelScheduler()
        demands = [
            Demand(f"v{i}", min(bits, 5_999_999), pri)
            for i, (bits, pri) in enumerate(raw)
        ]
        scheduler.schedule_second(demands)
        for _ in range(len(demands) + 1):
            if not scheduler.backlog:
                break
            scheduler.schedule_second([])
        assert not scheduler.backlog

    @given(demands_strategy)
    @settings(max_examples=40)
    def test_priority_dominance(self, raw):
        """No deferred demand outranks (strictly) every delivered one."""
        scheduler = SharedChannelScheduler()
        demands = [Demand(f"v{i}", bits, pri) for i, (bits, pri) in enumerate(raw)]
        report = scheduler.schedule_second(demands)
        if report.delivered and report.deferred:
            best_deferred = max(d.priority for d in report.deferred)
            # A deferred high-priority demand may only exist because it was
            # too big for the remaining budget, never because a strictly
            # lower-priority *larger* demand was preferred.
            for deferred in report.deferred:
                smaller_lower = [
                    d
                    for d in report.delivered
                    if d.priority < deferred.priority and d.bits >= deferred.bits
                ]
                assert not smaller_lower


class TestMappingProperties:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_static_mask_monotone_in_threshold(self, seed, passes):
        """A stricter presence threshold never marks *more* cells static."""
        rng = np.random.default_rng(seed)
        bounds = (0.0, 0.0, 20.0, 20.0)
        loose = BackgroundMapper(bounds, cell=1.0, presence_threshold=0.3)
        strict = BackgroundMapper(bounds, cell=1.0, presence_threshold=0.9)
        pose = Pose(np.array([0.0, 0.0, 1.7]))
        for _ in range(passes):
            n = rng.integers(1, 80)
            xyz = np.column_stack(
                [
                    rng.uniform(0, 20, n),
                    rng.uniform(0, 20, n),
                    rng.uniform(-1.0, 2.0, n),
                ]
            )
            cloud = PointCloud.from_xyz(xyz)
            loose.add_pass(cloud, pose)
            strict.add_pass(cloud, pose)
        assert strict.build().coverage_cells <= loose.build().coverage_cells


class TestPackageProperties:
    @given(
        st.integers(0, 60),
        st.floats(-100, 100),
        st.floats(-100, 100),
        st.floats(-3, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_serialize_roundtrip_property(self, n, x, y, yaw):
        rng = np.random.default_rng(abs(n) + 1)
        cloud = PointCloud.from_xyz(rng.uniform(-50, 50, size=(n, 3)))
        package = ExchangePackage(
            cloud, Pose(np.array([x, y, 1.7]), yaw=yaw), sender="p", timestamp=1.0
        )
        decoded = ExchangePackage.deserialize(package.serialize())
        assert len(decoded.cloud) == n
        assert decoded.pose.yaw == pytest.approx(
            Pose(np.zeros(3), yaw=yaw).yaw, abs=1e-9
        )
        np.testing.assert_allclose(
            decoded.pose.position, [x, y, 1.7], atol=1e-9
        )
