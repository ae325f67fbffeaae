"""Tests for feature-level fusion, gating, wire formats and the ledger."""

import hashlib

import numpy as np
import pytest

from repro.datasets.synthetic_kitti import kitti_cases
from repro.eval.frontier import case_frontier
from repro.eval.matching import match_detections
from repro.faults import FaultPlan
from repro.fusion.feature import (
    ConfidenceRequest,
    FeaturePackage,
    build_feature_package,
    build_request,
    feature_package_intrinsically_sane,
    fuse_feature_packages,
    perceive_features,
)
from repro.geometry.transforms import Pose
from repro.network.comm import CommRecorder
from repro.runtime import fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="parallel session needs fork start method"
)


def make_package(
    num_voxels=5, num_channels=4, sender="tx", grid_shape=(280, 200, 5)
) -> FeaturePackage:
    rng = np.random.default_rng(3)
    coords = np.column_stack(
        [rng.integers(0, n, size=num_voxels) for n in grid_shape]
    ).astype(np.int64)
    features = rng.uniform(0.0, 1.0, size=(num_voxels, num_channels))
    return FeaturePackage(
        coords=coords,
        features=features,
        pose=Pose(np.array([3.0, -1.0, 1.7]), yaw=0.3),
        sender=sender,
        timestamp=2.5,
        grid_shape=grid_shape,
    )


class TestFeaturePackageWire:
    def test_roundtrip(self):
        package = make_package()
        decoded = FeaturePackage.deserialize(package.serialize())
        assert decoded.sender == "tx"
        assert decoded.timestamp == pytest.approx(2.5)
        assert decoded.grid_shape == package.grid_shape
        np.testing.assert_array_equal(decoded.coords, package.coords)
        # uint8 quantization: exact to one step of each channel's span.
        span = package.features.max(axis=0) - package.features.min(axis=0)
        np.testing.assert_allclose(
            decoded.features, package.features, atol=float(span.max()) / 255 + 1e-12
        )
        np.testing.assert_allclose(
            decoded.pose.position, package.pose.position, atol=1e-12
        )

    def test_empty_roundtrip(self):
        package = make_package(num_voxels=0)
        decoded = FeaturePackage.deserialize(package.serialize())
        assert decoded.num_voxels == 0
        assert decoded.grid_shape == package.grid_shape

    def test_empty_roundtrip_keeps_channel_width(self):
        # A receiver stacks an empty package's features under its own.
        package = make_package(num_voxels=0, num_channels=8)
        decoded = FeaturePackage.deserialize(package.serialize())
        assert decoded.features.shape == (0, 8)

    @pytest.mark.parametrize("num_voxels", [0, 1, 7, 400])
    @pytest.mark.parametrize("num_channels", [1, 4, 6])
    def test_size_bytes_matches_serialized_length(
        self, num_voxels, num_channels
    ):
        package = make_package(num_voxels, num_channels)
        assert package.size_bytes() == len(package.serialize())

    def test_long_sender_rejected(self):
        with pytest.raises(ValueError, match="16"):
            make_package(sender="x" * 20)

    def test_multibyte_sender_rejected_not_split(self):
        with pytest.raises(ValueError, match="UTF-8"):
            make_package(sender="ü" * 9)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            FeaturePackage.deserialize(b"not a package")

    def test_sanity_check(self):
        assert feature_package_intrinsically_sane(make_package())
        bad_pose = FeaturePackage(
            coords=np.zeros((1, 3), dtype=np.int64),
            features=np.ones((1, 4)),
            pose=Pose(np.array([np.nan, 0.0, 0.0])),
            grid_shape=(10, 10, 5),
        )
        assert not feature_package_intrinsically_sane(bad_pose)


class TestConfidenceRequestWire:
    def test_roundtrip(self):
        confident = np.zeros((280, 200), dtype=bool)
        confident[40:60, 90:110] = True
        request = ConfidenceRequest(
            confident=confident,
            pose=Pose(np.array([1.0, 2.0, 1.7]), yaw=-0.2),
            sender="rx",
            timestamp=4.0,
        )
        decoded = ConfidenceRequest.deserialize(request.serialize())
        np.testing.assert_array_equal(decoded.confident, confident)
        assert decoded.sender == "rx"
        assert decoded.timestamp == pytest.approx(4.0)

    @pytest.mark.parametrize("blob", [0, 1, 3])
    def test_size_bytes_matches_serialized_length(self, blob):
        confident = np.zeros((280, 200), dtype=bool)
        rng = np.random.default_rng(blob)
        for _ in range(blob):
            r, c = rng.integers(0, 250), rng.integers(0, 170)
            confident[r : r + 12, c : c + 12] = True
        request = ConfidenceRequest(confident=confident, pose=Pose())
        assert request.size_bytes() == len(request.serialize())

    def test_window_encoding_is_compact(self):
        # A single car-sized blob must cost far less than the full grid.
        confident = np.zeros((280, 200), dtype=bool)
        confident[100:110, 100:110] = True
        request = ConfidenceRequest(confident=confident, pose=Pose())
        full_grid_bits = 280 * 200 // 8
        assert request.size_bytes() < full_grid_bits / 10


class TestFusionMath:
    def test_maxout_of_identical_packages_is_identity(self):
        package = make_package(num_voxels=50)
        from repro.detection.spod import SPODConfig

        spec = SPODConfig().voxel_spec
        fused = fuse_feature_packages(
            spec,
            package.coords,
            package.features,
            [package],
            package.pose,
        )
        # Every output cell's features equal the max of the inputs mapped
        # there; with one co-located copy the unique coords survive.
        assert len(fused.coords) <= 2 * len(package.coords)
        assert np.all(fused.features <= 1.0 + 1e-9)
        assert fused.proxy_xyz.shape[1] == 3

    def test_gated_package_never_larger_than_ungated(self):
        rng = np.random.default_rng(5)
        from repro.detection.spod import SPODConfig

        spec = SPODConfig().voxel_spec
        nx, ny, nz = spec.grid_shape
        coords = np.column_stack(
            [
                rng.integers(0, nx, 300),
                rng.integers(0, ny, 300),
                rng.integers(0, nz, 300),
            ]
        ).astype(np.int64)
        features = rng.uniform(0, 1, size=(300, 4))
        heat = rng.uniform(0, 1, size=(nx, ny))
        pose = Pose(np.zeros(3))
        request = build_request(heat, pose, "rx")
        ungated = build_feature_package(spec, coords, features, pose, "tx")
        gated = build_feature_package(
            spec,
            coords,
            features,
            pose,
            "tx",
            heat=heat,
            requests=(request,),
        )
        assert gated.num_voxels <= ungated.num_voxels
        assert gated.size_bytes() <= ungated.size_bytes()


class TestCommRecorder:
    def test_ledger_reductions(self):
        comm = CommRecorder()
        comm.note_frame(0)
        comm.record(0, "alpha", "cloud", 1000)
        comm.record(0, "beta", "cloud", 500, delivered=False)
        comm.record(1, "alpha", "request", 80)
        comm.record(1, "beta", "features", 300)
        assert comm.frames == 2
        assert comm.total_bytes() == 1880
        assert comm.total_bytes("cloud") == 1500
        assert comm.delivered_bytes() == 1380
        assert comm.by_kind() == {"cloud": 1500, "request": 80, "features": 300}
        assert comm.bytes_per_frame() == pytest.approx(940.0)
        summary = comm.summary()
        assert summary["messages"] == 4
        assert summary["frames"] == 2

    def test_empty_ledger(self):
        comm = CommRecorder()
        assert comm.bytes_per_frame() == 0.0
        assert comm.summary()["total_bytes"] == 0


@pytest.fixture(scope="module")
def first_case():
    return kitti_cases()[0]


class TestColocatedParity:
    def test_twin_package_loses_no_recall(self, detector, first_case):
        """A co-located copy of the ego's own features must not hurt."""
        case = first_case
        cloud = case.cloud_of(case.receiver)
        pose = case.receiver_measured_pose()
        spec = detector.config.voxel_spec
        tap = detector.forward_features(cloud, tap=True)
        package = build_feature_package(
            spec,
            np.asarray(tap["grid"].coords),
            np.asarray(tap["middle"].features, dtype=np.float64),
            pose,
            "twin",
        )
        package = FeaturePackage.deserialize(package.serialize())
        feature_dets = perceive_features(detector, cloud, pose, [package])
        threshold = detector.config.detection_threshold
        single = [
            d for d in detector.detect_all(cloud) if d.score >= threshold
        ]
        r = spec.point_range
        visible = [
            b
            for b in case.ground_truth_in(case.receiver)
            if r[0] <= b.center[0] <= r[3]
            and r[1] <= b.center[1] <= r[4]
            and float(np.hypot(*b.center[:2])) <= 60.0
        ]
        matched_feature = match_detections(
            feature_dets, visible, 2.5
        ).num_matched
        matched_single = match_detections(single, visible, 2.5).num_matched
        assert matched_feature >= matched_single

    def test_frontier_with_empty_cooperator_and_wide_features(
        self, first_case, monkeypatch
    ):
        """An empty sender ships 0 voxels at the detector's channel width."""
        from dataclasses import replace

        import repro.eval.frontier as frontier
        from repro.detection.spod import SPOD, SPODConfig
        from repro.pointcloud.cloud import PointCloud

        detector = SPOD.pretrained(SPODConfig(vfe_channels=8))
        sender = next(
            name for name in first_case.observations
            if name != first_case.receiver
        )
        observation = first_case.observations[sender]
        blank = replace(
            observation,
            scan=replace(
                observation.scan,
                cloud=PointCloud.empty(),
                actor_index=observation.scan.actor_index[:0],
            ),
        )
        case = replace(
            first_case,
            observations={**first_case.observations, sender: blank},
        )
        built = []
        real_build = frontier.build_feature_package

        def recording_build(*args, **kwargs):
            package = real_build(*args, **kwargs)
            built.append(package)
            return package

        monkeypatch.setattr(frontier, "build_feature_package", recording_build)
        row = case_frontier(case, detector)
        assert set(row["modes"]) == {"raw", "roi", "feature", "gated"}
        empty = [package for package in built if package.sender == sender]
        assert len(empty) == 2  # one per feature mode
        for package in empty:
            wire = FeaturePackage.deserialize(package.serialize())
            for shipped in (package, wire):
                assert shipped.num_voxels == 0
                assert shipped.num_channels == 8

    def test_frontier_contract_on_first_case(self, detector, first_case):
        """Feature exchange: >=10x fewer bytes, recall parity, gated cheaper."""
        row = case_frontier(first_case, detector)
        modes = row["modes"]
        assert modes["feature"]["bytes"] * 10 <= modes["raw"]["bytes"]
        assert modes["feature"]["matched"] >= modes["raw"]["matched"]
        assert modes["gated"]["bytes"] < modes["feature"]["bytes"]


def _canonical_logs(logs) -> str:
    projected = []
    for name in sorted(logs):
        for step in logs[name]:
            projected.append(
                (
                    name,
                    step.time,
                    step.sent_bits,
                    tuple(step.delivered),
                    step.stale_count,
                    tuple(
                        (p.sender, len(p.serialize()))
                        for p in step.received_packages
                    ),
                    step.observation.scan.cloud.data.tobytes(),
                    tuple(
                        (d.box.center.tobytes(), float(d.score), d.label)
                        for d in step.detections
                    ),
                )
            )
    return hashlib.sha256(repr(projected).encode()).hexdigest()


def _session(detector, mode, faults=None):
    from repro.eval.chaos import build_chaos_session

    session = build_chaos_session(detector=detector, faults=faults)
    session.fusion_mode = mode
    return session


class TestSessionModes:
    def test_invalid_mode_rejected(self, detector):
        session = _session(detector, "bogus")
        with pytest.raises(ValueError, match="fusion_mode"):
            session.run(duration_seconds=1.0, seed=0)

    def test_ledger_populated_per_mode(self, detector):
        for mode, kinds in (
            ("raw", {"cloud"}),
            ("feature", {"features"}),
            ("gated", {"features", "request"}),
        ):
            session = _session(detector, mode)
            session.run(duration_seconds=2.0, seed=3)
            summary = session.comm.summary()
            assert set(summary["by_kind"]) == kinds, mode
            assert summary["frames"] == 2
            assert summary["total_bytes"] > 0

    @pytest.mark.parametrize("mode", ["feature", "gated"])
    def test_lidar_blackout_with_wide_features(self, mode):
        # A blacked-out agent taps and ships an empty feature map of its
        # detector's own channel width, which receivers stack under theirs.
        from repro.detection.spod import SPOD, SPODConfig
        from tests.test_runtime import _toy_session

        session = _toy_session(SPOD.pretrained(SPODConfig(vfe_channels=8)))
        session.fusion_mode = mode
        session.faults = FaultPlan.from_spec("lidar-blackout=0.5", seed=0)
        logs = session.run(duration_seconds=4.0, seed=0)
        assert session.degradation["lidar_blackouts"] > 0
        assert [len(steps) for steps in logs.values()] == [4, 4]

    def test_gated_session_cheaper_than_feature(self, detector):
        feature = _session(detector, "feature")
        feature.run(duration_seconds=3.0, seed=3)
        gated = _session(detector, "gated")
        gated.run(duration_seconds=3.0, seed=3)
        assert (
            gated.comm.total_bytes() < feature.comm.total_bytes()
        )


@needs_fork
class TestWorkerParity:
    @pytest.mark.parametrize("mode", ["feature", "gated"])
    def test_logs_identical_across_worker_counts(self, detector, mode):
        serial = _session(detector, mode).run(
            duration_seconds=3.0, seed=3, workers=1
        )
        parallel = _session(detector, mode).run(
            duration_seconds=3.0, seed=3, workers=4
        )
        assert _canonical_logs(serial) == _canonical_logs(parallel)

    @pytest.mark.parametrize("mode", ["feature", "gated"])
    def test_faulted_logs_identical_across_worker_counts(self, detector, mode):
        faults = FaultPlan.chaos(2)
        serial_session = _session(detector, mode, faults=faults)
        serial = serial_session.run(duration_seconds=3.0, seed=3, workers=1)
        parallel_session = _session(detector, mode, faults=faults)
        parallel = parallel_session.run(
            duration_seconds=3.0, seed=3, workers=4
        )
        assert _canonical_logs(serial) == _canonical_logs(parallel)
        assert (
            serial_session.comm.summary() == parallel_session.comm.summary()
        )
