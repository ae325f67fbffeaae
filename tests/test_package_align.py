"""Tests for exchange packages and Eq. (1)-(3) alignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion.align import align_package, alignment_transform, merge_packages
from repro.fusion.package import ExchangePackage
from repro.geometry.transforms import Pose
from repro.pointcloud.cloud import PointCloud
from repro.pointcloud.compression import (
    CompressionSpec,
    compress_cloud,
    compressed_size_bytes,
)


def cloud_of(*points) -> PointCloud:
    return PointCloud(np.array(points, dtype=np.float32))


def package_at(x, y, yaw, cloud=None, sender="tx") -> ExchangePackage:
    return ExchangePackage(
        cloud=cloud or cloud_of([1, 0, 0, 0.5]),
        pose=Pose(np.array([x, y, 1.7]), yaw=yaw),
        sender=sender,
        beam_count=16,
        timestamp=1.25,
    )


class TestExchangePackage:
    def test_serialize_roundtrip(self):
        package = package_at(10.0, -5.0, 0.7)
        decoded = ExchangePackage.deserialize(package.serialize())
        assert decoded.sender == "tx"
        assert decoded.beam_count == 16
        assert decoded.timestamp == pytest.approx(1.25)
        np.testing.assert_allclose(
            decoded.pose.position, package.pose.position, atol=1e-9
        )
        assert decoded.pose.yaw == pytest.approx(0.7)
        np.testing.assert_allclose(decoded.cloud.xyz, package.cloud.xyz, atol=0.01)

    def test_size_accounts_for_cloud(self):
        small = package_at(0, 0, 0, cloud=cloud_of([1, 0, 0, 0]))
        big = package_at(
            0, 0, 0, cloud=PointCloud(np.random.default_rng(0).normal(size=(1000, 4)))
        )
        assert big.size_bytes() > small.size_bytes()

    def test_size_megabits(self):
        package = package_at(0, 0, 0)
        assert package.size_megabits() == pytest.approx(
            package.size_bytes() * 8 / 1e6
        )

    def test_long_sender_rejected(self):
        # 40 ASCII chars overflow the 16-byte wire field: fail fast at
        # construction instead of silently truncating on the wire.
        with pytest.raises(ValueError, match="16"):
            package_at(0, 0, 0, sender="x" * 40)

    def test_multibyte_sender_rejected_not_split(self):
        # 9 x 'ü' is 9 characters but 18 UTF-8 bytes; the old truncation
        # could split a multi-byte character mid-sequence.
        with pytest.raises(ValueError, match="UTF-8"):
            package_at(0, 0, 0, sender="ü" * 9)

    def test_sixteen_byte_sender_accepted(self):
        package = package_at(0, 0, 0, sender="x" * 16)
        decoded = ExchangePackage.deserialize(package.serialize())
        assert decoded.sender == "x" * 16

    @given(
        sender=st.text(min_size=1, max_size=16).filter(
            lambda s: 0 < len(s.encode("utf-8")) <= 16
            and "\0" not in s
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_sender_roundtrip_property(self, sender):
        package = package_at(0, 0, 0, sender=sender)
        decoded = ExchangePackage.deserialize(package.serialize())
        assert decoded.sender == sender

    @pytest.mark.parametrize("count", [0, 1, 1000])
    @pytest.mark.parametrize("coordinate_bits", [8, 16, 32])
    @pytest.mark.parametrize("reflectance_bits", [0, 8])
    def test_size_bytes_matches_serialized_length(
        self, count, coordinate_bits, reflectance_bits
    ):
        """The package's analytic size equals its wire length, and the
        codec's analytic size, which the package size adds up, equals its
        payload at every spec the codec ablation sweeps."""
        spec = CompressionSpec(
            coordinate_bits=coordinate_bits, reflectance_bits=reflectance_bits
        )
        cloud = PointCloud(
            np.random.default_rng(7).normal(size=(count, 4)).astype(np.float32)
        )
        package = package_at(0, 0, 0, cloud=cloud)
        assert package.size_bytes() == len(package.serialize())
        assert compressed_size_bytes(count, spec) == len(compress_cloud(cloud, spec))

    def test_size_bytes_default_spec_matches_serialized_length(self):
        package = package_at(0, 0, 0)
        assert package.size_bytes() == len(package.serialize())

    def test_invalid_beam_count(self):
        with pytest.raises(ValueError):
            ExchangePackage(cloud_of([0, 0, 0, 0]), Pose(), beam_count=0)

    def test_truncated_payload_rejected(self):
        with pytest.raises(ValueError):
            ExchangePackage.deserialize(b"short")

    def test_compression_spec_respected(self):
        cloud = PointCloud(np.random.default_rng(1).normal(size=(500, 4)))
        lean = compress_cloud(cloud, CompressionSpec(reflectance_bits=0))
        full = compress_cloud(cloud, CompressionSpec(reflectance_bits=8))
        assert len(lean) < len(full)
        # The package wire carries the default codec.
        package = package_at(0, 0, 0, cloud=cloud)
        assert package.serialize().endswith(compress_cloud(cloud))


class TestAlignment:
    def test_pure_translation(self):
        """Transmitter 10 m ahead: its origin-point lands at x = 10."""
        package = package_at(10.0, 0.0, 0.0, cloud=cloud_of([0, 0, 0, 0]))
        receiver = Pose(np.array([0.0, 0.0, 1.7]), yaw=0.0)
        aligned = align_package(package, receiver)
        np.testing.assert_allclose(aligned.xyz[0], [10.0, 0.0, 0.0], atol=1e-6)

    def test_rotation_from_imu_difference(self):
        """Eq. (1): transmitter yawed 90 deg; its +x maps to receiver +y."""
        package = package_at(0.0, 0.0, np.pi / 2, cloud=cloud_of([5, 0, 0, 0]))
        receiver = Pose(np.array([0.0, 0.0, 1.7]), yaw=0.0)
        aligned = align_package(package, receiver)
        np.testing.assert_allclose(aligned.xyz[0], [0.0, 5.0, 0.0], atol=1e-6)

    def test_full_transform(self):
        package = package_at(4.0, 2.0, np.pi, cloud=cloud_of([1, 1, 0, 0]))
        receiver = Pose(np.array([0.0, 0.0, 1.7]), yaw=0.0)
        aligned = align_package(package, receiver)
        # Point at transmitter-frame (1,1) -> world (4-1, 2-1) = (3, 1).
        np.testing.assert_allclose(aligned.xyz[0], [3.0, 1.0, 0.0], atol=1e-6)

    @given(
        st.floats(-50, 50), st.floats(-50, 50), st.floats(-3, 3),
        st.floats(-50, 50), st.floats(-50, 50), st.floats(-3, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_alignment_equals_true_geometry(self, tx, ty, tyaw, rx, ry, ryaw):
        """Aligned points equal the world-frame geometry for exact poses."""
        t_pose = Pose(np.array([tx, ty, 1.7]), yaw=tyaw)
        r_pose = Pose(np.array([rx, ry, 1.7]), yaw=ryaw)
        local = np.array([3.0, -1.0, 0.5])
        world = t_pose.to_world().apply(local)
        expected = r_pose.from_world().apply(world)
        actual = alignment_transform(t_pose, r_pose).apply(local)
        np.testing.assert_allclose(actual, expected, atol=1e-8)

    def test_merge_packages_counts(self):
        receiver_pose = Pose(np.array([0.0, 0.0, 1.7]))
        native = cloud_of([0, 0, 0, 0], [1, 0, 0, 0])
        packages = [
            package_at(5, 0, 0, cloud=cloud_of([0, 0, 0, 0])),
            package_at(-5, 0, 0, cloud=cloud_of([0, 0, 0, 0], [1, 1, 1, 0])),
        ]
        merged = merge_packages(native, packages, receiver_pose)
        assert len(merged) == 5
        assert merged.frame_id == "cooperative"

    def test_merge_no_packages_is_native(self):
        receiver_pose = Pose(np.array([0.0, 0.0, 1.7]))
        native = cloud_of([1, 2, 3, 0])
        merged = merge_packages(native, [], receiver_pose)
        np.testing.assert_allclose(merged.xyz, native.xyz)

    def test_gps_error_shifts_alignment_proportionally(self):
        """A 2x GPS skew on the transmitter shifts aligned points by 2x."""
        receiver = Pose(np.array([0.0, 0.0, 1.7]))
        true_tx = Pose(np.array([10.0, 0.0, 1.7]))
        skewed_tx = Pose(np.array([10.2, 0.0, 1.7]))
        cloud = cloud_of([0, 0, 0, 0])
        clean = ExchangePackage(cloud, true_tx).cloud.transformed(
            alignment_transform(true_tx, receiver)
        )
        skewed = ExchangePackage(cloud, skewed_tx).cloud.transformed(
            alignment_transform(skewed_tx, receiver)
        )
        shift = np.linalg.norm(skewed.xyz[0] - clean.xyz[0])
        assert shift == pytest.approx(0.2, abs=1e-6)
