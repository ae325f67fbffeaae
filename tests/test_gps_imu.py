"""Tests for the GPS drift / skew protocols (Fig. 10) and the IMU reader."""

import numpy as np
import pytest

from repro.geometry.transforms import Pose
from repro.sensors.gps import GpsSkew, read_gps
from repro.sensors.imu import read_imu

TRUE = Pose(np.array([10.0, -5.0, 1.7]), yaw=0.5, pitch=0.01, roll=-0.02)


class TestGps:
    def test_reading_near_truth(self):
        reading = read_gps(TRUE, seed=0)
        assert np.linalg.norm(reading.position - TRUE.position) < 0.25

    def test_attitude_untouched(self):
        reading = read_gps(TRUE, seed=1)
        assert reading.yaw == pytest.approx(TRUE.yaw)
        assert reading.pitch == pytest.approx(TRUE.pitch)

    def test_deterministic(self):
        a = read_gps(TRUE, seed=3)
        b = read_gps(TRUE, seed=3)
        np.testing.assert_array_equal(a.position, b.position)

    @pytest.mark.parametrize(
        "skew, expected_norm",
        [
            (GpsSkew.NONE, 0.0),
            (GpsSkew.BOTH_AXES_MAX, np.sqrt(2) * 0.1),
            (GpsSkew.ONE_AXIS_MAX, 0.1),
            (GpsSkew.DOUBLE_MAX, np.sqrt(2) * 0.2),
        ],
    )
    def test_skew_offset_magnitudes(self, skew, expected_norm):
        rng = np.random.default_rng(0)
        offset = skew.offset(0.1, rng)
        assert np.linalg.norm(offset) == pytest.approx(expected_norm, abs=1e-12)

    def test_skew_shifts_reading(self):
        # Drift and noise come from the same draws at one seed, so the
        # readings differ by the skew offset alone.
        base = read_gps(TRUE, seed=5, skew=GpsSkew.NONE)
        skewed = read_gps(TRUE, seed=5, skew=GpsSkew.DOUBLE_MAX)
        shift = np.linalg.norm(skewed.position - base.position)
        assert shift == pytest.approx(np.sqrt(2) * 0.2, abs=1e-9)

    def test_skew_keeps_z(self):
        rng = np.random.default_rng(1)
        for skew in GpsSkew:
            assert skew.offset(0.1, rng)[2] == 0.0


class TestImu:
    def test_reading_near_truth(self):
        reading = read_imu(TRUE, seed=0)
        assert abs(reading.yaw - TRUE.yaw) < np.deg2rad(1.0)

    def test_position_untouched(self):
        reading = read_imu(TRUE, seed=2)
        np.testing.assert_array_equal(reading.position, TRUE.position)

    def test_deterministic(self):
        a = read_imu(TRUE, seed=9)
        b = read_imu(TRUE, seed=9)
        assert a.yaw == b.yaw
