"""Unit and property tests for the Eq. (1) rotation machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rotations import (
    angle_difference,
    euler_to_matrix,
    is_rotation_matrix,
    matrix_to_euler,
    normalize_angle,
    normalize_angles,
    rotation_x,
    rotation_y,
    rotation_z,
    yaw_matrix_2d,
)

angles = st.floats(-math.pi, math.pi, allow_nan=False)


class TestBasicRotations:
    def test_rotation_z_quarter_turn(self):
        rotated = rotation_z(math.pi / 2) @ np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(rotated, [0.0, 1.0, 0.0], atol=1e-12)

    def test_rotation_x_quarter_turn(self):
        rotated = rotation_x(math.pi / 2) @ np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(rotated, [0.0, 0.0, 1.0], atol=1e-12)

    def test_rotation_y_quarter_turn(self):
        rotated = rotation_y(math.pi / 2) @ np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(rotated, [1.0, 0.0, 0.0], atol=1e-12)

    def test_zero_angle_is_identity(self):
        for rot in (rotation_x, rotation_y, rotation_z):
            np.testing.assert_allclose(rot(0.0), np.eye(3), atol=1e-15)

    def test_rotation_preserves_z_axis_for_rz(self):
        v = np.array([0.0, 0.0, 3.5])
        np.testing.assert_allclose(rotation_z(1.234) @ v, v, atol=1e-12)

    @given(angles)
    @settings(max_examples=50)
    def test_all_basic_rotations_are_proper(self, angle):
        for rot in (rotation_x, rotation_y, rotation_z):
            assert is_rotation_matrix(rot(angle))

    @given(angles)
    @settings(max_examples=50)
    def test_inverse_is_negative_angle(self, angle):
        np.testing.assert_allclose(
            rotation_z(angle) @ rotation_z(-angle), np.eye(3), atol=1e-9
        )


class TestEulerConversions:
    def test_composition_order_matches_paper(self):
        """Eq. (1): R = Rz(alpha) Ry(beta) Rx(gamma)."""
        alpha, beta, gamma = 0.3, -0.2, 0.7
        expected = rotation_z(alpha) @ rotation_y(beta) @ rotation_x(gamma)
        np.testing.assert_allclose(
            euler_to_matrix(alpha, beta, gamma), expected, atol=1e-12
        )

    @given(
        st.floats(-3.0, 3.0),
        st.floats(-1.4, 1.4),
        st.floats(-3.0, 3.0),
    )
    @settings(max_examples=80)
    def test_euler_roundtrip(self, yaw, pitch, roll):
        matrix = euler_to_matrix(yaw, pitch, roll)
        recovered = euler_to_matrix(*matrix_to_euler(matrix))
        np.testing.assert_allclose(recovered, matrix, atol=1e-8)

    def test_gimbal_lock_still_valid_rotation(self):
        matrix = euler_to_matrix(0.5, math.pi / 2, 0.3)
        recovered = euler_to_matrix(*matrix_to_euler(matrix))
        np.testing.assert_allclose(recovered, matrix, atol=1e-6)

    @pytest.mark.parametrize("pole", [math.pi / 2, -math.pi / 2])
    @given(yaw=st.floats(-3.0, 3.0), roll=st.floats(-3.0, 3.0))
    @settings(max_examples=60)
    def test_roundtrip_exactly_at_gimbal_poles(self, pole, yaw, roll):
        """At pitch = ±π/2 only yaw∓roll is observable; the recovered
        angles must still recompose to the same matrix at *both* poles."""
        matrix = euler_to_matrix(yaw, pole, roll)
        recovered = euler_to_matrix(*matrix_to_euler(matrix))
        np.testing.assert_allclose(recovered, matrix, atol=1e-9)

    @pytest.mark.parametrize("pole", [math.pi / 2, -math.pi / 2])
    @given(
        yaw=st.floats(-3.0, 3.0),
        offset=st.floats(-1e-4, 1e-4),
        roll=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=60)
    def test_roundtrip_near_gimbal_poles(self, pole, yaw, offset, roll):
        """Just off the poles the branch choice must not glitch.

        Inside the gimbal window (|cos pitch| < ~4.5e-5) the recovered
        representative snaps to the pole, so entries may differ by that
        order — but a wrong yaw/roll combination at either pole would be
        off by O(1), which this tolerance still catches.
        """
        matrix = euler_to_matrix(yaw, pole + offset, roll)
        recovered = euler_to_matrix(*matrix_to_euler(matrix))
        np.testing.assert_allclose(recovered, matrix, atol=2e-4)

    def test_matrix_to_euler_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            matrix_to_euler(np.eye(4))


class TestIsRotationMatrix:
    def test_identity(self):
        assert is_rotation_matrix(np.eye(3))

    def test_reflection_rejected(self):
        reflection = np.diag([1.0, 1.0, -1.0])
        assert not is_rotation_matrix(reflection)

    def test_scaled_rejected(self):
        assert not is_rotation_matrix(2.0 * np.eye(3))

    def test_wrong_shape_rejected(self):
        assert not is_rotation_matrix(np.eye(2))


class TestAngles:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            (0.0, 0.0),
            (math.pi, math.pi),
            (-math.pi, math.pi),
            (3 * math.pi, math.pi),
            (2 * math.pi, 0.0),
            (-math.pi / 2, -math.pi / 2),
        ],
    )
    def test_normalize_angle(self, raw, expected):
        assert normalize_angle(raw) == pytest.approx(expected, abs=1e-12)

    @given(angles, angles)
    @settings(max_examples=50)
    def test_angle_difference_bounded(self, a, b):
        diff = angle_difference(a, b)
        assert -math.pi < diff <= math.pi

    def test_normalize_angles_equals_scalar_bitwise(self):
        pi = math.pi
        edges = [
            pi, -pi, 2 * pi, -2 * pi, 3 * pi, -3 * pi, 0.0, -0.0,
            math.nextafter(pi, 4.0), math.nextafter(pi, 0.0),
            math.nextafter(-pi, -4.0), math.nextafter(-pi, 0.0),
        ]
        rng = np.random.default_rng(18)
        raw = np.concatenate([edges, rng.uniform(-40.0, 40.0, 200_000)])
        expected = np.array([normalize_angle(a) for a in raw.tolist()])
        assert normalize_angles(raw).tobytes() == expected.tobytes()
        # float32 input wraps its exact float64 value, as the scalar does.
        raw32 = raw.astype(np.float32)
        expected32 = np.array([normalize_angle(a) for a in raw32.tolist()])
        assert normalize_angles(raw32).tobytes() == expected32.tobytes()
        assert normalize_angles(raw.reshape(-1, 4)).shape == (len(raw) // 4, 4)

    def test_angle_difference_wraps(self):
        assert angle_difference(math.pi - 0.1, -math.pi + 0.1) == pytest.approx(-0.2)

    def test_yaw_matrix_2d_matches_rz(self):
        full = rotation_z(0.77)
        np.testing.assert_allclose(yaw_matrix_2d(0.77), full[:2, :2], atol=1e-12)
