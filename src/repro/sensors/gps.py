"""GPS reading with bounded drift and the Fig. 10 skewing protocol.

The paper's integrated GPS/INS yields <10 cm positional error [6]; Fig. 10
tests fusion robustness by *procedurally* skewing GPS readings three ways:

* both x and y pushed to the maximum known drift bound,
* a single axis pushed to the bound,
* double the bound ("abnormal instances").

:class:`GpsSkew` encodes those protocols; :func:`read_gps` produces noisy
readings from true poses.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.geometry.transforms import Pose

__all__ = ["GPS_DRIFT_BOUND", "GPS_NOISE_STD", "GpsSkew", "read_gps"]

#: White positional noise per axis (metres).
GPS_NOISE_STD = 0.02

#: Maximum integrated drift magnitude (metres); the paper cites <10 cm for
#: GPS/INS integration.
GPS_DRIFT_BOUND = 0.10


class GpsSkew(enum.Enum):
    """The artificial skewing protocols of Fig. 10."""

    NONE = "none"
    BOTH_AXES_MAX = "both_axes_max"
    ONE_AXIS_MAX = "one_axis_max"
    DOUBLE_MAX = "double_max"

    def offset(self, drift_bound: float, rng: np.random.Generator) -> np.ndarray:
        """The (x, y, z) position offset this protocol applies."""
        sign = lambda: rng.choice([-1.0, 1.0])  # noqa: E731 - tiny local helper
        if self is GpsSkew.NONE:
            return np.zeros(3)
        if self is GpsSkew.BOTH_AXES_MAX:
            return np.array([sign() * drift_bound, sign() * drift_bound, 0.0])
        if self is GpsSkew.ONE_AXIS_MAX:
            axis = rng.integers(0, 2)
            out = np.zeros(3)
            out[axis] = sign() * drift_bound
            return out
        if self is GpsSkew.DOUBLE_MAX:
            return np.array(
                [sign() * 2 * drift_bound, sign() * 2 * drift_bound, 0.0]
            )
        raise AssertionError(f"unhandled skew {self}")


def read_gps(
    true_pose: Pose, seed: int = 0, skew: GpsSkew = GpsSkew.NONE
) -> Pose:
    """Return the pose with GPS-corrupted position (attitude untouched).

    The reading = truth + random drift of up to :data:`GPS_DRIFT_BOUND` +
    white noise of :data:`GPS_NOISE_STD` + the requested skew protocol
    offset (pushed to the drift bound).
    """
    rng = np.random.default_rng(seed)
    drift_direction = rng.normal(size=2)
    norm = np.linalg.norm(drift_direction)
    if norm > 0:
        drift_direction = drift_direction / norm
    drift_mag = rng.uniform(0.0, GPS_DRIFT_BOUND)
    drift = np.array([*(drift_direction * drift_mag), 0.0])
    noise = rng.normal(0.0, GPS_NOISE_STD, size=3) * np.array([1, 1, 0.3])
    offset = drift + noise + skew.offset(GPS_DRIFT_BOUND, rng)
    return Pose(
        true_pose.position + offset,
        yaw=true_pose.yaw,
        pitch=true_pose.pitch,
        roll=true_pose.roll,
    )
