"""Pinned outputs of the exchange path: Fig. 12 traces, the DSRC channel
model and the Fig. 10 measured poses.

Each table holds sha256 digests of exact bytes (floats as float64, counts
as int64, flags as uint8), so any change to the exchange simulator, the
ROI crops, the wire codec, the channel or the GPS/IMU readers that moves
a value in its last bit fails here.  No other test pins these values:
the Fig. 12 bench asserts only ordering and capacity.
"""

import hashlib

import numpy as np
import pytest

from repro.network.dsrc import DsrcChannel
from repro.network.roi_policy import RoiCategory, RoiPolicy
from repro.network.simulator import ExchangeSimulator
from repro.scene.layouts import parking_lot, two_lane_road
from repro.scene.trajectories import StationaryTrajectory, StraightTrajectory
from repro.sensors.gps import GpsSkew
from repro.sensors.lidar import VLP_16, BeamPattern, LidarModel
from repro.sensors.rig import SensorRig

#: The three Fig. 12 policies, as ``benchmarks/bench_fig12_roi_volume.py``
#: runs them (8 s, seed 0): volume, per-frame Mbit, latencies, attempts
#: and delivery flags of each trace.
FIG12_TRACES = {
    "full_frame": "0942ee3391263e3925d97046755478ab75fc72064b9361bcfdbb9dbdaf6b55de",
    "front_sector": "a5e3eab80d46fcd582c65ecafbea7f301cf293421f8ddbcbbeb256ce99ad6088",
    "forward_corridor": "28fc437619fcdde168168d596da7bb8aa577b94f3050092726f5ab2c494de808",
}

#: ``DsrcChannel().transmit`` over payloads x seeds x loss x extra latency.
TRANSMIT_GRID = "443948049d345e79182dbb4f91462ee5aeeea977d7a0efea7e376cc3e648f21f"

#: Measured poses of ``SensorRig.observe`` for every GPS skew at seeds 0-4.
MEASURED_POSES = "a78516262bdce623a8b7620bb32f1ca2217921ded7854e2aca1287a04df7d2ae"

PAYLOAD_BITS = (0, 1_000, 600_000, 1_800_000)
SEEDS = range(5)
LOSS_RATES = (None, 0.3, 0.9)
EXTRA_LATENCY_MS = (0.0, 5.0)

#: One beam: the measured pose does not depend on the scan.
POSE_PATTERN = BeamPattern("pin-1", (0.0,), 10.0)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def fig12_trace_digest(category: RoiCategory) -> str:
    layout = two_lane_road()
    rig = lambda name: SensorRig(  # noqa: E731
        lidar=LidarModel(pattern=VLP_16), name=name
    )
    simulator = ExchangeSimulator(
        world=layout.world, rig_a=rig("car1"), rig_b=rig("car2")
    )
    ego = StraightTrajectory(layout.viewpoint("ego"), speed=6.0)
    if category is RoiCategory.FORWARD_CORRIDOR:
        other = StationaryTrajectory(layout.viewpoint("leader"))
    else:
        other = StraightTrajectory(layout.viewpoint("oncoming"), speed=6.0)
    policy = RoiPolicy(
        category=category,
        subtract_known_background=category is not RoiCategory.FULL_FRAME,
    )
    trace = simulator.run(ego, other, policy, duration_seconds=8.0, seed=0)
    return _digest(
        np.asarray(trace.volume_megabits, dtype=np.float64),
        np.asarray(trace.per_frame_megabits, dtype=np.float64),
        np.asarray(trace.latencies, dtype=np.float64),
        np.asarray(trace.attempts, dtype=np.int64),
        np.asarray(trace.delivered, dtype=np.uint8),
    )


def transmit_grid_digest() -> str:
    channel = DsrcChannel()
    seconds, attempts, delivered = [], [], []
    for bits in PAYLOAD_BITS:
        for seed in SEEDS:
            for loss in LOSS_RATES:
                for extra in EXTRA_LATENCY_MS:
                    report = channel.transmit(
                        bits, seed=seed, loss_rate=loss, extra_latency_ms=extra
                    )
                    seconds.append(report.seconds)
                    attempts.append(report.attempts)
                    delivered.append(report.delivered)
    return _digest(
        np.asarray(seconds, dtype=np.float64),
        np.asarray(attempts, dtype=np.int64),
        np.asarray(delivered, dtype=np.uint8),
    )


def measured_poses_digest() -> str:
    layout = parking_lot()
    rig = SensorRig(lidar=LidarModel(pattern=POSE_PATTERN), name="car2")
    rows = []
    for skew in GpsSkew:
        for seed in SEEDS:
            pose = rig.observe(
                layout.world, layout.viewpoint("car2"), seed=seed, gps_skew=skew
            ).measured_pose
            rows.append([*pose.position, pose.yaw, pose.pitch, pose.roll])
    return _digest(np.asarray(rows, dtype=np.float64))


@pytest.mark.parametrize(
    "category", list(RoiCategory), ids=lambda c: c.name.lower()
)
def test_fig12_trace_is_pinned(category):
    assert fig12_trace_digest(category) == FIG12_TRACES[category.name.lower()]


def test_transmit_grid_is_pinned():
    assert transmit_grid_digest() == TRANSMIT_GRID


def test_measured_poses_are_pinned():
    assert measured_poses_digest() == MEASURED_POSES
