"""Ablation — exchange rate: the paper's 1 Hz choice vs the native 10 Hz.

Section IV-G argues "excessive exchanging of frequencies only leads to
unnecessary data" and settles on 1 frame per second.  Sweep the rate and
record channel utilisation.

Shape: volume grows linearly with rate; 1 Hz sits comfortably inside DSRC
capacity while 10 Hz full-frame exchange approaches or exceeds it.
"""

from benchmarks.conftest import publish
from repro.network.dsrc import DsrcChannel
from repro.network.roi_policy import RoiCategory, RoiPolicy
from repro.network.simulator import ExchangeSimulator
from repro.scene.layouts import two_lane_road
from repro.scene.trajectories import StationaryTrajectory
from repro.sensors.lidar import VLP_16, LidarModel
from repro.sensors.rig import SensorRig


def test_ablation_exchange_rate(benchmark, results_dir):
    layout = two_lane_road()
    make_rig = lambda name: SensorRig(  # noqa: E731
        lidar=LidarModel(pattern=VLP_16), name=name
    )
    simulator = ExchangeSimulator(
        world=layout.world, rig_a=make_rig("a"), rig_b=make_rig("b")
    )
    ego = StationaryTrajectory(layout.viewpoint("ego"))
    oncoming = StationaryTrajectory(layout.viewpoint("oncoming"))
    channel = DsrcChannel()

    rows = []
    utilisation = {}
    for rate in (1.0, 2.0, 5.0, 10.0):
        policy = RoiPolicy(
            category=RoiCategory.FULL_FRAME,
            subtract_known_background=False,
            exchange_rate_hz=rate,
        )
        trace = simulator.run(ego, oncoming, policy, duration_seconds=3.0)
        utilisation[rate] = channel.utilization(trace.mean_volume_megabits * 1e6)
        rows.append(
            f"  {rate:4.0f} Hz: {trace.mean_volume_megabits:6.2f} Mbit/s "
            f"({utilisation[rate]*100:5.1f}% of DSRC)"
        )
    publish(
        results_dir,
        "ablation_exchange_rate.txt",
        "Ablation — exchange rate (full-frame, both directions)\n"
        + "\n".join(rows),
    )

    assert utilisation[1.0] < 0.5  # the paper's choice: comfortable headroom
    assert utilisation[10.0] > 5 * utilisation[1.0]  # linear growth

    policy = RoiPolicy(
        category=RoiCategory.FULL_FRAME, subtract_known_background=False
    )
    benchmark.pedantic(
        simulator.run, args=(ego, oncoming, policy),
        kwargs={"duration_seconds": 1.0}, rounds=3, iterations=1,
    )
    benchmark.extra_info["utilisation_1hz"] = round(utilisation[1.0], 3)
