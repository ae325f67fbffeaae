#!/usr/bin/env python
"""The networking feasibility study (paper Section IV-G, Figs. 11-12).

Two 16-beam vehicles exchange ROI LiDAR data at 1 Hz over eight seconds
under the three Fig. 11 categories, and the volumes are checked against
DSRC capacity — the paper's headline claim that existing vehicular radios
can carry raw-data cooperative perception.

Run:  python examples/network_feasibility.py
"""

from repro.network.roi_policy import RoiCategory, RoiPolicy
from repro.network.simulator import ExchangeSimulator
from repro.scene.layouts import two_lane_road
from repro.scene.trajectories import StationaryTrajectory, StraightTrajectory
from repro.sensors.lidar import VLP_16, LidarModel
from repro.sensors.rig import SensorRig


def main() -> None:
    layout = two_lane_road()
    simulator = ExchangeSimulator(
        world=layout.world,
        rig_a=SensorRig(lidar=LidarModel(pattern=VLP_16), name="car1"),
        rig_b=SensorRig(lidar=LidarModel(pattern=VLP_16), name="car2"),
    )
    ego = StraightTrajectory(layout.viewpoint("ego"), speed=6.0)
    oncoming = StraightTrajectory(layout.viewpoint("oncoming"), speed=6.0)
    leader = StationaryTrajectory(layout.viewpoint("leader"))

    policies = {
        "ROI 1 full frame, both ways (opposite lanes)": (
            RoiPolicy(category=RoiCategory.FULL_FRAME,
                      subtract_known_background=False),
            oncoming,
        ),
        "ROI 2 120-deg sector, both ways (junction)": (
            RoiPolicy(category=RoiCategory.FRONT_SECTOR),
            oncoming,
        ),
        "ROI 3 forward corridor, one way (following)": (
            RoiPolicy(category=RoiCategory.FORWARD_CORRIDOR),
            leader,
        ),
    }

    print("Exchanged data volume (Mbit) per second over an 8 s window:\n")
    print("sec " + "".join(f"{label.split()[1]:>8s}" for label in policies))
    traces = {
        label: simulator.run(ego, other, policy, duration_seconds=8.0)
        for label, (policy, other) in policies.items()
    }
    for second in range(8):
        row = f"{second + 1:3d} "
        for trace in traces.values():
            row += f"{trace.volume_megabits[second]:8.2f}"
        print(row)

    print()
    for label, trace in traces.items():
        per_frame = max(trace.per_frame_megabits)
        fits = trace.within_capacity()
        latency = max(trace.latencies)
        print(f"{label}")
        print(
            f"   costliest frame {per_frame:.2f} Mbit, "
            f"worst latency {latency * 1e3:.0f} ms, "
            f"within 6 Mbit/s DSRC: {'yes' if fits else 'NO'}"
        )
    print(
        "\nConclusion (paper Section IV-H): the bandwidth of DSRC satisfies "
        "point-cloud transmission for cooperative perception at 1 Hz."
    )


if __name__ == "__main__":
    main()
