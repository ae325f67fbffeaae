"""Figs. 11 + 12 — ROI exchange categories and per-second data volume.

Two 16-beam vehicles exchange ROI data at 1 Hz over eight seconds, under
the three Fig. 11 categories: (1) full frame both ways (opposite-direction
traffic — "we transfer the entirety of the frame", no background
subtraction), (2) 120-degree front sector both ways (junctions), (3) a
forward corridor one way (leader -> follower).

Paper shape: volume(ROI 1) > volume(ROI 2) > volume(ROI 3) every second;
the costliest frame compresses to the low-megabit range (paper: ~1.8 Mbit
per frame per car); and every series stays within DSRC capacity.
"""

import numpy as np

from benchmarks.conftest import publish
from repro.network.roi_policy import RoiCategory, RoiPolicy
from repro.network.simulator import ExchangeSimulator
from repro.scene.layouts import two_lane_road
from repro.scene.trajectories import StationaryTrajectory, StraightTrajectory
from repro.sensors.lidar import VLP_16, LidarModel
from repro.sensors.rig import SensorRig

POLICIES = {
    "ROI 1 (full frame)": RoiPolicy(
        category=RoiCategory.FULL_FRAME, subtract_known_background=False
    ),
    "ROI 2 (120-deg sector)": RoiPolicy(category=RoiCategory.FRONT_SECTOR),
    "ROI 3 (forward corridor)": RoiPolicy(category=RoiCategory.FORWARD_CORRIDOR),
}


def _build_simulator():
    layout = two_lane_road()
    make_rig = lambda name: SensorRig(  # noqa: E731
        lidar=LidarModel(pattern=VLP_16), name=name
    )
    return layout, ExchangeSimulator(
        world=layout.world, rig_a=make_rig("car1"), rig_b=make_rig("car2")
    )


def test_fig12_roi_volumes(benchmark, results_dir):
    layout, simulator = _build_simulator()
    ego = StraightTrajectory(layout.viewpoint("ego"), speed=6.0)
    oncoming = StraightTrajectory(layout.viewpoint("oncoming"), speed=6.0)
    leader = StationaryTrajectory(layout.viewpoint("leader"))

    traces = {}
    for label, policy in POLICIES.items():
        other = leader if policy.category is RoiCategory.FORWARD_CORRIDOR else oncoming
        traces[label] = simulator.run(ego, other, policy, duration_seconds=8.0)

    header = "second".ljust(8) + "".join(label.rjust(26) for label in POLICIES)
    lines = ["Fig. 12 analogue — exchanged volume (Mbit) per second", header]
    for second in range(8):
        row = str(second + 1).ljust(8)
        for label in POLICIES:
            row += f"{traces[label].volume_megabits[second]:.2f}".rjust(26)
        lines.append(row)
    worst = max(t.peak_volume_megabits for t in traces.values())
    per_frame = max(max(t.per_frame_megabits) for t in traces.values())
    lines.append(f"\ncostliest single frame: {per_frame:.2f} Mbit (paper: ~1.8 Mbit)")
    lines.append(f"peak per-second volume: {worst:.2f} Mbit/s (DSRC: 6-27 Mbit/s)")
    publish(results_dir, "fig12_roi_volume.txt", "\n".join(lines))

    # Ordering holds every second.
    roi1, roi2, roi3 = (traces[k].volume_megabits for k in POLICIES)
    assert (roi1 >= roi2).all()
    assert (roi2 >= roi3).all()
    # The costliest frame is in the paper's low-megabit band.
    assert 0.2 < per_frame < 3.0
    # Everything fits DSRC.
    assert all(trace.within_capacity() for trace in traces.values())
    assert all(all(trace.delivered) for trace in traces.values())

    # Benchmark one simulated exchange second (scan + ROI + codec + channel).
    policy = POLICIES["ROI 2 (120-deg sector)"]
    benchmark.pedantic(
        simulator.run,
        args=(ego, oncoming, policy),
        kwargs={"duration_seconds": 1.0},
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["worst_frame_mbit"] = round(per_frame, 2)
