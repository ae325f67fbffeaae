"""Extension — channel congestion: how many cooperating pairs fit DSRC?

The paper's warning that over-frequent exchange "needlessly congest[s] the
communication channels", quantified: simulate N cooperating pairs sharing
one 6 Mbit/s channel under each ROI policy and find where deliveries start
deferring.

Shape: full-frame exchange saturates after ~1-3 pairs; the 120-degree
sector supports several; demand-trimmed corridors support dozens — the
reason ROI extraction is load-bearing for fleet-scale cooperation.
"""

from benchmarks.conftest import publish
from repro.network.roi_policy import RoiCategory, RoiPolicy, extract_roi
from repro.network.scheduler import Demand, SharedChannelScheduler
from repro.scene.layouts import two_lane_road
from repro.sensors.lidar import VLP_16, LidarModel
from repro.sensors.rig import SensorRig
from repro.fusion.package import ExchangePackage


def _bits_per_direction(policy: RoiPolicy) -> int:
    layout = two_lane_road()
    rig = SensorRig(lidar=LidarModel(pattern=VLP_16), name="probe")
    obs = rig.observe(layout.world, layout.viewpoint("ego"), seed=0)
    roi = extract_roi(obs.scan.cloud, policy, [a.box for a in layout.world.background()])
    return ExchangePackage(roi, obs.measured_pose).size_bytes() * 8


def test_ext_congestion(benchmark, results_dir):
    policies = {
        "full frame": RoiPolicy(
            category=RoiCategory.FULL_FRAME, subtract_known_background=False
        ),
        "front sector": RoiPolicy(category=RoiCategory.FRONT_SECTOR),
        "forward corridor": RoiPolicy(category=RoiCategory.FORWARD_CORRIDOR),
    }

    rows = []
    saturation = {}
    for label, policy in policies.items():
        bits = _bits_per_direction(policy)
        directions = 2 if policy.category.bidirectional else 1
        max_pairs = SharedChannelScheduler.saturation_point(
            bits, bidirectional=policy.category.bidirectional
        )
        saturation[label] = max_pairs
        # Verify with the scheduler: max_pairs fits, max_pairs + 2 defers.
        def run_pairs(n):
            scheduler = SharedChannelScheduler()
            demands = [
                Demand(f"pair{i}-{d}", bits)
                for i in range(n)
                for d in range(directions)
            ]
            return scheduler.schedule_second(demands)

        fits = run_pairs(max_pairs)
        overload = run_pairs(max_pairs + 2)
        assert not fits.deferred
        assert overload.deferred
        rows.append(
            f"  {label:17s}: {bits/1e6:5.2f} Mbit/dir -> "
            f"{max_pairs:3d} pairs per channel "
            f"(util at capacity {fits.utilization*100:4.0f}%)"
        )
    publish(
        results_dir,
        "ext_congestion.txt",
        "Extension — cooperating pairs per 6 Mbit/s DSRC channel at 1 Hz\n"
        + "\n".join(rows),
    )

    assert (
        saturation["forward corridor"]
        > saturation["front sector"]
        >= saturation["full frame"]
    )

    policy = policies["full frame"]
    benchmark.pedantic(_bits_per_direction, args=(policy,), rounds=3, iterations=1)
    benchmark.extra_info["pairs_by_policy"] = saturation
