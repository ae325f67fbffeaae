"""The shared scenario-family corpus of the bit-identity tests.

One seeded scenario per :mod:`repro.scenario` family, named by its index
under ``scenario_seed(0, family, index)``.  The LiDAR, decode and
warm-path tests each sweep it, so a refactor is held to bit-identity on
every family, not just the paper's cases.  :func:`detection_clouds` adds
the paper's cases, for the detector's kernel-path tests.
"""

from repro.datasets import kitti_cases
from repro.datasets.tj import tj_cases
from repro.fusion.align import merge_packages
from repro.scenario import FAMILIES, build_case, compile_scenario, scenario_seed

# highway_merge index 0 detects nothing, so its index 1 stands in.
FAMILY_INDICES = {
    "roundabout": 0,
    "highway_merge": 1,
    "occluded_pedestrian": 0,
    "convoy": 0,
    "mixed_fleet_intersection": 0,
}


def merged_cloud(case):
    """The receiver's own cloud merged with every cooperator's package."""
    own = case.cloud_of(case.receiver)
    return merge_packages(
        own, case.packages_for_receiver(), case.receiver_measured_pose()
    )


def detection_clouds() -> list:
    """The KITTI and T&J cases, single and merged, and one merged cloud of
    every scenario family."""
    clouds = []
    for case in kitti_cases() + tj_cases():
        clouds += [case.cloud_of(case.receiver), merged_cloud(case)]
    for name in sorted(FAMILY_INDICES):
        compiled = compile_scenario(
            FAMILIES[name], scenario_seed(0, name, FAMILY_INDICES[name])
        )
        clouds.append(merged_cloud(build_case(compiled)))
    return clouds
