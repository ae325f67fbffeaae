"""The shared scenario-family corpus of the bit-identity tests.

One seeded scenario per :mod:`repro.scenario` family, named by its index
under ``scenario_seed(0, family, index)``.  The LiDAR, decode and
warm-path tests each sweep it, so a refactor is held to bit-identity on
every family, not just the paper's cases.
"""

# highway_merge index 0 detects nothing, so its index 1 stands in.
FAMILY_INDICES = {
    "roundabout": 0,
    "highway_merge": 1,
    "occluded_pedestrian": 0,
    "convoy": 0,
    "mixed_fleet_intersection": 0,
}
