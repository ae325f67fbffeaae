"""The scenario family library: the generative specs the fuzzer sweeps.

The families (:data:`FAMILIES`) are roundabout, highway merge, occluded
pedestrian, convoy and mixed-fleet intersection.  Each is a distribution
over worlds; sweeping the compile seed sweeps thousands of distinct,
collision-free scenes with the occlusion structure the family name
promises (the substrate :mod:`repro.scenario.fuzz` runs its recall
contracts over).  The paper's fixed scenes are the hand-coded builders in
:mod:`repro.scene.layouts`, not specs.

Geometry convention: receivers sit near the origin facing +x, actors live
roughly in x ∈ [0, 60], y ∈ [-20, 20] — inside SPOD's detection area and
the 60 m evaluation range for every sampled viewpoint.
"""

from __future__ import annotations

import numpy as np

from repro.scene.objects import make_building, make_tree, make_truck
from repro.scenario.dsl import (
    ActorDist,
    Choice,
    Constant,
    Convoy,
    FixedActors,
    LaneRegion,
    OccludedGroup,
    RectRegion,
    RigDist,
    RingRegion,
    ScenarioSpec,
    TruncNormal,
    Uniform,
    UniformInt,
    ViewpointSpec,
)

__all__ = [
    "FAMILIES",
    "FAMILY_CONTRACTS",
    "family",
    "roundabout",
    "highway_merge",
    "occluded_pedestrian",
    "convoy",
    "mixed_fleet_intersection",
]


# ---------------------------------------------------------------------------
# Generative families
# ---------------------------------------------------------------------------


def roundabout() -> ScenarioSpec:
    """Cars circulating a central island, watched from two opposite arms.

    The island building blocks each arm's view of the far side of the
    ring, so the two observers see complementary halves — the geometry the
    paper's Fig. 3 junctions approximate with corner buildings.
    """
    return ScenarioSpec(
        name="roundabout",
        constructs=(
            FixedActors((
                make_building(28.0, 0.0, length=6.0, width=6.0,
                              name="island"),
                make_tree(28.0, 16.0, name="tree-n"),
            )),
            ActorDist(
                kind="car",
                count=UniformInt(3, 7),
                region=RingRegion(28.0, 0.0, radius=10.0, radius_std=0.4),
                prefix="ring",
            ),
            ActorDist(
                kind="car",
                count=UniformInt(1, 2),
                region=LaneRegion(8.0, -1.8, 15.0, -1.8, lateral_std=0.2),
                prefix="west",
            ),
            ActorDist(
                kind="car",
                count=UniformInt(1, 2),
                region=LaneRegion(48.0, 1.8, 41.0, 1.8, lateral_std=0.2),
                prefix="east",
            ),
        ),
        viewpoints=(
            ViewpointSpec("west-arm", Uniform(0.0, 3.0), Uniform(-2.4, -1.2)),
            ViewpointSpec(
                "east-arm", Uniform(53.0, 56.0), Uniform(1.2, 2.4),
                Constant(np.pi),
            ),
        ),
        rig=RigDist("fuzz16"),
        receiver="west-arm",
    )


def highway_merge() -> ScenarioSpec:
    """An on-ramp joining a two-lane highway with a convoy in the slow lane.

    The mainline observer's view of the ramp is skimmed by the sound wall;
    the ramp observer cannot see past the convoy — each needs the other.
    """
    ramp_heading = float(np.arctan2(9.2, 26.0))
    return ScenarioSpec(
        name="highway_merge",
        constructs=(
            FixedActors((
                make_building(30.0, 13.0, length=30.0, width=4.0,
                              name="sound-wall"),
                make_tree(8.0, 8.0, name="tree-0"),
            )),
            Convoy(
                count=UniformInt(3, 5),
                region=LaneRegion(26.0, -1.8, 34.0, -1.8, lateral_std=0.2),
                prefix="convoy",
                spacing=Uniform(6.5, 9.0),
            ),
            ActorDist(
                kind="car",
                count=UniformInt(1, 3),
                region=LaneRegion(14.0, 1.8, 50.0, 1.8, lateral_std=0.2),
                prefix="fast",
            ),
            ActorDist(
                kind="car",
                count=UniformInt(1, 3),
                region=LaneRegion(14.0, -14.8, 40.0, -5.6, lateral_std=0.3),
                prefix="ramp",
            ),
        ),
        viewpoints=(
            ViewpointSpec("mainline", Uniform(-2.0, 2.0), Constant(-1.8)),
            ViewpointSpec(
                "ramp", Uniform(10.0, 14.0), Uniform(-16.5, -15.0),
                Constant(ramp_heading),
            ),
        ),
        rig=RigDist("fuzz16"),
        receiver="mainline",
    )


def occluded_pedestrian() -> ScenarioSpec:
    """The crosswalk incident as a distribution: hidden-by-construction.

    An :class:`OccludedGroup` plants a van broadside on the approach
    vehicle's sight line to a kerb-side anchor and huddles pedestrians
    behind it; a cooperator on the opposite side sees the crossing
    cleanly.  This is the family the fusion-never-hurts contract fuzzes:
    the receiver is blind to the hidden actors by construction, so fused
    recall must be at least the receiver's own on every sampled scene.
    """
    van_dims = (Constant(5.5), Constant(2.0), TruncNormal(2.4, 0.1, 2.2, 2.8))
    return ScenarioSpec(
        name="occluded_pedestrian",
        constructs=(
            FixedActors((
                make_building(10.0, 14.0, length=12.0, width=8.0,
                              name="bldg-n"),
                make_tree(34.0, -8.0, name="tree-0"),
            )),
            ActorDist(
                kind="car",
                count=UniformInt(1, 3),
                region=LaneRegion(44.0, 3.4, 28.0, 3.4, lateral_std=0.15),
                prefix="queue",
            ),
            OccludedGroup(
                viewpoint="approach",
                region=RectRegion(18.0, 28.0, -6.5, -3.5, yaw=Constant(0.0)),
                count=UniformInt(1, 2),
                hidden_kind="pedestrian",
                occluder_kind="truck",
                frac=Uniform(0.45, 0.65),
                spread=1.1,
                prefix="hidden",
                occluder_dims=van_dims,
            ),
            ActorDist(
                kind="pedestrian",
                count=UniformInt(0, 1),
                region=RectRegion(16.0, 24.0, 1.0, 3.0),
                prefix="walker",
            ),
        ),
        viewpoints=(
            ViewpointSpec("approach", Uniform(-2.0, 2.0), Uniform(-2.0, -1.2)),
            ViewpointSpec(
                "opposite", Uniform(31.0, 38.0), Uniform(0.2, 2.0),
                Constant(np.pi),
            ),
        ),
        rig=RigDist("fuzz16"),
        receiver="approach",
    )


def convoy() -> ScenarioSpec:
    """A platoon on a two-lane road, observed from its tail and a scout.

    Nose-to-tail cars occlude one another almost completely from the tail
    vehicle; the scout ahead sees the platoon from the front.  Dense
    self-occlusion at near range is the regime where beam count matters
    most, so this family also anchors the monotone-beam contract.
    """
    return ScenarioSpec(
        name="convoy",
        constructs=(
            FixedActors((
                make_tree(12.0, 8.0, name="tree-0"),
                make_tree(36.0, -8.0, name="tree-1"),
            )),
            Convoy(
                count=UniformInt(4, 7),
                region=LaneRegion(30.0, -1.8, 38.0, -1.8, lateral_std=0.15),
                prefix="convoy",
                spacing=Uniform(6.5, 9.0),
            ),
            ActorDist(
                kind="car",
                count=UniformInt(1, 3),
                region=LaneRegion(46.0, 1.8, 22.0, 1.8, lateral_std=0.2),
                prefix="oncoming",
            ),
        ),
        viewpoints=(
            ViewpointSpec("tail", Uniform(-2.0, 2.0), Constant(-1.8)),
            ViewpointSpec("scout", Uniform(48.0, 54.0), Constant(-1.8)),
        ),
        rig=RigDist("fuzz16"),
        receiver="tail",
    )


def mixed_fleet_intersection() -> ScenarioSpec:
    """A T-junction swept by a mixed 16/64-beam fleet (paper Section IV).

    Three observers — the ego on the main road, one on the side road, one
    parked past the mouth — each independently drawing a sparse or dense
    rig, the heterogeneous-fleet regime of the paper's KITTI/T&J split.
    """
    return ScenarioSpec(
        name="mixed_fleet_intersection",
        constructs=(
            FixedActors((
                make_building(18.0, 19.0, length=14.0, width=8.0,
                              name="bldg-nw"),
                make_building(52.0, 15.0, length=12.0, width=8.0,
                              name="bldg-ne"),
                make_building(30.0, -13.0, length=26.0, width=6.0,
                              name="bldg-s"),
                make_truck(24.0, -0.5, yaw=0.0, name="truck-occluder"),
            )),
            ActorDist(
                kind="car",
                count=UniformInt(2, 4),
                region=LaneRegion(44.0, 3.5, 16.0, 3.5, lateral_std=0.2),
                prefix="main",
            ),
            ActorDist(
                kind="car",
                count=UniformInt(1, 3),
                region=LaneRegion(35.0, 20.0, 35.0, 8.0, lateral_std=0.25),
                prefix="side",
            ),
            ActorDist(
                kind="cyclist",
                count=UniformInt(0, 1),
                region=LaneRegion(40.0, 6.5, 48.0, 6.5),
                prefix="cyclist",
            ),
        ),
        viewpoints=(
            ViewpointSpec("ego", Uniform(-2.0, 2.0), Uniform(-2.0, -1.0)),
            ViewpointSpec(
                "side", Constant(35.0), Uniform(22.0, 26.0),
                Constant(-np.pi / 2),
            ),
            ViewpointSpec(
                "parked", Uniform(44.0, 48.0), Uniform(6.5, 8.0),
                Constant(np.pi),
            ),
        ),
        rig=RigDist(Choice(("fuzz16", "fuzz64"))),
        receiver="ego",
    )


#: The generative families, by name (the `--family` vocabulary).
FAMILIES: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        roundabout(),
        highway_merge(),
        occluded_pedestrian(),
        convoy(),
        mixed_fleet_intersection(),
    )
}

#: Default contract set per family (see :mod:`repro.scenario.fuzz`).
#: Fusion-never-hurts runs on the occlusion-by-construction families;
#: monotone-beam where self-occlusion makes beam density decisive;
#: no-crash-under-chaos everywhere.
FAMILY_CONTRACTS: dict[str, tuple[str, ...]] = {
    "roundabout": ("no_crash",),
    "highway_merge": ("no_crash",),
    "occluded_pedestrian": ("fusion_never_hurts", "no_crash"),
    "convoy": ("fusion_never_hurts", "monotone_beam", "no_crash"),
    "mixed_fleet_intersection": ("monotone_beam", "no_crash"),
}


def family(name: str) -> ScenarioSpec:
    """Look up a generative family, failing fast with the valid set."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario family {name!r} "
            f"(valid families: {', '.join(sorted(FAMILIES))})"
        ) from None

