"""Road-layout builders mirroring the paper's evaluation scenarios.

Each builder returns a :class:`Layout`: a populated :class:`World` plus the
named observer poses from which the cooperating vehicles scan it.  The four
KITTI scenarios of Fig. 3 (T-junction, stop sign, left turn, curve) and the
T&J parking lots of Fig. 6 are generated procedurally, seeded for
repeatability, with deliberate occlusions so that each single viewpoint
misses some targets — the effect Cooper's fusion recovers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.transforms import Pose
from repro.scene.objects import (
    Actor,
    make_building,
    make_car,
    make_tree,
    make_truck,
    sample_car_dimensions,
)
from repro.scene.world import World

__all__ = [
    "Layout",
    "t_junction",
    "stop_sign",
    "left_turn",
    "curve",
    "parking_lot",
    "two_lane_road",
    "highway_overtake",
    "crosswalk",
]


@dataclass(frozen=True)
class Layout:
    """A built scenario: the world plus named cooperator viewpoints.

    Attributes:
        name: scenario identifier ("t_junction", ...).
        world: the static world snapshot.
        viewpoints: observer name -> sensor pose (LiDAR origin ~1.7 m up).
    """

    name: str
    world: World
    viewpoints: dict[str, Pose] = field(default_factory=dict)

    def viewpoint(self, name: str) -> Pose:
        """Look up one observer pose, failing fast with the valid set."""
        try:
            return self.viewpoints[name]
        except KeyError:
            raise KeyError(
                f"unknown viewpoint {name!r} in layout {self.name!r} "
                f"(valid viewpoints: {', '.join(sorted(self.viewpoints))})"
            ) from None


_SENSOR_HEIGHT = 1.73  # KITTI velodyne mounting height


def _pose(x: float, y: float, yaw: float = 0.0) -> Pose:
    return Pose(np.array([x, y, _SENSOR_HEIGHT]), yaw=yaw)


def _scatter_cars(
    rng: np.random.Generator,
    slots: list[tuple[float, float, float]],
    prefix: str,
) -> list[Actor]:
    """Instantiate cars with sampled dimensions at the given (x, y, yaw).

    Each slot draws KITTI-like dimensions, a small position jitter and a
    small yaw jitter from ``rng`` in a fixed order, so a layout's world is
    a pure function of its seed.  Slots are trusted (no clearance check):
    the builders space them by construction, and the jitter is far smaller
    than any slot pitch.
    """
    cars = []
    for i, (x, y, yaw) in enumerate(slots):
        length, width, height = sample_car_dimensions(rng)
        jitter = rng.normal(0.0, 0.15, size=2)
        cars.append(
            make_car(
                x + jitter[0],
                y + jitter[1],
                yaw + rng.normal(0.0, 0.03),
                length,
                width,
                height,
                name=f"{prefix}-{i}",
            )
        )
    return cars


def t_junction(seed: int = 0) -> Layout:
    """A T-junction: the side road joins from +y; buildings occlude corners.

    The two viewpoints sit on the main road ~15 m apart (paper Fig. 3
    scenario 1, delta-d = 14.7 m), so each sees around the corner buildings
    differently.
    """
    rng = np.random.default_rng(seed)
    cars = _scatter_cars(
        rng,
        [
            # Main road (runs along x), oncoming lane at y = 3.5.
            (18.0, 3.5, np.pi),
            (28.0, 3.5, np.pi),
            (40.0, 3.5, np.pi),
            (26.0, -3.5, 0.0),
            (46.0, -3.5, 0.0),
            # Side road (runs along y at x ~ 35), cars waiting to join.
            (35.0, 10.0, -np.pi / 2),
            (35.0, 18.0, -np.pi / 2),
            (38.5, 13.0, np.pi / 2),
            # Parked near the junction mouth, occluded from one side.
            (44.0, 7.0, 0.0),
        ],
        "car",
    )
    background = [
        make_building(18.0, 19.0, length=14.0, width=8.0, name="bldg-nw"),
        make_building(52.0, 15.0, length=12.0, width=8.0, name="bldg-ne"),
        make_building(30.0, -13.0, length=26.0, width=6.0, name="bldg-s"),
        make_tree(10.0, 7.0, name="tree-0"),
        make_tree(56.0, 7.0, name="tree-1"),
    ]
    truck = make_truck(24.0, -0.5, yaw=0.0, name="truck-occluder")
    world = World(tuple(cars + [truck] + background))
    viewpoints = {
        "t1": _pose(0.0, -1.5, 0.0),
        "t2": _pose(14.55, -0.2, 0.0),  # delta-d = 14.7 m, slight lane change
    }
    return Layout("t_junction", world, viewpoints)


def stop_sign(seed: int = 1) -> Layout:
    """A four-way stop: queued cars occlude one another near the line.

    Viewpoints are two vehicles approaching from perpendicular arms
    (delta-d = 13.3 m in the paper's scenario 2).
    """
    rng = np.random.default_rng(seed)
    cars = _scatter_cars(
        rng,
        [
            # Oncoming (westbound) queue approaching the stop line.
            (18.5, 2.0, np.pi),
            (29.0, 1.8, np.pi),
            # North arm heading south towards the junction at x ~ 20.
            (20.0, 9.0, -np.pi / 2),
            (20.0, 16.0, -np.pi / 2),
            # Eastbound cars ahead, hidden from t3 by the stopped truck.
            (35.0, -1.8, 0.0),
            (43.0, -1.8, 0.0),
            # Parked by the north-east corner.
            (25.0, 6.0, 0.0),
        ],
        "car",
    )
    background = [
        make_building(8.0, 11.0, length=10.0, width=8.0, name="bldg-nw"),
        make_building(33.0, 13.0, length=12.0, width=8.0, name="bldg-ne"),
        make_building(4.0, -16.0, length=10.0, width=6.0, name="bldg-sw"),
        make_tree(14.0, -6.0, name="tree-0"),
    ]
    truck = make_truck(26.0, -1.8, yaw=0.0, name="truck-occluder")
    world = World(tuple(cars + [truck] + background))
    viewpoints = {
        "t3": _pose(0.0, -1.8, 0.0),
        "t4": _pose(11.5, -8.5, np.pi / 2),  # south arm, delta-d = 13.3 m
    }
    return Layout("stop_sign", world, viewpoints)


def left_turn(seed: int = 2) -> Layout:
    """A left-turn scenario: the same vehicle pose observed twice (dd = 0).

    The paper's scenario 3 merges two shots with delta-d = 0 m: the vehicle
    stopped while turning left, gaining only temporal redundancy.  The two
    viewpoints share a position but differ in heading mid-turn.
    """
    rng = np.random.default_rng(seed)
    cars = _scatter_cars(
        rng,
        [
            (16.0, 4.0, np.pi),
            (25.0, 4.0, np.pi),
            (21.0, -5.0, 0.0),
            (34.0, -8.0, -np.pi / 2),
            (34.0, -16.0, -np.pi / 2),
            (40.0, 2.0, np.pi),
            (13.0, 12.0, np.pi / 2),
        ],
        "car",
    )
    background = [
        make_building(28.0, 16.0, length=16.0, width=10.0, name="bldg-a"),
        make_tree(10.0, -8.0, name="tree-0"),
        make_tree(44.0, -6.0, name="tree-1"),
    ]
    world = World(tuple(cars + background))
    viewpoints = {
        "t5": _pose(0.0, 0.0, 0.0),
        "t6": _pose(0.0, 0.0, np.deg2rad(35.0)),  # same spot, mid-turn
    }
    return Layout("left_turn", world, viewpoints)


def curve(seed: int = 3) -> Layout:
    """A curved road: widely-spaced viewpoints (paper delta-d = 48.1 m).

    Roadside buildings on the inside of the bend block each vehicle's view
    of the other's stretch; fusion restores the whole arc.
    """
    rng = np.random.default_rng(seed)
    # Cars along an arc of radius 60 centred at (0, 60).
    slots = []
    for angle_deg in (-18.0, -8.0, 2.0, 12.0, 22.0, 32.0):
        angle = np.deg2rad(angle_deg)
        x = 60.0 * np.sin(angle) + 24.0
        y = 60.0 - 60.0 * np.cos(angle)
        heading = angle  # tangent direction
        slots.append((x, y, heading))
    slots.append((10.0, -4.5, 0.0))
    slots.append((52.0, 16.0, np.deg2rad(40.0)))
    cars = _scatter_cars(rng, slots, "car")
    background = [
        make_building(30.0, 24.0, length=18.0, width=10.0, yaw=0.4, name="bldg-inner"),
        make_building(6.0, 14.0, length=10.0, width=8.0, name="bldg-a"),
        make_tree(40.0, -4.0, name="tree-0"),
    ]
    world = World(tuple(cars + background))
    viewpoints = {
        "t7": _pose(0.0, 0.0, 0.0),
        "t8": _pose(46.0, 14.0, np.deg2rad(35.0)),  # 48.1 m along the bend
    }
    return Layout("curve", world, viewpoints)


def parking_lot(
    seed: int = 10,
    rows: int = 3,
    cols: int = 6,
    occupancy: float = 0.7,
    viewpoint_offsets: dict[str, tuple[float, float, float]] | None = None,
) -> Layout:
    """A T&J-style parking lot: rows of parked cars, aisles between them.

    Parked rows occlude one another heavily from any single aisle — this is
    the environment where the paper's 16-beam experiments found cars that
    *neither* vehicle detected alone (Fig. 5).  ``viewpoint_offsets`` maps
    observer names to (x, y, yaw) in the lot frame; defaults give two cars
    in different aisles.
    """
    rng = np.random.default_rng(seed)
    slots: list[tuple[float, float, float]] = []
    row_pitch = 11.0  # stall depth + aisle
    col_pitch = 3.0
    for r in range(rows):
        for c in range(cols):
            if rng.random() > occupancy:
                continue
            x = 10.0 + c * col_pitch
            y = 6.0 + r * row_pitch
            yaw = np.pi / 2 if r % 2 == 0 else -np.pi / 2
            slots.append((x, y, yaw))
    cars = _scatter_cars(rng, slots, "parked")
    background = [
        make_building(14.0, -14.0, length=22.0, width=9.0, name="bldg-office"),
        make_tree(2.0, 16.0, name="tree-0"),
        make_tree(30.0, 16.0, name="tree-1"),
    ]
    world = World(tuple(cars + background))
    if viewpoint_offsets is None:
        viewpoint_offsets = {
            "car1": (0.0, 0.0, 0.0),
            "car2": (5.5, 0.0, 0.0),
        }
    viewpoints = {
        name: _pose(x, y, yaw) for name, (x, y, yaw) in viewpoint_offsets.items()
    }
    return Layout("parking_lot", world, viewpoints)


def highway_overtake(seed: int = 25) -> Layout:
    """An overtaking scenario: a truck hides oncoming traffic.

    The follower sits behind a slow truck on a two-lane highway; an
    oncoming car approaches in the opposite lane, fully hidden by the
    truck.  The leader (ahead of the truck... here: the oncoming lane's
    other vehicle) sees it clearly — the safety-critical information gap
    the paper's motivation section describes, closed by one exchange.
    """
    rng = np.random.default_rng(seed)
    cars = _scatter_cars(
        rng,
        [
            # The hidden oncoming car, in the opposite lane behind the truck.
            (52.0, 1.9, np.pi),
            # Distant oncoming traffic, visible to everyone.
            (80.0, 1.9, np.pi),
            # A car ahead of the truck in the follower's own lane.
            (46.0, -1.8, 0.0),
        ],
        "car",
    )
    truck = make_truck(24.0, -0.3, yaw=0.0, name="truck-slow")
    background = [
        make_tree(14.0, 9.0, name="tree-0"),
        make_tree(40.0, -9.0, name="tree-1"),
        make_building(60.0, 14.0, length=16.0, width=8.0, name="barn"),
    ]
    world = World(tuple(cars + [truck] + background))
    viewpoints = {
        # The follower, stuck behind the truck, pondering an overtake.
        "follower": _pose(10.0, -1.8, 0.0),
        # A cooperator in the oncoming lane with a clear view past the truck.
        "helper": _pose(64.0, 1.9, np.pi),
    }
    return Layout("highway_overtake", world, viewpoints)


def crosswalk(seed: int = 27) -> Layout:
    """A mid-block crosswalk: pedestrians and a cyclist among stopped cars.

    The paper's Uber-incident motivation: a pedestrian crossing outside a
    junction, hidden from the approaching vehicle by a stopped car in the
    kerb lane.  A vehicle waiting on the *opposite* side sees the crossing
    clearly.  Also places a second, visible pedestrian and a cyclist so
    multi-class detection gets both easy and hard instances.
    """
    rng = np.random.default_rng(seed)
    from repro.scene.objects import make_cyclist, make_pedestrian

    cars = _scatter_cars(
        rng,
        [
            # Oncoming traffic queued on the far side.
            (30.0, 3.4, np.pi),
            (38.0, 3.4, np.pi),
        ],
        "car",
    )
    # The parked delivery van at the kerb that creates the blind zone —
    # taller than a person, so the crossing pedestrian is fully hidden.
    van = make_truck(16.0, -4.6, length=5.5, width=2.0, height=2.4, name="van-kerb")
    cars.append(van)
    people = [
        # The hidden pedestrian, mid-crossing in the kerb car's shadow.
        make_pedestrian(20.6, -4.7, name="ped-hidden"),
        # A visible pedestrian already past the centreline.
        make_pedestrian(19.0, 2.0, name="ped-visible"),
        # A cyclist riding along the kerb on the far side.
        make_cyclist(26.0, 6.2, yaw=np.pi, name="cyclist-0"),
    ]
    background = [
        make_building(10.0, 14.0, length=12.0, width=8.0, name="bldg-n"),
        make_tree(34.0, -8.0, name="tree-0"),
    ]
    world = World(tuple(cars + people + background))
    viewpoints = {
        # The approaching vehicle, blind to ped-hidden behind car-0.
        "approach": _pose(0.0, -1.6, 0.0),
        # The cooperator waiting on the opposite side of the crossing.
        "opposite": _pose(33.0, 0.2, np.pi),
    }
    return Layout("crosswalk", world, viewpoints)


def two_lane_road(seed: int = 20, num_cars: int = 6) -> Layout:
    """A straight two-lane road: the ROI networking scenarios of Fig. 11.

    Two cooperators drive opposite directions separated by a lane divider
    (ROI category 1), or follow one another (category 3).
    """
    rng = np.random.default_rng(seed)
    slots = []
    for i in range(num_cars):
        lane = 1.8 if i % 2 == 0 else -1.8
        heading = np.pi if lane > 0 else 0.0
        slots.append((12.0 + i * 9.0, lane, heading))
    cars = _scatter_cars(rng, slots, "car")
    background = [
        make_building(30.0, 14.0, length=26.0, width=8.0, name="bldg-n"),
        make_building(30.0, -14.0, length=26.0, width=8.0, name="bldg-s"),
    ]
    world = World(tuple(cars + background))
    viewpoints = {
        "ego": _pose(0.0, -1.8, 0.0),
        "oncoming": _pose(66.0, 1.8, np.pi),
        "leader": _pose(18.0, -1.8, 0.0),
    }
    return Layout("two_lane_road", world, viewpoints)
