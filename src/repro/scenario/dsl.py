"""The declarative scenario grammar and its seeded compiler.

A :class:`ScenarioSpec` describes a *distribution over scenes* — which
actors appear, how many, where, facing which way, observed from which
(possibly sampled) viewpoints through which (possibly mixed) sensor rigs.
:func:`compile_scenario` collapses one spec + one seed into a concrete
:class:`~repro.scene.world.World` with named observer poses and per-observer
beam patterns.  Compilation is a pure function of ``(spec, seed)``:

* every random draw flows from ``np.random.default_rng`` streams keyed by
  :func:`repro.runtime.derive_seed` (CRC-32, process-stable), one stream
  per construct, so adding a construct never reshuffles the others and the
  same ``(spec, seed)`` produces byte-identical worlds in any process at
  any worker count;
* placement is rejection-sampled against a :class:`ClearanceIndex` with a
  deterministic bail-out (:mod:`repro.scenario.placement`), so compilation
  always terminates and never emits interpenetrating actors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.transforms import Pose
from repro.runtime.seeding import derive_seed
from repro.scenario.placement import (
    ClearanceIndex,
    PlacementError,
    bev_radius,
    place_with_clearance,
)
from repro.scene.layouts import Layout
from repro.scene.objects import (
    Actor,
    make_building,
    make_car,
    make_cyclist,
    make_pedestrian,
    make_tree,
    make_truck,
    sample_car_dimensions,
)
from repro.scene.world import World
from repro.sensors.lidar import HDL_32E, HDL_64E, VLP_16, BeamPattern

__all__ = [
    "Dist",
    "Constant",
    "Uniform",
    "UniformInt",
    "TruncNormal",
    "Choice",
    "PlacementRegion",
    "LaneRegion",
    "RectRegion",
    "RingRegion",
    "FixedActors",
    "ActorDist",
    "Convoy",
    "OccludedGroup",
    "ViewpointSpec",
    "RigDist",
    "BEAM_PATTERNS",
    "FUZZ_16",
    "FUZZ_64",
    "ScenarioSpec",
    "CompiledScenario",
    "compile_scenario",
    "world_fingerprint",
    "scenario_fingerprint",
]

#: KITTI velodyne mounting height — observer LiDAR origins sit here.
SENSOR_HEIGHT = 1.73

#: Mass-fuzzing beam tables: the paper's 16/64-beam classes at half the
#: azimuth resolution, so a contract evaluation costs half the rays while
#: keeping the sparse-vs-dense contrast the beam-count contracts probe.
FUZZ_16 = BeamPattern("fuzz-16", tuple(np.linspace(-15.0, 15.0, 16)), 0.8, 100.0)
FUZZ_64 = BeamPattern("fuzz-64", tuple(np.linspace(-24.8, 2.0, 64)), 0.8, 120.0)

#: Named beam patterns a :class:`RigDist` can sample from.
BEAM_PATTERNS: dict[str, BeamPattern] = {
    "vlp16": VLP_16,
    "hdl32": HDL_32E,
    "hdl64": HDL_64E,
    "fuzz16": FUZZ_16,
    "fuzz64": FUZZ_64,
}


def beam_pattern(name: str) -> BeamPattern:
    """Look up a named beam pattern, failing fast with the valid set."""
    try:
        return BEAM_PATTERNS[name]
    except KeyError:
        raise KeyError(
            f"unknown beam pattern {name!r} "
            f"(valid patterns: {', '.join(sorted(BEAM_PATTERNS))})"
        ) from None


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


class Dist:
    """A scalar distribution the grammar can sample from.

    Subclasses implement :meth:`sample`; :meth:`sample_int` adapts any
    distribution to count-valued fields (rounding, except where a subclass
    has an exact integer law).
    """

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one value from the distribution."""
        raise NotImplementedError

    def sample_int(self, rng: np.random.Generator) -> int:
        """Sample and round to the nearest integer."""
        return int(round(self.sample(rng)))


@dataclass(frozen=True)
class Constant(Dist):
    """A point mass: always ``value`` and never consumes randomness.

    Pins one field of a spec, such as a fixed viewpoint coordinate or an
    exact actor count.
    """

    value: float

    def sample(self, rng: np.random.Generator) -> float:
        """Return the point mass; ``rng`` is untouched."""
        return float(self.value)

    def sample_int(self, rng: np.random.Generator) -> int:
        """Return the point mass rounded; ``rng`` is untouched."""
        return int(round(self.value))


@dataclass(frozen=True)
class Uniform(Dist):
    """Continuous uniform on ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"Uniform needs lo <= hi, got [{self.lo}, {self.hi}]")

    def sample(self, rng: np.random.Generator) -> float:
        """Draw uniformly from ``[lo, hi]``."""
        return float(rng.uniform(self.lo, self.hi))


@dataclass(frozen=True)
class UniformInt(Dist):
    """Integer uniform on ``{lo, ..., hi}`` inclusive (for counts)."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(
                f"UniformInt needs lo <= hi, got [{self.lo}, {self.hi}]"
            )

    def sample(self, rng: np.random.Generator) -> float:
        """Draw an integer and return it as a float."""
        return float(self.sample_int(rng))

    def sample_int(self, rng: np.random.Generator) -> int:
        """Draw uniformly from ``{lo, ..., hi}`` inclusive."""
        return int(rng.integers(self.lo, self.hi + 1))


@dataclass(frozen=True)
class TruncNormal(Dist):
    """A normal draw clipped to ``[lo, hi]`` (one draw, then clip).

    Clipping (rather than resampling) keeps the draw count fixed at one,
    so a tightened bound never reshuffles downstream randomness.
    """

    mean: float
    std: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.std < 0:
            raise ValueError("std must be non-negative")
        if self.hi < self.lo:
            raise ValueError(
                f"TruncNormal needs lo <= hi, got [{self.lo}, {self.hi}]"
            )

    def sample(self, rng: np.random.Generator) -> float:
        """Draw once from the normal, clip to ``[lo, hi]``."""
        return float(np.clip(rng.normal(self.mean, self.std), self.lo, self.hi))


@dataclass(frozen=True)
class Choice(Dist):
    """A categorical draw over ``options`` with optional ``weights``.

    Options may be any hashable values (beam-pattern names, yaw constants);
    :meth:`sample` requires numeric options, :meth:`pick` returns the raw
    option.
    """

    options: tuple
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.options:
            raise ValueError("Choice needs at least one option")
        if self.weights is not None:
            if len(self.weights) != len(self.options):
                raise ValueError("weights must match options length")
            if min(self.weights) < 0 or sum(self.weights) <= 0:
                raise ValueError("weights must be non-negative with a positive sum")

    def pick(self, rng: np.random.Generator):
        """Draw one option (any type)."""
        if self.weights is None:
            return self.options[int(rng.integers(0, len(self.options)))]
        probs = np.asarray(self.weights, dtype=float)
        probs = probs / probs.sum()
        return self.options[int(rng.choice(len(self.options), p=probs))]

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one option and coerce it to a float."""
        return float(self.pick(rng))


# ---------------------------------------------------------------------------
# Placement regions
# ---------------------------------------------------------------------------


class PlacementRegion:
    """A distribution over ``(x, y, yaw)`` slots.

    ``sample_slot(rng)`` draws one candidate; the yaw is the region's
    natural heading at that position (lane direction, ring tangent), which
    constructs may further jitter.
    """

    def sample_slot(self, rng: np.random.Generator) -> tuple[float, float, float]:
        """Draw one ``(x, y, yaw)`` candidate slot."""
        raise NotImplementedError


@dataclass(frozen=True)
class LaneRegion(PlacementRegion):
    """A straight lane segment from ``(x0, y0)`` to ``(x1, y1)``.

    Positions are uniform along the segment with gaussian lateral jitter;
    the yaw is the segment heading (set ``reverse=True`` for oncoming
    traffic without flipping the endpoints).
    """

    x0: float
    y0: float
    x1: float
    y1: float
    lateral_std: float = 0.0
    reverse: bool = False

    def sample_slot(self, rng: np.random.Generator) -> tuple[float, float, float]:
        """Uniform along the segment, gaussian lateral, yaw = heading."""
        t = rng.uniform(0.0, 1.0)
        dx, dy = self.x1 - self.x0, self.y1 - self.y0
        heading = float(np.arctan2(dy, dx))
        if self.reverse:
            heading = float(np.arctan2(-dy, -dx))
        x = self.x0 + t * dx
        y = self.y0 + t * dy
        if self.lateral_std > 0:
            offset = rng.normal(0.0, self.lateral_std)
            x += -np.sin(heading) * offset
            y += np.cos(heading) * offset
        return float(x), float(y), heading


@dataclass(frozen=True)
class RectRegion(PlacementRegion):
    """An axis-aligned rectangle; yaw drawn from ``yaw`` (default uniform)."""

    x0: float
    x1: float
    y0: float
    y1: float
    yaw: Dist = field(default_factory=lambda: Uniform(-np.pi, np.pi))

    def sample_slot(self, rng: np.random.Generator) -> tuple[float, float, float]:
        """Uniform in the rectangle; yaw from the ``yaw`` dist."""
        x = rng.uniform(self.x0, self.x1)
        y = rng.uniform(self.y0, self.y1)
        return float(x), float(y), float(self.yaw.sample(rng))


@dataclass(frozen=True)
class RingRegion(PlacementRegion):
    """An arc of a circle; yaw is the (counter-clockwise) tangent.

    ``radius_std`` blurs positions radially; ``angle0``/``angle1`` bound
    the arc in radians (full circle by default).
    """

    cx: float
    cy: float
    radius: float
    angle0: float = -np.pi
    angle1: float = np.pi
    radius_std: float = 0.0

    def sample_slot(self, rng: np.random.Generator) -> tuple[float, float, float]:
        """Uniform angle on the arc; yaw is the CCW tangent."""
        angle = rng.uniform(self.angle0, self.angle1)
        radius = self.radius
        if self.radius_std > 0:
            radius += rng.normal(0.0, self.radius_std)
        x = self.cx + radius * np.cos(angle)
        y = self.cy + radius * np.sin(angle)
        return float(x), float(y), float(angle + np.pi / 2.0)


# ---------------------------------------------------------------------------
# Constructs
# ---------------------------------------------------------------------------


class _BuildContext:
    """Mutable state threaded through one compilation."""

    def __init__(self, spec: "ScenarioSpec", viewpoints: dict[str, Pose]) -> None:
        self.spec = spec
        self.viewpoints = viewpoints
        self.index = ClearanceIndex()
        self.dropped: dict[str, int] = {}

    def record_drop(self, prefix: str) -> None:
        self.dropped[prefix] = self.dropped.get(prefix, 0) + 1


class Construct:
    """One ordered element of a spec: materialises a batch of actors."""

    def materialize(
        self, rng: np.random.Generator, ctx: _BuildContext
    ) -> list[Actor]:
        """Sample this construct's actors into the world under build."""
        raise NotImplementedError


def _make_actor(
    kind: str,
    x: float,
    y: float,
    yaw: float,
    dims: tuple[float, float, float] | None,
    name: str,
) -> Actor:
    """Build one actor of a named kind at a pose (dims optional)."""
    if kind == "car":
        length, width, height = dims or (4.2, 1.8, 1.6)
        return make_car(x, y, yaw, length, width, height, name=name)
    if kind == "truck":
        length, width, height = dims or (8.5, 2.5, 3.2)
        return make_truck(x, y, yaw, length=length, width=width,
                          height=height, name=name)
    if kind == "pedestrian":
        height = dims[2] if dims else 1.8
        return make_pedestrian(x, y, height=height, name=name)
    if kind == "cyclist":
        return make_cyclist(x, y, yaw, name=name)
    if kind == "building":
        length, width, height = dims or (20.0, 12.0, 8.0)
        return make_building(x, y, length=length, width=width,
                             height=height, yaw=yaw, name=name)
    if kind == "tree":
        height = dims[2] if dims else 6.0
        return make_tree(x, y, height=height, name=name)
    raise ValueError(
        f"unknown actor kind {kind!r} (valid kinds: building, car, cyclist, "
        "pedestrian, tree, truck)"
    )


#: Fixed BEV footprints used for clearance checks of non-car kinds.
_KIND_FOOTPRINT = {
    "car": (4.2, 1.8),
    "truck": (8.5, 2.5),
    "pedestrian": (0.5, 0.5),
    "cyclist": (1.8, 0.6),
    "building": (20.0, 12.0),
    "tree": (0.8, 0.8),
}


@dataclass(frozen=True)
class FixedActors(Construct):
    """Literal actors (occluder trucks, buildings, trees) — no randomness."""

    actors: tuple[Actor, ...]

    def materialize(self, rng, ctx) -> list[Actor]:
        """Reserve and return the literal actors; ``rng`` is untouched."""
        for actor in self.actors:
            ctx.index.reserve_actor(actor)
        return list(self.actors)


@dataclass(frozen=True)
class ActorDist(Construct):
    """``count`` actors of one kind rejection-sampled into a region.

    The generative workhorse: per actor, dimensions are drawn first (cars
    sample KITTI-like stats unless ``dims`` pins them), then candidate
    positions from ``region`` until one clears every already-placed actor
    and viewpoint keep-out disc.  Exhausted budgets follow the spec's
    deterministic bail-out (drop-and-count or raise).  ``yaw_std`` jitters
    the region's natural heading.
    """

    kind: str
    count: Dist
    region: PlacementRegion
    prefix: str
    yaw_std: float = 0.03
    dims: tuple[Dist, Dist, Dist] | None = None

    def materialize(self, rng, ctx) -> list[Actor]:
        """Draw dims, then rejection-sample a clear slot per actor."""
        spec = ctx.spec
        n = max(0, self.count.sample_int(rng))
        actors: list[Actor] = []
        for i in range(n):
            if self.dims is not None:
                dims = tuple(d.sample(rng) for d in self.dims)
            elif self.kind == "car":
                dims = sample_car_dimensions(rng)
            else:
                length, width = _KIND_FOOTPRINT[self.kind]
                dims = None
            if dims is not None:
                radius = bev_radius(dims[0], dims[1])
            else:
                radius = bev_radius(*_KIND_FOOTPRINT[self.kind])

            def candidate(r, _region=self.region, _std=self.yaw_std):
                x, y, yaw = _region.sample_slot(r)
                if _std > 0:
                    yaw += r.normal(0.0, _std)
                return x, y, yaw

            placed = place_with_clearance(
                rng,
                candidate,
                ctx.index,
                radius,
                spec.clearance_m,
                spec.max_attempts,
                on_exhausted=spec.on_exhausted,
                what=f"{self.prefix}-{i} ({self.kind})",
            )
            if placed is None:
                ctx.record_drop(self.prefix)
                continue
            x, y, yaw = placed
            actors.append(
                _make_actor(self.kind, x, y, yaw, dims, f"{self.prefix}-{i}")
            )
        return actors


@dataclass(frozen=True)
class Convoy(Construct):
    """A line of vehicles: a lead position, then followers at spacing gaps.

    The lead slot comes from ``region``; each follower sits ``spacing``
    metres behind the previous vehicle along the convoy heading (one
    spacing draw per gap).  Followers that would land inside another actor
    are dropped (a convoy tail meeting cross traffic shortens rather than
    overlaps).
    """

    count: Dist
    region: PlacementRegion
    prefix: str = "convoy"
    kind: str = "car"
    spacing: Dist = field(default_factory=lambda: Uniform(7.0, 10.0))

    def materialize(self, rng, ctx) -> list[Actor]:
        """Place the lead with clearance, trail followers behind it."""
        spec = ctx.spec
        n = max(0, self.count.sample_int(rng))
        if n == 0:
            return []
        actors: list[Actor] = []
        lead = place_with_clearance(
            rng,
            lambda r: self.region.sample_slot(r),
            ctx.index,
            bev_radius(*_KIND_FOOTPRINT[self.kind]),
            spec.clearance_m,
            spec.max_attempts,
            on_exhausted=spec.on_exhausted,
            what=f"{self.prefix}-0 ({self.kind})",
        )
        if lead is None:
            ctx.record_drop(self.prefix)
            return []
        x, y, yaw = lead
        back = np.array([-np.cos(yaw), -np.sin(yaw)])
        for i in range(n):
            if i > 0:
                gap = max(float(self.spacing.sample(rng)), 5.0)
                x, y = np.array([x, y]) + back * gap
                radius = bev_radius(*_KIND_FOOTPRINT[self.kind])
                if not ctx.index.fits(x, y, radius + spec.clearance_m):
                    ctx.record_drop(self.prefix)
                    continue
                ctx.index.reserve(x, y, radius + spec.clearance_m)
            dims = (
                sample_car_dimensions(rng) if self.kind == "car" else None
            )
            actors.append(
                _make_actor(
                    self.kind, float(x), float(y), yaw, dims,
                    f"{self.prefix}-{i}",
                )
            )
        return actors


@dataclass(frozen=True)
class OccludedGroup(Construct):
    """Actors hidden from one viewpoint behind a purpose-placed occluder.

    Samples an anchor in ``region``, drops an occluder (broadside to the
    sight line) at ``frac`` of the way from the named viewpoint to the
    anchor, then scatters ``count`` hidden actors around the anchor — the
    AutoCast-style geometry where cooperative perception must help: the
    named viewpoint cannot see the hidden actors, any differently-placed
    cooperator can.
    """

    viewpoint: str
    region: PlacementRegion
    count: Dist
    hidden_kind: str = "pedestrian"
    occluder_kind: str = "truck"
    frac: Dist = field(default_factory=lambda: Uniform(0.5, 0.7))
    spread: float = 1.2
    prefix: str = "hidden"
    occluder_dims: tuple[Dist, Dist, Dist] | None = None

    def materialize(self, rng, ctx) -> list[Actor]:
        """Drop an occluder on the sight line, huddle actors behind it."""
        spec = ctx.spec
        if self.viewpoint not in ctx.viewpoints:
            raise KeyError(
                f"OccludedGroup viewpoint {self.viewpoint!r} not in spec "
                f"(valid viewpoints: {', '.join(sorted(ctx.viewpoints))})"
            )
        eye = ctx.viewpoints[self.viewpoint].position[:2]
        if self.occluder_dims is not None:
            odims = tuple(d.sample(rng) for d in self.occluder_dims)
            occ_radius = bev_radius(odims[0], odims[1])
        else:
            odims = None
            occ_radius = bev_radius(*_KIND_FOOTPRINT[self.occluder_kind])
        # The anchor itself is virtual (the hidden actors' rally point), so
        # only the derived occluder position is clearance-checked — checking
        # a truck-sized disc at the anchor would wall the hidden actors out
        # of their own huddle.
        found = None
        for _ in range(spec.max_attempts):
            ax, ay, _ = self.region.sample_slot(rng)
            frac = float(np.clip(self.frac.sample(rng), 0.1, 0.9))
            sight = np.array([ax, ay]) - eye
            ox, oy = eye + frac * sight
            if ctx.index.fits(ox, oy, occ_radius + spec.clearance_m):
                found = (float(ax), float(ay), float(ox), float(oy), sight)
                break
        if found is None:
            if spec.on_exhausted == "raise":
                raise PlacementError(
                    f"could not place {self.prefix}-occluder after "
                    f"{spec.max_attempts} attempts"
                )
            ctx.record_drop(self.prefix)
            return []
        ax, ay, ox, oy, sight = found
        heading = float(np.arctan2(sight[1], sight[0]))
        actors = [
            _make_actor(
                self.occluder_kind,
                ox,
                oy,
                heading + np.pi / 2.0,  # broadside to the sight line
                odims,
                f"{self.prefix}-occluder",
            )
        ]
        ctx.index.reserve_actor(actors[0])
        n = max(1, self.count.sample_int(rng))
        radius = bev_radius(*_KIND_FOOTPRINT[self.hidden_kind])
        for i in range(n):
            placed = place_with_clearance(
                rng,
                lambda r: (
                    ax + r.normal(0.0, self.spread),
                    ay + r.normal(0.0, self.spread),
                    r.uniform(-np.pi, np.pi),
                ),
                ctx.index,
                radius,
                min(spec.clearance_m, 0.3),  # hidden actors huddle close
                spec.max_attempts,
                on_exhausted=spec.on_exhausted,
                what=f"{self.prefix}-{i} ({self.hidden_kind})",
            )
            if placed is None:
                ctx.record_drop(self.prefix)
                continue
            x, y, yaw = placed
            actors.append(
                _make_actor(self.hidden_kind, x, y, yaw, None,
                            f"{self.prefix}-{i}")
            )
        return actors


# ---------------------------------------------------------------------------
# Viewpoints, rigs, spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViewpointSpec:
    """One observer: a named pose whose coordinates may be distributions."""

    name: str
    x: Dist
    y: Dist
    yaw: Dist = field(default_factory=lambda: Constant(0.0))

    @classmethod
    def fixed(cls, name: str, x: float, y: float, yaw: float = 0.0
              ) -> "ViewpointSpec":
        """A point-mass viewpoint: a fixed observer pose."""
        return cls(name, Constant(x), Constant(y), Constant(yaw))

    def sample(self, rng: np.random.Generator) -> Pose:
        """Draw the observer pose (z pinned at sensor height)."""
        return Pose(
            np.array([
                self.x.sample(rng), self.y.sample(rng), SENSOR_HEIGHT
            ]),
            yaw=float(self.yaw.sample(rng)),
        )


@dataclass(frozen=True)
class RigDist:
    """Per-viewpoint sensor-rig distribution over named beam patterns.

    ``pattern`` is a pattern name (point mass) or a :class:`Choice` over
    names — ``Choice(("fuzz16", "fuzz64"))`` models the paper's mixed
    16/64-beam fleets.  One draw per viewpoint, in viewpoint order.
    """

    pattern: str | Choice = "fuzz16"

    def __post_init__(self) -> None:
        for name in self.pattern_names():
            beam_pattern(name)  # fail fast on unknown names

    def pattern_names(self) -> tuple[str, ...]:
        """Every pattern name this distribution can produce."""
        if isinstance(self.pattern, Choice):
            return tuple(str(o) for o in self.pattern.options)
        return (str(self.pattern),)

    def sample(self, rng: np.random.Generator) -> BeamPattern:
        """Draw one beam pattern from the registry."""
        if isinstance(self.pattern, Choice):
            return beam_pattern(str(self.pattern.pick(rng)))
        return beam_pattern(str(self.pattern))


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative distribution over worlds, observers and rigs.

    Attributes:
        name: scenario identifier (family name or layout name).
        constructs: ordered actor-producing elements.
        viewpoints: named observer pose distributions.
        rig: beam-pattern distribution, sampled per viewpoint.
        receiver: the viewpoint hosting cooperative fusion (default: the
            first one).
        clearance_m: minimum disc gap between generatively placed actors.
        viewpoint_clearance_m: keep-out radius around each observer.
        max_attempts: rejection-sampling budget per actor.
        on_exhausted: deterministic bail-out — ``"drop"`` (record and
            continue) or ``"raise"`` (:class:`PlacementError`).
    """

    name: str
    constructs: tuple[Construct, ...]
    viewpoints: tuple[ViewpointSpec, ...]
    rig: RigDist = field(default_factory=RigDist)
    receiver: str | None = None
    clearance_m: float = 0.6
    viewpoint_clearance_m: float = 3.0
    max_attempts: int = 30
    on_exhausted: str = "drop"

    def __post_init__(self) -> None:
        if not self.viewpoints:
            raise ValueError("a scenario needs at least one viewpoint")
        names = [v.name for v in self.viewpoints]
        if len(set(names)) != len(names):
            raise ValueError("viewpoint names must be unique")
        if self.receiver is not None and self.receiver not in names:
            raise ValueError(
                f"receiver {self.receiver!r} is not a viewpoint "
                f"(valid viewpoints: {', '.join(sorted(names))})"
            )
        if self.on_exhausted not in ("drop", "raise"):
            raise ValueError("on_exhausted must be 'drop' or 'raise'")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    @property
    def receiver_name(self) -> str:
        """The fusion-hosting viewpoint (explicit or the first)."""
        return self.receiver or self.viewpoints[0].name


@dataclass(frozen=True)
class CompiledScenario:
    """One concrete sample of a spec: world + observers + rigs.

    Attributes:
        name: the spec's name.
        seed: the compile seed.
        world: the sampled world.
        viewpoints: observer name -> sampled pose.
        rigs: observer name -> sampled beam pattern.
        receiver: the fusion-hosting observer.
        dropped: construct prefix -> actors dropped at placement bail-out.
    """

    name: str
    seed: int
    world: World
    viewpoints: dict[str, Pose]
    rigs: dict[str, BeamPattern]
    receiver: str
    dropped: dict[str, int] = field(default_factory=dict)

    def layout(self) -> Layout:
        """Bridge to the layout-consuming APIs (:class:`Layout`)."""
        return Layout(self.name, self.world, dict(self.viewpoints))


def compile_scenario(spec: ScenarioSpec, seed: int) -> CompiledScenario:
    """Sample one concrete scenario — a pure function of ``(spec, seed)``.

    Viewpoints are sampled first (their keep-out discs constrain actor
    placement), then each construct in order, then one rig per viewpoint.
    Each stage draws from its own :func:`~repro.runtime.derive_seed`-keyed
    stream.
    """

    def stream(*key) -> np.random.Generator:
        return np.random.default_rng(
            derive_seed(seed, "scenario", spec.name, *key)
        )

    vp_rng = stream("viewpoints")
    viewpoints = {v.name: v.sample(vp_rng) for v in spec.viewpoints}
    ctx = _BuildContext(spec, viewpoints)
    # Observers own a keep-out disc: no sampled actor may sit on a sensor.
    for pose in viewpoints.values():
        ctx.index.reserve(
            pose.position[0], pose.position[1], spec.viewpoint_clearance_m
        )
    actors: list[Actor] = []
    for i, construct in enumerate(spec.constructs):
        actors.extend(construct.materialize(stream("construct", i), ctx))
    world = World(tuple(actors))
    rig_rng = stream("rigs")
    rigs = {v.name: spec.rig.sample(rig_rng) for v in spec.viewpoints}
    return CompiledScenario(
        name=spec.name,
        seed=int(seed),
        world=world,
        viewpoints=viewpoints,
        rigs=rigs,
        receiver=spec.receiver_name,
        dropped=dict(ctx.dropped),
    )


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def _hash_floats(h, values) -> None:
    h.update("|".join(float(v).hex() for v in values).encode("ascii"))


def world_fingerprint(world: World) -> str:
    """A process-stable digest of a world's exact contents.

    Hashes every actor's name, kind, reflectance and full box geometry via
    ``float.hex`` (exact, no rounding), so two worlds share a fingerprint
    iff they are bit-identical — the equality the determinism tests and
    the pinned layout fingerprints assert without comparing numpy arrays
    field by field.
    """
    h = hashlib.sha256()
    _hash_floats(h, [world.ground_z])
    for actor in world.actors:
        h.update(
            f"|{actor.name}|{actor.kind.value}|".encode("utf-8")
        )
        _hash_floats(h, [actor.reflectance])
        box = actor.box
        _hash_floats(
            h,
            list(box.center) + [box.length, box.width, box.height, box.yaw],
        )
    return h.hexdigest()


def scenario_fingerprint(compiled: CompiledScenario) -> str:
    """World fingerprint extended with viewpoints, rigs and drop counts."""
    h = hashlib.sha256()
    h.update(world_fingerprint(compiled.world).encode("ascii"))
    h.update(f"|{compiled.name}|{compiled.receiver}|".encode("utf-8"))
    for name in sorted(compiled.viewpoints):
        pose = compiled.viewpoints[name]
        h.update(f"|vp:{name}|".encode("utf-8"))
        _hash_floats(
            h, list(pose.position) + [pose.yaw, pose.pitch, pose.roll]
        )
    for name in sorted(compiled.rigs):
        h.update(f"|rig:{name}:{compiled.rigs[name].name}|".encode("utf-8"))
    for prefix in sorted(compiled.dropped):
        h.update(f"|drop:{prefix}:{compiled.dropped[prefix]}|".encode("utf-8"))
    return h.hexdigest()
