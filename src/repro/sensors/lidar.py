"""Vectorised ray-casting LiDAR simulator.

A :class:`LidarModel` fires one ray per (beam elevation, azimuth) pair from
the sensor pose and keeps the nearest hit against the world's actor boxes
and the ground plane — exactly the physics that produces the paper's two
failure modes: *blind zones* behind occluders and *sparsity* that grows
with range and shrinks with beam count.  The 16-beam VLP-16 produces a
cloud ~4x sparser than the 64-beam HDL-64E, matching the paper's T&J vs
KITTI contrast.

Rays from one scan share an origin, and every beam's elevation lies in
[-90, 90] degrees, so a return shares its ray's azimuth in the sensor
frame.  An actor's box therefore only meets the rays inside its azimuth
wedge: the arc its corners span around the sensor's vertical axis.  Each
scan maps every actor's corners into the sensor frame in one pass, turns
each wedge into a padded, wrapped range of the direction table's azimuth
columns, and slab-tests each actor only on those rays, every actor's
window in one stacked pass.  An actor that surrounds or nearly touches
the vertical axis, or spans about half a turn, takes every ray.  Each ray
keeps the nearest of its windowed hits; ties go to the lower actor
index.  Across frames from one pose, a :class:`ScanGeometryCache` keeps
each actor's hits, so a static scene skips the slab tests and re-casts
only moved actors.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.rotations import rotation_z
from repro.geometry.transforms import Pose
from repro.pointcloud.cloud import PointCloud
from repro.profiling import PROFILER
from repro.runtime.seeding import stable_hash
from repro.scene.world import World

__all__ = [
    "MIN_RANGE_M",
    "BeamPattern",
    "LidarModel",
    "LidarScan",
    "ScanGeometryCache",
    "VLP_16",
    "HDL_32E",
    "HDL_64E",
]

_GROUND_LABEL = "__ground__"
_GROUND_REFLECTANCE = 0.2

#: Blind radius around the sensor (metres): nearer hits return nothing.
MIN_RANGE_M = 1.5


@dataclass(frozen=True)
class BeamPattern:
    """The vertical beam table of a spinning LiDAR.

    Attributes:
        name: human-readable sensor name.
        elevations_deg: per-beam elevation angles (degrees).
        azimuth_resolution_deg: horizontal angular step (degrees).
        max_range: metres beyond which returns are dropped.
    """

    name: str
    elevations_deg: tuple[float, ...]
    azimuth_resolution_deg: float = 0.4
    max_range: float = 100.0

    def __post_init__(self) -> None:
        if not self.elevations_deg:
            raise ValueError("beam pattern needs at least one beam")
        # A beam past +/-90 degrees points back over the sensor, against
        # the azimuth of its own column.
        if not all(-90.0 <= e <= 90.0 for e in self.elevations_deg):
            raise ValueError("beam elevations must lie in [-90, 90] degrees")
        # From 720 degrees up a revolution would round to zero columns.
        if not 0.0 < self.azimuth_resolution_deg <= 360.0:
            raise ValueError("azimuth resolution must be in (0, 360] degrees")

    @property
    def num_beams(self) -> int:
        """Number of vertical beams."""
        return len(self.elevations_deg)

    @property
    def azimuth_steps(self) -> int:
        """Azimuth columns per 360-degree revolution."""
        return int(round(360.0 / self.azimuth_resolution_deg))

    @property
    def rays_per_scan(self) -> int:
        """Total rays fired per 360-degree revolution."""
        return self.num_beams * self.azimuth_steps


def _uniform_elevations(low: float, high: float, count: int) -> tuple[float, ...]:
    return tuple(np.linspace(low, high, count))


#: Velodyne VLP-16: 16 beams, +/-15 degrees — the T&J golf cart sensor.
VLP_16 = BeamPattern("VLP-16", _uniform_elevations(-15.0, 15.0, 16), 0.4, 100.0)

#: Velodyne HDL-32E: 32 beams, -30.67..+10.67 degrees.
HDL_32E = BeamPattern("HDL-32E", _uniform_elevations(-30.67, 10.67, 32), 0.4, 100.0)

#: Velodyne HDL-64E: 64 beams, -24.8..+2 degrees — the KITTI sensor.
HDL_64E = BeamPattern("HDL-64E", _uniform_elevations(-24.8, 2.0, 64), 0.4, 120.0)


@dataclass
class LidarScan:
    """One revolution of simulated LiDAR data.

    Each return keeps its actor as an index into ``actor_names``, in the
    smallest unsigned dtype that holds it (one byte for up to 255
    actors).  Name queries read the indices through per-name lookup
    tables, so an actor named ``"__ground__"`` counts as ground.

    Attributes:
        cloud: points in the *sensor* frame (x forward at yaw 0).
        actor_index: per-point index into ``actor_names``.
        actor_names: the scanned actors' names in world order, then
            ``"__ground__"`` for ground returns; empty for a blackout frame.
        pose: the true sensor pose the scan was taken from.
    """

    cloud: PointCloud
    actor_index: np.ndarray
    actor_names: tuple[str, ...]
    pose: Pose

    @property
    def labels(self) -> np.ndarray:
        """Per-point actor name, ``"__ground__"`` for ground returns.

        Rebuilt on every read, as wide as the longest name in
        ``actor_names`` (``<U1`` when there are none).
        """
        return self._names().take(self.actor_index)

    def _names(self) -> np.ndarray:
        return np.array(self.actor_names, dtype=str)

    def points_labeled(self, name: str) -> PointCloud:
        """Sub-cloud of returns from one actor."""
        return self.cloud.select((self._names() == name).take(self.actor_index))

    def points_per_actor(self) -> dict[str, int]:
        """Return counts of LiDAR hits per actor (ground excluded), by name
        in sorted order."""
        names, inverse = np.unique(self._names(), return_inverse=True)
        counts = np.bincount(
            inverse.take(self.actor_index), minlength=len(names)
        )
        return {
            str(n): int(c)
            for n, c in zip(names, counts)
            if c and n != _GROUND_LABEL
        }

    def non_ground(self) -> PointCloud:
        """The cloud with ground returns removed."""
        return self.cloud.select(
            (self._names() != _GROUND_LABEL).take(self.actor_index)
        )


@dataclass(frozen=True)
class LidarModel:
    """A simulated spinning LiDAR with a :data:`MIN_RANGE_M` blind radius
    that returns ground-plane hits as well as actor hits.

    Attributes:
        pattern: the beam table (VLP_16, HDL_32E, HDL_64E or custom).
        range_noise_std: Gaussian noise added to hit distances (metres).
        dropout: probability that a valid return is lost.
    """

    pattern: BeamPattern = VLP_16
    range_noise_std: float = 0.02
    dropout: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.range_noise_std < 0:
            raise ValueError("range_noise_std must be non-negative")

    def ray_directions(self) -> np.ndarray:
        """The ``(N, 3)`` unit direction table in the sensor frame."""
        return _ray_direction_table(self.pattern).copy()

    def scan(
        self,
        world: World,
        pose: Pose,
        seed: int = 0,
        cache: "ScanGeometryCache | None" = None,
    ) -> LidarScan:
        """Scan ``world`` from ``pose`` and return points in the sensor frame.

        Occlusion falls out of nearest-hit selection: an actor behind
        another receives no rays on the blocked arc, creating exactly the
        blind zones that motivate cooperative perception.  Range noise is
        clamped to ``[MIN_RANGE_M, max_range]`` so returned points never
        violate the advertised range bounds.

        ``cache`` (a :class:`ScanGeometryCache`) memoises the per-actor
        raycast geometry across frames.  The cache is keyed by the exact
        pose and beam pattern and verified per actor, so a cached scan is
        bit-identical to an uncached one — including the noise streams,
        which are drawn after geometry in both paths.
        """
        with PROFILER.stage("lidar.scan"):
            return self._scan(world, pose, seed, cache)

    def _scan(
        self,
        world: World,
        pose: Pose,
        seed: int,
        cache: "ScanGeometryCache | None" = None,
    ) -> LidarScan:
        rng = np.random.default_rng(seed)
        directions_local = _ray_direction_table(self.pattern)
        to_world = pose.to_world()
        directions = directions_local @ to_world.rotation.T
        origin = pose.position.astype(float)
        num_rays = len(directions)

        actors = list(world.actors)
        # Ground returns take the index after the last actor's.
        ground = len(actors)
        if actors:
            boxes = [a.box for a in actors]
            if cache is None:
                best_label, best_t = _nearest_hits(
                    self.pattern, pose, origin, directions, boxes
                )
            else:
                best_label, best_t = cache.nearest_hits(
                    self.pattern, pose, origin, directions, boxes
                )
        else:
            best_t = np.full(num_rays, np.inf)
            best_label = np.zeros(num_rays, dtype=np.int64)

        dz = directions[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_ground = (world.ground_z - origin[2]) / dz
        t_ground = np.where((dz < -1e-9) & (t_ground > 0), t_ground, np.inf)
        better = t_ground < best_t
        best_t = np.where(better, t_ground, best_t)
        best_label = np.where(better, ground, best_label)

        valid = (
            np.isfinite(best_t)
            & (best_t >= MIN_RANGE_M)
            & (best_t <= self.pattern.max_range)
        )
        if self.dropout > 0:
            valid &= rng.random(num_rays) >= self.dropout

        t = np.compress(valid, best_t)
        if self.range_noise_std > 0:
            t = t + rng.normal(0.0, self.range_noise_std, size=len(t))
            # Re-gate after adding noise: a draw must not push a return
            # outside the advertised range bounds (or behind the sensor).
            np.clip(t, MIN_RANGE_M, self.pattern.max_range, out=t)
        # Hits are built in the world frame and mapped back: building them
        # in the sensor frame would round differently.
        hits = np.compress(valid, directions, axis=0)
        hits *= t[:, None]
        hits += origin
        hit_local = pose.from_world().apply(hits) if len(t) else hits

        actor_index = np.compress(valid, best_label).astype(
            np.min_scalar_type(ground)
        )
        reflectance_table = np.array(
            [a.reflectance for a in actors] + [_GROUND_REFLECTANCE],
            dtype=np.float32,
        )
        reflectance = reflectance_table.take(actor_index) + rng.normal(
            0.0, 0.02, size=len(t)
        ).astype(np.float32)
        reflectance = np.clip(reflectance, 0.0, 1.0)

        cloud = PointCloud.from_xyz(hit_local, reflectance, frame_id="sensor")
        return LidarScan(
            cloud=cloud,
            actor_index=actor_index,
            actor_names=(*(a.name for a in actors), _GROUND_LABEL),
            pose=pose,
        )


def _ray_direction_table(pattern: BeamPattern) -> np.ndarray:
    """The cached, read-only ``(N, 3)`` unit direction table of a pattern.

    Keyed by the pattern *contents* that determine the geometry — the
    elevation table and azimuth step — not the pattern object or its full
    hash, so two equal patterns (or a rebuilt rig) share one table and
    renaming a sensor or changing ``max_range`` cannot force a recompute.
    """
    return _ray_direction_table_for(
        pattern.elevations_deg, pattern.azimuth_resolution_deg
    )


@functools.lru_cache(maxsize=16)
def _ray_direction_table_for(
    elevations_deg: tuple[float, ...], azimuth_resolution_deg: float
) -> np.ndarray:
    elevations = np.deg2rad(np.array(elevations_deg))
    steps = int(round(360.0 / azimuth_resolution_deg))
    azimuths = np.linspace(-np.pi, np.pi, steps, endpoint=False)
    elev_grid, az_grid = np.meshgrid(elevations, azimuths, indexing="ij")
    cos_e = np.cos(elev_grid)
    directions = np.stack(
        [
            cos_e * np.cos(az_grid),
            cos_e * np.sin(az_grid),
            np.sin(elev_grid),
        ],
        axis=-1,
    )
    table = np.ascontiguousarray(directions.reshape(-1, 3))
    table.setflags(write=False)
    return table


def _scan_pose_key(pattern: BeamPattern, pose: Pose) -> str:
    """Exact text key of a (beam pattern, pose) raycast configuration.

    Floats are rendered with ``float.hex`` so the key is lossless: two
    poses produce the same key iff their raycast geometry is bit-equal.
    """
    values = (
        *pose.position.tolist(),
        pose.yaw,
        pose.pitch,
        pose.roll,
        *pattern.elevations_deg,
        pattern.azimuth_resolution_deg,
    )
    return ",".join(float(v).hex() for v in values)


def _actor_geometry_key(box) -> bytes:
    """Byte key of one actor's raycast-relevant geometry (its box)."""
    return np.array(
        [*box.center, box.length, box.width, box.height, box.yaw],
        dtype=np.float64,
    ).tobytes()


#: Azimuth columns added on each side of an actor's wedge.  The wedge
#: comes from the box corners and the hits from the slab test; the pad
#: absorbs the rounding between the two.
_WEDGE_PAD_COLUMNS = 1

#: An actor takes every ray when its corners span within this many
#: radians of half a turn around the sensor's vertical axis, or when a
#: corner lies within this many metres of the axis.  Past either bound the
#: sensor may sit inside the box's footprint, or the footprint may pass so
#: close to the axis that a hit's azimuth no longer follows its corners'.
_WEDGE_SPAN_MARGIN = 0.1
_WEDGE_AXIS_CLEARANCE = 0.05

#: The eight corners of a unit box, as signs of its half extents.
_CORNER_SIGNS = np.array(
    [[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)]
)

#: Per actor, the indices of the rays that hit it and their distances.
_ActorHits = tuple[np.ndarray, np.ndarray]


@dataclass
class _ScanCacheEntry:
    key_text: str
    actor_keys: tuple[bytes, ...]
    hits: list[_ActorHits]  # one entry per actor, from _windowed_hits
    # _merge_hits(hits), dropped whenever an actor is re-cast.
    nearest: tuple[np.ndarray, np.ndarray] | None = None


class ScanGeometryCache:
    """Static-geometry raycast memo for :meth:`LidarModel.scan`.

    The expensive part of a scan is the windowed slab test, and actor
    *i*'s hits (the rays inside its wedge that meet its box, and their
    distances) depend only on the pose, the beam pattern and actor *i*'s
    box: every operation in :func:`_windowed_hits` is elementwise per
    (actor, ray) pair, and the wedge is computed per actor.  Consecutive
    frames of a (near-)static scene therefore recompute identical hits.

    This cache stores each actor's hits per ``(pattern, pose)`` cell —
    keyed with :func:`repro.runtime.stable_hash` over an exact text key,
    so keys are PYTHONHASHSEED/process-independent, and verified against
    the stored key text on every hit.  On a hit, only actors whose box
    geometry changed since the cached frame are re-cast over their own
    wedge; static geometry is reused.  Cold scans run the same two
    helpers, so every downstream product, including the seeded noise
    streams drawn after the geometry, is bit-identical to a cold scan.

    Each entry also memoises the per-ray nearest hit (actor index and
    distance, :func:`_merge_hits`), the merge a hit would otherwise
    repeat.  Re-casting any actor drops the memo.  An entry holds one
    index and one distance per actor hit plus 16 bytes per ray for the
    memo (~0.9 MB for HDL-64E).

    Hit/miss/recast totals are kept on the cache and mirrored into the
    ``temporal.scan_*`` profiler counters when profiling is enabled.
    """

    def __init__(self, maxsize: int = 4) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.actors_recast = 0
        self._entries: OrderedDict[tuple[int, int], _ScanCacheEntry] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Counter snapshot for benchmark reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "actors_recast": self.actors_recast,
            "entries": len(self._entries),
        }

    def nearest_hits(
        self,
        pattern: BeamPattern,
        pose: Pose,
        origin: np.ndarray,
        directions: np.ndarray,
        boxes: list,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-ray nearest actor hit against ``boxes``, reusing cached hits.

        Returns what :func:`_nearest_hits` returns for the same arguments:
        the read-only arrays held by the cache entry.
        """
        key_text = _scan_pose_key(pattern, pose)
        key = (stable_hash(key_text), len(key_text))
        actor_keys = tuple(_actor_geometry_key(b) for b in boxes)
        entry = self._entries.get(key)
        if (
            entry is not None
            and entry.key_text == key_text
            and len(entry.actor_keys) == len(actor_keys)
        ):
            self._entries.move_to_end(key)
            changed = [
                i
                for i, (old, new) in enumerate(
                    zip(entry.actor_keys, actor_keys)
                )
                if old != new
            ]
            if changed:
                recast = _windowed_hits(
                    pattern, pose, origin, directions, [boxes[i] for i in changed]
                )
                for i, actor_hits in zip(changed, recast):
                    entry.hits[i] = actor_hits
                entry.actor_keys = actor_keys
                entry.nearest = None
                self.actors_recast += len(changed)
                PROFILER.count("temporal.scan_actors_recast", len(changed))
            self.hits += 1
            PROFILER.count("temporal.scan_hits")
        else:
            self.misses += 1
            PROFILER.count("temporal.scan_misses")
            entry = _ScanCacheEntry(
                key_text,
                actor_keys,
                _windowed_hits(pattern, pose, origin, directions, boxes),
            )
            self._entries[key] = entry
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        if entry.nearest is None:
            entry.nearest = _merge_hits(entry.hits, len(directions))
        return entry.nearest


def _nearest_hits(
    pattern: BeamPattern,
    pose: Pose,
    origin: np.ndarray,
    directions: np.ndarray,
    boxes: list,
) -> tuple[np.ndarray, np.ndarray]:
    """Per ray, the nearest actor's index and hit distance (read-only).

    ``directions`` is the pattern's direction table rotated into the world
    frame by ``pose``.  A ray that meets no box gets index 0 and +inf;
    ties go to the lowest index.
    """
    return _merge_hits(
        _windowed_hits(pattern, pose, origin, directions, boxes),
        len(directions),
    )


def _merge_hits(
    hits: list[_ActorHits], num_rays: int
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-actor hits into each ray's nearest (read-only arrays).

    Actors merge in index order and a hit replaces the ray's best only
    when strictly nearer, so ties go to the lowest index.
    """
    best_label = np.zeros(num_rays, dtype=np.int64)
    best_t = np.full(num_rays, np.inf)
    for index, (rays, t) in enumerate(hits):
        nearer = t < best_t[rays]
        rays = rays[nearer]
        best_t[rays] = t[nearer]
        best_label[rays] = index
    best_label.setflags(write=False)
    best_t.setflags(write=False)
    return best_label, best_t


def _windowed_hits(
    pattern: BeamPattern,
    pose: Pose,
    origin: np.ndarray,
    directions: np.ndarray,
    boxes: list,
) -> list[_ActorHits]:
    """Per box, the rays inside its azimuth wedge that hit it, with distances.

    The boxes' windows stack into one ``(W, B)`` array of (window column,
    beam) pairs, ``W`` their total width, and the slab test runs on it in
    one pass, axis by axis, with each pair's operations in the order a
    per-box test over all rays runs them; a ray outside a box's wedge
    cannot hit it.  Boxes are yaw-only rotated, so each box's frame is a 2D
    rotation of x/y with z passed through.  Hits behind the origin are
    dropped, and a ray starting inside a box hits where it exits.
    """
    steps = pattern.azimuth_steps
    origin = np.asarray(origin, dtype=float)
    yaws = np.array([b.yaw for b in boxes])
    centers = np.array([b.center for b in boxes], dtype=float)
    halves = (
        np.array([[b.length, b.width, b.height] for b in boxes], dtype=float)
        / 2.0
    )
    cos_y, sin_y = np.cos(yaws), np.sin(yaws)
    first, width = _azimuth_windows(
        pattern, pose, origin, centers, halves, cos_y, sin_y
    )
    # Window row r of box i is azimuth column first[i] + r - starts[i].
    starts = np.cumsum(width) - width
    owner = np.repeat(np.arange(len(boxes)), width)
    columns = (np.repeat(first - starts, width) + np.arange(len(owner))) % steps

    def per_box(values: np.ndarray) -> np.ndarray:
        return values.take(owner)[:, None]

    def windowed(axis: int) -> np.ndarray:
        return directions[:, axis].reshape(-1, steps).T[columns]

    rel = origin[None, :] - centers  # (A, 3)
    local_origin_x = cos_y * rel[:, 0] + sin_y * rel[:, 1]
    local_origin_y = -sin_y * rel[:, 0] + cos_y * rel[:, 1]
    dx, dy = windowed(0), windowed(1)
    cos_w, sin_w = per_box(cos_y), per_box(sin_y)
    local_dirs_x = cos_w * dx + sin_w * dy
    local_dirs_y = per_box(-sin_y) * dx + cos_w * dy
    local_dirs_z = windowed(2)

    t_near = np.full(dx.shape, -np.inf)
    t_far = np.full(dx.shape, np.inf)
    slabs = (
        (local_dirs_x, local_origin_x, halves[:, 0]),
        (local_dirs_y, local_origin_y, halves[:, 1]),
        (local_dirs_z, rel[:, 2], halves[:, 2]),
    )
    for local_dir, local_orig, half in slabs:
        d = np.where(np.abs(local_dir) < 1e-12, 1e-12, local_dir)
        inv = 1.0 / d
        t_a = per_box(-half - local_orig) * inv
        t_b = per_box(half - local_orig) * inv
        np.maximum(t_near, np.minimum(t_a, t_b), out=t_near)
        np.minimum(t_far, np.maximum(t_a, t_b), out=t_far)

    rows, beams = np.nonzero((t_near <= t_far) & (t_far >= 0))
    t_near, t_far = t_near[rows, beams], t_far[rows, beams]
    t = np.where(t_near >= 0, t_near, t_far)  # inside-box rays exit forward
    rays = beams * steps + columns.take(rows)
    bounds = np.searchsorted(rows, np.append(starts, len(columns)))
    return [
        (rays[lo:hi], t[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def _azimuth_windows(
    pattern: BeamPattern,
    pose: Pose,
    origin: np.ndarray,
    centers: np.ndarray,
    halves: np.ndarray,
    cos_y: np.ndarray,
    sin_y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per box, the first azimuth column of its padded wedge and its width.

    The columns are those of the pattern's direction table (step
    ``2 pi / azimuth_steps`` from -pi) and wrap around; a box whose wedge
    cannot be bounded gets all of them.  A convex box lies inside a wedge
    narrower than pi exactly when its corners do.  Corner azimuths are
    taken relative to the centre's, which lies inside any such wedge, so
    corners spreading pi or more from it fit no narrower one.
    """
    steps = pattern.azimuth_steps
    offsets = _CORNER_SIGNS[None, :, :] * halves[:, None, :]  # (A, 8, 3)
    c, s = cos_y[:, None], sin_y[:, None]
    points = np.empty((len(centers), 9, 3))
    points[:, 0] = centers
    ox, oy, oz = offsets[..., 0], offsets[..., 1], offsets[..., 2]
    points[:, 1:, 0] = centers[:, None, 0] + c * ox - s * oy
    points[:, 1:, 1] = centers[:, None, 1] + s * ox + c * oy
    points[:, 1:, 2] = centers[:, None, 2] + oz
    # Sensor-frame x/y of the centre and the corners.
    local = (points - origin) @ pose.to_world().rotation[:, :2]
    x, y = local[..., 0], local[..., 1]
    azimuth = np.arctan2(y, x)
    centre_az = azimuth[:, 0]
    relative = azimuth[:, 1:] - centre_az[:, None]
    relative = np.mod(relative + np.pi, 2 * np.pi) - np.pi
    low, high = relative.min(axis=1), relative.max(axis=1)
    bounded = (high - low < np.pi - _WEDGE_SPAN_MARGIN) & (
        np.hypot(x[:, 1:], y[:, 1:]).min(axis=1) > _WEDGE_AXIS_CLEARANCE
    )
    column = steps / (2 * np.pi)
    first = np.floor((centre_az + low + np.pi) * column).astype(np.int64)
    last = np.ceil((centre_az + high + np.pi) * column).astype(np.int64)
    first -= _WEDGE_PAD_COLUMNS
    last += _WEDGE_PAD_COLUMNS
    width = last - first + 1
    full = ~bounded | (width >= steps)
    return np.where(full, 0, first % steps), np.where(full, steps, width)


def _ray_box_batch(origin: np.ndarray, directions: np.ndarray, box) -> np.ndarray:
    """Nearest-hit distances of many shared-origin rays against one box.

    Vectorised slab test in the box's yaw-aligned frame.  Returns +inf for
    misses and for hits behind the origin.
    """
    rot = rotation_z(-box.yaw)
    local_origin = rot @ (np.asarray(origin, dtype=float) - box.center)
    local_dirs = directions @ rot.T
    half = np.array([box.length / 2.0, box.width / 2.0, box.height / 2.0])

    d = np.where(np.abs(local_dirs) < 1e-12, 1e-12, local_dirs)
    t_lo = (-half - local_origin) / d
    t_hi = (half - local_origin) / d
    t1 = np.minimum(t_lo, t_hi)
    t2 = np.maximum(t_lo, t_hi)
    t_near = t1.max(axis=1)
    t_far = t2.min(axis=1)
    hit = (t_near <= t_far) & (t_far >= 0)
    t = np.where(t_near >= 0, t_near, t_far)  # inside-box rays exit forward
    return np.where(hit, t, np.inf)
