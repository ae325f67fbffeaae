"""Vectorised ray-casting LiDAR simulator.

A :class:`LidarModel` fires one ray per (beam elevation, azimuth) pair from
the sensor pose and keeps the nearest hit against the world's actor boxes
and the ground plane — exactly the physics that produces the paper's two
failure modes: *blind zones* behind occluders and *sparsity* that grows
with range and shrinks with beam count.  The 16-beam VLP-16 produces a
cloud ~4x sparser than the 64-beam HDL-64E, matching the paper's T&J vs
KITTI contrast.

Rays from one scan share an origin, so occlusion tests vectorise per actor:
each box rotates the whole direction table into its own frame and runs the
slab test on all rays at once.  Across frames from one pose, a
:class:`ScanGeometryCache` keeps each actor's hit row and the per-ray
nearest hit, so a static scene skips both the slab tests and the search
for the nearest actor.
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
        if self.azimuth_resolution_deg <= 0:
            raise ValueError("azimuth resolution must be positive")

    @property
    def num_beams(self) -> int:
        """Number of vertical beams."""
        return len(self.elevations_deg)

    @property
    def rays_per_scan(self) -> int:
        """Total rays fired per 360-degree revolution."""
        return self.num_beams * int(round(360.0 / self.azimuth_resolution_deg))


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

    Attributes:
        cloud: points in the *sensor* frame (x forward at yaw 0).
        labels: per-point actor name, ``"__ground__"`` for ground returns.
        pose: the true sensor pose the scan was taken from.
    """

    cloud: PointCloud
    labels: np.ndarray
    pose: Pose

    def points_labeled(self, name: str) -> PointCloud:
        """Sub-cloud of returns from one actor."""
        return self.cloud.select(self.labels == name)

    def points_per_actor(self) -> dict[str, int]:
        """Return counts of LiDAR hits per actor (ground excluded)."""
        names, counts = np.unique(self.labels, return_counts=True)
        return {
            str(n): int(c) for n, c in zip(names, counts) if n != _GROUND_LABEL
        }

    def non_ground(self) -> PointCloud:
        """The cloud with ground returns removed."""
        return self.cloud.select(self.labels != _GROUND_LABEL)


@dataclass(frozen=True)
class LidarModel:
    """A simulated spinning LiDAR.

    Attributes:
        pattern: the beam table (VLP_16, HDL_32E, HDL_64E or custom).
        range_noise_std: Gaussian noise added to hit distances (metres).
        dropout: probability that a valid return is lost.
        min_range: blind radius around the sensor.
        include_ground: whether ground-plane returns are produced.
    """

    pattern: BeamPattern = VLP_16
    range_noise_std: float = 0.02
    dropout: float = 0.05
    min_range: float = 1.5
    include_ground: bool = True

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
        clamped to ``[min_range, max_range]`` so returned points never
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
        if actors:
            boxes = [a.box for a in actors]
            if cache is None:
                best_label, best_t = _nearest_hits(
                    _ray_boxes_batch(origin, directions, boxes)
                )
            else:
                best_label, best_t = cache.nearest_hits(
                    self.pattern, pose, origin, directions, boxes
                )
        else:
            best_t = np.full(num_rays, np.inf)
            best_label = np.zeros(num_rays, dtype=np.int64)

        if self.include_ground:
            dz = directions[:, 2]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_ground = (world.ground_z - origin[2]) / dz
            t_ground = np.where((dz < -1e-9) & (t_ground > 0), t_ground, np.inf)
            better = t_ground < best_t
            best_t = np.where(better, t_ground, best_t)
            best_label = np.where(better, -2, best_label)  # ground sentinel

        valid = (
            np.isfinite(best_t)
            & (best_t >= self.min_range)
            & (best_t <= self.pattern.max_range)
        )
        if self.dropout > 0:
            valid &= rng.random(num_rays) >= self.dropout

        t = best_t[valid]
        if self.range_noise_std > 0:
            t = t + rng.normal(0.0, self.range_noise_std, size=len(t))
            # Re-gate after adding noise: a draw must not push a return
            # outside the advertised range bounds (or behind the sensor).
            np.clip(t, self.min_range, self.pattern.max_range, out=t)
        hit_world = origin + directions[valid] * t[:, None]
        hit_local = pose.from_world().apply(hit_world) if len(t) else hit_world

        label_idx = best_label[valid]
        reflectance_table = np.array(
            [a.reflectance for a in actors] + [_GROUND_REFLECTANCE],
            dtype=np.float32,
        )
        table_idx = np.where(label_idx == -2, len(actors), label_idx)
        reflectance = reflectance_table[table_idx] + rng.normal(
            0.0, 0.02, size=len(t)
        ).astype(np.float32)
        reflectance = np.clip(reflectance, 0.0, 1.0)

        names = np.array([a.name for a in actors] + [_GROUND_LABEL])
        labels = names[table_idx]

        cloud = PointCloud.from_xyz(hit_local, reflectance, frame_id="sensor")
        return LidarScan(cloud=cloud, labels=labels, pose=pose)


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


@dataclass
class _ScanCacheEntry:
    key_text: str
    actor_keys: tuple[bytes, ...]
    t_rows: np.ndarray  # (A, N) hit distances, one row per actor
    # _nearest_hits(t_rows), dropped whenever a row is re-raycast.
    nearest: tuple[np.ndarray, np.ndarray] | None = None


class ScanGeometryCache:
    """Static-geometry raycast memo for :meth:`LidarModel.scan`.

    The expensive part of a scan is the per-actor slab test — an
    ``(A, N)`` hit-distance matrix whose row *i* depends only on the pose,
    the beam pattern and actor *i*'s box (every operation in
    :func:`_ray_boxes_batch` is elementwise per box row).  Consecutive
    frames of a (near-)static scene therefore recompute identical rows.

    This cache stores the hit matrix per ``(pattern, pose)`` cell — keyed
    with :func:`repro.runtime.stable_hash` over an exact text key, so keys
    are PYTHONHASHSEED/process-independent, and verified against the
    stored key text on every hit.  On a hit, only actors whose box
    geometry changed since the cached frame are re-raycast and their rows
    patched in place; static geometry is reused.  Because rows are
    bit-exact regardless of how the actor batch is split, the assembled
    matrix — and every downstream product, including the seeded noise
    streams drawn after it — is bit-identical to a cold scan.

    Each entry also memoises the matrix's per-ray nearest hit (actor index
    and distance, :func:`_nearest_hits`), the argmin a hit would otherwise
    repeat over every ray and actor.  Patching any row drops the memo.

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
        """Per-ray nearest actor hit against ``boxes``, reusing cached rows.

        Returns :func:`_nearest_hits` of the ``(A, N)`` hit matrix: the
        read-only arrays held by the cache entry.
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
                entry.t_rows[changed] = _ray_boxes_batch(
                    origin, directions, [boxes[i] for i in changed]
                )
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
                key_text, actor_keys, _ray_boxes_batch(origin, directions, boxes)
            )
            self._entries[key] = entry
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        if entry.nearest is None:
            entry.nearest = _nearest_hits(entry.t_rows)
        return entry.nearest


def _nearest_hits(t_hits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per ray, the nearest actor's index and hit distance (read-only).

    ``t_hits`` is an ``(A, N)`` hit matrix; ties go to the lowest index.
    """
    best_label = t_hits.argmin(axis=0)
    best_t = t_hits[best_label, np.arange(t_hits.shape[1])]
    best_label.setflags(write=False)
    best_t.setflags(write=False)
    return best_label, best_t


def _ray_boxes_batch(
    origin: np.ndarray, directions: np.ndarray, boxes: list
) -> np.ndarray:
    """Nearest-hit distances of shared-origin rays against many boxes.

    One slab test over all ``(box, ray)`` pairs at once, axis by axis so no
    temporary grows beyond ``(A, N)``.  Boxes are yaw-only rotated, so each
    box's frame is a 2D rotation of x/y with z passed through.  Returns an
    ``(A, N)`` array with +inf for misses and hits behind the origin.
    """
    num_boxes = len(boxes)
    origin = np.asarray(origin, dtype=float)
    yaws = np.array([b.yaw for b in boxes])
    centers = np.array([b.center for b in boxes], dtype=float)
    halves = (
        np.array([[b.length, b.width, b.height] for b in boxes], dtype=float)
        / 2.0
    )
    cos_y, sin_y = np.cos(yaws), np.sin(yaws)

    rel = origin[None, :] - centers  # (A, 3)
    local_origin_x = cos_y * rel[:, 0] + sin_y * rel[:, 1]
    local_origin_y = -sin_y * rel[:, 0] + cos_y * rel[:, 1]
    dx, dy, dz = directions[:, 0], directions[:, 1], directions[:, 2]
    local_dirs_x = cos_y[:, None] * dx[None, :] + sin_y[:, None] * dy[None, :]
    local_dirs_y = -sin_y[:, None] * dx[None, :] + cos_y[:, None] * dy[None, :]
    local_dirs_z = np.broadcast_to(dz[None, :], local_dirs_x.shape)

    t_near = np.full(local_dirs_x.shape, -np.inf)
    t_far = np.full(local_dirs_x.shape, np.inf)
    slabs = (
        (local_dirs_x, local_origin_x, halves[:, 0]),
        (local_dirs_y, local_origin_y, halves[:, 1]),
        (local_dirs_z, rel[:, 2], halves[:, 2]),
    )
    for local_dir, local_orig, half in slabs:
        d = np.where(np.abs(local_dir) < 1e-12, 1e-12, local_dir)
        inv = 1.0 / d
        t_a = (-half[:, None] - local_orig[:, None]) * inv
        t_b = (half[:, None] - local_orig[:, None]) * inv
        np.maximum(t_near, np.minimum(t_a, t_b), out=t_near)
        np.minimum(t_far, np.maximum(t_a, t_b), out=t_far)

    hit = (t_near <= t_far) & (t_far >= 0)
    t = np.where(t_near >= 0, t_near, t_far)  # inside-box rays exit forward
    return np.where(hit, t, np.inf)


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
