"""Feature-level and confidence-gated fusion (F-Cooper / Where2comm style).

Cooper's raw-cloud exchange is the bandwidth bottleneck: even ROI-cropped
clouds are megabits per frame.  F-Cooper showed that exchanging *voxel
feature maps* and fusing them by elementwise maxout carries the same
detection signal at 10-100x fewer bytes; Where2comm pushed the frontier
further by gating the exchange on a cheap confidence map — the receiver
tells its peers where it is already confident, and peers reply only with
features elsewhere.

This module implements both on top of the existing SPOD pipeline:

* :class:`FeaturePackage` — the wire format: per-voxel grid coordinates
  (uint16) plus per-channel uint8-quantised features, with the sender's
  pose so the receiver can run the paper's Eq. (1)-(3) alignment on voxel
  *centers* instead of raw points.
* :class:`ConfidenceRequest` — the gating control message: a bit-packed
  window of the requester's high-confidence BEV cells plus its pose.
* :func:`fuse_feature_packages` — spatial alignment of received feature
  maps onto the receiver's voxel grid and elementwise maxout with the
  receiver's own features, feeding the *shared* RPN head.
* Proxy-point reconstruction — the analytic decode stage needs point
  evidence (box refinement + confidence calibration); it is reconstructed
  strictly from wire content: each received voxel contributes points at
  its cell center, at the height encoded in the max-z feature channel,
  with multiplicity from the count channel.  No raw points ever cross the
  wire.
* The two halves of one cycle, shared by the session, the frontier and
  the fusion-level baseline: :meth:`FeatureTap.of` taps one vehicle's own
  features (and, gated, its confidence map), and :func:`perceive_tap`
  fuses a received inbox onto the receiver's tap and detects.

The feature channels consumed here are the analytic VFE's (occupancy,
max normalised z, max reflectance, normalised count); see
:meth:`repro.detection.vfe.VoxelFeatureEncoder.analytic_init`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.detection.detections import Detection
from repro.detection.nms import rotated_nms
from repro.detection.nn.sparse import SparseTensor3d
from repro.detection.preprocess import PreprocessResult
from repro.detection.spod import NMS_IOU, SPOD
from repro.fusion.align import alignment_transform
from repro.fusion.package import encode_sender
from repro.geometry.transforms import Pose
from repro.pointcloud.cloud import PointCloud
from repro.pointcloud.voxel import VoxelGridSpec
from repro.profiling import PROFILER

__all__ = [
    "FeaturePackage",
    "ConfidenceRequest",
    "rpn_confidence",
    "build_request",
    "build_feature_package",
    "fuse_feature_packages",
    "FusedFeatures",
    "FeatureTap",
    "feature_bev",
    "decode_fused",
    "perceive_tap",
    "perceive_features",
    "feature_package_intrinsically_sane",
]

_FEAT_MAGIC = b"CPFV"  # Cooper Point-cloud Feature Voxels
_FEAT_HEADER = struct.Struct("<4sB16sdIB3H")
_REQ_MAGIC = b"CPRQ"  # Cooper Request
_REQ_HEADER = struct.Struct("<4sB16sd6H")
_POSE_STRUCT = struct.Struct("<6d")

#: RPN confidence at or above which a requester marks a BEV cell as
#: already covered (peers need not send features there).
REQUEST_THRESHOLD = 0.5

#: Dilation (in cells) of the covered mask: a safety margin so a peer's
#: slightly offset evidence for an already-seen object is still suppressed.
REQUEST_DILATION = 1

#: A sender only ships voxels whose own RPN confidence reaches this; cells
#: below it are background clutter (walls, vegetation) that no receiver
#: benefits from.
FOREGROUND_THRESHOLD = 0.1

#: Dilation (in cells) of the sender's foreground mask: keeps the voxels
#: at object boundaries that carry the box extent.
FOREGROUND_DILATION = 2


@dataclass(frozen=True)
class FeaturePackage:
    """Per-voxel features + coordinates: the feature-level wire format.

    Attributes:
        coords: ``(V, 3)`` integer voxel coordinates in the *sender's*
            grid (uint16 on the wire).
        features: ``(V, C)`` per-voxel features (uint8-quantised per
            channel on the wire; deserialised packages carry the
            dequantised values).
        pose: the sender's measured pose — what the receiver's Eq. (1)-(3)
            alignment consumes.
        sender: vehicle identifier (16 UTF-8 bytes max, validated).
        timestamp: capture time in seconds.
        grid_shape: the sender's ``(nx, ny, nz)`` voxel grid — receivers
            reject packages from a mismatched grid geometry.
    """

    coords: np.ndarray
    features: np.ndarray
    pose: Pose
    sender: str = "vehicle"
    timestamp: float = 0.0
    grid_shape: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self) -> None:
        encode_sender(self.sender)  # fail fast on an over-long name
        if len(self.coords) != len(self.features):
            raise ValueError("coords and features must have equal length")

    @property
    def num_voxels(self) -> int:
        """Number of active voxels shipped."""
        return len(self.coords)

    @property
    def num_channels(self) -> int:
        """Feature channels per voxel (kept on the wire with zero voxels)."""
        return int(self.features.shape[1]) if self.features.ndim == 2 else 4

    def serialize(self) -> bytes:
        """Encode: header + pose + per-channel quant params + payload."""
        with PROFILER.stage("feature.serialize"):
            v = len(self.coords)
            c = self.num_channels
            if v and int(self.coords.max(initial=0)) > np.iinfo(np.uint16).max:
                raise ValueError("voxel coordinates exceed uint16 range")
            header = _FEAT_HEADER.pack(
                _FEAT_MAGIC, 1, encode_sender(self.sender), self.timestamp,
                v, c, *self.grid_shape,
            )
            pose = _POSE_STRUCT.pack(
                *self.pose.position, self.pose.yaw, self.pose.pitch,
                self.pose.roll,
            )
            if v == 0:
                quant = struct.pack(f"<{2 * c}f", *([0.0] * (2 * c)))
                return header + pose + quant
            feats = np.asarray(self.features, dtype=np.float64)
            lo = feats.min(axis=0)
            span = np.maximum(feats.max(axis=0) - lo, 1e-6)
            quant = struct.pack(
                f"<{2 * c}f",
                *np.column_stack([lo, span]).reshape(-1).astype(np.float32),
            )
            q = np.clip(
                np.round((feats - lo) / span * 255.0), 0, 255
            ).astype(np.uint8)
            coords = np.ascontiguousarray(self.coords, dtype=np.uint16)
            return header + pose + quant + coords.tobytes() + q.tobytes()

    @staticmethod
    def deserialize(payload: bytes) -> "FeaturePackage":
        """Decode the wire format produced by :meth:`serialize`."""
        with PROFILER.stage("feature.deserialize"):
            if len(payload) < _FEAT_HEADER.size + _POSE_STRUCT.size:
                raise ValueError("payload too short for a feature package")
            (magic, version, sender_bytes, timestamp, v, c, nx, ny, nz) = (
                _FEAT_HEADER.unpack_from(payload)
            )
            if magic != _FEAT_MAGIC:
                raise ValueError("bad magic: not a feature package")
            if version != 1:
                raise ValueError(f"unsupported feature package version {version}")
            offset = _FEAT_HEADER.size
            x, y, z, yaw, pitch, roll = _POSE_STRUCT.unpack_from(payload, offset)
            offset += _POSE_STRUCT.size
            quant = np.array(
                struct.unpack_from(f"<{2 * c}f", payload, offset),
                dtype=np.float64,
            ).reshape(c, 2)
            offset += 2 * c * 4
            coords = np.frombuffer(
                payload, dtype=np.uint16, count=v * 3, offset=offset
            ).reshape(v, 3).astype(np.int64)
            offset += v * 6
            q = np.frombuffer(
                payload, dtype=np.uint8, count=v * c, offset=offset
            ).reshape(v, c)
            features = q.astype(np.float64) / 255.0 * quant[:, 1] + quant[:, 0]
            return FeaturePackage(
                coords=coords,
                features=features,
                pose=Pose(np.array([x, y, z]), yaw=yaw, pitch=pitch, roll=roll),
                sender=sender_bytes.rstrip(b"\0").decode("utf-8"),
                timestamp=timestamp,
                grid_shape=(nx, ny, nz),
            )

    def size_bytes(self) -> int:
        """Wire size in bytes, computed analytically (no serialisation)."""
        v, c = len(self.coords), self.num_channels
        return _FEAT_HEADER.size + _POSE_STRUCT.size + 8 * c + v * (6 + c)


@dataclass(frozen=True)
class ConfidenceRequest:
    """Where2comm's control message: "here is what I already see".

    Attributes:
        confident: ``(nx, ny)`` boolean BEV mask of cells the requester's
            own RPN already covers at high confidence.  Peers reply with
            features only *outside* this mask.  The wire format bit-packs
            the mask's bounding window, so a typical request (a handful
            of car-sized blobs) costs a few hundred bytes.
        pose: the requester's measured pose — senders align their voxel
            centers into the requester's grid to test the mask.
        sender: requester identifier.
        timestamp: request time in seconds.
    """

    confident: np.ndarray
    pose: Pose
    sender: str = "vehicle"
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        encode_sender(self.sender)

    def _window(self) -> tuple[int, int, int, int]:
        rows = np.flatnonzero(self.confident.any(axis=1))
        cols = np.flatnonzero(self.confident.any(axis=0))
        if len(rows) == 0:
            return 0, 0, 0, 0
        return (
            int(rows[0]), int(cols[0]),
            int(rows[-1] - rows[0] + 1), int(cols[-1] - cols[0] + 1),
        )

    def serialize(self) -> bytes:
        """Encode: header + pose + bit-packed confident window."""
        nx, ny = self.confident.shape
        r0, c0, h, w = self._window()
        header = _REQ_HEADER.pack(
            _REQ_MAGIC, 1, encode_sender(self.sender), self.timestamp,
            nx, ny, r0, c0, h, w,
        )
        pose = _POSE_STRUCT.pack(
            *self.pose.position, self.pose.yaw, self.pose.pitch, self.pose.roll
        )
        if h == 0:
            return header + pose
        window = self.confident[r0:r0 + h, c0:c0 + w]
        return header + pose + np.packbits(window.reshape(-1)).tobytes()

    @staticmethod
    def deserialize(payload: bytes) -> "ConfidenceRequest":
        """Decode the wire format produced by :meth:`serialize`."""
        if len(payload) < _REQ_HEADER.size + _POSE_STRUCT.size:
            raise ValueError("payload too short for a confidence request")
        magic, version, sender_bytes, timestamp, nx, ny, r0, c0, h, w = (
            _REQ_HEADER.unpack_from(payload)
        )
        if magic != _REQ_MAGIC:
            raise ValueError("bad magic: not a confidence request")
        if version != 1:
            raise ValueError(f"unsupported request version {version}")
        offset = _REQ_HEADER.size
        x, y, z, yaw, pitch, roll = _POSE_STRUCT.unpack_from(payload, offset)
        offset += _POSE_STRUCT.size
        confident = np.zeros((nx, ny), dtype=bool)
        if h and w:
            bits = np.frombuffer(payload, dtype=np.uint8, offset=offset)
            window = np.unpackbits(bits, count=h * w).reshape(h, w)
            confident[r0:r0 + h, c0:c0 + w] = window.astype(bool)
        return ConfidenceRequest(
            confident=confident,
            pose=Pose(np.array([x, y, z]), yaw=yaw, pitch=pitch, roll=roll),
            sender=sender_bytes.rstrip(b"\0").decode("utf-8"),
            timestamp=timestamp,
        )

    def size_bytes(self) -> int:
        """Wire size in bytes, computed analytically."""
        _r0, _c0, h, w = self._window()
        return _REQ_HEADER.size + _POSE_STRUCT.size + (h * w + 7) // 8


def feature_package_intrinsically_sane(package: FeaturePackage) -> bool:
    """Receiver-independent corruption checks on one feature package.

    The feature-mode analogue of
    :func:`repro.fusion.align.package_intrinsically_sane`: a corrupted
    pose poisons the Eq. (1)-(3) alignment, non-finite features poison
    the maxout, and out-of-grid coordinates mark a mangled payload.
    """
    pose = package.pose
    if not (
        np.all(np.isfinite(pose.position))
        and np.isfinite(pose.yaw)
        and np.isfinite(pose.pitch)
        and np.isfinite(pose.roll)
    ):
        return False
    if len(package.coords) == 0:
        return True
    if not np.all(np.isfinite(package.features)):
        return False
    shape = np.asarray(package.grid_shape)
    if np.any(shape <= 0):
        return False
    coords = np.asarray(package.coords)
    return bool(np.all(coords >= 0) and np.all(coords < shape))


# -- confidence maps and builders -----------------------------------------

def rpn_confidence(detector: SPOD, bev: np.ndarray) -> np.ndarray:
    """Max-over-yaw RPN objectness probability per BEV cell, ``(nx, ny)``.

    This is the "cheap confidence map" of the gated exchange: one RPN
    objectness pass (:meth:`SPOD.rpn_apply`, no regression head) over a
    BEV map the sender has already computed.
    """
    cls_logits = detector.rpn_apply(bev)
    prob = 1.0 / (1.0 + np.exp(-np.clip(cls_logits[0], -60, 60)))
    return prob.max(axis=0)


def build_request(
    heat: np.ndarray,
    pose: Pose,
    sender: str,
    timestamp: float = 0.0,
) -> ConfidenceRequest:
    """Turn a requester's confidence map into the gating control message."""
    confident = ndimage.binary_dilation(
        heat >= REQUEST_THRESHOLD, iterations=REQUEST_DILATION
    )
    return ConfidenceRequest(
        confident=confident, pose=pose, sender=sender, timestamp=timestamp
    )


def _align_coords(
    coords: np.ndarray,
    sender_pose: Pose,
    receiver_pose: Pose,
    spec: VoxelGridSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. (1)-(3) on voxel *centers*: sender grid -> receiver grid.

    Returns ``(indices, in_bounds)``: the receiver-grid integer
    coordinates of every sender voxel center after the rigid alignment,
    and the mask of voxels that land inside the receiver's grid.
    """
    if len(coords) == 0:
        return np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=bool)
    transform = alignment_transform(sender_pose, receiver_pose)
    moved = transform.apply(spec.voxel_center(np.asarray(coords)))
    origin = np.asarray(spec.point_range[:3], dtype=np.float64)
    size = np.asarray(spec.voxel_size, dtype=np.float64)
    idx = np.floor((moved - origin) / size).astype(np.int64)
    shape = np.asarray(spec.grid_shape)
    ok = np.all(idx >= 0, axis=1) & np.all(idx < shape, axis=1)
    return idx, ok


def _maxout(
    coords: np.ndarray, features: np.ndarray, grid_shape: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate voxel coordinates, elementwise-maxing their features.

    Stable and scheduling-independent: rows are ordered by linear grid
    index (stable sort), so the output is a pure function of the input
    *set* regardless of row order.
    """
    if len(coords) == 0:
        return coords, features
    _nx, ny, nz = grid_shape
    linear = (coords[:, 0] * ny + coords[:, 1]) * nz + coords[:, 2]
    order = np.argsort(linear, kind="stable")
    linear, coords, features = linear[order], coords[order], features[order]
    _unique, starts = np.unique(linear, return_index=True)
    return coords[starts], np.maximum.reduceat(features, starts, axis=0)


def build_feature_package(
    spec: VoxelGridSpec,
    coords: np.ndarray,
    features: np.ndarray,
    pose: Pose,
    sender: str,
    timestamp: float = 0.0,
    heat: np.ndarray | None = None,
    requests: tuple[ConfidenceRequest, ...] = (),
) -> FeaturePackage:
    """Assemble one sender's outgoing feature package.

    Ungated (no ``requests``): every active voxel ships.  Gated: the
    sender keeps a voxel only where its *own* confidence map marks
    foreground (content worth shipping) AND at least one requester's
    grid wants the cell (the requester is not already confident there).
    DSRC is a broadcast medium, so the union over requesters ships once.
    """
    coords = np.asarray(coords)
    features = np.asarray(features, dtype=np.float64)
    if requests:
        if heat is None:
            raise ValueError("gated packaging requires the sender's heat map")
        foreground = ndimage.binary_dilation(
            heat >= FOREGROUND_THRESHOLD, iterations=FOREGROUND_DILATION
        )
        keep = foreground[coords[:, 0], coords[:, 1]]
        wanted = np.zeros(len(coords), dtype=bool)
        for request in requests:
            idx, ok = _align_coords(coords, pose, request.pose, spec)
            if not ok.any():
                continue
            inside = np.flatnonzero(ok)
            wanted[inside] |= ~request.confident[
                idx[inside, 0], idx[inside, 1]
            ]
        keep &= wanted
        coords, features = coords[keep], features[keep]
    return FeaturePackage(
        coords=coords,
        features=features,
        pose=pose,
        sender=sender,
        timestamp=timestamp,
        grid_shape=tuple(int(n) for n in spec.grid_shape),
    )


# -- receiver-side fusion --------------------------------------------------

@dataclass(frozen=True)
class FusedFeatures:
    """One receiver's fused sparse feature map plus decode evidence.

    Attributes:
        coords: ``(M, 3)`` receiver-grid voxel coordinates (deduplicated).
        features: ``(M, C)`` maxout-fused features.
        proxy_xyz: ``(P, 3)`` points reconstructed from *received*
            voxels only — the decode stage's stand-in for the raw points
            that never crossed the wire.
    """

    coords: np.ndarray
    features: np.ndarray
    proxy_xyz: np.ndarray


def _proxy_points(
    coords: np.ndarray, features: np.ndarray, spec: VoxelGridSpec
) -> np.ndarray:
    """Reconstruct decode evidence from received voxel features.

    Each voxel contributes points at its receiver-grid cell center, at
    the height the max-z channel encodes, with multiplicity from the
    count channel — exactly the evidence density the confidence
    calibrator's point-count and coverage terms need to score a cluster
    the way they would score the raw points.
    """
    if len(coords) == 0:
        return np.zeros((0, 3), dtype=np.float64)
    if features.shape[1] < 4:
        raise ValueError(
            "proxy-point decode needs the 4 analytic VFE channels"
        )
    centers = spec.voxel_center(np.asarray(coords))
    z_lo, z_hi = spec.point_range[2], spec.point_range[5]
    z = z_lo + np.clip(features[:, 1], 0.0, 1.0) * (z_hi - z_lo)
    multiplicity = np.maximum(
        1,
        np.round(
            np.clip(features[:, 3], 0.0, 1.0) * spec.max_points_per_voxel
        ).astype(np.int64),
    )
    points = np.column_stack([centers[:, 0], centers[:, 1], z])
    return np.repeat(points, multiplicity, axis=0)


def fuse_feature_packages(
    spec: VoxelGridSpec,
    ego_coords: np.ndarray,
    ego_features: np.ndarray,
    packages: list[FeaturePackage],
    receiver_pose: Pose,
) -> FusedFeatures:
    """Align every package onto the receiver grid and maxout-fuse.

    The F-Cooper rule: spatially aligned voxel features combine by
    elementwise max, which needs no weights, is permutation-invariant
    over cooperators, and keeps the strongest evidence for every cell.
    Packages from a mismatched grid geometry are the caller's problem
    (the session's sanity gate rejects them before this point).
    """
    with PROFILER.stage("feature.fuse"):
        all_coords = [np.asarray(ego_coords)]
        all_features = [np.asarray(ego_features, dtype=np.float64)]
        proxies = []
        for package in packages:
            idx, ok = _align_coords(
                package.coords, package.pose, receiver_pose, spec
            )
            feats = np.asarray(package.features, dtype=np.float64)[ok]
            idx = idx[ok]
            idx, feats = _maxout(idx, feats, spec.grid_shape)
            all_coords.append(idx)
            all_features.append(feats)
            proxies.append(_proxy_points(idx, feats, spec))
        coords = np.vstack(all_coords)
        features = np.vstack(all_features)
        coords, features = _maxout(coords, features, spec.grid_shape)
        proxy = (
            np.vstack(proxies)
            if proxies
            else np.zeros((0, 3), dtype=np.float64)
        )
        return FusedFeatures(coords=coords, features=features, proxy_xyz=proxy)


# -- the two halves of one feature-level cycle -----------------------------

@dataclass(frozen=True)
class FeatureTap:
    """One vehicle's own feature tap: what it ships and what it decodes
    against.

    Attributes:
        coords: active voxel grid coordinates, ``(N, 3)``.
        features: the middle block's features at ``coords``, ``(N, C)``
            float64 with ``C`` the detector's ``vfe_channels``.
        heat: the RPN confidence map (when asked for, else None).
        pre: the preprocess result the decode stage consumes; None for an
            empty scan, which has no ground model to decode against.
    """

    coords: np.ndarray
    features: np.ndarray
    heat: np.ndarray | None
    pre: PreprocessResult | None

    @staticmethod
    def of(
        detector: SPOD, cloud: PointCloud, want_heat: bool = False
    ) -> "FeatureTap":
        """Run one vehicle's feature tap (and, if asked, its confidence map).

        An empty scan yields an empty tap of the detector's own channel
        width and an all-clear confidence map, so what goes on the wire
        never depends on sensor faults.
        """
        if len(cloud) == 0:
            nx, ny = detector.config.voxel_spec.grid_shape[:2]
            return FeatureTap(
                coords=np.zeros((0, 3), dtype=np.int64),
                features=np.zeros(
                    (0, detector.config.vfe_channels), dtype=np.float64
                ),
                heat=np.zeros((nx, ny), dtype=np.float64) if want_heat else None,
                pre=None,
            )
        # The tap's BEV feeds only the confidence map's RPN pass, so it
        # scatters only the channels the RPN reads.
        tap = detector.forward_features(cloud, inference=True, tap=True)
        return FeatureTap(
            coords=np.asarray(tap["grid"].coords),
            features=np.asarray(tap["middle"].features, dtype=np.float64),
            heat=rpn_confidence(detector, tap["bev"]) if want_heat else None,
            pre=tap["pre"],
        )


def feature_bev(detector: SPOD, fused: FusedFeatures) -> np.ndarray:
    """Densify a fused sparse feature map for the shared RPN head.

    Only the BEV channels the RPN's first convolution reads are scattered
    (:meth:`RegionProposalNetwork.used_input_channels`); the others stay
    zero, which is what a zero-weight consumer sees, so the objectness is
    the same as over the full map.
    """
    tensor = SparseTensor3d(
        fused.coords,
        fused.features.astype(detector.dtype),
        detector.config.voxel_spec.grid_shape,
    )
    used = detector.rpn.used_input_channels()
    return detector.middle.to_dense(
        tensor, channel_mask=None if used.all() else used
    )


def decode_fused(
    detector: SPOD,
    cls_logits: np.ndarray,
    obstacle_xyz: np.ndarray,
    full_xyz: np.ndarray,
    ground_z: float,
) -> list[Detection]:
    """Analytic decode + NMS + threshold over a fused RPN output.

    ``obstacle_xyz`` and ``full_xyz`` are the receiver's own obstacle and
    full-cloud points plus the received proxy points; ``ground_z`` is the
    receiver's fitted ground height.
    """
    with PROFILER.stage("spod.decode"):
        raw = detector._decode_analytic(
            cls_logits, obstacle_xyz, full_xyz, ground_z
        )
    with PROFILER.stage("spod.nms"):
        kept = rotated_nms(raw, NMS_IOU)
    threshold = detector.config.detection_threshold
    return [d for d in kept if d.score >= threshold]


def perceive_tap(
    detector: SPOD,
    receiver_pose: Pose,
    tap: FeatureTap,
    packages: list[FeaturePackage],
) -> list[Detection]:
    """The receiver step: fuse an inbox onto the receiver's tap, detect.

    Maxout fusion, BEV densification, the shared RPN head and
    :func:`decode_fused` against the receiver's own points plus the
    proxy points.  An empty scan or an empty fused map detects nothing,
    matching the raw path's empty-cloud behaviour.
    """
    if tap.pre is None:
        return []
    fused = fuse_feature_packages(
        detector.config.voxel_spec,
        tap.coords,
        tap.features,
        packages,
        receiver_pose,
    )
    if len(fused.coords) == 0:
        return []
    bev = feature_bev(detector, fused)
    obstacle_xyz = np.vstack([tap.pre.obstacles.xyz, fused.proxy_xyz])
    full_xyz = np.vstack([tap.pre.full.xyz, fused.proxy_xyz])
    with PROFILER.stage("cooper.detect"):
        cls_logits = detector.rpn_apply(bev)
        return decode_fused(
            detector, cls_logits, obstacle_xyz, full_xyz, tap.pre.ground_z
        )


def perceive_features(
    detector: SPOD,
    native_cloud: PointCloud,
    receiver_pose: Pose,
    packages: list[FeaturePackage],
) -> list[Detection]:
    """One full feature-level perception cycle: tap, then receiver step."""
    tap = FeatureTap.of(detector, native_cloud)
    return perceive_tap(detector, receiver_pose, tap, packages)
