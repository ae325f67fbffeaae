"""The Cooper exchange package (paper Section II-D).

"Additional information is encapsulated into the exchange package ...
constituted from LiDAR sensor installation information and its GPS reading,
which determines the center point position of every frame of point clouds.
Vehicle's IMU reading is also required."

An :class:`ExchangePackage` is exactly that: the (possibly ROI-cropped)
cloud in the sender's LiDAR frame plus the sender's measured pose (GPS
position + IMU attitude) and sensor metadata.  Packages serialise to the
compact wire format used by the networking layer, with the cloud in the
default codec (:class:`~repro.pointcloud.compression.CompressionSpec`:
16-bit coordinates, 8-bit reflectance).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.transforms import Pose
from repro.pointcloud.cloud import PointCloud
from repro.pointcloud.compression import (
    compress_cloud,
    compressed_size_bytes,
    decompress_cloud,
)
from repro.profiling import PROFILER

__all__ = ["ExchangePackage", "SENDER_FIELD_BYTES", "encode_sender"]

_POSE_STRUCT = struct.Struct("<6d")
_META_STRUCT = struct.Struct("<16sBd")

#: Width of the fixed sender-name field in every wire format.
SENDER_FIELD_BYTES = 16


def encode_sender(sender: str) -> bytes:
    """Encode a sender name into the fixed 16-byte wire field.

    Raises :class:`ValueError` when the UTF-8 encoding exceeds the field —
    silently truncating would corrupt the name (and could split a
    multi-byte character, making the receiver's decode raise or return a
    *different* sender, which poisons per-peer state like circuit breakers
    and stale caches that key on the name).
    """
    encoded = sender.encode("utf-8")
    if len(encoded) > SENDER_FIELD_BYTES:
        raise ValueError(
            f"sender name {sender!r} is {len(encoded)} UTF-8 bytes; the "
            f"wire format's sender field holds at most {SENDER_FIELD_BYTES}"
        )
    return encoded.ljust(SENDER_FIELD_BYTES, b"\0")


@dataclass(frozen=True)
class ExchangePackage:
    """Everything one vehicle sends another for cooperative perception.

    Attributes:
        cloud: points in the *sender's* LiDAR frame.
        pose: the sender's measured pose (GPS position, IMU attitude).
        sender: vehicle identifier.
        beam_count: sender's LiDAR beam count (sensor installation info —
            lets the receiver reason about the incoming density).
        timestamp: capture time in seconds.
    """

    cloud: PointCloud
    pose: Pose
    sender: str = "vehicle"
    beam_count: int = 16
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if self.beam_count < 1:
            raise ValueError("beam_count must be positive")
        encode_sender(self.sender)  # fail fast on an over-long name

    def serialize(self) -> bytes:
        """Encode to the wire format: metadata + pose + compressed cloud."""
        with PROFILER.stage("package.serialize"):
            sender_bytes = encode_sender(self.sender)
            meta = _META_STRUCT.pack(
                sender_bytes, self.beam_count, self.timestamp
            )
            pose = _POSE_STRUCT.pack(
                *self.pose.position,
                self.pose.yaw,
                self.pose.pitch,
                self.pose.roll,
            )
            return meta + pose + compress_cloud(self.cloud)

    @staticmethod
    def deserialize(payload: bytes) -> "ExchangePackage":
        """Decode the wire format produced by :meth:`serialize`."""
        with PROFILER.stage("package.deserialize"):
            if len(payload) < _META_STRUCT.size + _POSE_STRUCT.size:
                raise ValueError("payload too short for an exchange package")
            sender_bytes, beam_count, timestamp = _META_STRUCT.unpack_from(
                payload
            )
            offset = _META_STRUCT.size
            x, y, z, yaw, pitch, roll = _POSE_STRUCT.unpack_from(payload, offset)
            offset += _POSE_STRUCT.size
            cloud = decompress_cloud(payload[offset:], frame_id="received")
            return ExchangePackage(
                cloud=cloud,
                pose=Pose(np.array([x, y, z]), yaw=yaw, pitch=pitch, roll=roll),
                sender=sender_bytes.rstrip(b"\0").decode("utf-8"),
                beam_count=beam_count,
                timestamp=timestamp,
            )

    def size_bytes(self) -> int:
        """Wire size of this package in bytes, computed analytically.

        Every wire section has a fixed or arithmetically determined size
        (metadata struct + pose struct + codec header + quantised
        payload), so the size never requires actually serialising —
        which matters to the schedulers and bandwidth ledgers that query
        sizes every frame for every sender.  Guaranteed equal to
        ``len(self.serialize())``.
        """
        return (
            _META_STRUCT.size
            + _POSE_STRUCT.size
            + compressed_size_bytes(len(self.cloud))
        )

    def size_megabits(self) -> float:
        """Wire size in megabits — the unit of the paper's Fig. 12."""
        return self.size_bytes() * 8 / 1e6
