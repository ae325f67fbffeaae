"""Sensor substrate: simulated LiDAR, GPS and IMU.

The paper's testbeds use a Velodyne HDL-64E (KITTI) and a VLP-16 (the T&J
golf cart) plus an integrated GPS/IMU unit with <10 cm positional error.
This package simulates all three: a vectorised ray-casting LiDAR with
occlusion, range noise and dropout; a GPS reader with bounded drift (the
quantity Fig. 10 skews); and an IMU attitude reader.
"""

from repro.sensors.lidar import (
    BeamPattern,
    LidarModel,
    LidarScan,
    VLP_16,
    HDL_32E,
    HDL_64E,
)
from repro.sensors.gps import GpsSkew, read_gps
from repro.sensors.imu import read_imu
from repro.sensors.rig import SensorRig, RigObservation
from repro.sensors.camera import PinholeCamera, CameraImage, image_fragment_for_box

__all__ = [
    "BeamPattern",
    "LidarModel",
    "LidarScan",
    "VLP_16",
    "HDL_32E",
    "HDL_64E",
    "GpsSkew",
    "read_gps",
    "read_imu",
    "SensorRig",
    "RigObservation",
    "PinholeCamera",
    "CameraImage",
    "image_fragment_for_box",
]
