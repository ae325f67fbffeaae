"""Point-cloud substrate: containers, voxelisation, projection, ROI, codec.

Everything Cooper exchanges and everything SPOD consumes is a LiDAR point
cloud: an ``(N, 4)`` array of ``x, y, z, reflectance``.  This package
provides the container type plus the operations the paper's pipeline needs:

* voxelisation (VoxelNet-style grouping) feeding the detector,
* spherical (range-image) projection for the dense representation [27],
* region-of-interest cropping and background subtraction for the
  transmission policy of Section IV-G,
* a quantising compressor hitting the paper's ~200 KB/scan budget,
* KITTI-format binary I/O.
"""

from repro.pointcloud.cloud import PointCloud, merge_clouds
from repro.pointcloud.voxel import VoxelGrid, VoxelGridSpec
from repro.pointcloud.spherical import SphericalProjection, spherical_project
from repro.pointcloud.roi import (
    crop_box,
    crop_sector,
    forward_corridor,
    subtract_background,
)
from repro.pointcloud.compression import (
    CompressionSpec,
    compress_cloud,
    decompress_cloud,
    compressed_size_bytes,
)
from repro.pointcloud.io import read_kitti_bin, write_kitti_bin
from repro.pointcloud.mapping import BackgroundMap, BackgroundMapper

__all__ = [
    "PointCloud",
    "merge_clouds",
    "VoxelGrid",
    "VoxelGridSpec",
    "SphericalProjection",
    "spherical_project",
    "crop_box",
    "crop_sector",
    "forward_corridor",
    "subtract_background",
    "CompressionSpec",
    "compress_cloud",
    "decompress_cloud",
    "compressed_size_bytes",
    "read_kitti_bin",
    "write_kitti_bin",
    "BackgroundMap",
    "BackgroundMapper",
]
