"""Component micro-benchmarks: the stages inside one SPOD inference.

Not a paper figure — engineering telemetry for the pipeline: LiDAR
simulation, voxelisation, the network forward as ``detect`` runs it
(preprocess, voxelize, VFE, sparse middle and the inference RPN pass),
full detection, and the codec, each timed in isolation.
"""

import numpy as np
import pytest

from repro.detection.preprocess import preprocess
from repro.pointcloud.compression import compress_cloud, decompress_cloud
from repro.pointcloud.voxel import voxelize
from repro.scene.layouts import t_junction
from repro.sensors.lidar import HDL_64E, LidarModel


@pytest.fixture(scope="module")
def scan_cloud():
    layout = t_junction()
    scan = LidarModel(pattern=HDL_64E).scan(
        layout.world, layout.viewpoint("t1"), seed=0
    )
    return scan.cloud


def test_component_lidar_scan(benchmark):
    layout = t_junction()
    lidar = LidarModel(pattern=HDL_64E)
    benchmark.pedantic(
        lidar.scan, args=(layout.world, layout.viewpoint("t1")),
        kwargs={"seed": 0}, rounds=5, iterations=1,
    )


def test_component_voxelize(benchmark, detector, scan_cloud):
    obstacles = preprocess(scan_cloud).obstacles
    grid = benchmark(voxelize, obstacles, detector.config.voxel_spec)
    assert grid.num_voxels > 100


def test_component_network_forward(benchmark, detector, scan_cloud):
    def forward():
        bev = detector.forward_features(scan_cloud, inference=True)["bev"]
        return detector.rpn_apply(bev)

    cls_logits = benchmark.pedantic(forward, rounds=5, iterations=1)
    assert cls_logits.shape[1] == len(detector.anchors.yaws)


def test_component_full_detection(benchmark, detector, scan_cloud):
    detections = benchmark.pedantic(
        detector.detect, args=(scan_cloud,), rounds=5, iterations=1
    )
    assert len(detections) >= 1


def test_component_codec_throughput(benchmark, scan_cloud):
    payload = compress_cloud(scan_cloud)

    def roundtrip():
        return decompress_cloud(compress_cloud(scan_cloud))

    decoded = benchmark(roundtrip)
    assert len(decoded) == len(scan_cloud)
    # Report effective codec throughput for the record.
    benchmark.extra_info["compressed_bytes"] = len(payload)
    benchmark.extra_info["points"] = len(scan_cloud)
