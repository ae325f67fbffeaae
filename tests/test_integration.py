"""Cross-module integration tests: the full Cooper data path.

These exercise the complete wire: scan -> ROI -> compress -> package ->
DSRC -> decode -> align -> merge -> detect, plus the
end-to-end scenario property the paper's headline figures rest on.
"""

import numpy as np
import pytest

from repro.datasets.base import make_case
from repro.eval.experiments import run_case
from repro.fusion.align import merge_packages
from repro.fusion.package import ExchangePackage
from repro.network.dsrc import DsrcChannel
from repro.network.roi_policy import RoiCategory, RoiPolicy, extract_roi
from repro.scene.layouts import parking_lot
from repro.sensors.lidar import BeamPattern, LidarModel
from repro.sensors.rig import SensorRig

FAST_16 = BeamPattern("fast-16", tuple(np.linspace(-15, 15, 16)), 0.8)


@pytest.fixture(scope="module")
def lot_layout():
    return parking_lot(seed=21, rows=2, cols=6, occupancy=0.85)


class TestFullWirePath:
    def test_scan_to_detection_over_the_wire(self, lot_layout, detector):
        """A package survives ROI, codec and a lossy channel, and still
        improves the receiver's detections."""
        world = lot_layout.world
        rig_tx = SensorRig(lidar=LidarModel(pattern=FAST_16, dropout=0.0), name="tx")
        rig_rx = SensorRig(lidar=LidarModel(pattern=FAST_16, dropout=0.0), name="rx")
        tx_obs = rig_tx.observe(world, lot_layout.viewpoint("car2"), seed=1)
        rx_obs = rig_rx.observe(world, lot_layout.viewpoint("car1"), seed=2)

        # Sender side: ROI extraction and packaging.
        roi = extract_roi(
            tx_obs.scan.cloud,
            RoiPolicy(category=RoiCategory.FULL_FRAME),
            [b.transformed(tx_obs.true_pose.from_world())
             for b in (a.box for a in world.background())],
        )
        package = ExchangePackage(roi, tx_obs.measured_pose, sender="tx")
        wire = package.serialize()

        # Channel: the package must clear the 6 Mbps DSRC link within 1 s.
        report = DsrcChannel().transmit(len(wire) * 8, seed=0, loss_rate=0.1)
        assert report.delivered
        assert report.seconds < 1.0  # fits the paper's 1 Hz exchange budget

        # Receiver side: decode, align, merge, detect.
        received = ExchangePackage.deserialize(wire)
        assert received.sender == "tx"
        merged = merge_packages(
            rx_obs.scan.cloud, [received], rx_obs.measured_pose
        )
        single = detector.detect(rx_obs.scan.cloud)
        cooperative = detector.detect(merged)
        assert len(cooperative) >= len(single)

    def test_quantisation_does_not_change_detections_materially(
        self, lot_layout, detector
    ):
        """Detections on a codec-roundtripped cloud match the originals."""
        from repro.pointcloud.compression import compress_cloud, decompress_cloud

        rig = SensorRig(lidar=LidarModel(pattern=FAST_16, dropout=0.0))
        obs = rig.observe(lot_layout.world, lot_layout.viewpoint("car1"), seed=3)
        original = detector.detect(obs.scan.cloud)
        decoded = decompress_cloud(compress_cloud(obs.scan.cloud))
        roundtripped = detector.detect(decoded)
        assert abs(len(original) - len(roundtripped)) <= 1


class TestScenarioProperties:
    def test_cooper_counts_dominate_singles(self, lot_layout, detector):
        """The headline claim on a fresh scenario: merged >= each single."""
        poses = {
            "car1": lot_layout.viewpoint("car1"),
            "car2": lot_layout.viewpoint("car2"),
        }
        case = make_case(
            "integration/lot", "parking", lot_layout.world, poses, "car1",
            FAST_16, seed=5,
        )
        result = run_case(case, detector)
        assert result.counts["cooper"] >= max(
            result.counts["car1"], result.counts["car2"]
        )

    def test_detection_in_own_frame_each_observer(self, lot_layout, detector):
        """Each observer's detections match its own-frame ground truth."""
        poses = {
            "car1": lot_layout.viewpoint("car1"),
            "car2": lot_layout.viewpoint("car2"),
        }
        case = make_case(
            "integration/frames", "parking", lot_layout.world, poses, "car1",
            FAST_16, seed=6,
        )
        from repro.eval.matching import match_detections

        for observer in case.observer_names:
            detections = detector.detect(case.cloud_of(observer))
            gts = case.ground_truth_in(observer)
            matched = match_detections(detections, gts)
            # Every reported detection corresponds to a real car.
            assert len(matched.false_positives) <= max(1, len(detections) // 3)
