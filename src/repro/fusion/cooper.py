"""The Cooper pipeline: receive, align, merge, detect.

This is the paper's end-to-end system: a receiving vehicle combines its
native scan with the exchange packages of its cooperators (raw-data-level
fusion) and runs the *same* SPOD detector on the merged cloud that it runs
on single shots — the design that lets fusion recover objects neither
vehicle detected alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.detection.detections import Detection
from repro.detection.spod import SPOD
from repro.fusion.align import merge_packages
from repro.fusion.package import ExchangePackage
from repro.geometry.transforms import Pose
from repro.pointcloud.cloud import PointCloud
from repro.profiling import PROFILER

__all__ = ["Cooper", "CooperResult"]


@dataclass
class CooperResult:
    """Outcome of one cooperative perception cycle.

    Attributes:
        detections: SPOD detections on the merged cloud (receiver frame).
        merged_cloud: the cooperative cloud that was detected on.
        fuse_seconds: time spent aligning + merging.
        detect_seconds: time spent in SPOD.
        num_cooperators: how many packages contributed.
        rejected_packages: packages quarantined by the alignment gate.
    """

    detections: list[Detection]
    merged_cloud: PointCloud
    fuse_seconds: float
    detect_seconds: float
    num_cooperators: int
    rejected_packages: int = 0

    @property
    def total_seconds(self) -> float:
        """Fusion plus detection wall-clock time (the Fig. 9 quantity)."""
        return self.fuse_seconds + self.detect_seconds


@dataclass
class Cooper:
    """Cooperative perception for one receiving vehicle.

    Attributes:
        detector: the shared SPOD instance (one network for dense, sparse
            and merged clouds).
        reject_misaligned: when True, packages whose aligned points
            physically disagree with the native scan (GPS fault, spoofed
            cloud — the paper's II-B trust concern) are quarantined
            instead of merged (see
            :func:`repro.fusion.diagnostics.validate_package`).
    """

    detector: SPOD = field(default_factory=SPOD.pretrained)
    reject_misaligned: bool = False

    def fuse(
        self,
        native_cloud: PointCloud,
        receiver_pose: Pose,
        packages: Sequence[ExchangePackage] = (),
    ) -> tuple[PointCloud, int, int, float]:
        """Validate + align + merge without detecting.

        Returns ``(merged_cloud, accepted, rejected, fuse_seconds)``;
        :meth:`perceive` composes this with detection.
        """
        from repro.fusion.diagnostics import validate_package

        accepted = list(packages)
        rejected = 0
        if self.reject_misaligned:
            accepted = []
            with PROFILER.stage("cooper.validate"):
                for package in packages:
                    report = validate_package(native_cloud, package, receiver_pose)
                    if report.consistent:
                        accepted.append(package)
                    else:
                        rejected += 1

        fuse_start = time.perf_counter()
        merged = merge_packages(native_cloud, accepted, receiver_pose)
        fuse_seconds = time.perf_counter() - fuse_start
        PROFILER.record("cooper.fuse", fuse_seconds)
        return merged, len(accepted), rejected, fuse_seconds

    def perceive(
        self,
        native_cloud: PointCloud,
        receiver_pose: Pose,
        packages: Sequence[ExchangePackage] = (),
    ) -> CooperResult:
        """Run one perception cycle.

        With no packages this degrades gracefully to single-shot detection
        (the baseline the paper compares against).  With
        ``reject_misaligned`` set, inconsistent packages are dropped and
        counted in :attr:`CooperResult.rejected_packages`.
        """
        merged, num_accepted, rejected, fuse_seconds = self.fuse(
            native_cloud, receiver_pose, packages
        )

        detect_start = time.perf_counter()
        detections = self.detector.detect(merged)
        detect_seconds = time.perf_counter() - detect_start
        # Mirror the externally observable CooperResult times into the
        # profiler so its totals reconcile with total_seconds exactly
        # (cooper.fuse is recorded inside fuse()).
        PROFILER.record("cooper.detect", detect_seconds)
        return CooperResult(
            detections=detections,
            merged_cloud=merged,
            fuse_seconds=fuse_seconds,
            detect_seconds=detect_seconds,
            num_cooperators=num_accepted,
            rejected_packages=rejected,
        )

    def perceive_single(self, native_cloud: PointCloud) -> CooperResult:
        """Single-shot perception (no cooperation) with the same detector."""
        detect_start = time.perf_counter()
        detections = self.detector.detect(native_cloud)
        detect_seconds = time.perf_counter() - detect_start
        PROFILER.record("cooper.detect", detect_seconds)
        return CooperResult(
            detections=detections,
            merged_cloud=native_cloud,
            fuse_seconds=0.0,
            detect_seconds=detect_seconds,
            num_cooperators=0,
        )
