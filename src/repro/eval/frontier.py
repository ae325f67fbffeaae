"""Recall-vs-bandwidth frontier across fusion levels.

The paper's raw-cloud exchange buys its recall with hundreds of
kilobytes per frame; this module measures what each cheaper exchange
level gives up.  Four points span the frontier:

* ``raw`` — full-frame exchange packages (the paper's Cooper),
* ``roi`` — FRONT_SECTOR-cropped packages (the Fig. 11 category-2 diet),
* ``feature`` — F-Cooper-style voxel-feature packages, maxout-fused,
* ``gated`` — Where2comm-style confidence-gated feature packages (the
  receiver broadcasts where it is already confident; senders ship only
  the rest).

:func:`fusion_frontier` evaluates every mode on the Fig. 4 KITTI cases
(bytes on the wire vs recall against visible ground truth) and then runs
the chaos-scenario :class:`~repro.fusion.agent.CooperSession` in each
session mode at two worker counts, hashing the canonical logs — the
determinism contract — and reading the per-frame bandwidth ledger from
:attr:`CooperSession.comm`.  ``benchmarks/bench_fusion_frontier.py``
writes the report to ``results/BENCH_fusion.json``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.datasets.base import CooperativeCase
from repro.datasets.synthetic_kitti import kitti_cases
from repro.detection.spod import SPOD
from repro.eval.chaos import build_chaos_session, session_recall
from repro.eval.matching import in_eval_area, match_detections
from repro.faults import FaultPlan
from repro.fusion.align import merge_packages
from repro.fusion.feature import (
    FeaturePackage,
    FeatureTap,
    build_feature_package,
    build_request,
    perceive_tap,
)
from repro.fusion.package import ExchangePackage
from repro.network.roi_policy import RoiCategory, RoiPolicy, extract_roi
from repro.runtime import fork_available

__all__ = [
    "FRONTIER_MODES",
    "case_frontier",
    "fusion_frontier",
    "session_determinism",
]

#: The frontier's exchange levels, cheapest-last.
FRONTIER_MODES = ("raw", "roi", "feature", "gated")

#: Session fusion modes exercised by the determinism section ("roi" is a
#: packaging policy of the raw mode, not a separate session mode).
_SESSION_MODES = ("raw", "feature", "gated")


def case_frontier(
    case: CooperativeCase,
    detector: SPOD,
    gate_distance: float = 2.5,
    max_eval_range: float = 60.0,
) -> dict:
    """Evaluate every frontier mode on one cooperative case.

    Each mode's ``bytes`` is what one exchange round puts on the air for
    this case; ``recall`` matches the receiver's detections against the
    ground-truth cars visible from its true pose.
    """
    r = detector.config.voxel_spec.point_range
    visible = [
        b
        for b in case.ground_truth_in(case.receiver)
        if in_eval_area(b, r, max_eval_range)
    ]
    threshold = detector.config.detection_threshold
    receiver_cloud = case.cloud_of(case.receiver)
    receiver_pose = case.receiver_measured_pose()

    modes: dict[str, dict] = {}

    def score(detections, total_bytes: int) -> dict:
        reported = [d for d in detections if d.score >= threshold]
        match = match_detections(reported, visible, gate_distance)
        return {
            "bytes": int(total_bytes),
            "matched": int(match.num_matched),
            "detections": len(reported),
            "recall": (
                match.num_matched / len(visible) if visible else 0.0
            ),
        }

    # raw: the paper's full-frame exchange.
    raw_packages = case.packages_for_receiver()
    raw_bytes = sum(p.size_bytes() for p in raw_packages)
    merged = merge_packages(receiver_cloud, raw_packages, receiver_pose)
    modes["raw"] = score(detector.detect_all(merged), raw_bytes)

    # roi: FRONT_SECTOR crop before packaging (Fig. 11 category 2).
    policy = RoiPolicy(category=RoiCategory.FRONT_SECTOR)
    roi_packages = [
        ExchangePackage(
            cloud=extract_roi(obs.scan.cloud, policy),
            pose=obs.measured_pose,
            sender=name,
        )
        for name, obs in case.observations.items()
        if name != case.receiver
    ]
    roi_bytes = sum(p.size_bytes() for p in roi_packages)
    roi_merged = merge_packages(receiver_cloud, roi_packages, receiver_pose)
    modes["roi"] = score(detector.detect_all(roi_merged), roi_bytes)

    # feature / gated: voxel-feature exchange through the real wire format.
    # Every observer taps once; gated mode adds the receiver's request.
    spec = detector.config.voxel_spec
    taps = {
        name: FeatureTap.of(detector, obs.scan.cloud, want_heat=True)
        for name, obs in case.observations.items()
    }
    receiver_tap = taps[case.receiver]
    request = build_request(receiver_tap.heat, receiver_pose, case.receiver)
    for mode, requests in (("feature", ()), ("gated", (request,))):
        total_bytes = sum(r.size_bytes() for r in requests)
        packages: list[FeaturePackage] = []
        for name, obs in case.observations.items():
            if name == case.receiver:
                continue
            payload = build_feature_package(
                spec,
                taps[name].coords,
                taps[name].features,
                obs.measured_pose,
                name,
                heat=taps[name].heat,
                requests=requests,
            ).serialize()
            total_bytes += len(payload)
            packages.append(FeaturePackage.deserialize(payload))
        detections = perceive_tap(
            detector, receiver_pose, receiver_tap, packages
        )
        modes[mode] = score(detections, total_bytes)

    return {
        "case": case.name,
        "scenario": case.scenario,
        "visible": len(visible),
        "modes": modes,
    }


def _canonical_session_logs(logs) -> bytes:
    """Project session logs onto the bit-exact primitives tests compare."""
    projected = []
    for name in sorted(logs):
        for step in logs[name]:
            projected.append(
                (
                    name,
                    step.time,
                    step.sent_bits,
                    tuple(step.delivered),
                    step.stale_count,
                    tuple(
                        (p.sender, len(p.serialize()))
                        for p in step.received_packages
                    ),
                    step.observation.scan.cloud.data.tobytes(),
                    tuple(
                        (d.box.center.tobytes(), float(d.score), d.label)
                        for d in step.detections
                    ),
                )
            )
    return repr(projected).encode()


def session_determinism(
    mode: str,
    detector: SPOD | None = None,
    duration_seconds: float = 4.0,
    seed: int = 3,
    worker_counts: tuple[int, int] = (1, 4),
    faults: FaultPlan | None = None,
) -> dict:
    """Run the chaos session in one fusion mode at two worker counts.

    Returns the two canonical-log digests (which must be equal — the
    determinism contract), the bandwidth-ledger summary and the pooled
    session recall.  Falls back to two single-process runs when fork is
    unavailable (the parallel path needs it), noting so in the result.
    """
    forkable = fork_available()
    counts = worker_counts if forkable else (1, 1)
    digests = []
    summary = None
    recall = None
    for workers in counts:
        session = build_chaos_session(detector=detector, faults=faults)
        session.fusion_mode = mode
        logs = session.run(
            duration_seconds=duration_seconds,
            period_seconds=1.0,
            seed=seed,
            workers=workers,
        )
        digests.append(
            hashlib.sha256(_canonical_session_logs(logs)).hexdigest()
        )
        summary = session.comm.summary()
        recall = session_recall(session, logs).recall
    return {
        "mode": mode,
        "worker_counts": list(counts),
        "fork_available": forkable,
        "digests": digests,
        "identical": digests[0] == digests[-1],
        "recall": recall,
        "comm": summary,
    }


def fusion_frontier(
    smoke: bool = False,
    seed: int = 0,
    detector: SPOD | None = None,
    worker_counts: tuple[int, int] = (1, 4),
) -> dict:
    """The full frontier report (the ``BENCH_fusion.json`` payload).

    Case section: every frontier mode on the Fig. 4 KITTI cases (all
    four, or the first two in ``smoke`` mode).  Determinism section: the
    chaos session in every session fusion mode — clean and under a
    chaos fault plan — hashed at two worker counts, with the bandwidth
    ledger each run recorded.
    """
    detector = detector or SPOD.pretrained()
    cases = kitti_cases(seed=seed)
    if smoke:
        cases = cases[:2]
    case_rows = [case_frontier(case, detector) for case in cases]

    def mean(values: list[float]) -> float:
        return float(np.mean(values)) if values else 0.0

    frontier = {
        mode: {
            "mean_bytes_per_frame": mean(
                [row["modes"][mode]["bytes"] for row in case_rows]
            ),
            "mean_recall": mean(
                [row["modes"][mode]["recall"] for row in case_rows]
            ),
        }
        for mode in FRONTIER_MODES
    }

    duration = 2.0 if smoke else 4.0
    determinism = {
        mode: session_determinism(
            mode,
            detector=detector,
            duration_seconds=duration,
            seed=seed + 3,
            worker_counts=worker_counts,
        )
        for mode in _SESSION_MODES
    }
    chaos = {
        mode: session_determinism(
            mode,
            detector=detector,
            duration_seconds=duration,
            seed=seed + 3,
            worker_counts=worker_counts,
            faults=FaultPlan.chaos(seed + 2),
        )
        for mode in _SESSION_MODES
    }

    raw_bytes = frontier["raw"]["mean_bytes_per_frame"]
    feature_bytes = frontier["feature"]["mean_bytes_per_frame"]
    gated_bytes = frontier["gated"]["mean_bytes_per_frame"]
    contract = {
        "feature_vs_raw_bytes_ratio": (
            raw_bytes / feature_bytes if feature_bytes else float("inf")
        ),
        "feature_recall_drop_points": 100.0
        * (frontier["raw"]["mean_recall"] - frontier["feature"]["mean_recall"]),
        "gated_below_feature_bytes": bool(gated_bytes < feature_bytes),
        "gated_below_feature_every_case": all(
            row["modes"]["gated"]["bytes"] < row["modes"]["feature"]["bytes"]
            for row in case_rows
        ),
        "all_modes_deterministic": all(
            entry["identical"]
            for section in (determinism, chaos)
            for entry in section.values()
        ),
    }

    return {
        "bench": "fusion_frontier",
        "mode": "smoke" if smoke else "full",
        "seed": seed,
        "gate_distance": 2.5,
        "max_eval_range": 60.0,
        "cases": case_rows,
        "frontier": frontier,
        "determinism": determinism,
        "determinism_chaos": chaos,
        "contract": contract,
    }
