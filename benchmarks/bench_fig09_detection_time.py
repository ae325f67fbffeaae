"""Fig. 9 — detection time: single shot vs cooperative, KITTI and T&J.

Paper shape: running SPOD on the merged cloud costs a *small additive*
amount over the single shot (the paper measured ~5 ms on a 1080 Ti; our
substrate is CPU numpy, so absolute numbers differ but the relative
overhead stays small — well under 2x, not proportional to the doubled
point count, because the network works on voxels, not raw points).

Measured the perfbench way: per case one warm-up, then alternating timed
rounds of single and merged; the table prints medians with their
quartiles and the environment they were measured in.  After the timed
rounds, profiled passes split the merged-only cost into the detector's
``spod.*`` stages, each cloud's stage time the median of
``STAGE_PASSES`` passes; the ratios come only from the unprofiled
rounds.
"""

import os
import pathlib
import platform
import subprocess

import numpy as np
import scipy

from benchmarks.conftest import publish
from repro.eval.experiments import timing_experiment
from repro.fusion.align import merge_packages
from repro.profiling import PROFILER

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Profiled passes per cloud behind each stage time: with one pass, two
#: runs read the merged KITTI decode at 29.0 and 36.5 ms.
STAGE_PASSES = 3


def _round_quartiles(cases, detector):
    """(q1, median, q3) seconds over rounds of the mean over cases."""
    timings = timing_experiment(cases, detector)
    return {
        kind: np.percentile(
            np.mean([t[f"{kind}_runs"] for t in timings.values()], axis=0),
            [25, 50, 75],
        )
        for kind in ("single", "cooper")
    }


def _stage_means(clouds, detector) -> dict[str, float]:
    """Mean ms per cloud of every ``spod.*`` stage, in the order the
    stages first ran; each cloud's time in a stage is the median of
    ``STAGE_PASSES`` profiled detections of it."""
    passes = []  # per pass, then per cloud: {stage: seconds}
    PROFILER.enable()
    try:
        for _ in range(STAGE_PASSES):
            for cloud in clouds:
                PROFILER.reset()
                detector.detect(cloud)
                passes.append(
                    {
                        name: stats.total
                        for name, stats in PROFILER.stages.items()
                        if name.startswith("spod.")
                    }
                )
    finally:
        PROFILER.disable()
        PROFILER.reset()
    means = {}
    for name in dict.fromkeys(name for stages in passes for name in stages):
        seconds = [stages.get(name, 0.0) for stages in passes]
        per_cloud = np.median(np.reshape(seconds, (STAGE_PASSES, -1)), axis=0)
        means[name] = per_cloud.mean() * 1e3
    return means


def _stage_gaps(label, cases, detector) -> list[str]:
    """Per-stage single and merged means of ``cases`` and their gap."""
    single = [case.cloud_of(case.receiver) for case in cases]
    merged = [
        merge_packages(
            cloud, case.packages_for_receiver(), case.receiver_measured_pose()
        )
        for cloud, case in zip(single, cases)
    ]
    single_ms = _stage_means(single, detector)
    merged_ms = _stage_means(merged, detector)
    lines = [f"{label} stage means (ms per cloud): single, merged, gap"]
    for name in dict.fromkeys([*merged_ms, *single_ms]):
        one, both = single_ms.get(name, 0.0), merged_ms.get(name, 0.0)
        lines.append(f"  {name:<22} {one:7.2f} {both:7.2f} {both - one:+7.2f}")
    return lines


def _environment() -> str:
    sha = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=ROOT, capture_output=True, text=True,
    ).stdout.strip()
    return (
        f"env: git {sha or 'unknown'}, Python {platform.python_version()}, "
        f"numpy {np.__version__}, scipy {scipy.__version__}, "
        f"{os.cpu_count()} cpus"
    )


def _row(label, quartiles) -> str:
    single, cooper = quartiles["single"] * 1e3, quartiles["cooper"] * 1e3
    return (
        f"{label}: single {single[1]:7.1f} [{single[0]:.1f}, {single[2]:.1f}]"
        f"  cooper {cooper[1]:7.1f} [{cooper[0]:.1f}, {cooper[2]:.1f}]"
        f"  ratio {cooper[1] / single[1]:.2f}"
    )


def _over_bound(label, quartiles, bound) -> str:
    return f"{_row(label, quartiles)}, not under the {bound}x bound"


def test_fig09_detection_time(
    benchmark, detector, kitti_case_list, tj_case_list, results_dir
):
    kitti = _round_quartiles(kitti_case_list, detector)
    tj = _round_quartiles(tj_case_list[:4], detector)

    lines = [
        "Fig. 9 analogue — median detection time (ms), single vs cooperative",
        "(per case 1 warm-up + 5 alternating rounds; [q1, q3] over rounds "
        "of the mean over cases)",
        _row("KITTI (64-beam)", kitti),
        _row("T&J   (16-beam)", tj),
        f"(per cloud the median of {STAGE_PASSES} profiled passes after the "
        "timed rounds; nested stages are part of their parent)",
        *_stage_gaps("KITTI", kitti_case_list, detector),
        *_stage_gaps("T&J", tj_case_list[:4], detector),
        _environment(),
    ]
    publish(results_dir, "fig09_detection_time.txt", "\n".join(lines))

    # Shape: cooperative detection is at most modestly slower, never ~2x
    # the point count's worth.  A failure prints both sides' medians and
    # quartiles, so a slower runner shows by how much without a rerun.
    assert kitti["cooper"][1] < kitti["single"][1] * 2.0, _over_bound(
        "KITTI", kitti, 2.0
    )
    assert tj["cooper"][1] < tj["single"][1] * 2.5, _over_bound("T&J", tj, 2.5)

    # Benchmark the merged-cloud detection itself on a KITTI case.
    case = kitti_case_list[0]
    merged = merge_packages(
        case.cloud_of(case.receiver),
        case.packages_for_receiver(),
        case.receiver_measured_pose(),
    )
    benchmark.pedantic(detector.detect, args=(merged,), rounds=3, iterations=1)
    benchmark.extra_info["kitti_overhead_ms"] = round(
        (kitti["cooper"][1] - kitti["single"][1]) * 1e3, 1
    )
