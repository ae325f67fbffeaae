"""Pipeline hot-path bench — the repo's perf trajectory anchor.

Runs a seeded two-agent :class:`CooperSession` (the full OBU loop: scan →
ROI → compress → transmit → align/merge → SPOD) with the stage profiler
enabled, benchmarks the SPOD inference engine on the session's merged
clouds (a float32/float64 × cached/uncached rulebook matrix and a
detect-stage breakdown, under a ``"detect"`` key),
then sweeps the ``repro.runtime`` parallel executor over a multi-case
workload (the Fig. 4 KITTI case set) at several worker counts, and writes
everything to ``results/BENCH_pipeline.json``.  Track that file across
commits to see where the loop spends its time and whether a change moved
the needle.

Runs two ways:

* ``pytest benchmarks/bench_pipeline_hotpath.py`` — full bench alongside
  the figure benchmarks.
* ``python benchmarks/bench_pipeline_hotpath.py [--smoke] [--workers
  1,2,4] [--detect-only] [--incremental-only]`` — standalone; ``--smoke``
  shrinks every workload for CI, ``--detect-only`` /
  ``--incremental-only`` refresh just the ``"detect"`` / ``"incremental"``
  section of an existing report.

Regression guards are *ratios* between configurations measured in the same
process (cached vs uncached, float32 vs float64) —
never absolute wall-clock thresholds — so they hold on any CI hardware.
The parallel sweep also re-verifies the determinism contract: every
worker count must reproduce the ``workers=1`` results bit-for-bit
(wall-clock ``timings`` excluded).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import time

import numpy as np

from repro.datasets import kitti_cases
from repro.detection.nn.sparse import RULEBOOK_CACHE
from repro.detection.spod import SPOD, SPODConfig
from repro.eval.experiments import run_cases
from repro.fusion.agent import CooperAgent, CooperSession
from repro.fusion.cooper import Cooper
from repro.network.roi_policy import RoiCategory, RoiPolicy
from repro.profiling import PROFILER
from repro.scene.layouts import parking_lot
from repro.scene.trajectories import StationaryTrajectory, StraightTrajectory
from repro.sensors.lidar import BeamPattern, LidarModel
from repro.sensors.rig import SensorRig

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
REPORT_NAME = "BENCH_pipeline.json"
SEED = 0

BENCH_16 = BeamPattern("bench-16", tuple(np.linspace(-15.0, 15.0, 16)), 0.8)

# Stages the bench pins as must-be-instrumented: one per pipeline layer,
# plus the SPOD sub-stages the inference engine reports.
EXPECTED_STAGES = (
    "lidar.scan",
    "roi.extract",
    "codec.compress",
    "dsrc.transmit",
    "fuse.merge",
    "voxel.voxelize",
    "spod.voxelize",
    "spod.vfe",
    "spod.middle",
    "spod.rpn",
    "spod.decode",
    "spod.decode.cells",
    "spod.decode.index",
    "spod.decode.refine",
    "spod.decode.calibrate",
    "spod.decode.suppress",
    "spod.nms",
    "cooper.detect",
    "session.step",
)


def build_session(detector: SPOD | None = None) -> CooperSession:
    """A deterministic two-agent parking-lot session (one mover)."""
    layout = parking_lot(seed=51, rows=3, cols=6, occupancy=0.8)
    cooper = Cooper(detector=detector or SPOD.pretrained())

    def make_agent(name: str, viewpoint: str, speed: float = 0.0) -> CooperAgent:
        pose = layout.viewpoint(viewpoint)
        trajectory = (
            StraightTrajectory(pose, speed=speed)
            if speed
            else StationaryTrajectory(pose)
        )
        return CooperAgent(
            name=name,
            rig=SensorRig(lidar=LidarModel(pattern=BENCH_16), name=name),
            trajectory=trajectory,
            policy=RoiPolicy(category=RoiCategory.FULL_FRAME),
            cooper=cooper,
        )

    agents = [
        make_agent("alpha", "car1", speed=2.0),
        make_agent("beta", "car2"),
    ]
    return CooperSession(world=layout.world, agents=agents)


def run_pipeline_bench(
    duration_seconds: float, detector: SPOD | None = None
) -> dict:
    """Profile one seeded session; return the JSON-ready report."""
    session = build_session(detector)
    # Section hygiene: earlier sections must not leak warm rulebooks (or
    # their hit/miss counts) into this one.
    RULEBOOK_CACHE.clear()
    PROFILER.reset()
    PROFILER.enable()
    try:
        logs = session.run(
            duration_seconds=duration_seconds, period_seconds=1.0, seed=SEED
        )
    finally:
        PROFILER.disable()
    return {
        "bench": "pipeline_hotpath",
        "seed": SEED,
        "agents": [agent.name for agent in session.agents],
        "beam_count": BENCH_16.num_beams,
        "duration_seconds": duration_seconds,
        "steps": len(next(iter(logs.values()))),
        "profile": PROFILER.as_dict(),
    }


def collect_detect_workload(duration_seconds: float = 4.0) -> list:
    """The merged per-agent clouds the bench session runs detection on.

    Re-runs the seeded session un-profiled, then replays each logged
    step's fuse (scan + received packages) to recover exactly the clouds
    ``cooper.detect`` saw.
    """
    session = build_session()
    logs = session.run(
        duration_seconds=duration_seconds, period_seconds=1.0, seed=SEED
    )
    clouds = []
    steps = len(next(iter(logs.values())))
    for step_index in range(steps):
        for agent in session.agents:
            step = logs[agent.name][step_index]
            merged, _accepted, _rejected, _seconds = agent.cooper.fuse(
                step.observation.scan.cloud,
                step.observation.measured_pose,
                step.received_packages,
            )
            clouds.append(merged)
    return clouds


def _time_detect(
    detector: SPOD, clouds: list, cached: bool, repeats: int
) -> tuple[float, list]:
    """Best-of-``repeats`` mean per-cloud detect seconds, plus detections.

    The middle extractor performs one rulebook lookup per cloud (conv1
    builds it, conv2 reuses it in-frame), so cache hits only arise when a
    frame's active-site set recurs.  The "cached" configuration therefore
    warms the cache with one untimed pass and times warm passes — the
    steady state of re-detecting recurring frames (the Fig. 9 timing
    loop, a stationary scene).  "uncached" disables the cache entirely.
    Detections are identical in every configuration — cache hits are
    verified exactly — so the last pass's output serves the parity record.
    """
    was_enabled = RULEBOOK_CACHE.enabled
    best = float("inf")
    detections: list = []
    try:
        RULEBOOK_CACHE.enabled = cached
        RULEBOOK_CACHE.clear()
        if cached:
            for cloud in clouds:
                detector.detect_all(cloud)
        for _ in range(max(1, repeats)):
            # Stats reset between repeats so counters describe one pass;
            # entries survive — warm entries are the configuration.
            RULEBOOK_CACHE.reset_stats()
            start = time.perf_counter()
            detections = [detector.detect_all(cloud) for cloud in clouds]
            elapsed = time.perf_counter() - start
            best = min(best, elapsed / len(clouds))
    finally:
        RULEBOOK_CACHE.enabled = was_enabled
        RULEBOOK_CACHE.clear()
    return best, detections


def _profile_detect_pass(detector: SPOD, clouds: list) -> dict:
    """One profiled float32+cached pass: per-stage means and cache counters."""
    was_enabled = RULEBOOK_CACHE.enabled
    PROFILER.reset()
    try:
        RULEBOOK_CACHE.enabled = True
        RULEBOOK_CACHE.clear()
        for cloud in clouds:  # warm the rulebook cache, untimed
            detector.detect_all(cloud)
        PROFILER.enable()
        for cloud in clouds:
            detector.detect_all(cloud)
    finally:
        PROFILER.disable()
        RULEBOOK_CACHE.enabled = was_enabled
        RULEBOOK_CACHE.clear()
    snapshot = PROFILER.as_dict()
    stages = {
        name: {
            "count": stats["count"],
            "total_ms": round(stats["total_seconds"] * 1e3, 3),
            "mean_ms": round(stats["mean_seconds"] * 1e3, 3),
        }
        for name, stats in sorted(snapshot["stages"].items())
        if name.startswith("spod.")
    }
    counters = {
        name: value
        for name, value in sorted(snapshot["counters"].items())
        if name.startswith("spod.rulebook")
    }
    PROFILER.reset()
    return {"stages": stages, "counters": counters}


def run_detect_bench(duration_seconds: float = 4.0, repeats: int = 3) -> dict:
    """Benchmark the SPOD inference engine; return the ``"detect"`` section.

    Times every (dtype x rulebook-cache) configuration over the session's
    merged clouds, verifies float32/float64 detection parity and captures
    the detect-stage breakdown of the inference configuration.
    """
    clouds = collect_detect_workload(duration_seconds)
    detectors = {
        "float64": SPOD.pretrained(SPODConfig(dtype="float64")),
        "float32": SPOD.pretrained(SPODConfig(dtype="float32")),
    }
    matrix: dict[str, dict] = {}
    parity_detections: dict[str, list] = {}
    for dtype, detector in detectors.items():
        for cache_label, cached in (("uncached", False), ("cached", True)):
            mean_s, detections = _time_detect(detector, clouds, cached, repeats)
            matrix[f"{dtype}_{cache_label}"] = {
                "mean_ms": round(mean_s * 1e3, 3),
            }
            parity_detections[dtype] = detections

    f64, f32 = parity_detections["float64"], parity_detections["float32"]
    counts_match = all(len(a) == len(b) for a, b in zip(f64, f32))
    max_score_delta = 0.0
    if counts_match:
        for dets_a, dets_b in zip(f64, f32):
            for a, b in zip(dets_a, dets_b):
                max_score_delta = max(max_score_delta, abs(a.score - b.score))
    parity = {
        "clouds": len(clouds),
        "float64_detections": sum(len(d) for d in f64),
        "float32_detections": sum(len(d) for d in f32),
        "counts_match": counts_match,
        "max_score_delta": max_score_delta,
    }

    return {
        "workload": (
            f"bench session merged clouds ({len(clouds)} clouds, "
            f"{duration_seconds:g}s session)"
        ),
        "repeats": repeats,
        "matrix": matrix,
        "parity": parity,
        "stage_breakdown": _profile_detect_pass(detectors["float32"], clouds),
    }


def check_detect_guards(detect: dict) -> None:
    """Ratio-based regression guards over a ``"detect"`` section.

    All guards compare configurations timed in the same process, with a
    0.85 slack factor absorbing scheduler noise — wall-clock thresholds
    would flake on shared CI runners, ratios do not.
    """
    matrix = detect["matrix"]

    def mean(config: str) -> float:
        return matrix[config]["mean_ms"]

    slack = 0.85
    assert mean("float32_cached") <= mean("float32_uncached") / slack, (
        "rulebook caching regressed: cached "
        f"{mean('float32_cached')}ms vs uncached {mean('float32_uncached')}ms"
    )
    assert mean("float64_cached") <= mean("float64_uncached") / slack, (
        "rulebook caching regressed on float64: cached "
        f"{mean('float64_cached')}ms vs uncached {mean('float64_uncached')}ms"
    )
    assert mean("float32_uncached") <= mean("float64_uncached") / slack, (
        "float32 kernels regressed: "
        f"{mean('float32_uncached')}ms vs float64 {mean('float64_uncached')}ms"
    )
    parity = detect["parity"]
    assert parity["counts_match"], (
        "float32 changed the detection count: "
        f"{parity['float32_detections']} vs {parity['float64_detections']}"
    )
    assert parity["max_score_delta"] <= 1e-3, (
        f"float32 scores drifted: max delta {parity['max_score_delta']}"
    )
    breakdown = detect["stage_breakdown"]["counters"]
    assert breakdown.get("spod.rulebook_hits", 0) > 0, (
        "cached pass recorded no rulebook hits"
    )


def render_detect_table(detect: dict) -> str:
    """Human-readable summary of a :func:`run_detect_bench` section."""
    lines = [
        f"workload: {detect['workload']}",
        f"{'config':>18s} {'mean ms':>9s}",
    ]
    for config, entry in detect["matrix"].items():
        lines.append(f"{config:>18s} {entry['mean_ms']:9.2f}")
    parity = detect["parity"]
    lines.append(
        f"parity: {parity['float32_detections']} float32 vs "
        f"{parity['float64_detections']} float64 detections, "
        f"max score delta {parity['max_score_delta']:.2e}"
    )
    counters = detect["stage_breakdown"]["counters"]
    lines.append(
        f"rulebooks: {counters.get('spod.rulebook_hits', 0):.0f} hits / "
        f"{counters.get('spod.rulebook_misses', 0):.0f} misses"
    )
    return "\n".join(lines)


def _detection_key(detections: list) -> list:
    """Bit-exact projection of a detection list for identity assertions."""
    return [
        (d.box.center.tobytes(), d.box.yaw, float(d.score), d.label)
        for d in detections
    ]


def _session_incremental_stats(duration_seconds: float) -> dict:
    """Warm-vs-cold session comparison: step time plus log identity."""

    def run(temporal: bool):
        session = build_session()
        session.temporal = temporal
        RULEBOOK_CACHE.clear()
        PROFILER.reset()
        PROFILER.enable()
        try:
            logs = session.run(
                duration_seconds=duration_seconds, period_seconds=1.0, seed=SEED
            )
        finally:
            PROFILER.disable()
        stats = PROFILER.stats("session.step")
        PROFILER.reset()
        projection = {
            name: [_detection_key(step.detections) for step in steps]
            for name, steps in logs.items()
        }
        return session, (stats.mean if stats else 0.0), projection

    _, cold_mean, cold_proj = run(False)
    warm_session, warm_mean, warm_proj = run(True)
    RULEBOOK_CACHE.clear()
    return {
        "step_cold_ms": round(cold_mean * 1e3, 3),
        "step_warm_ms": round(warm_mean * 1e3, 3),
        "bit_identical": cold_proj == warm_proj,
        "scan": {
            name: state.scan.stats()
            for name, state in warm_session.temporal_states().items()
        },
    }


def run_incremental_bench(duration_seconds: float = 4.0) -> dict:
    """Benchmark the frame-delta layer; return the ``"incremental"`` section.

    A warm-vs-cold run of the bench session: it records whether the warm
    logs are bit-identical to the cold ones and each agent's scan cache
    counters, so the JSON shows *why* a warm step is fast, not just that
    it is.
    """
    return {
        "workload": f"bench session ({duration_seconds:g}s, stationary beta)",
        "session": _session_incremental_stats(duration_seconds),
    }


def check_incremental_guards(incremental: dict) -> None:
    """Regression guards over an ``"incremental"`` section.

    Bit-identity is absolute, and the stationary agent must reuse its
    scan geometry at least once.
    """
    session = incremental["session"]
    assert session["bit_identical"], "temporal layer changed session results"
    assert session["scan"]["beta"]["hits"] > 0, (
        "the stationary agent never hit its scan cache"
    )


def render_incremental_table(incremental: dict) -> str:
    """Human-readable summary of a :func:`run_incremental_bench` section."""
    session = incremental["session"]
    scan = session["scan"]["beta"]
    return "\n".join(
        [
            f"workload: {incremental['workload']}",
            f"session step: warm {session['step_warm_ms']:.2f} ms vs cold "
            f"{session['step_cold_ms']:.2f} ms "
            f"(beta scan cache: {scan['hits']} hits, {scan['misses']} misses)",
        ]
    )


def run_parallel_bench(
    worker_counts: tuple[int, ...] = (1, 2, 4), repeat: int = 2, seed: int = SEED
) -> dict:
    """Time the multi-case workload at each worker count; verify determinism.

    The workload is the Fig. 4 KITTI case set repeated ``repeat`` times —
    independent cases, the executor's bread and butter.  Returns a
    JSON-ready section with per-worker wall-clock seconds and speedup
    versus the first (serial) worker count.  Raises if any worker count
    fails to reproduce the serial results bit-for-bit (``timings``, the
    wall-clock field, excluded).
    """
    cases = [case for _ in range(repeat) for case in kitti_cases(seed=seed)]
    sweep: dict[str, dict] = {}
    reference = None
    for workers in worker_counts:
        start = time.perf_counter()
        results = run_cases(cases, workers=workers)
        elapsed = time.perf_counter() - start
        stripped = [dataclasses.replace(r, timings={}) for r in results]
        if reference is None:
            reference = stripped
        elif stripped != reference:
            raise AssertionError(
                f"workers={workers} changed the results — determinism broken"
            )
        sweep[str(workers)] = {"seconds": elapsed}
    base = sweep[str(worker_counts[0])]["seconds"]
    for workers in worker_counts:
        entry = sweep[str(workers)]
        entry["speedup"] = base / entry["seconds"] if entry["seconds"] else 0.0
    return {
        "workload": f"fig04 KITTI case set x{repeat} ({len(cases)} cases)",
        "cpu_count": os.cpu_count(),
        "deterministic": True,
        "workers": sweep,
    }


def render_parallel_table(parallel: dict) -> str:
    """Human-readable speedup table of a :func:`run_parallel_bench` section."""
    lines = [
        f"workload: {parallel['workload']}  (cpus: {parallel['cpu_count']})",
        f"{'workers':>8s} {'seconds':>9s} {'speedup':>8s}",
    ]
    for workers, entry in parallel["workers"].items():
        lines.append(
            f"{workers:>8s} {entry['seconds']:9.2f} {entry['speedup']:7.2f}x"
        )
    return "\n".join(lines)


def write_report(report: dict) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / REPORT_NAME
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def test_bench_pipeline_hotpath(benchmark, detector, results_dir):
    report = run_pipeline_bench(duration_seconds=4.0, detector=detector)
    report["mode"] = "pytest"
    stage_table = PROFILER.render_table()
    # Small parallel sweep: proves the determinism contract in CI without
    # assuming multi-core hardware (speedup is recorded, not asserted).
    report["parallel"] = run_parallel_bench(worker_counts=(1, 2), repeat=1)
    # Inference-engine matrix at CI size; the guards are ratios between
    # same-process configurations, never wall-clock thresholds.
    report["detect"] = run_detect_bench(duration_seconds=2.0, repeats=1)
    check_detect_guards(report["detect"])
    # Frame-delta layer at CI size; bit-identity is asserted, speedups
    # recorded.
    report["incremental"] = run_incremental_bench(duration_seconds=2.0)
    check_incremental_guards(report["incremental"])
    path = write_report(report)
    print(f"\n=== {REPORT_NAME} ===\n{stage_table}\n")
    print(render_detect_table(report["detect"]))
    print("\n=== incremental (frame-delta) inference ===")
    print(render_incremental_table(report["incremental"]))
    assert path.exists()

    stages = report["profile"]["stages"]
    missing = [name for name in EXPECTED_STAGES if name not in stages]
    assert not missing, f"uninstrumented stages: {missing}"
    for name in EXPECTED_STAGES:
        assert stages[name]["count"] > 0
        assert stages[name]["total_seconds"] >= 0.0
    # Stage timings nest inside the per-step envelope.
    step_total = stages["session.step"]["total_seconds"]
    assert stages["lidar.scan"]["total_seconds"] <= step_total

    # Benchmark one un-profiled session step as the tracked number.
    session = build_session(detector)
    benchmark.pedantic(
        session.run,
        kwargs={"duration_seconds": 1.0, "period_seconds": 1.0, "seed": 1},
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["profiled_step_ms"] = round(
        stages["session.step"]["mean_seconds"] * 1e3, 2
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the session to two steps (CI smoke run)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="override the simulated session length in seconds",
    )
    parser.add_argument(
        "--workers",
        default=None,
        help="comma-separated worker counts for the parallel sweep "
        "(default: 1,2 when --smoke else 1,2,4)",
    )
    parser.add_argument(
        "--detect-only",
        action="store_true",
        help="refresh only the 'detect' section, merging it into the "
        "existing report instead of re-running the whole bench",
    )
    parser.add_argument(
        "--incremental-only",
        action="store_true",
        help="refresh only the 'incremental' (frame-delta) section, "
        "merging it into the existing report instead of re-running the "
        "whole bench",
    )
    args = parser.parse_args(argv)
    duration = args.duration if args.duration else (2.0 if args.smoke else 8.0)
    if args.workers:
        worker_counts = tuple(int(w) for w in str(args.workers).split(","))
    else:
        worker_counts = (1, 2) if args.smoke else (1, 2, 4)
    detect_duration = 2.0 if args.smoke else 4.0
    detect_repeats = 1 if args.smoke else 3

    if args.detect_only:
        report_path = RESULTS_DIR / REPORT_NAME
        report = (
            json.loads(report_path.read_text()) if report_path.exists() else {}
        )
        report["detect"] = run_detect_bench(
            duration_seconds=detect_duration, repeats=detect_repeats
        )
        check_detect_guards(report["detect"])
        path = write_report(report)
        print("=== SPOD inference engine ===")
        print(render_detect_table(report["detect"]))
        print(f"\nwrote {path}")
        return 0

    if args.incremental_only:
        report_path = RESULTS_DIR / REPORT_NAME
        report = (
            json.loads(report_path.read_text()) if report_path.exists() else {}
        )
        report["incremental"] = run_incremental_bench(
            duration_seconds=detect_duration
        )
        check_incremental_guards(report["incremental"])
        path = write_report(report)
        print("=== incremental (frame-delta) inference ===")
        print(render_incremental_table(report["incremental"]))
        print(f"\nwrote {path}")
        return 0

    report = run_pipeline_bench(duration_seconds=duration)
    report["mode"] = "smoke" if args.smoke else "full"
    stage_table = PROFILER.render_table()
    report["detect"] = run_detect_bench(
        duration_seconds=detect_duration, repeats=detect_repeats
    )
    check_detect_guards(report["detect"])
    report["incremental"] = run_incremental_bench(
        duration_seconds=detect_duration
    )
    check_incremental_guards(report["incremental"])
    report["parallel"] = run_parallel_bench(
        worker_counts=worker_counts, repeat=1 if args.smoke else 2
    )
    path = write_report(report)
    print(stage_table)
    print("\n=== SPOD inference engine ===")
    print(render_detect_table(report["detect"]))
    print("\n=== incremental (frame-delta) inference ===")
    print(render_incremental_table(report["incremental"]))
    print("\n=== parallel case evaluation ===")
    print(render_parallel_table(report["parallel"]))
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
