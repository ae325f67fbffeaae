"""Tests for :mod:`repro.runtime` — the deterministic parallel executor.

The contract under test: for a fixed seed, results are bit-identical at
any worker count — across case evaluation, session logs and merged
profiler snapshots — and ordering always matches the input.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.fusion.agent import CooperAgent, CooperSession, _channel_seed
from repro.fusion.cooper import Cooper
from repro.fusion.feature import FeaturePackage
from repro.network.roi_policy import RoiCategory, RoiPolicy
from repro.profiling import PROFILER, Profiler
from repro.runtime import (
    WORKERS_ENV,
    WorkerPool,
    chunk_bounds,
    derive_seed,
    fork_available,
    parallel_map,
    resolve_workers,
    stable_hash,
)
from repro.scene.layouts import parking_lot
from repro.scene.trajectories import StationaryTrajectory, StraightTrajectory
from repro.sensors.lidar import BeamPattern, LidarModel
from repro.sensors.rig import SensorRig

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


# -- module-level worker functions (must be picklable) ---------------------


def _square(x: int) -> int:
    return x * x


def _offset_square(payload: tuple[int, int]) -> int:
    x, offset = payload
    return x * x + offset


_INIT_STATE: dict = {}


def _install_offset(offset: int) -> None:
    _INIT_STATE["offset"] = offset


def _use_offset(x: int) -> int:
    return x + _INIT_STATE["offset"]


def _profiled_task(x: int) -> int:
    PROFILER.record("test.runtime.stage", 0.25)
    PROFILER.count("test.runtime.counter", 1.0)
    return x


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_clamped_to_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1

    def test_malformed_env_raises(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError):
            resolve_workers(None)

    @pytest.mark.parametrize("raw", ["0", "-4", "2.5", " nope "])
    def test_garbage_env_raises(self, raw, monkeypatch):
        # A bad deployment setting must fail loudly, never silently
        # clamp to serial execution.
        monkeypatch.setenv(WORKERS_ENV, raw)
        with pytest.raises(ValueError, match=WORKERS_ENV):
            resolve_workers(None)

    def test_explicit_argument_still_clamped(self, monkeypatch):
        # Only the environment is strict; computed arguments clamp.
        monkeypatch.setenv(WORKERS_ENV, "-4")
        assert resolve_workers(0) == 1


class TestSeeding:
    def test_stable_hash_is_crc32(self):
        # Pinned values: these must never change across versions/platforms.
        assert stable_hash("beta") == 2408645731
        assert stable_hash("") == 0

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        seeds = {derive_seed(7, i, "case") for i in range(100)}
        assert len(seeds) == 100

    def test_channel_seed_uses_stable_hash(self):
        assert _channel_seed(3, 2, "beta") == 3 + 14 + 2408645731 % 97

    def test_channel_seed_survives_pythonhashseed(self):
        """Regression: DSRC seeding must not depend on PYTHONHASHSEED.

        The old formula used built-in ``hash(name)``, which differs per
        process; two interpreters with different hash seeds must now agree.
        """
        code = (
            "from repro.fusion.agent import _channel_seed;"
            "print(_channel_seed(0, 3, 'beta'))"
        )
        outputs = []
        for hash_seed in ("0", "4242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.abspath(src)] + env.get("PYTHONPATH", "").split(os.pathsep)
            )
            result = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(int(result.stdout.strip()))
        assert outputs[0] == outputs[1] == _channel_seed(0, 3, "beta")


class TestChunkBounds:
    def test_covers_all_items_in_order(self):
        bounds = chunk_bounds(10, workers=3, chunk_size=3)
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_empty(self):
        assert chunk_bounds(0, workers=4) == []

    def test_default_chunking_is_deterministic(self):
        assert chunk_bounds(100, 4) == chunk_bounds(100, 4)
        flat = [
            i
            for start, stop in chunk_bounds(97, 4)
            for i in range(start, stop)
        ]
        assert flat == list(range(97))

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            chunk_bounds(5, 2, chunk_size=0)


class TestParallelMap:
    def test_inline_fallback(self):
        assert parallel_map(_square, range(7), workers=1) == [
            x * x for x in range(7)
        ]

    def test_inline_runs_initializer(self):
        _INIT_STATE.clear()
        out = parallel_map(
            _use_offset, [1, 2], workers=1, initializer=_install_offset,
            initargs=(100,),
        )
        assert out == [101, 102]

    @needs_fork
    def test_ordered_results_with_uneven_chunks(self):
        # 11 items over chunk_size 3 -> chunks of 3,3,3,2 across 3 workers.
        out = parallel_map(
            _square, range(11), workers=3, chunk_size=3
        )
        assert out == [x * x for x in range(11)]

    @needs_fork
    def test_single_item_uses_worker_initializer(self):
        _INIT_STATE.clear()
        out = parallel_map(
            _use_offset, [5], workers=2, initializer=_install_offset,
            initargs=(10,),
        )
        assert out == [15]

    @needs_fork
    def test_worker_initializer_state(self):
        _INIT_STATE.clear()
        out = parallel_map(
            _use_offset, range(6), workers=2, initializer=_install_offset,
            initargs=(1000,), chunk_size=2,
        )
        assert out == [1000 + x for x in range(6)]

    @needs_fork
    def test_payload_tuples_roundtrip(self):
        payloads = [(x, 7) for x in range(9)]
        assert parallel_map(_offset_square, payloads, workers=4) == [
            x * x + 7 for x in range(9)
        ]

    @needs_fork
    def test_worker_pool_reuse(self):
        with WorkerPool(2, chunk_size=2) as pool:
            first = pool.map(_square, range(5))
            second = pool.map(_square, range(8))
        assert first == [x * x for x in range(5)]
        assert second == [x * x for x in range(8)]


class TestProfilerMerge:
    def test_merge_snapshot_sums_exactly(self):
        a = Profiler(enabled=True)
        b = Profiler(enabled=True)
        for duration in (1e-6, 5e-4, 0.2):
            a.record("stage", duration)
        for duration in (3e-5, 0.2, 17.0, 1e-7):
            b.record("stage", duration)
        a.count("shared", 2.0)
        b.count("shared", 3.0)
        b.count("only_b", 1.0)

        merged = Profiler()
        merged.merge_snapshot(a.snapshot())
        merged.merge_snapshot(b.snapshot())

        stats = merged.stats("stage")
        assert stats.count == 7
        assert stats.total == a.stats("stage").total + b.stats("stage").total
        assert stats.min == 1e-7
        assert stats.max == 17.0
        expected_hist = [
            x + y
            for x, y in zip(
                a.stats("stage").histogram, b.stats("stage").histogram
            )
        ]
        assert stats.histogram == expected_hist
        assert sum(stats.histogram) == stats.count
        assert merged.counters["shared"] == 5.0
        assert merged.counters["only_b"] == 1.0

    def test_merge_empty_stage_is_noop(self):
        target = Profiler(enabled=True)
        target.record("stage", 0.5)
        snapshot = target.snapshot()
        zero_stage = dict(snapshot["stages"]["stage"])
        zero_stage.update(
            count=0, total_seconds=0.0, min_seconds=0.0, max_seconds=0.0,
            histogram=[0] * len(zero_stage["histogram"]),
        )
        target.merge_snapshot(
            {"stages": {"stage": zero_stage}, "counters": {}}
        )
        stats = target.stats("stage")
        assert stats.count == 1
        assert stats.min == 0.5  # a zero-count merge must not clobber min

    def test_mismatched_histogram_rejected(self):
        source = Profiler(enabled=True)
        source.record("stage", 0.1)
        snapshot = source.snapshot()
        snapshot["histogram_edges_seconds"] = [1.0, 2.0]
        with pytest.raises(ValueError):
            Profiler().merge_snapshot(snapshot)

    @needs_fork
    def test_parallel_map_merges_worker_snapshots(self):
        """Stage counts/totals and counters from workers sum exactly."""
        PROFILER.reset()
        PROFILER.enable()
        try:
            out = parallel_map(
                _profiled_task, range(10), workers=3, chunk_size=2
            )
        finally:
            PROFILER.disable()
        try:
            stats = PROFILER.stats("test.runtime.stage")
            assert out == list(range(10))
            assert stats.count == 10
            assert stats.total == 10 * 0.25  # exact: 0.25 is a binary float
            assert sum(stats.histogram) == 10
            assert PROFILER.counters["test.runtime.counter"] == 10.0
        finally:
            PROFILER.reset()


@needs_fork
class TestParallelCaseEvaluation:
    def test_run_cases_bit_identical_across_worker_counts(self, detector):
        """Same seed => identical CaseResults at workers=1 and workers=4.

        ``timings`` is wall-clock and therefore the one excluded field.
        """
        from repro.datasets import tj_cases
        from repro.eval.experiments import run_cases

        cases = tj_cases(seed=0)[:3]
        serial = run_cases(cases, detector, workers=1)
        # Uneven split on purpose: 3 cases across 4 workers.
        parallel = run_cases(cases, detector, workers=4)

        strip = lambda results: [
            dataclasses.replace(r, timings={}) for r in results
        ]
        assert strip(serial) == strip(parallel)
        assert [r.case_name for r in parallel] == [c.name for c in cases]
        for case, result in zip(cases, parallel):
            assert set(result.timings) == set(
                list(case.observer_names) + ["cooper"]
            )


FAST_16 = BeamPattern("runtime-16", tuple(np.linspace(-15, 15, 16)), 0.8)


def _toy_session(detector, num_agents: int = 2) -> CooperSession:
    # The world does not depend on the viewpoints, so adding a third one
    # leaves every two-agent session unchanged.
    layout = parking_lot(
        seed=51,
        rows=3,
        cols=6,
        occupancy=0.8,
        viewpoint_offsets={
            "car1": (0.0, 0.0, 0.0),
            "car2": (5.5, 0.0, 0.0),
            "car3": (11.0, 0.0, 0.0),
        },
    )
    cooper = Cooper(detector=detector)

    def make_agent(name: str, viewpoint: str, speed: float = 0.0) -> CooperAgent:
        pose = layout.viewpoint(viewpoint)
        trajectory = (
            StraightTrajectory(pose, speed=speed)
            if speed
            else StationaryTrajectory(pose)
        )
        return CooperAgent(
            name=name,
            rig=SensorRig(lidar=LidarModel(pattern=FAST_16), name=name),
            trajectory=trajectory,
            policy=RoiPolicy(category=RoiCategory.FULL_FRAME),
            cooper=cooper,
        )

    agents = [
        make_agent("alpha", "car1", speed=2.0),
        make_agent("beta", "car2"),
        make_agent("gamma", "car3", speed=1.0),
    ]
    return CooperSession(world=layout.world, agents=agents[:num_agents])


def _package_bytes(package) -> bytes:
    """Bit-exact content of a received raw or feature package."""
    if isinstance(package, FeaturePackage):
        return package.coords.tobytes() + package.features.tobytes()
    return package.cloud.data.tobytes()


def _canonical_logs(logs) -> dict:
    """Project session logs onto comparable (bit-exact) primitives."""
    return {
        name: [
            (
                step.time,
                step.sent_bits,
                tuple(step.delivered),
                tuple(
                    (p.sender, _package_bytes(p))
                    for p in step.received_packages
                ),
                step.observation.scan.cloud.data.tobytes(),
                tuple(
                    (d.box.center.tobytes(), float(d.score), d.label)
                    for d in step.detections
                ),
            )
            for step in steps
        ]
        for name, steps in logs.items()
    }


@needs_fork
class TestParallelSession:
    def test_session_logs_bit_identical_across_worker_counts(self, detector):
        serial = _toy_session(detector).run(
            duration_seconds=2.0, period_seconds=1.0, seed=0, workers=1
        )
        parallel = _toy_session(detector).run(
            duration_seconds=2.0, period_seconds=1.0, seed=0, workers=2
        )
        assert _canonical_logs(serial) == _canonical_logs(parallel)

    # The single step pipeline serves every fusion mode at every worker
    # layout: two workers run three tasks per phase, four get one each.
    @pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
    @pytest.mark.parametrize(
        "mode,temporal",
        [("raw", False), ("raw", True), ("feature", False), ("gated", False)],
        ids=["raw", "raw-temporal", "feature", "gated"],
    )
    def test_three_agents_identical_across_worker_counts(
        self, detector, mode, temporal, chaos
    ):
        faults = FaultPlan.chaos(1) if chaos else None
        serial = _session_outcome(detector, 3, 1, mode, temporal, faults)
        for workers in (2, 4):
            parallel = _session_outcome(
                detector, 3, workers, mode, temporal, faults
            )
            assert parallel == serial, workers
        assert bool(serial[1]) == chaos  # degradation only under faults

    def test_one_agent_on_four_workers(self, detector):
        serial = _session_outcome(detector, 1, 1)
        assert _session_outcome(detector, 1, 4) == serial


def _session_outcome(
    detector, num_agents, workers, mode="raw", temporal=False, faults=None
):
    """Canonical logs, degradation counts and comm ledger of one run."""
    session = _toy_session(detector, num_agents)
    session.fusion_mode = mode
    session.temporal = temporal
    session.faults = faults
    logs = session.run(duration_seconds=3.0, seed=5, workers=workers)
    return _canonical_logs(logs), session.degradation, session.comm.summary()
