"""Tests for the stage-timer registry and its pipeline instrumentation."""

import json
import time

import numpy as np
import pytest

from repro.fusion.cooper import Cooper
from repro.profiling import PROFILER, Profiler, get_profiler
from repro.profiling.registry import HISTOGRAM_EDGES, NULL_STAGE, StageStats


class TestStageStats:
    def test_record_accumulates(self):
        stats = StageStats("s")
        stats.record(0.1)
        stats.record(0.3)
        assert stats.count == 2
        assert stats.total == pytest.approx(0.4)
        assert stats.mean == pytest.approx(0.2)
        assert stats.min == pytest.approx(0.1)
        assert stats.max == pytest.approx(0.3)

    def test_histogram_buckets(self):
        stats = StageStats("s")
        stats.record(0.5e-6)  # below the first edge
        stats.record(1e9)  # beyond the last edge -> overflow bucket
        assert stats.histogram[0] == 1
        assert stats.histogram[-1] == 1
        assert sum(stats.histogram) == 2
        assert len(stats.histogram) == len(HISTOGRAM_EDGES) + 1

    def test_as_dict_empty(self):
        empty = StageStats("s").as_dict()
        assert empty["count"] == 0
        assert empty["min_seconds"] == 0.0


class TestProfiler:
    def test_disabled_returns_null_stage(self):
        profiler = Profiler()
        assert profiler.stage("anything") is NULL_STAGE

    def test_disabled_records_nothing(self):
        profiler = Profiler()
        with profiler.stage("s"):
            pass
        profiler.record("s", 1.0)
        profiler.count("c")
        assert profiler.stats("s") is None
        assert profiler.counters == {}

    def test_stage_times_block(self):
        profiler = Profiler(enabled=True)
        with profiler.stage("sleep"):
            time.sleep(0.01)
        stats = profiler.stats("sleep")
        assert stats.count == 1
        assert stats.total >= 0.009

    def test_counters_accumulate(self):
        profiler = Profiler(enabled=True)
        profiler.count("bits", 100)
        profiler.count("bits", 50)
        assert profiler.counters["bits"] == 150

    def test_decorator(self):
        profiler = Profiler(enabled=True)

        @profiler.profiled("square")
        def square(x):
            return x * x

        assert square(3) == 9
        assert profiler.stats("square").count == 1

    def test_reset(self):
        profiler = Profiler(enabled=True)
        with profiler.stage("s"):
            pass
        profiler.reset()
        assert profiler.stages == {}

    def test_export_json_round_trips(self, tmp_path):
        profiler = Profiler(enabled=True)
        with profiler.stage("s"):
            pass
        profiler.count("c", 2)
        path = profiler.export_json(tmp_path / "profile.json")
        loaded = json.loads(path.read_text())
        assert loaded["stages"]["s"]["count"] == 1
        assert loaded["counters"]["c"] == 2

    def test_render_table_lists_stages(self):
        profiler = Profiler(enabled=True)
        with profiler.stage("alpha"):
            pass
        table = profiler.render_table()
        assert "alpha" in table

    def test_module_singleton(self):
        assert get_profiler() is PROFILER


class TestPipelineTimingSanity:
    @pytest.fixture()
    def profiled(self):
        """Enable the process profiler for one test, restoring state after."""
        PROFILER.reset()
        PROFILER.enable()
        yield PROFILER
        PROFILER.disable()
        PROFILER.reset()

    def test_stage_totals_match_cooper_result(self, profiled, detector, simple_scan):
        """The profiler's cooper.* totals reconcile with the result object:
        both come from the same perf_counter deltas."""
        cooper = Cooper(detector=detector)
        result = cooper.perceive_single(simple_scan.cloud)
        assert profiled.total_seconds("cooper.detect") == pytest.approx(
            result.detect_seconds
        )
        assert profiled.total_seconds("cooper.detect") + profiled.total_seconds(
            "cooper.fuse"
        ) == pytest.approx(result.total_seconds)

    def test_spod_stages_nest_inside_detect(self, profiled, detector, simple_scan):
        """Per-stage SPOD timings must sum to no more than the detect
        envelope they nest inside."""
        cooper = Cooper(detector=detector)
        cooper.perceive_single(simple_scan.cloud)
        inner = sum(
            profiled.total_seconds(name)
            for name in (
                "spod.preprocess",
                "voxel.voxelize",
                "spod.vfe",
                "spod.middle",
                "spod.rpn",
                "spod.decode",
                "spod.nms",
            )
        )
        envelope = profiled.total_seconds("cooper.detect")
        assert 0.0 < inner <= envelope
        # The split accounts for most of the envelope, not a sliver of it.
        assert inner >= 0.5 * envelope
        decode_parts = sum(
            profiled.total_seconds(f"spod.decode.{name}")
            for name in ("cells", "index", "refine", "calibrate", "suppress")
        )
        assert 0.0 < decode_parts <= profiled.total_seconds("spod.decode")
        assert profiled.stats("spod.decode.refine").count == 1

    def test_disabled_profiler_untouched_by_pipeline(self, detector, simple_scan):
        PROFILER.reset()
        assert not PROFILER.enabled
        Cooper(detector=detector).perceive_single(simple_scan.cloud)
        assert PROFILER.stages == {}
        assert PROFILER.counters == {}

    def test_disabled_stage_call_overhead_negligible(self):
        """The disabled path is one attribute check + returning a shared
        no-op — it must stay within an order of magnitude of an empty
        context manager, i.e. far below a microsecond per call."""

        class Empty:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        empty = Empty()
        profiler = Profiler()  # disabled
        rounds = 20000

        def best_of(fn, repeats=5):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        def baseline():
            for _ in range(rounds):
                with empty:
                    pass

        def instrumented():
            for _ in range(rounds):
                with profiler.stage("s"):
                    pass

        base = best_of(baseline)
        timed = best_of(instrumented)
        per_call = timed / rounds
        assert per_call < 1e-6
        assert timed < 10 * base + 1e-3
