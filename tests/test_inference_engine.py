"""Integration tests for the SPOD inference engine.

Covers the inference-path contracts the bench relies on: the float32
kernel path agrees with the float64 training path on the Fig. 4 cases,
batched multi-agent detection equals the per-cloud path, empty/blackout
inputs degrade to empty results end to end, Conv2d's zero-channel pruning
is exact, and the session's batched path stays bit-identical across
worker counts at a fixed dtype.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import kitti_cases
from repro.detection.nn.layers import Conv2d
from repro.detection.nn.sparse import RULEBOOK_CACHE, SparseTensor3d, SparseToDense
from repro.detection.spod import SPOD, SPODConfig
from repro.eval.experiments import run_case
from repro.fusion.align import merge_packages
from repro.pointcloud.cloud import PointCloud
from tests.rpn_reference import reference_conv2d


@pytest.fixture(autouse=True)
def _clean_rulebook_cache():
    RULEBOOK_CACHE.clear()
    RULEBOOK_CACHE.enabled = True
    yield
    RULEBOOK_CACHE.clear()
    RULEBOOK_CACHE.enabled = True


@pytest.fixture(scope="module")
def detector_f32() -> SPOD:
    return SPOD.pretrained(SPODConfig(dtype="float32"))


@pytest.fixture(scope="module")
def detector_f64() -> SPOD:
    return SPOD.pretrained(SPODConfig(dtype="float64"))


@pytest.fixture(scope="module")
def fig04_case():
    """The first Fig. 4 KITTI case (two observers plus the merge)."""
    return kitti_cases(seed=0)[0]


class TestDtypeKnob:
    def test_pretrained_defaults_to_float32(self):
        assert SPOD.pretrained().dtype == np.float32

    def test_plain_constructor_defaults_to_float64(self):
        assert SPOD().dtype == np.float64

    def test_config_dtype_wins(self):
        assert SPOD.pretrained(SPODConfig(dtype="float64")).dtype == np.float64
        assert SPOD(SPODConfig(dtype="float32")).dtype == np.float32

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            SPODConfig(dtype="float16")


class TestFloat32Agreement:
    def test_fig04_case_matches_float64(
        self, fig04_case, detector_f32, detector_f64
    ):
        """Same detections, scores and recall on a Fig. 4 case."""
        r32 = run_case(fig04_case, detector_f32)
        r64 = run_case(fig04_case, detector_f64)
        assert r32.counts == r64.counts
        assert r32.false_positives == r64.false_positives
        # Box centres may differ at float32 rounding level, moving the
        # distance-accuracy metric by a fraction of a percent — never the
        # detection/recall outcome asserted above and below.
        for column, accuracy in r32.accuracies.items():
            assert abs(accuracy - r64.accuracies[column]) <= 0.5
        for rec32, rec64 in zip(r32.records, r64.records):
            assert rec32.car_name == rec64.car_name
            assert rec32.single_detected == rec64.single_detected
            assert rec32.cooper_detected == rec64.cooper_detected
            # Scores shift slightly when a float32-rounded box centre
            # gains or loses boundary points of its evidence neighborhood;
            # the detected/X outcome (asserted exactly above) never flips.
            for observer, score in rec32.single_scores.items():
                other = rec64.single_scores[observer]
                if score is None or other is None:
                    assert score == other
                else:
                    assert abs(score - other) <= 0.05
            if rec32.cooper_score is not None:
                assert abs(rec32.cooper_score - rec64.cooper_score) <= 0.05


class TestBatchedDetection:
    def test_detect_batch_matches_per_cloud(self, fig04_case, detector_f32):
        clouds = [
            fig04_case.cloud_of(observer)
            for observer in fig04_case.observer_names
        ]
        clouds.append(
            merge_packages(
                fig04_case.cloud_of(fig04_case.receiver),
                fig04_case.packages_for_receiver(),
                fig04_case.receiver_measured_pose(),
            )
        )
        batched = detector_f32.detect_batch(clouds)
        for cloud, batch_dets in zip(clouds, batched):
            solo = detector_f32.detect_all(cloud)
            assert len(batch_dets) == len(solo)
            for a, b in zip(batch_dets, solo):
                np.testing.assert_array_equal(a.box.center, b.box.center)
                assert a.score == b.score

    def test_detect_batch_handles_empty_clouds(self, detector_f32, fig04_case):
        empty = PointCloud(np.zeros((0, 4)))
        cloud = fig04_case.cloud_of(fig04_case.observer_names[0])
        results = detector_f32.detect_batch([empty, cloud, empty])
        assert results[0] == [] and results[2] == []
        assert len(results[1]) == len(detector_f32.detect_all(cloud))

    def test_detect_batch_all_empty(self, detector_f32):
        empty = PointCloud(np.zeros((0, 4)))
        assert detector_f32.detect_batch([empty, empty]) == [[], []]


class TestEquivalenceGating:
    def test_session_falls_back_to_per_agent_on_mixed_detectors(self):
        from repro.fusion.cooper import Cooper
        from tests.test_runtime import _toy_session

        f32 = SPOD.pretrained(SPODConfig(dtype="float32"))
        f64 = SPOD.pretrained(SPODConfig(dtype="float64"))
        rpn_rows = {f32: [], f64: []}
        for detector in rpn_rows:

            def rpn_apply(bev, detector=detector):
                rpn_rows[detector].append((bev.shape[0], bev.dtype))
                return SPOD.rpn_apply(detector, bev)

            detector.rpn_apply = rpn_apply
        session = _toy_session(f32)
        session.agents[1].cooper = Cooper(detector=f64)
        session.run(duration_seconds=2.0, seed=0)
        # One single-row RPN pass per step for each agent, through that
        # agent's own detector and dtype.
        assert rpn_rows[f32] == [(1, np.float32)] * 2
        assert rpn_rows[f64] == [(1, np.float64)] * 2


class TestBlackoutEndToEnd:
    def test_empty_cloud_detects_nothing(self, detector_f32):
        assert detector_f32.detect(PointCloud(np.zeros((0, 4)))) == []
        assert detector_f32.detect_all(PointCloud(np.zeros((0, 3)))) == []

    def test_session_survives_total_lidar_blackout(self, detector_f32):
        from repro.faults import FaultPlan
        from tests.test_runtime import _toy_session

        session = _toy_session(detector_f32)
        session.faults = FaultPlan.from_spec("lidar-blackout=1.0", seed=0)
        logs = session.run(duration_seconds=2.0, period_seconds=1.0, seed=0)
        for steps in logs.values():
            assert len(steps) == 2
            for step in steps:
                assert step.detections == []
        assert session.degradation.get("lidar_blackouts", 0) > 0


class TestConv2dPruning:
    @pytest.mark.parametrize("seed", range(3))
    def test_pruned_forward_equals_unpruned(self, seed):
        rng = np.random.default_rng(seed)
        conv = Conv2d(6, 4, kernel_size=3, padding=1, seed=seed)
        # Zero out half the input channels: the pruning fast path engages.
        conv.weight.value[:, ::2] = 0.0
        x = rng.normal(size=(2, 6, 7, 5))
        np.testing.assert_array_equal(
            conv(x), reference_conv2d(conv, x)
        )

    def test_pruned_backward_covers_all_channels(self):
        conv = Conv2d(4, 2, kernel_size=3, padding=1, seed=1)
        conv.weight.value[:, 1] = 0.0
        conv.zero_grad()
        x = np.random.default_rng(2).normal(size=(1, 4, 5, 5))
        out = conv(x)
        grad_in = conv.backward(np.ones_like(out))
        assert grad_in.shape == x.shape
        # The gradient through a zero-weight channel is exactly zero.
        np.testing.assert_array_equal(grad_in[:, 1], 0.0)
        # And the weight gradient still covers the pruned channel.
        assert conv.weight.grad.shape == conv.weight.value.shape
        assert np.any(conv.weight.grad[:, 1] != 0.0)


class TestSparseTensorContracts:
    def test_no_copy_for_well_formed_inputs(self):
        coords = np.array([[1, 2, 3]], dtype=np.int64)
        features = np.array([[1.0, 2.0]], dtype=np.float32)
        t = SparseTensor3d(coords, features, (4, 4, 4))
        assert t.coords is coords
        assert t.features is features

    def test_float_dtype_preserved(self):
        t = SparseTensor3d(
            np.array([[0, 0, 0]]), np.ones((1, 2), dtype=np.float32), (2, 2, 2)
        )
        assert t.features.dtype == np.float32

    def test_channel_mask_zeroes_masked_channels(self):
        t = SparseTensor3d(
            np.array([[1, 1, 0], [2, 2, 1]]), np.ones((2, 2)), (4, 4, 2)
        )
        layer = SparseToDense()
        nz = t.grid_shape[2]
        mask = np.zeros(t.num_channels * nz, dtype=bool)
        mask[0] = True  # keep channel 0 / z bin 0 only
        dense = layer(t, channel_mask=mask)
        full = SparseToDense()(t)
        np.testing.assert_array_equal(dense[:, 0], full[:, 0])
        assert not dense[:, 1:].any()

    def test_backward_refuses_after_masked_forward(self):
        t = SparseTensor3d(np.array([[0, 0, 0]]), np.ones((1, 1)), (2, 2, 2))
        layer = SparseToDense()
        mask = np.array([True, False])
        dense = layer(t, channel_mask=mask)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones_like(dense))


class TestSessionBitIdentity:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_workers_1_vs_4_identical_at_fixed_dtype(self, dtype):
        from repro.runtime import fork_available
        from tests.test_runtime import _canonical_logs, _toy_session

        if not fork_available():
            pytest.skip("fork start method unavailable")
        make = lambda: SPOD.pretrained(SPODConfig(dtype=dtype))
        serial = _toy_session(make()).run(
            duration_seconds=2.0, period_seconds=1.0, seed=0, workers=1
        )
        parallel = _toy_session(make()).run(
            duration_seconds=2.0, period_seconds=1.0, seed=0, workers=4
        )
        assert _canonical_logs(serial) == _canonical_logs(parallel)
