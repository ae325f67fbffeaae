"""The RPN's live inference pass against the dense references.

``Conv2d`` computes only what its live weights can make nonzero, and
``RegionProposalNetwork.objectness`` carries only the live hidden channels
from layer to layer and runs no regression head.  Every result here must
equal the unpruned references of :mod:`tests.rpn_reference` byte for
byte, and ``reg`` must still reach its readers: training and the learned
decode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import kitti_cases
from repro.detection.nn.layers import Conv2d, expand_channels
from repro.detection.rpn import RegionProposalNetwork
from repro.detection.spod import SPOD, SPODConfig
from repro.fusion.feature import rpn_confidence
from tests.family_corpus import detection_clouds
from tests.rpn_reference import reference_conv2d, reference_rpn


def _conv(seed: int = 0, in_channels: int = 5, out_channels: int = 4) -> Conv2d:
    """A 3x3 convolution with random weights and random biases."""
    conv = Conv2d(in_channels, out_channels, 3, 1, 1, seed=seed)
    conv.bias.value[...] = np.random.default_rng(seed + 100).normal(size=out_channels)
    return conv


def _input(seed: int = 0, channels: int = 5, dtype=np.float64) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(2, channels, 7, 6)).astype(dtype)


def _assert_bytes_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _all(channels: int) -> np.ndarray:
    return np.ones(channels, dtype=bool)


class TestConv2dLiveChannels:
    def test_zero_output_with_zero_bias_is_left_out(self):
        conv = _conv()
        conv.weight.value[1] = 0.0
        conv.bias.value[1] = 0.0
        x = _input()
        out = conv(x)
        _assert_bytes_equal(out, reference_conv2d(conv, x))
        assert not out[:, 1].any()
        live, outputs = conv.infer(x, _all(5))
        assert outputs.tolist() == [True, False, True, True]
        _assert_bytes_equal(live, out[:, outputs])

    def test_zero_output_with_nonzero_bias_reads_its_bias(self):
        conv = _conv()
        conv.weight.value[2] = 0.0
        conv.bias.value[2] = -0.2
        x = _input(dtype=np.float32)
        out = conv(x)
        _assert_bytes_equal(out, reference_conv2d(conv, x))
        assert np.all(out[:, 2] == np.float32(-0.2))
        live, outputs = conv.infer(x, _all(5))
        assert outputs.all()
        _assert_bytes_equal(live, out)

    def test_zero_taps_are_skipped_exactly(self):
        conv = _conv()
        conv.weight.value[:, :, 0, 2] = 0.0
        conv.weight.value[:, :, 2, 1] = 0.0
        x = _input()
        _assert_bytes_equal(conv(x), reference_conv2d(conv, x))

    def test_tap_live_for_one_output_runs(self):
        conv = _conv()
        conv.weight.value[:, :, 1, 1] = 0.0
        conv.weight.value[3, 2, 1, 1] = 1.5
        x = _input()
        _assert_bytes_equal(conv(x), reference_conv2d(conv, x))

    def test_layer_without_live_outputs(self):
        conv = _conv()
        conv.weight.value[...] = 0.0
        conv.bias.value[...] = 0.0
        x = _input()
        out = conv(x)
        _assert_bytes_equal(out, reference_conv2d(conv, x))
        assert not out.any()
        live, outputs = conv.infer(x, _all(5))
        assert live.shape == (2, 0, 7, 6)
        assert not outputs.any()

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_random_weights_skip_nothing(self, seed):
        conv = _conv(seed)
        x = _input(seed)
        out = conv(x)
        _assert_bytes_equal(out, reference_conv2d(conv, x))
        live, outputs = conv.infer(x, _all(5))
        assert outputs.all()
        _assert_bytes_equal(live, out)

    @pytest.mark.parametrize("seed", range(3))
    def test_float32_input_adds_the_float64_bias(self, seed):
        conv = _conv(seed)
        x = _input(seed, dtype=np.float32)
        out = conv(x)
        assert conv.bias.value.dtype == np.float64
        _assert_bytes_equal(out, reference_conv2d(conv, x))
        # The case can tell the two adds apart: a bias cast to float32
        # before the add rounds some sums differently.
        bias = conv.bias.value.copy()
        conv.bias.value[...] = 0.0
        float32_add = reference_conv2d(conv, x) + bias.astype(np.float32)[
            None, :, None, None
        ]
        assert float32_add.tobytes() != out.tobytes()

    def test_infer_reads_only_the_live_inputs(self):
        conv = _conv(in_channels=6)
        inputs = np.array([True, False, True, True, False, True])
        x = _input(channels=6)
        x[:, ~inputs] = 0.0
        live, outputs = conv.infer(np.ascontiguousarray(x[:, inputs]), inputs)
        _assert_bytes_equal(expand_channels(live, outputs), reference_conv2d(conv, x))

    def test_zero_weights_over_live_inputs_and_zero_bias_are_left_out(self):
        conv = _conv(in_channels=3)
        conv.weight.value[0, :2] = 0.0
        conv.bias.value[0] = 0.0
        inputs = np.array([True, True, False])
        x = _input(channels=3)
        x[:, 2] = 0.0
        live, outputs = conv.infer(np.ascontiguousarray(x[:, :2]), inputs)
        assert outputs.tolist() == [False, True, True, True]
        _assert_bytes_equal(live, reference_conv2d(conv, x)[:, 1:])


@pytest.fixture(scope="module")
def corpus_clouds():
    """The KITTI and T&J cases, single and merged, and one merged cloud of
    every scenario family."""
    return detection_clouds()


def _random_rpn(seed: int, in_channels: int = 8) -> RegionProposalNetwork:
    rpn = RegionProposalNetwork(in_channels, hidden_channels=4, seed=seed)
    rng = np.random.default_rng(seed + 50)
    for conv in (rpn.conv1, rpn.conv2, rpn.cls_head, rpn.reg_head):
        conv.bias.value[...] = rng.normal(size=conv.bias.value.shape)
    return rpn


class TestObjectness:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_cls_logits_equal_the_dense_forward(self, dtype, corpus_clouds):
        detector = SPOD.pretrained(SPODConfig(dtype=dtype))
        for cloud in corpus_clouds:
            bev = detector.forward_features(cloud, inference=True)["bev"]
            assert bev.dtype == np.dtype(dtype)
            expected = reference_rpn(detector.rpn, bev)[0]
            _assert_bytes_equal(detector.rpn_apply(bev), expected)

    def test_analytic_weights_leave_two_hidden_channels_and_one_tap(self):
        rpn = SPOD.pretrained().rpn
        bev = np.random.default_rng(3).random((1, rpn.conv1.weight.value.shape[1], 9, 8))
        hidden, live = rpn.conv1.infer(bev, _all(bev.shape[1]))
        assert live.tolist() == [True, True, False, False]
        _, live = rpn.conv2.infer(hidden, live)
        assert live.tolist() == [True, True, False, False]
        conv2_taps = np.any(rpn.conv2.weight.value[live][:, live], axis=(0, 1))
        assert np.count_nonzero(conv2_taps) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_random_dense_rpn(self, seed):
        rpn = _random_rpn(seed)
        bev = _input(seed, channels=8, dtype=np.float32)
        expected_cls, expected_reg = reference_rpn(rpn, bev)
        _assert_bytes_equal(rpn.objectness(bev), expected_cls)
        cls_logits, reg = rpn(bev)
        _assert_bytes_equal(cls_logits, expected_cls)
        _assert_bytes_equal(reg, expected_reg)

    def test_bias_only_hidden_channel_is_carried(self):
        rpn = _random_rpn(4)
        rpn.conv1.weight.value[2] = 0.0
        rpn.conv1.bias.value[2] = 0.5
        bev = _input(4, channels=8)
        _assert_bytes_equal(rpn.objectness(bev), reference_rpn(rpn, bev)[0])

    def test_dead_hidden_channel_is_dropped(self):
        rpn = _random_rpn(5)
        rpn.conv1.weight.value[1] = 0.0
        rpn.conv1.bias.value[1] = 0.0
        bev = _input(5, channels=8, dtype=np.float32)
        _assert_bytes_equal(rpn.objectness(bev), reference_rpn(rpn, bev)[0])

    def test_dead_yaw_channel_reads_zero(self):
        rpn = _random_rpn(6)
        rpn.cls_head.weight.value[1] = 0.0
        rpn.cls_head.bias.value[1] = 0.0
        bev = _input(6, channels=8)
        cls_logits = rpn.objectness(bev)
        _assert_bytes_equal(cls_logits, reference_rpn(rpn, bev)[0])
        assert not cls_logits[:, 1].any()


class TestRegressionReaders:
    @pytest.fixture
    def cloud(self):
        case = kitti_cases()[0]
        return case.cloud_of(case.receiver)

    @staticmethod
    def _forbid_reg_head(detector, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("reg_head ran")

        monkeypatch.setattr(detector.rpn.reg_head, "forward", ran)
        monkeypatch.setattr(detector.rpn.reg_head, "infer", ran)

    def test_analytic_paths_never_run_the_regression_head(self, cloud, monkeypatch):
        detector = SPOD.pretrained()
        bev = detector.forward_features(cloud, inference=True)["bev"]
        expected = reference_rpn(detector.rpn, bev)[0]
        self._forbid_reg_head(detector, monkeypatch)
        assert detector.detect_all(cloud)
        heat = rpn_confidence(detector, bev)
        prob = 1.0 / (1.0 + np.exp(-np.clip(expected[0], -60, 60)))
        _assert_bytes_equal(heat, prob.max(axis=0))

    def test_learned_decode_receives_reg(self, cloud, monkeypatch):
        detector = SPOD(SPODConfig(use_learned_heads=True))
        seen = []
        monkeypatch.setattr(
            detector, "_decode_learned", lambda cls, reg: seen.append((cls, reg)) or []
        )
        assert detector.detect_all(cloud) == []
        ((cls_logits, reg),) = seen
        bev = detector.forward_features(cloud, inference=True)["bev"]
        expected_cls, expected_reg = reference_rpn(detector.rpn, bev)
        assert reg.shape[1] == 7 * len(detector.anchors.yaws)
        assert reg.any()
        _assert_bytes_equal(cls_logits, expected_cls)
        _assert_bytes_equal(reg, expected_reg)

    def test_training_forward_returns_both_heads(self, cloud):
        detector = SPOD()
        tensors = detector.forward(cloud)
        expected_cls, expected_reg = reference_rpn(detector.rpn, tensors["bev"])
        _assert_bytes_equal(tensors["cls_logits"], expected_cls)
        _assert_bytes_equal(tensors["reg"], expected_reg)
