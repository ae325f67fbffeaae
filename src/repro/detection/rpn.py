"""SSD-style Region Proposal Network over the BEV feature map.

Two 3x3 conv blocks followed by 1x1 classification and regression heads,
one anchor per BEV cell per orientation — the single-shot architecture the
paper assembles from [21]/[16].  ``analytic_init`` wires the convolutions
to compute *car-band density* (mean occupancy of the z bins cars occupy
over a 3x3 neighbourhood) and a *tall-structure* channel (occupancy of the
top z bin), and the classification head to score
``density - tall_penalty * tall - bias`` — a training-free objectness that
is high exactly where car-sized point mass exists and suppressed along
walls, trees and trucks.

Inference runs :meth:`RegionProposalNetwork.objectness`: the
classification logits alone, over the channels and taps the live weights
can make nonzero.  Under the analytic weights that is 4 of the 20 BEV
channels and 2 of the hidden channels, one live tap of ``conv2`` and no
regression head, since the analytic decode refines boxes from points.
:meth:`~RegionProposalNetwork.forward` keeps both heads for training and
for the learned decode.
"""

from __future__ import annotations

import numpy as np

from repro.detection.nn.layers import Conv2d, ReLU, expand_channels
from repro.detection.nn.module import Module

__all__ = ["RegionProposalNetwork"]


class RegionProposalNetwork(Module):
    """RPN: ``conv3x3 -> ReLU -> conv3x3 -> ReLU -> {cls 1x1, reg 1x1}``.

    Input: ``(1, in_channels, H, W)`` BEV features.  :meth:`forward`
    returns ``cls_logits (1, num_yaws, H, W)`` and ``reg (1, 7 * num_yaws,
    H, W)``; :meth:`objectness` returns the same ``cls_logits`` alone.
    """

    def __init__(
        self,
        in_channels: int,
        hidden_channels: int = 8,
        num_yaws: int = 2,
        seed: int = 0,
    ) -> None:
        self.conv1 = Conv2d(in_channels, hidden_channels, 3, 1, 1, seed=seed)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(hidden_channels, hidden_channels, 3, 1, 1, seed=seed + 1)
        self.relu2 = ReLU()
        self.cls_head = Conv2d(hidden_channels, num_yaws, 1, 1, 0, seed=seed + 2)
        self.reg_head = Conv2d(hidden_channels, 7 * num_yaws, 1, 1, 0, seed=seed + 3)
        self.num_yaws = num_yaws
        self.hidden_channels = hidden_channels

    def forward(self, bev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        trunk = self.relu2(self.conv2(self.relu1(self.conv1(bev))))
        return self.cls_head(trunk), self.reg_head(trunk)

    def objectness(self, bev: np.ndarray) -> np.ndarray:
        """The ``cls_logits`` of :meth:`forward`, computed over live
        channels only; an inference pass that :meth:`backward` cannot
        follow.

        Each convolution runs :meth:`Conv2d.infer`, so a hidden channel
        that is identically zero (zero weights over the live inputs and a
        zero bias) stays zero through its ReLU and is never computed or
        read downstream.  The regression head does not run.
        """
        hidden, live = self.conv1.infer(bev, np.ones(bev.shape[1], dtype=bool))
        hidden, live = self.conv2.infer(self.relu1(hidden), live)
        logits, live = self.cls_head.infer(self.relu2(hidden), live)
        return expand_channels(logits, live)

    def used_input_channels(self) -> np.ndarray:
        """Boolean mask of BEV input channels ``conv1`` actually reads.

        Derived from the live weights on every call, so it self-invalidates
        when the network is (re)trained.  With the analytic weights only
        the occupancy channel's car-band and tall z bins are live (4 of
        ``in_channels``), which lets the BEV densification skip most of its
        scatter at inference time.
        """
        return np.any(self.conv1.weight.value, axis=(0, 2, 3))

    def backward(
        self, grad_cls: np.ndarray, grad_reg: np.ndarray | None = None
    ) -> np.ndarray:
        grad_trunk = self.cls_head.backward(grad_cls)
        if grad_reg is not None:
            grad_trunk = grad_trunk + self.reg_head.backward(grad_reg)
        grad = self.relu2.backward(grad_trunk)
        grad = self.conv2.backward(grad)
        grad = self.relu1.backward(grad)
        return self.conv1.backward(grad)

    def analytic_init(
        self,
        nz: int,
        car_bins: tuple[int, ...] = (1, 2, 3),
        tall_bin: int = 4,
        density_weight: float = 1.0,
        tall_weight: float = 4.0,
        bias: float = -0.2,
    ) -> None:
        """Install the training-free objectness weights.

        Assumes the BEV channel layout produced by
        :class:`~repro.detection.nn.sparse.SparseToDense` over analytic VFE
        features: channel ``c * nz + z`` holds VFE channel ``c`` at height
        bin ``z``; channel 0 of the VFE is occupancy.
        """
        if self.hidden_channels < 2:
            raise ValueError("analytic RPN needs at least 2 hidden channels")
        if tall_bin >= nz or any(b >= nz for b in car_bins):
            raise ValueError("bin index outside the z extent")
        # conv1: hidden ch0 = 3x3 mean of car-band occupancy,
        #        hidden ch1 = 3x3 mean of top-bin occupancy.
        self.conv1.weight.value[...] = 0.0
        self.conv1.bias.value[...] = 0.0
        for z in car_bins:
            self.conv1.weight.value[0, z, :, :] = 1.0 / 9.0
        self.conv1.weight.value[1, tall_bin, :, :] = 1.0 / 9.0
        # conv2: identity centre tap.
        self.conv2.weight.value[...] = 0.0
        self.conv2.bias.value[...] = 0.0
        for c in range(self.hidden_channels):
            self.conv2.weight.value[c, c, 1, 1] = 1.0
        # cls head: density - penalty * tall + bias, shared by every yaw.
        self.cls_head.weight.value[...] = 0.0
        self.cls_head.bias.value[...] = bias
        for a in range(self.num_yaws):
            self.cls_head.weight.value[a, 0, 0, 0] = density_weight
            self.cls_head.weight.value[a, 1, 0, 0] = -tall_weight
        # reg head: zero residuals (the analytic path refines from points).
        self.reg_head.weight.value[...] = 0.0
        self.reg_head.bias.value[...] = 0.0
