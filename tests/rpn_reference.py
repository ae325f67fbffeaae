"""Dense reference implementations of the RPN's convolutions.

The detector's :class:`~repro.detection.nn.layers.Conv2d` computes only
the channels and taps its live weights can make nonzero, and inference
runs :meth:`~repro.detection.rpn.RegionProposalNetwork.objectness`, which
carries only the live hidden channels from layer to layer and skips the
regression head.  These functions keep the unpruned form of the same
maths: every input channel, every output channel and every tap of every
convolution, and both heads.  Tests require the live passes to equal them
byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.detection.nn.layers import Conv2d
from repro.detection.rpn import RegionProposalNetwork


def reference_conv2d(conv: Conv2d, x: np.ndarray) -> np.ndarray:
    """Unpruned tap-by-tap reference of ``conv`` over ``x``."""
    k, s, p = conv.kernel_size, conv.stride, conv.padding
    n, _, h, w = x.shape
    out_h = (h + 2 * p - k) // s + 1
    out_w = (w + 2 * p - k) // s + 1
    weight = conv.weight.value.astype(x.dtype)
    padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    out = np.zeros((n, weight.shape[0], out_h, out_w), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            patch = padded[:, :, i : i + s * out_h : s, j : j + s * out_w : s]
            out += np.tensordot(
                weight[:, :, i, j], patch, axes=([1], [1])
            ).transpose(1, 0, 2, 3)
    if conv.bias is not None:
        out += conv.bias.value[None, :, None, None]
    return out


def reference_rpn(
    rpn: RegionProposalNetwork, bev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The dense RPN forward: ``(cls_logits, reg)`` from every channel of
    every layer."""

    def relu(x):
        return np.where(x > 0, x, 0.0)

    trunk = relu(reference_conv2d(rpn.conv2, relu(reference_conv2d(rpn.conv1, bev))))
    return reference_conv2d(rpn.cls_head, trunk), reference_conv2d(rpn.reg_head, trunk)
