"""Sparse convolutional middle layers (paper's "Sparse CNN" component).

Voxel features flow through submanifold sparse 3D convolutions — the [15]
machinery the paper adopts because "output points are not computed if there
is no related input point" — and the result is scattered to a dense BEV map
whose channels stack the z bins, ready for the 2D RPN.

``analytic_init`` wires the convolutions as identity taps so the BEV map
carries the VFE's physically-meaningful channels per z bin.
"""

from __future__ import annotations

import numpy as np

from repro.detection.nn.module import Module
from repro.detection.nn.sparse import SparseTensor3d, SparseToDense, SubmanifoldConv3d

__all__ = ["SparseMiddleExtractor"]


class _SparseReLU(Module):
    """ReLU over a sparse tensor's features."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, tensor: SparseTensor3d) -> SparseTensor3d:
        self._mask = tensor.features > 0
        return SparseTensor3d(
            tensor.coords,
            np.where(self._mask, tensor.features, 0.0),
            tensor.grid_shape,
        )

    def backward(self, grad_output: SparseTensor3d) -> SparseTensor3d:
        return SparseTensor3d(
            grad_output.coords,
            np.where(self._mask, grad_output.features, 0.0),
            grad_output.grid_shape,
        )


class SparseMiddleExtractor(Module):
    """Two submanifold conv blocks followed by BEV densification.

    Input: a :class:`SparseTensor3d` from the VFE with ``in_channels``
    features.  Output: a dense ``(1, out_channels * nz, nx, ny)`` array.
    """

    def __init__(
        self, in_channels: int = 8, mid_channels: int = 8, out_channels: int = 8,
        seed: int = 0,
    ) -> None:
        self.conv1 = SubmanifoldConv3d(in_channels, mid_channels, seed=seed)
        self.relu1 = _SparseReLU()
        self.conv2 = SubmanifoldConv3d(mid_channels, out_channels, seed=seed + 1)
        self.relu2 = _SparseReLU()
        self.to_dense = SparseToDense()
        self.in_channels = in_channels
        self.out_channels = out_channels

    def forward_sparse(self, tensor: SparseTensor3d) -> SparseTensor3d:
        """The convolutional block alone: sparse in, sparse out.

        This is the feature tap the fusion layer consumes: the per-voxel
        features *before* densification, which is what a cooperator
        actually needs to ship (active voxels only) and what F-Cooper
        style maxout fusion combines across vehicles.  Both convolutions
        are stride-1 submanifold: the active set is invariant through the
        block, so one rulebook serves them both.
        """
        rulebook = self.conv1.build_rulebook(tensor)
        x = self.relu1(self.conv1(tensor, rulebook=rulebook))
        return self.relu2(self.conv2(x, rulebook=rulebook))

    def forward(
        self, tensor: SparseTensor3d, channel_mask: np.ndarray | None = None
    ) -> np.ndarray:
        x = self.forward_sparse(tensor)
        return self.to_dense(x, channel_mask=channel_mask)

    def backward(self, grad_output: np.ndarray) -> SparseTensor3d:
        grad = self.to_dense.backward(grad_output)
        grad = self.relu2.backward(grad)
        grad = self.conv2.backward(grad)
        grad = self.relu1.backward(grad)
        return self.conv1.backward(grad)

    def analytic_init(self) -> None:
        """Make both convolutions identity centre-taps.

        The BEV map then contains, for every z bin, exactly the VFE's
        channels (occupancy, max height, max reflectance, count) — the
        evidence the analytic RPN head consumes.
        """
        if self.conv1.weight.shape[1] != self.conv1.weight.shape[2]:
            raise ValueError("analytic middle requires equal channel counts")
        for conv in (self.conv1, self.conv2):
            k3 = conv.weight.shape[0]
            center = k3 // 2
            conv.weight.value[...] = 0.0
            channels = conv.weight.shape[1]
            conv.weight.value[center] = np.eye(channels)
            conv.bias.value[...] = 0.0
