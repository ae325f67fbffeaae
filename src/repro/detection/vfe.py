"""Voxel Feature Encoding (VoxelNet-style), with an analytic weight mode.

Each non-empty voxel's points are augmented with their offsets from the
voxel centroid plus normalised height / count channels, passed through a
shared point-wise ``Linear -> ReLU`` and max-pooled over the voxel — the
VFE layer of VoxelNet the paper builds on.

``analytic_init`` installs weights under which the pooled features have a
fixed physical meaning (occupancy, normalised max height, max reflectance,
normalised count), which is what the analytic middle/RPN stages expect.
"""

from __future__ import annotations

import numpy as np

from repro.detection.nn.layers import Linear
from repro.detection.nn.module import Module
from repro.detection.nn.sparse import SparseTensor3d
from repro.pointcloud.voxel import VoxelGrid

__all__ = ["VoxelFeatureEncoder", "AUGMENTED_FEATURES"]

#: Per-point input features: dx, dy, dz (offset from voxel centroid),
#: normalised absolute height, reflectance, normalised voxel count.
AUGMENTED_FEATURES = 6


class VoxelFeatureEncoder(Module):
    """Shared point-wise MLP + masked max-pool over each voxel.

    Attributes:
        out_channels: pooled feature dimensionality.
        z_range: (zmin, zmax) used to normalise absolute height.
    """

    def __init__(
        self,
        out_channels: int = 8,
        z_range: tuple[float, float] = (-3.0, 1.0),
        seed: int = 0,
    ) -> None:
        self.out_channels = out_channels
        self.z_range = z_range
        self.linear = Linear(AUGMENTED_FEATURES, out_channels, seed=seed)
        #: Compute dtype for the encoder and everything downstream of it
        #: (``None`` keeps the legacy float64 promotion).  The augmented
        #: features are cast once here; every later layer follows its
        #: input's dtype, so this is the single entry point of the
        #: detector's float32 kernel path.
        self.compute_dtype: np.dtype | None = None
        self._cache: tuple | None = None

    # -- feature augmentation ---------------------------------------------
    def augment(
        self, grid: VoxelGrid, inputs: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Build the ``(V, T, F)`` input and the ``(V, T)`` validity mask.

        ``inputs`` is a boolean mask over the ``AUGMENTED_FEATURES``
        features (default all); the result holds the marked features, in
        order, and computes nothing else.  The padded points are read only
        when a marked feature needs them: the count alone does not.
        """
        counts = grid.counts
        v, t = len(counts), grid.spec.max_points_per_voxel
        mask = np.arange(t)[None, :] < counts[:, None]
        dtype = self.compute_dtype or np.dtype(np.float64)
        if inputs is None:
            inputs = np.ones(AUGMENTED_FEATURES, dtype=bool)
        if v == 0 or not inputs.any():
            return np.zeros((v, t, int(inputs.sum())), dtype=dtype), mask

        columns = []
        if inputs[:3].any():
            points = grid.points
            safe_counts = np.maximum(counts, 1)[:, None, None]
            sums = (points[:, :, :3] * mask[:, :, None]).sum(axis=1, keepdims=True)
            offsets = (points[:, :, :3] - sums / safe_counts) * mask[:, :, None]
            columns += [offsets[:, :, i] for i in np.flatnonzero(inputs[:3])]
        if inputs[3]:
            zmin, zmax = self.z_range
            columns.append(
                np.clip((grid.points[:, :, 2] - zmin) / (zmax - zmin), 0.0, 1.0)
            )
        if inputs[4]:
            columns.append(grid.points[:, :, 3])
        if inputs[5]:
            columns.append(np.broadcast_to((counts / t)[:, None], (v, t)))
        features = np.stack(columns, axis=-1) * mask[:, :, None]
        return features.astype(dtype, copy=False), mask

    # -- forward / backward -------------------------------------------------
    def forward(
        self, grid: VoxelGrid, outputs: np.ndarray | None = None
    ) -> SparseTensor3d:
        """Pooled ``(V, out_channels)`` features of every voxel.

        Training passes no ``outputs``: every channel is computed from all
        six features, and :meth:`backward` can follow.  Inference passes the
        boolean mask of the channels its consumer reads and keeps no state.
        Only those channels are computed, from only the features their
        weights read; every other channel is left zero.  A marked channel
        with no live weight is ``relu(bias)`` in every voxel that holds a
        point, so it reads no points.  Each feature left out has zero
        weight in every computed channel, so for finite inputs they equal
        the training pass.
        """
        weight = self.linear.weight.value
        bias = self.linear.bias.value
        dtype = self.compute_dtype or np.dtype(np.float64)
        pooled = np.zeros((grid.num_voxels, self.out_channels), dtype=dtype)
        training = outputs is None
        if training:
            weighted = np.ones(self.out_channels, dtype=bool)
            read = np.ones(AUGMENTED_FEATURES, dtype=bool)
        else:
            weighted = outputs & np.any(weight, axis=1)
            read = np.any(weight[weighted], axis=0)
            constant = outputs & ~weighted
            level = bias[constant].astype(dtype)
            pooled[:, constant] = np.where(
                (level > 0) & (grid.counts > 0)[:, None], level, 0.0
            )
        if weighted.any():
            features, mask = self.augment(grid, read)
            v, t, f = features.shape
            x = features.reshape(v * t, f)
            # The product spans every output, as the training pass's does,
            # so BLAS sums each kept column in the same order.
            hidden = x @ weight[:, read].astype(dtype, copy=False).T
            if not weighted.all():
                hidden = hidden[:, weighted]
            hidden += bias[weighted]
            relu = hidden > 0
            hidden = np.where(relu, hidden, 0.0).reshape(v, t, hidden.shape[1])
            masked = np.where(mask[:, :, None], hidden, -np.inf)
            argmax = masked.argmax(axis=1)
            best = np.take_along_axis(masked, argmax[:, None, :], axis=1)[:, 0, :]
            pooled[:, weighted] = np.where(np.isfinite(best), best, 0.0)
            if training:
                self._cache = (x, relu, argmax, mask)
        return SparseTensor3d(grid.coords, pooled, grid.spec.grid_shape)

    def backward(self, grad_output: SparseTensor3d | np.ndarray) -> np.ndarray:
        x, relu, argmax, mask = self._cache
        v, t = mask.shape
        grad_pooled = (
            grad_output.features
            if isinstance(grad_output, SparseTensor3d)
            else np.asarray(grad_output)
        )
        grad_hidden = np.zeros((v, t, self.out_channels))
        np.put_along_axis(
            grad_hidden, argmax[:, None, :], grad_pooled[:, None, :], axis=1
        )
        # Voxels with zero valid points contributed nothing.
        grad_hidden *= mask[:, :, None]
        grad = np.where(relu, grad_hidden.reshape(v * t, self.out_channels), 0.0)
        self.linear.weight.grad += grad.T @ x
        self.linear.bias.grad += grad.sum(axis=0)
        return (grad @ self.linear.weight.value).reshape(v, t, AUGMENTED_FEATURES)

    # -- analytic weights ---------------------------------------------------
    def analytic_init(self) -> None:
        """Install weights making pooled channels physically meaningful.

        channel 0: occupancy (constant 1 for any non-empty voxel),
        channel 1: max normalised height of the voxel's points,
        channel 2: max reflectance,
        channel 3: normalised point count (count / max_points).
        Remaining channels are zeroed.
        """
        if self.out_channels < 4:
            raise ValueError("analytic VFE needs at least 4 output channels")
        w = np.zeros_like(self.linear.weight.value)
        b = np.zeros_like(self.linear.bias.value)
        b[0] = 1.0  # occupancy
        w[1, 3] = 1.0  # z_norm input
        w[2, 4] = 1.0  # reflectance input
        w[3, 5] = 1.0  # count_norm input
        self.linear.weight.value[...] = w
        self.linear.bias.value[...] = b
