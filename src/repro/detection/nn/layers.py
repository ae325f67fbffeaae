"""Dense layers: Linear, activations, BatchNorm, Conv2d, MaxPool2d.

Conv2d accumulates one BLAS contraction per kernel tap over shifted slices
of the padded input — on CPU numpy this beats the classic im2col unfold,
whose gather copy dominated profiles of the RPN.  Shapes follow the
PyTorch convention ``(N, C, H, W)``.
"""

from __future__ import annotations

import numpy as np

from repro.detection.nn.module import Module, Parameter

__all__ = [
    "Linear", "ReLU", "Sigmoid", "BatchNorm1d", "Conv2d", "MaxPool2d", "expand_channels"
]


def _he_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


class Linear(Module):
    """Affine map ``y = x @ W.T + b`` over the last axis."""

    def __init__(
        self, in_features: int, out_features: int, bias: bool = True, seed: int = 0
    ) -> None:
        rng = np.random.default_rng(seed)
        self.weight = Parameter(
            _he_init(rng, (out_features, in_features), in_features), "linear.weight"
        )
        self.bias = Parameter(np.zeros(out_features), "linear.bias") if bias else None
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        weight = self.weight.value
        if weight.dtype != x.dtype and np.issubdtype(x.dtype, np.floating):
            weight = weight.astype(x.dtype)
        out = x @ weight.T
        if self.bias is not None:
            out += self.bias.value
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._input
        flat_x = x.reshape(-1, x.shape[-1])
        flat_g = grad_output.reshape(-1, grad_output.shape[-1])
        self.weight.grad += flat_g.T @ flat_x
        if self.bias is not None:
            self.bias.grad += flat_g.sum(axis=0)
        return grad_output @ self.weight.value


class ReLU(Module):
    """Elementwise ``max(x, 0)``."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad_output, 0.0)


class Sigmoid(Module):
    """Elementwise logistic function."""

    def __init__(self) -> None:
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        s = self._output
        return grad_output * s * (1.0 - s)


class BatchNorm1d(Module):
    """Batch normalisation over the first axis of an ``(N, C)`` input."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        self.gamma = Parameter(np.ones(num_features), "bn.gamma")
        self.beta = Parameter(np.zeros(num_features), "bn.beta")
        self.eps = eps
        self.momentum = momentum
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self.training = True
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        self._cache = (x_hat, inv_std)
        return self.gamma.value * x_hat + self.beta.value

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x_hat, inv_std = self._cache
        n = grad_output.shape[0]
        self.gamma.grad += (grad_output * x_hat).sum(axis=0)
        self.beta.grad += grad_output.sum(axis=0)
        g_hat = grad_output * self.gamma.value
        if not self.training or n <= 1:
            return g_hat * inv_std
        return (
            inv_std
            / n
            * (n * g_hat - g_hat.sum(axis=0) - x_hat * (g_hat * x_hat).sum(axis=0))
        )


def expand_channels(values: np.ndarray, channels: np.ndarray) -> np.ndarray:
    """The ``(N, len(channels), H, W)`` map whose channels marked in the
    boolean mask ``channels`` hold ``values`` and whose others are zero."""
    if channels.all():
        return values
    full = np.zeros((values.shape[0], channels.size) + values.shape[2:], values.dtype)
    full[:, channels] = values
    return full


class Conv2d(Module):
    """2D convolution via shifted-slice matmuls; I/O is ``(N, C, H, W)``.

    The forward pass accumulates one BLAS contraction per kernel tap over a
    strided slice of the padded input — ``k*k`` small matmuls instead of an
    im2col unfold, whose ``(N, C, k, k, H, W)`` gather copy dominated the
    RPN's runtime.  It computes only what the weights can make nonzero,
    derived from the live weights on every call (so retrained weights take
    the dense path): input channels whose weights are all zero are never
    read, an output channel whose weights are all zero is its bias, and a
    tap that is zero for every computed output is skipped.  Each skipped
    product is an exact zero, so for finite inputs the result equals the
    dense sum.  :meth:`infer` also takes and returns only the channels that
    can be nonzero, so a network can chain its live channels layer to
    layer.  The backward pass mirrors every tap."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        bias: bool = True,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            _he_init(rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in),
            "conv2d.weight",
        )
        self.bias = Parameter(np.zeros(out_channels), "conv2d.bias") if bias else None
        self.stride = stride
        self.padding = padding
        self.kernel_size = kernel_size
        self._cache: tuple | None = None

    def _tap_slices(self, i: int, j: int, out_h: int, out_w: int) -> tuple:
        s = self.stride
        return (
            slice(None),
            slice(None),
            slice(i, i + s * out_h, s),
            slice(j, j + s * out_w, s),
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = (x,)
        out, outputs = self.infer(x, np.ones(x.shape[1], dtype=bool))
        return expand_channels(out, outputs)

    def infer(
        self, x: np.ndarray, inputs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The forward pass over live channels only; keeps no state.

        ``x`` holds, in order, the input channels marked in the boolean
        mask ``inputs``; every other input channel is identically zero.
        Returns ``(out, outputs)``: ``out`` holds the output channels
        marked in ``outputs``, those with a nonzero weight over a live
        input or a nonzero bias.  Every other output channel is
        identically zero (and stays zero through a ReLU), so it is left
        out.
        """
        k, s, p = self.kernel_size, self.stride, self.padding
        n, _, h, w = x.shape
        out_h = (h + 2 * p - k) // s + 1
        out_w = (w + 2 * p - k) // s + 1
        weight = self.weight.value[:, inputs]
        if weight.dtype != x.dtype and np.issubdtype(x.dtype, np.floating):
            weight = weight.astype(x.dtype)
        weighted = np.any(weight, axis=(1, 2, 3))
        outputs = weighted.copy()
        if self.bias is not None:
            outputs |= self.bias.value != 0
        # Only weighted outputs run the taps, over the inputs they read
        # and the taps live for any of them.  Dropping inputs *before*
        # padding is exact (zero-padding commutes with channel selection)
        # and, for the analytic RPN (4 of 20 BEV channels live), shrinks
        # both the pad copy and the dominant matmul 5x.
        weight = weight[weighted]
        read = np.any(weight, axis=(0, 2, 3))
        source = x
        if not read.all():
            weight = weight[:, read]
            source = np.ascontiguousarray(x[:, read])
        padded = np.pad(source, ((0, 0), (0, 0), (p, p), (p, p))) if p else source
        out = np.zeros((n, len(weight), out_h, out_w), dtype=x.dtype)
        for i, j in np.argwhere(np.any(weight, axis=(0, 1))).tolist():
            patch = padded[self._tap_slices(i, j, out_h, out_w)]
            # (o, c) x (n, c, h, w) -> (o, n, h, w)
            out += np.tensordot(
                weight[:, :, i, j], patch, axes=([1], [1])
            ).transpose(1, 0, 2, 3)
        out = expand_channels(out, weighted[outputs])
        if self.bias is not None:
            # Added in the bias's float64, as the dense layer always has:
            # a float32 bias would round the sums differently.
            out += self.bias.value[outputs][None, :, None, None]
        return out, outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        (x,) = self._cache
        k, s, p = self.kernel_size, self.stride, self.padding
        padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        out_h, out_w = grad_output.shape[2], grad_output.shape[3]
        weight = self.weight.value
        grad_padded = np.zeros_like(padded)
        for i in range(k):
            for j in range(k):
                tap = self._tap_slices(i, j, out_h, out_w)
                # (n, o, h, w) x (n, c, h, w) -> (o, c)
                self.weight.grad[:, :, i, j] += np.tensordot(
                    grad_output, padded[tap], axes=([0, 2, 3], [0, 2, 3])
                )
                # (c, o) x (n, o, h, w) -> (c, n, h, w)
                grad_padded[tap] += np.tensordot(
                    weight[:, :, i, j], grad_output, axes=([0], [1])
                ).transpose(1, 0, 2, 3)
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=(0, 2, 3))
        if p:
            return grad_padded[:, :, p:-p, p:-p]
        return grad_padded


class MaxPool2d(Module):
    """Max pooling with square windows; input ``(N, C, H, W)``."""

    def __init__(self, kernel_size: int = 2, stride: int | None = None) -> None:
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        out_h = (h - k) // s + 1
        out_w = (w - k) // s + 1
        strides = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, out_h, out_w, k, k),
            strides=(
                strides[0],
                strides[1],
                strides[2] * s,
                strides[3] * s,
                strides[2],
                strides[3],
            ),
            writeable=False,
        )
        flat = windows.reshape(n, c, out_h, out_w, k * k)
        argmax = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
        self._cache = (x.shape, argmax, out_h, out_w)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x_shape, argmax, out_h, out_w = self._cache
        n, c, h, w = x_shape
        k, s = self.kernel_size, self.stride
        grad_input = np.zeros(x_shape)
        rows = argmax // k
        cols = argmax % k
        oy, ox = np.meshgrid(np.arange(out_h), np.arange(out_w), indexing="ij")
        abs_rows = oy[None, None] * s + rows
        abs_cols = ox[None, None] * s + cols
        n_idx = np.arange(n)[:, None, None, None]
        c_idx = np.arange(c)[None, :, None, None]
        np.add.at(
            grad_input,
            (
                np.broadcast_to(n_idx, abs_rows.shape),
                np.broadcast_to(c_idx, abs_rows.shape),
                abs_rows,
                abs_cols,
            ),
            grad_output,
        )
        return grad_input
