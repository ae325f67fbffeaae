"""Submanifold sparse 3D convolution over voxel hash maps.

The paper's middle layers use sparse CNNs [15] because voxelised LiDAR is
overwhelmingly empty: "output points are not computed if there is no
related input point".  A :class:`SparseTensor3d` stores only the active
sites — integer coordinates plus a feature row each — and
:class:`SubmanifoldConv3d` convolves them without ever materialising the
dense grid: for each kernel offset it gathers the (input, output) site
pairs related by that offset and applies one matmul.

The gather lists form a *rulebook* (:class:`Rulebook`), the SECOND-lineage
term for the per-offset (in_rows, out_rows) index pairs.  Rulebooks are a
pure function of the active-site set, so they are shared between the
stride-1 convolutions of a block (the submanifold property keeps the
active set invariant) and memoised across frames in
:data:`RULEBOOK_CACHE`, keyed by a hash of the site list and verified
exactly on every hit — a cache hit therefore returns bit-identical gather
lists, keeping results independent of cache state and worker count.
"""

from __future__ import annotations

import itertools
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.detection.nn.module import Module, Parameter
from repro.profiling import PROFILER

__all__ = [
    "SparseTensor3d",
    "Rulebook",
    "RulebookCache",
    "RULEBOOK_CACHE",
    "SubmanifoldConv3d",
    "SparseToDense",
]


@dataclass
class SparseTensor3d:
    """Active voxel sites with features.

    Attributes:
        coords: ``(V, 3)`` integer coordinates (ix, iy, iz).
        features: ``(V, C)`` feature rows.  Any floating dtype is preserved
            (the float32 inference path flows through unchanged); non-float
            inputs are promoted to float64.
        grid_shape: dense extent ``(nx, ny, nz)`` the coordinates live in.
    """

    coords: np.ndarray
    features: np.ndarray
    grid_shape: tuple[int, int, int]
    _linear: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _sort_order: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Tensors cross a layer boundary on every block: avoid the
        # unconditional re-copy of well-formed inputs — ``asarray`` is a
        # no-op when dtype and shape already match, and integer coords of
        # any width are accepted (linear_index upcasts as needed).
        coords = np.asarray(self.coords)
        if not np.issubdtype(coords.dtype, np.integer):
            coords = coords.astype(np.int64)
        if coords.ndim != 2 or coords.shape[1] != 3:
            coords = coords.reshape(-1, 3)
        self.coords = coords
        features = np.asarray(self.features)
        if not np.issubdtype(features.dtype, np.floating):
            features = features.astype(np.float64)
        self.features = features
        if len(self.coords) != len(self.features):
            raise ValueError("coords and features row counts differ")

    @property
    def num_active(self) -> int:
        """Number of active sites."""
        return len(self.coords)

    @property
    def num_channels(self) -> int:
        """Feature dimensionality."""
        return self.features.shape[1] if self.features.ndim == 2 else 0

    def linear_index(self) -> np.ndarray:
        """Linearised coordinates, usable as dict keys / sort keys.

        Computed once and cached on the tensor — every convolution that
        touches this tensor reuses the same array.
        """
        if self._linear is None:
            nx, ny, nz = self.grid_shape
            c = self.coords
            self._linear = (
                c[:, 0].astype(np.int64) * (ny * nz)
                + c[:, 1].astype(np.int64) * nz
                + c[:, 2]
            )
        return self._linear

    def sort_order(self) -> np.ndarray:
        """Argsort of :meth:`linear_index`, cached alongside it."""
        if self._sort_order is None:
            self._sort_order = np.argsort(self.linear_index())
        return self._sort_order

    def densify(self) -> np.ndarray:
        """Materialise the dense ``(C, nx, ny, nz)`` array (tests only)."""
        nx, ny, nz = self.grid_shape
        dense = np.zeros((self.num_channels, nx, ny, nz))
        dense[:, self.coords[:, 0], self.coords[:, 1], self.coords[:, 2]] = (
            self.features.T
        )
        return dense


@dataclass
class Rulebook:
    """Gather lists relating input to output sites for one active set.

    Attributes:
        out_coords: ``(O, 3)`` output site coordinates.
        out_grid: dense extent of the output sites.
        pairs: per-kernel-offset ``(offset_index, in_rows, out_rows)``
            gather lists (offsets with no related pairs are omitted).
        linear: the *unsorted* linearised input site list the rulebook was
            built from — the exact-match key for cache verification.
    """

    out_coords: np.ndarray
    out_grid: tuple[int, int, int]
    pairs: list[tuple[int, np.ndarray, np.ndarray]]
    linear: np.ndarray


def _build_pairs(
    in_tensor: SparseTensor3d,
    out_coords: np.ndarray,
    kernel_size: int,
    stride: int,
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """For each kernel offset, the (offset, in_rows, out_rows) gather lists.

    An output site ``o`` receives input site ``i`` through offset ``k`` when
    ``i = o * stride + k - pad`` (pad centres the kernel).
    """
    # A blackout frame (repro.faults) voxelises to zero active sites; so
    # can an out-of-range cloud.  There is nothing to relate — and indexing
    # an empty sorted site list would raise — so short-circuit to no pairs.
    if in_tensor.num_active == 0 or len(out_coords) == 0:
        return []
    pad = (kernel_size - 1) // 2
    nx, ny, nz = in_tensor.grid_shape
    order = in_tensor.sort_order()
    lin_sorted = in_tensor.linear_index()[order]
    offsets = list(itertools.product(range(kernel_size), repeat=3))
    pairs = []
    out = out_coords
    for k, offset in enumerate(offsets):
        shift = np.array(offset) - pad
        candidate = out * stride + shift
        in_bounds = (
            (candidate[:, 0] >= 0)
            & (candidate[:, 0] < nx)
            & (candidate[:, 1] >= 0)
            & (candidate[:, 1] < ny)
            & (candidate[:, 2] >= 0)
            & (candidate[:, 2] < nz)
        )
        lin_cand = (
            candidate[:, 0] * (ny * nz) + candidate[:, 1] * nz + candidate[:, 2]
        )
        pos = np.searchsorted(lin_sorted, lin_cand)
        pos_clipped = np.minimum(pos, len(lin_sorted) - 1)
        found = (
            in_bounds
            & (pos < len(lin_sorted))
            & (lin_sorted[pos_clipped] == lin_cand)
        )
        if found.any():
            pairs.append(
                (
                    k,
                    order[pos_clipped[found]].astype(np.int64),
                    np.nonzero(found)[0].astype(np.int64),
                )
            )
    return pairs


class RulebookCache:
    """Cross-frame memoisation of rulebooks, keyed by the active-site set.

    The key is ``(grid_shape, kernel_size, stride, #sites, crc32(sites))``;
    a hit additionally verifies the stored site list element-for-element,
    so a returned rulebook is always *exactly* the one a fresh build would
    produce — results never depend on cache state, process, or worker
    count.  Entries are evicted LRU-style beyond ``maxsize``.

    Hit/miss totals are kept on the cache (``hits`` / ``misses``) and
    mirrored into :mod:`repro.profiling` counters
    ``spod.rulebook_hits`` / ``spod.rulebook_misses`` when profiling is
    enabled.
    """

    def __init__(self, maxsize: int = 16) -> None:
        self.maxsize = maxsize
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, Rulebook] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._entries.clear()
        self.reset_stats()

    def reset_stats(self) -> None:
        """Zero the hit/miss counters without dropping entries.

        Benchmarks call this between repeats so a timed pass's counters
        reflect that pass alone while the (intentionally) warm entries
        survive.
        """
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @staticmethod
    def _key(
        tensor: SparseTensor3d, kernel_size: int, stride: int
    ) -> tuple:
        linear = tensor.linear_index()
        digest = zlib.crc32(np.ascontiguousarray(linear).view(np.uint8))
        return (tensor.grid_shape, kernel_size, stride, len(linear), digest)

    def lookup(
        self,
        tensor: SparseTensor3d,
        kernel_size: int,
        stride: int,
        build,
    ) -> Rulebook:
        """Return the memoised rulebook for ``tensor``, building on miss.

        ``build`` is a zero-argument callable producing the
        :class:`Rulebook` when the cache cannot serve the request.
        """
        if not self.enabled:
            return build()
        key = self._key(tensor, kernel_size, stride)
        entry = self._entries.get(key)
        if entry is not None and np.array_equal(entry.linear, tensor.linear_index()):
            self._entries.move_to_end(key)
            self.hits += 1
            PROFILER.count("spod.rulebook_hits")
            return entry
        self.misses += 1
        PROFILER.count("spod.rulebook_misses")
        entry = build()
        self._entries[key] = entry
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return entry


#: Process-wide rulebook memo shared by every sparse convolution.  Forked
#: workers inherit a snapshot and diverge independently; because hits are
#: verified exactly, per-process cache divergence can never change results.
RULEBOOK_CACHE = RulebookCache()


class SubmanifoldConv3d(Module):
    """Sparse 3D convolution.

    With ``stride == 1`` this is *submanifold*: the output active set equals
    the input active set, so sparsity never dilates (the property that makes
    deep sparse CNNs tractable).  With ``stride > 1`` it is a regular sparse
    convolution whose output sites are the distinct downsampled input sites.

    The forward pass computes in the dtype of the incoming features (the
    weights are cast to match), so a float32 tensor flows through a float32
    kernel; float64 training inputs keep the float64 kernels bit-for-bit.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        bias: bool = True,
        seed: int = 0,
    ) -> None:
        if kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd")
        rng = np.random.default_rng(seed)
        k3 = kernel_size**3
        fan_in = in_channels * k3
        self.weight = Parameter(
            rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(k3, in_channels, out_channels)),
            "sparseconv.weight",
        )
        self.bias = Parameter(np.zeros(out_channels), "sparseconv.bias") if bias else None
        self.kernel_size = kernel_size
        self.stride = stride
        self._cache: tuple | None = None

    def _output_sites(
        self, tensor: SparseTensor3d
    ) -> tuple[np.ndarray, tuple[int, int, int]]:
        if self.stride == 1:
            return tensor.coords, tensor.grid_shape
        down = tensor.coords // self.stride
        out_grid = tuple(
            int(np.ceil(g / self.stride)) for g in tensor.grid_shape
        )
        unique = np.unique(down, axis=0)
        return unique, out_grid  # type: ignore[return-value]

    def build_rulebook(self, tensor: SparseTensor3d) -> Rulebook:
        """The (possibly memoised) rulebook relating ``tensor`` to its output.

        Stride-1 rulebooks depend only on the active-site set, so a block
        of submanifold convolutions builds one rulebook and passes it to
        every :meth:`forward` in the block.
        """

        def build() -> Rulebook:
            out_coords, out_grid = self._output_sites(tensor)
            pairs = _build_pairs(tensor, out_coords, self.kernel_size, self.stride)
            return Rulebook(out_coords, out_grid, pairs, tensor.linear_index())

        return RULEBOOK_CACHE.lookup(tensor, self.kernel_size, self.stride, build)

    def forward(
        self, tensor: SparseTensor3d, rulebook: Rulebook | None = None
    ) -> SparseTensor3d:
        if rulebook is None:
            rulebook = self.build_rulebook(tensor)
        dtype = tensor.features.dtype
        weight = self.weight.value
        if weight.dtype != dtype:
            weight = weight.astype(dtype)
        out_features = np.zeros(
            (len(rulebook.out_coords), weight.shape[2]), dtype=dtype
        )
        for k, in_rows, out_rows in rulebook.pairs:
            np.add.at(
                out_features,
                out_rows,
                tensor.features[in_rows] @ weight[k],
            )
        if self.bias is not None:
            out_features += self.bias.value
        self._cache = (tensor, rulebook.pairs, len(rulebook.out_coords))
        return SparseTensor3d(rulebook.out_coords, out_features, rulebook.out_grid)

    def backward(self, grad_output: SparseTensor3d | np.ndarray) -> SparseTensor3d:
        tensor, pairs, num_out = self._cache
        grad_feat = (
            grad_output.features
            if isinstance(grad_output, SparseTensor3d)
            else np.asarray(grad_output)
        )
        grad_in = np.zeros_like(tensor.features)
        for k, in_rows, out_rows in pairs:
            g = grad_feat[out_rows]
            self.weight.grad[k] += tensor.features[in_rows].T @ g
            np.add.at(grad_in, in_rows, g @ self.weight.value[k].T)
        if self.bias is not None:
            self.bias.grad += grad_feat.sum(axis=0)
        return SparseTensor3d(tensor.coords, grad_in, tensor.grid_shape)


class SparseToDense(Module):
    """Scatter a sparse tensor to a dense BEV map, stacking z into channels.

    Output shape is ``(1, C * nz, nx, ny)`` — the standard trick the SECOND
    lineage uses to hand the 3D feature volume to a 2D RPN.  The dense map
    is allocated in the feature dtype, so the float32 inference path never
    round-trips through float64.

    ``channel_mask`` (inference only) skips scattering BEV channels the
    downstream network provably ignores — with the analytic RPN only the
    occupancy channel's car-band and tall z bins carry weight, so most of
    the scatter is wasted work.  Masked channels stay zero, which is
    exactly what a zero-weight consumer sees; ``backward`` refuses to run
    after a masked forward because the gradient of a discarded channel is
    not recoverable.
    """

    def __init__(self) -> None:
        self._cache: tuple | None = None

    def forward(
        self, tensor: SparseTensor3d, channel_mask: np.ndarray | None = None
    ) -> np.ndarray:
        nx, ny, nz = tensor.grid_shape
        c = tensor.num_channels
        dense = np.zeros((c, nz, nx, ny), dtype=tensor.features.dtype)
        coords = tensor.coords
        if channel_mask is None:
            dense[:, coords[:, 2], coords[:, 0], coords[:, 1]] = tensor.features.T
        else:
            mask = np.asarray(channel_mask, dtype=bool).reshape(c, nz)
            for ch in range(c):
                z_used = mask[ch]
                if not z_used.any():
                    continue
                if z_used.all():
                    dense[ch, coords[:, 2], coords[:, 0], coords[:, 1]] = (
                        tensor.features[:, ch]
                    )
                    continue
                keep = z_used[coords[:, 2]]
                dense[ch, coords[keep, 2], coords[keep, 0], coords[keep, 1]] = (
                    tensor.features[keep, ch]
                )
        self._cache = (tensor, (nx, ny, nz, c), channel_mask is not None)
        return dense.reshape(1, c * nz, nx, ny)

    def backward(self, grad_output: np.ndarray) -> SparseTensor3d:
        tensor, (nx, ny, nz, c), masked = self._cache
        if masked:
            raise RuntimeError(
                "SparseToDense.backward after a channel-masked forward: "
                "the mask is an inference-only optimisation"
            )
        grad = grad_output.reshape(c, nz, nx, ny)
        coords = tensor.coords
        grad_feat = grad[:, coords[:, 2], coords[:, 0], coords[:, 1]].T
        return SparseTensor3d(tensor.coords, grad_feat, tensor.grid_shape)
