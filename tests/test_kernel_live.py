"""The kernel path's live inference pass against the dense training path.

At inference the voxel grid fills its padded point tensor only when read,
the VFE computes only the channels the middle reads, and the middle's
``SubmanifoldConv3d.infer`` only the channels the RPN (or a feature tap)
reads, over the offsets whose weights are live.  Every computed channel
must equal the training pass (``forward``, every channel over the full
rulebook) byte for byte, and so must the detector's detections and
feature taps on the paper's cases and the scenario families.  The lazy
point tensor must equal the eager build of :mod:`tests.voxel_reference`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import kitti_cases
from repro.detection.middle import SparseMiddleExtractor
from repro.detection.nn.sparse import RULEBOOK_CACHE, SparseTensor3d, SubmanifoldConv3d
from repro.detection.spod import SPOD, SPODConfig
from repro.detection.vfe import AUGMENTED_FEATURES, VoxelFeatureEncoder
from repro.fusion.feature import FeatureTap
from repro.pointcloud.cloud import PointCloud
from repro.pointcloud.voxel import VoxelGridSpec, voxelize
from tests.family_corpus import detection_clouds, merged_cloud
from tests.voxel_reference import eager_points

CENTRE = 13
SPEC = VoxelGridSpec(
    point_range=(0.0, -4.0, -3.0, 8.0, 4.0, 1.0),
    voxel_size=(1.0, 1.0, 0.8),
    max_points_per_voxel=8,
)


@pytest.fixture(autouse=True)
def _clean_rulebook_cache():
    """Every test starts and ends with an empty, enabled shared cache."""
    RULEBOOK_CACHE.clear()
    RULEBOOK_CACHE.enabled = True
    yield
    RULEBOOK_CACHE.clear()
    RULEBOOK_CACHE.enabled = True


def _assert_bytes_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _mask(size: int, *marked: int) -> np.ndarray:
    mask = np.zeros(size, dtype=bool)
    mask[list(marked)] = True
    return mask


def _lookups() -> int:
    return RULEBOOK_CACHE.hits + RULEBOOK_CACHE.misses


# -- SubmanifoldConv3d -------------------------------------------------------

def _tensor(seed: int = 0, sites: int = 60, dtype=np.float64) -> SparseTensor3d:
    """Random sites of a 6x5x4 grid, dense enough that every offset pairs."""
    grid = (6, 5, 4)
    rng = np.random.default_rng(seed)
    linear = rng.choice(np.prod(grid), size=sites, replace=False)
    coords = np.stack(np.unravel_index(linear, grid), axis=1)
    features = rng.normal(size=(sites, 4)).astype(dtype)
    return SparseTensor3d(coords, features, grid)


def _conv(seed: int = 0, stride: int = 1) -> SubmanifoldConv3d:
    """A 3x3x3 convolution, 4 -> 4 channels, random weights and biases."""
    conv = SubmanifoldConv3d(4, 4, stride=stride, seed=seed)
    conv.bias.value[...] = np.random.default_rng(seed + 100).normal(size=4)
    return conv


def _check_infer(conv, tensor, outputs) -> SparseTensor3d:
    """``conv.infer`` must equal ``conv.forward`` on the marked channels,
    at the same output sites, and leave every other channel zero."""
    live, _ = conv.infer(tensor, outputs)
    dense = conv(tensor)
    _assert_bytes_equal(live.coords, dense.coords)
    assert live.grid_shape == dense.grid_shape
    _assert_bytes_equal(live.features[:, outputs], dense.features[:, outputs])
    assert not live.features[:, ~outputs].any()
    return live


class TestSubmanifoldInfer:
    def test_centre_only_maps_each_site_to_itself(self):
        conv = _conv(1)
        centre = conv.weight.value[CENTRE].copy()
        conv.weight.value[...] = 0.0
        conv.weight.value[CENTRE] = centre
        tensor = _tensor(1)
        live, rulebook = conv.infer(tensor, _mask(4, 0, 1, 2, 3))
        assert rulebook is None
        assert _lookups() == 0
        _assert_bytes_equal(live.features, conv(tensor).features)

    def test_no_live_offset_is_the_bias(self):
        conv = _conv(2)
        conv.weight.value[...] = 0.0
        tensor = _tensor(2)
        live, rulebook = conv.infer(tensor, _mask(4, 1, 3))
        assert rulebook is None
        assert _lookups() == 0
        expected = conv.bias.value[[1, 3]]
        assert np.all(live.features[:, [1, 3]] == expected)
        _check_infer(conv, tensor, _mask(4, 1, 3))

    def test_one_off_centre_offset_live_for_one_output(self):
        conv = _conv(3)
        rng = np.random.default_rng(3)
        conv.weight.value[...] = 0.0
        conv.weight.value[4, :, 2] = rng.normal(size=4)
        tensor = _tensor(3)
        _, rulebook = conv.infer(tensor, _mask(4, 2))
        assert rulebook is not None
        live = _check_infer(conv, tensor, _mask(4, 2))
        # The offset pairs some sites, so the channel is more than its bias.
        assert np.any(live.features[:, 2] != conv.bias.value[2])

    def test_offsets_dead_for_the_marked_output_are_skipped(self):
        conv = _conv(4)
        conv.weight.value[:, :, 0] = 0.0
        conv.weight.value[CENTRE, :, 0] = 1.0
        tensor = _tensor(4)
        live, rulebook = conv.infer(tensor, _mask(4, 0))
        assert rulebook is None
        _check_infer(conv, tensor, _mask(4, 0))

    @pytest.mark.parametrize("seed", range(3))
    def test_all_offsets_live(self, seed):
        conv = _conv(seed)
        tensor = _tensor(seed)
        live = _check_infer(conv, tensor, _mask(4, 0, 1, 2, 3))
        _assert_bytes_equal(live.features, conv(tensor).features)
        for channel in range(4):
            _check_infer(conv, tensor, _mask(4, channel))

    @pytest.mark.parametrize("seed", range(2))
    def test_stride_two(self, seed):
        conv = _conv(seed, stride=2)
        tensor = _tensor(seed)
        live = _check_infer(conv, tensor, _mask(4, 0, 1, 2, 3))
        assert live.grid_shape == (3, 3, 2)
        _check_infer(conv, tensor, _mask(4, 1))
        # A stride never maps sites to themselves, even on the centre tap.
        conv.weight.value[np.arange(27) != CENTRE] = 0.0
        _, rulebook = conv.infer(tensor, _mask(4, 0, 1, 2, 3))
        assert rulebook is not None
        _check_infer(conv, tensor, _mask(4, 0, 1, 2, 3))

    @pytest.mark.parametrize("seed", range(3))
    def test_float32_features_add_the_float64_bias(self, seed):
        conv = _conv(seed)
        conv.weight.value[np.arange(27) != CENTRE] = 0.0
        tensor = _tensor(seed, dtype=np.float32)
        assert conv.bias.value.dtype == np.float64
        live = _check_infer(conv, tensor, _mask(4, 0, 1, 2, 3))
        assert live.features.dtype == np.float32
        # The case tells the two adds apart: a bias cast to float32 before
        # the add rounds some sums differently.
        sums = tensor.features @ conv.weight.value[CENTRE].astype(np.float32)
        float32_add = sums + conv.bias.value.astype(np.float32)
        assert float32_add.tobytes() != live.features.tobytes()

    @pytest.mark.parametrize("centre_only", [True, False])
    def test_empty_tensor(self, centre_only):
        conv = _conv(5)
        if centre_only:
            conv.weight.value[np.arange(27) != CENTRE] = 0.0
        empty = SparseTensor3d(
            np.zeros((0, 3), dtype=np.int64), np.zeros((0, 4)), (6, 5, 4)
        )
        live = _check_infer(conv, empty, _mask(4, 0, 2))
        assert live.features.shape == (0, 4)

    def test_live_inputs(self):
        conv = _conv(6)
        conv.weight.value[:, 1, :] = 0.0
        conv.weight.value[:, 3, 2] = 0.0
        assert conv.live_inputs(_mask(4, 2)).tolist() == [True, False, True, False]
        assert conv.live_inputs(_mask(4, 0, 2)).tolist() == [True, False, True, True]


class TestMiddleInfer:
    def _tensor(self, seed: int) -> SparseTensor3d:
        tensor = _tensor(seed, dtype=np.float32)
        tensor.features[:] = np.abs(tensor.features)
        return tensor

    def test_analytic_block_is_two_centre_taps(self):
        middle = SparseMiddleExtractor(4, 4, 4)
        middle.analytic_init()
        tensor = self._tensor(7)
        for outputs in (_mask(4, 0), _mask(4, 0, 1, 2, 3)):
            live = middle.forward_sparse(tensor, outputs)
            assert _lookups() == 0
            dense = middle.forward_sparse(tensor)
            _assert_bytes_equal(live.features[:, outputs], dense.features[:, outputs])
            assert not live.features[:, ~outputs].any()
            RULEBOOK_CACHE.clear()

    @pytest.mark.parametrize("seed", range(2))
    def test_trained_block_shares_one_rulebook(self, seed):
        middle = SparseMiddleExtractor(4, 4, 4, seed=seed)
        tensor = self._tensor(seed)
        outputs = _mask(4, 1, 2)
        live = middle.forward_sparse(tensor, outputs)
        assert (RULEBOOK_CACHE.hits, RULEBOOK_CACHE.misses) == (0, 1)
        dense = middle.forward_sparse(tensor)
        _assert_bytes_equal(live.features[:, outputs], dense.features[:, outputs])

    def test_live_inputs_chain_both_convolutions(self):
        middle = SparseMiddleExtractor(4, 4, 4, seed=1)
        middle.conv2.weight.value[:, :, 0] = 0.0
        middle.conv2.weight.value[:, 3, 0] = 1.0
        middle.conv1.weight.value[:, :, 3] = 0.0
        middle.conv1.weight.value[:, 2, 3] = 1.0
        assert middle.live_inputs(_mask(4, 0)).tolist() == [False, False, True, False]


# -- VoxelFeatureEncoder -----------------------------------------------------

def _cloud(seed: int = 0, points: int = 400) -> PointCloud:
    """Random returns inside ``SPEC``, crowded enough to overflow voxels."""
    rng = np.random.default_rng(seed)
    xyz = rng.uniform((0.0, -2.0, -3.0), (3.0, 1.0, 1.0), size=(points, 3))
    reflectance = rng.uniform(0.0, 1.0, size=(points, 1))
    return PointCloud(np.hstack([xyz, reflectance]).astype(np.float32))


def _vfe(seed: int, dtype) -> VoxelFeatureEncoder:
    vfe = VoxelFeatureEncoder(4, seed=seed)
    vfe.linear.bias.value[...] = np.random.default_rng(seed + 100).normal(size=4)
    vfe.compute_dtype = np.dtype(dtype)
    return vfe


def _check_vfe(vfe, outputs, dtype, seed: int = 0, reads_points: bool = True):
    """``vfe(grid, outputs)`` must equal the training pass on the marked
    channels, leave every other channel zero, and read the grid's points
    only when a marked channel's weights need them."""
    grid = voxelize(_cloud(seed), SPEC, seed=seed, dtype=dtype)
    live = vfe(grid, outputs=outputs)
    assert ("points" in vars(grid)) == reads_points
    dense = vfe(voxelize(_cloud(seed), SPEC, seed=seed, dtype=dtype))
    _assert_bytes_equal(live.coords, dense.coords)
    _assert_bytes_equal(live.features[:, outputs], dense.features[:, outputs])
    assert not live.features[:, ~outputs].any()
    return live


@pytest.mark.parametrize("dtype", ["float32", "float64"])
class TestVfeInfer:
    @pytest.mark.parametrize("bias", [0.7, 0.0, -0.4])
    def test_weightless_output_is_relu_of_its_bias(self, dtype, bias):
        vfe = _vfe(1, dtype)
        vfe.linear.weight.value[1] = 0.0
        vfe.linear.bias.value[1] = bias
        live = _check_vfe(vfe, _mask(4, 1), dtype, reads_points=False)
        assert np.all(live.features[:, 1] == np.dtype(dtype).type(max(bias, 0.0)))

    def test_output_reading_only_the_offsets(self, dtype):
        vfe = _vfe(2, dtype)
        vfe.linear.weight.value[2, 3:] = 0.0
        _check_vfe(vfe, _mask(4, 2), dtype, seed=2)

    def test_output_reading_only_the_count(self, dtype):
        vfe = _vfe(3, dtype)
        vfe.linear.weight.value[3, :5] = 0.0
        _check_vfe(vfe, _mask(4, 3), dtype, seed=3, reads_points=False)

    def test_every_output(self, dtype):
        vfe = _vfe(4, dtype)
        vfe.linear.weight.value[0] = 0.0
        live = _check_vfe(vfe, _mask(4, 0, 1, 2, 3), dtype, seed=4)
        dense = vfe(voxelize(_cloud(4), SPEC, seed=4, dtype=dtype))
        _assert_bytes_equal(live.features, dense.features)

    def test_analytic_channels(self, dtype):
        vfe = _vfe(5, dtype)
        vfe.analytic_init()
        _check_vfe(vfe, _mask(4, 0), dtype, seed=5, reads_points=False)
        _check_vfe(vfe, _mask(4, 0, 1, 2, 3), dtype, seed=5)

    def test_zero_voxels(self, dtype):
        vfe = _vfe(6, dtype)
        vfe.linear.weight.value[0] = 0.0
        empty = voxelize(PointCloud(np.zeros((0, 4), np.float32)), SPEC, dtype=dtype)
        live = vfe(empty, outputs=_mask(4, 0, 1))
        dense = vfe(empty)
        assert live.features.shape == (0, 4)
        _assert_bytes_equal(live.features, dense.features)
        assert vfe.augment(empty)[0].shape == (0, SPEC.max_points_per_voxel, AUGMENTED_FEATURES)


# -- the lazy point tensor -----------------------------------------------------

class TestLazyPoints:
    @pytest.fixture(scope="class")
    def clouds(self):
        case = kitti_cases()[0]
        return [_cloud(0), _cloud(1, points=2000), merged_cloud(case)]

    @pytest.mark.parametrize("dtype", [None, "float32", "float64"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_points_equal_the_eager_build(self, clouds, dtype, seed):
        specs = [SPEC, SPEC, SPODConfig().voxel_spec]
        for cloud, spec in zip(clouds, specs):
            grid = voxelize(cloud, spec, seed=seed, dtype=dtype)
            assert "points" not in vars(grid)
            expected, overfull = eager_points(cloud, spec, seed=seed, dtype=dtype)
            assert overfull > 0
            first = grid.points
            _assert_bytes_equal(first, expected)
            assert grid.points is first
            _assert_bytes_equal(grid.points, expected)

    def test_empty_grid(self):
        grid = voxelize(PointCloud(np.zeros((0, 4), np.float32)), SPEC, dtype="float64")
        assert grid.points.shape == (0, SPEC.max_points_per_voxel, 4)
        assert grid.points.dtype == np.float64


# -- the detector ---------------------------------------------------------------

def _dense(detector: SPOD) -> SPOD:
    """``detector`` with every forward pass forced onto the training path:
    every channel, every offset of the full rulebook, the full BEV."""

    def forward_features(cloud, inference=False, tap=False):
        return SPOD.forward_features(detector, cloud, tap=tap)

    detector.forward_features = forward_features
    return detector


def _key(detections) -> list:
    return [
        (
            d.box.center.tobytes(),
            np.float64(d.box.yaw).tobytes(),
            np.float64([d.box.length, d.box.width, d.box.height]).tobytes(),
            np.float64(d.score).tobytes(),
            d.label,
        )
        for d in detections
    ]


@pytest.fixture(scope="module")
def corpus_clouds():
    return detection_clouds()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
class TestDetector:
    def test_detect_all_equals_the_dense_pass(self, dtype, corpus_clouds):
        live = SPOD.pretrained(SPODConfig(dtype=dtype))
        dense = _dense(SPOD.pretrained(SPODConfig(dtype=dtype)))
        found = 0
        for cloud in corpus_clouds:
            detections = live.detect_all(cloud)
            assert _key(detections) == _key(dense.detect_all(cloud))
            found += len(detections)
        assert found > 0

    def test_taps_equal_the_dense_pass(self, dtype, corpus_clouds):
        live = SPOD.pretrained(SPODConfig(dtype=dtype))
        dense = _dense(SPOD.pretrained(SPODConfig(dtype=dtype)))
        for cloud in corpus_clouds:
            tap = FeatureTap.of(live, cloud, want_heat=True)
            expected = FeatureTap.of(dense, cloud, want_heat=True)
            _assert_bytes_equal(tap.coords, expected.coords)
            _assert_bytes_equal(tap.features, expected.features)
            _assert_bytes_equal(tap.heat, expected.heat)

    def test_analytic_detect_builds_nothing_it_does_not_read(self, dtype, corpus_clouds):
        detector = SPOD.pretrained(SPODConfig(dtype=dtype))
        for cloud in corpus_clouds[:4]:
            grid = detector.forward_features(cloud, inference=True)["grid"]
            assert grid.num_voxels > 0
            assert "points" not in vars(grid)
            assert detector.detect_all(cloud)
        assert _lookups() == 0
