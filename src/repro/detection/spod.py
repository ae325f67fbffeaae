"""SPOD: the assembled Sparse Point-cloud Object Detection pipeline.

The end-to-end detector of paper Fig. 1: preprocessing -> voxel feature
extractor -> sparse convolutional middle layers -> region proposal network,
followed by proposal decoding, point-evidence confidence calibration and
rotated NMS.  One detector instance handles both dense (64-beam) and
sparse (16-beam) clouds — the property the paper names SPOD for — and, in
Cooper, runs unchanged on merged multi-vehicle clouds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from repro.detection.anchors import AnchorGrid, decode_boxes
from repro.detection.calibrate import ConfidenceCalibrator
from repro.detection.detections import Detection
from repro.detection.middle import SparseMiddleExtractor
from repro.detection.nms import rotated_nms
from repro.detection.preprocess import preprocess
from repro.detection.refine import BoxRefiner
from repro.detection.rpn import RegionProposalNetwork
from repro.detection.vfe import VoxelFeatureEncoder
from repro.geometry.boxes import Box3D
from repro.pointcloud.cloud import PointCloud
from repro.pointcloud.voxel import VoxelGridSpec, voxelize
from repro.profiling import PROFILER

__all__ = ["NMS_IOU", "SPODConfig", "SPOD"]

#: Rotated BEV IoU above which detections suppress each other.
NMS_IOU = 0.2


@functools.lru_cache(maxsize=4)
def _cell_coordinates(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index of every cell of a ``shape`` grid, flattened
    in C order, as float bincount weights (read-only: callers share them)."""
    rows, cols = np.indices(shape, dtype=float).reshape(2, -1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _suppress_contained(detections: list[Detection]) -> list[Detection]:
    """Drop small-class boxes sitting inside a stronger car box.

    Rotated NMS keys on IoU, which stays tiny for a pedestrian-sized box
    inside a car-sized one; without this, a car's wheel cluster could be
    double-reported as a pedestrian.
    """
    cars = [d for d in detections if d.label == "car"]
    kept: list[Detection] = []
    for det in detections:
        if det.label != "car":
            inside = any(
                c.score >= det.score
                and np.linalg.norm(c.box.center[:2] - det.box.center[:2])
                < c.box.length / 2.0
                for c in cars
            )
            if inside:
                continue
        kept.append(det)
    return kept


@dataclass(frozen=True)
class SPODConfig:
    """Configuration of the SPOD pipeline.

    Attributes:
        voxel_spec: detection range and voxel geometry.  The default covers
            the receiver's surroundings including the area behind it, since
            cooperators may contribute points from any direction.
        vfe_channels: VFE output feature width.  The analytic path uses
            exactly 4 physically-meaningful channels; widen only when
            training the learned heads.
        hidden_channels: RPN trunk width.
        candidate_threshold: minimum RPN objectness (probability) for a BEV
            cell to spawn a proposal.
        detection_threshold: minimum calibrated score to report — scores
            below this are the paper's X (missing detection).
        densify: run the spherical densification preprocessing of [27].
        use_learned_heads: decode boxes/scores from the trained network
            heads instead of the analytic refine+calibrate path.
        dtype: compute dtype for the kernel path (voxelize -> VFE ->
            middle -> RPN): ``"float32"``, ``"float64"``, or ``None`` to
            auto-select — float32 for :meth:`SPOD.pretrained` (inference),
            float64 for a plain :class:`SPOD` (training/calibration).  The
            analytic decode stage always runs in float64.
    """

    voxel_spec: VoxelGridSpec = field(
        default_factory=lambda: VoxelGridSpec(
            point_range=(-40.0, -40.0, -3.0, 72.0, 40.0, 1.0),
            voxel_size=(0.4, 0.4, 0.8),
            max_points_per_voxel=35,
        )
    )
    vfe_channels: int = 4
    hidden_channels: int = 4
    candidate_threshold: float = 0.35
    detection_threshold: float = 0.5
    densify: bool = False
    use_learned_heads: bool = False
    seed: int = 0
    dtype: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.candidate_threshold < 1.0:
            raise ValueError("candidate_threshold must be in (0, 1)")
        if not 0.0 <= self.detection_threshold <= 1.0:
            raise ValueError("detection_threshold must be in [0, 1]")
        if self.dtype not in (None, "float32", "float64"):
            raise ValueError("dtype must be None, 'float32' or 'float64'")


class SPOD:
    """The Sparse Point-cloud Object Detection network (paper Section III).

    Typical use::

        detector = SPOD.pretrained()
        detections = detector.detect(cloud)

    ``detect`` reports detections at or above the configured threshold —
    the blue/red boxes of the paper's figures.  ``detect_all`` additionally
    returns sub-threshold candidates, which the evaluation harness uses to
    recover the raw scores behind the X cells of Figs. 3 and 6.
    """

    def __init__(
        self, config: SPODConfig | None = None, *, default_dtype: str = "float64"
    ) -> None:
        self.config = config or SPODConfig()
        cfg = self.config
        # The config wins; otherwise the constructor's default applies —
        # float64 for a plain SPOD (training/calibration), float32 when
        # built through :meth:`pretrained` (inference).
        self.dtype = np.dtype(cfg.dtype or default_dtype)
        nz = cfg.voxel_spec.grid_shape[2]
        self.vfe = VoxelFeatureEncoder(
            cfg.vfe_channels,
            z_range=(cfg.voxel_spec.point_range[2], cfg.voxel_spec.point_range[5]),
            seed=cfg.seed,
        )
        self.vfe.compute_dtype = self.dtype
        self.middle = SparseMiddleExtractor(
            cfg.vfe_channels, cfg.vfe_channels, cfg.vfe_channels, seed=cfg.seed + 1
        )
        self.anchors = AnchorGrid(cfg.voxel_spec)
        # One objectness channel and one regression block per anchor yaw.
        self.rpn = RegionProposalNetwork(
            cfg.vfe_channels * nz,
            cfg.hidden_channels,
            num_yaws=len(self.anchors.yaws),
            seed=cfg.seed + 2,
        )
        self._nz = nz

    @staticmethod
    def pretrained(config: SPODConfig | None = None) -> "SPOD":
        """Build a detector with the analytic ("pretrained") weights.

        The weights make the network compute car-band point density minus a
        tall-structure penalty; see :meth:`RegionProposalNetwork.analytic_init`.
        Unless the config pins a dtype, the kernel path runs in float32 —
        the inference default (use ``SPODConfig(dtype="float64")`` to force
        the training-precision path).
        """
        detector = SPOD(config, default_dtype="float32")
        detector.vfe.analytic_init()
        detector.middle.analytic_init()
        nz = detector._nz
        car_bins = tuple(b for b in (1, 2, 3) if b < nz) or (0,)
        tall_bin = nz - 1
        detector.rpn.analytic_init(nz, car_bins=car_bins, tall_bin=tall_bin)
        return detector

    def parameters(self):
        """Yield every trainable parameter of the network stages."""
        yield from self.vfe.parameters()
        yield from self.middle.parameters()
        yield from self.rpn.parameters()

    # -- network forward ---------------------------------------------------
    def forward_features(
        self, cloud: PointCloud, inference: bool = False, tap: bool = False
    ):
        """Preprocess + voxelize + VFE + middle; return tensors up to BEV.

        With ``inference=True`` the VFE and the middle compute only the
        channels their consumer reads, over the live inputs and offsets of
        their own weights, and the BEV densification scatters only the
        channels the RPN's first convolution reads (nonzero weights).  The
        consumer is the RPN, or, with ``tap=True``, a cooperator, which
        ships every channel.  Under the analytic weights the RPN reads
        occupancy alone, which needs no points, so the voxel grid never
        fills its padded point tensor.  The computed channels equal the
        training pass's for finite inputs, so detections do not depend on
        what is skipped; but the pass keeps no state for training, where
        every channel still needs gradients.

        With ``tap=True`` the returned dict additionally exposes the
        sparse tensors the fusion layer taps: ``"vfe"`` (the VFE's output)
        and ``"middle"`` (the convolutional block's sparse output, i.e.
        exactly what ``"bev"`` densifies).  This is the feature-level
        exchange surface of :mod:`repro.fusion.feature` — per-voxel
        features plus their grid coordinates, orders of magnitude smaller
        than the raw cloud.
        """
        cfg = self.config
        with PROFILER.stage("spod.preprocess"):
            pre = preprocess(
                cloud,
                max_range=float(
                    np.abs(np.array(cfg.voxel_spec.point_range)).max() * 1.5
                ),
                densify=cfg.densify,
            )
        with PROFILER.stage("spod.voxelize"):
            grid = voxelize(
                pre.obstacles, cfg.voxel_spec, seed=cfg.seed, dtype=self.dtype
            )
        channel_mask = outputs = vfe_outputs = None
        if inference:
            used = self.rpn.used_input_channels()
            if not used.all():
                channel_mask = used
            if tap:
                outputs = vfe_outputs = np.ones(cfg.vfe_channels, dtype=bool)
            else:
                outputs = used.reshape(cfg.vfe_channels, self._nz).any(axis=1)
                vfe_outputs = self.middle.live_inputs(outputs)
        with PROFILER.stage("spod.vfe"):
            sparse = self.vfe(grid, outputs=vfe_outputs)
        with PROFILER.stage("spod.middle"):
            middle = self.middle.forward_sparse(sparse, outputs)
            bev = self.middle.to_dense(middle, channel_mask=channel_mask)
        tensors = {"pre": pre, "grid": grid, "bev": bev}
        if tap:
            tensors["vfe"] = sparse
            tensors["middle"] = middle
        return tensors

    def rpn_apply(self, bev: np.ndarray) -> np.ndarray:
        """The inference RPN pass, profiled: the objectness logits
        ``(rows, num_yaws, H, W)`` of ``bev``, which may batch several maps.

        Runs :meth:`RegionProposalNetwork.objectness`, which computes only
        live channels and taps and no regression head: the analytic decode
        and the fusion layer's confidence and fused passes read the logits
        alone.
        """
        with PROFILER.stage("spod.rpn"):
            return self.rpn.objectness(bev)

    def _rpn_heads(self, bev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The dense RPN pass with both heads, profiled: training and the
        learned decode, the readers of ``reg``."""
        with PROFILER.stage("spod.rpn"):
            return self.rpn(bev)

    def forward(self, cloud: PointCloud, inference: bool = False):
        """Run preprocessing + the network; return the internal tensors.

        Returns a dict with the preprocess result, voxel grid, BEV feature
        map and the RPN's (cls_logits, reg) outputs.
        """
        tensors = self.forward_features(cloud, inference=inference)
        cls_logits, reg = self._rpn_heads(tensors["bev"])
        tensors["cls_logits"] = cls_logits
        tensors["reg"] = reg
        return tensors

    # -- detection ----------------------------------------------------------
    def detect(self, cloud: PointCloud) -> list[Detection]:
        """Detect cars, reporting only scores >= ``detection_threshold``."""
        return [
            d
            for d in self.detect_all(cloud)
            if d.score >= self.config.detection_threshold
        ]

    def detect_all(self, cloud: PointCloud) -> list[Detection]:
        """Detect cars including sub-threshold candidates (post-NMS)."""
        return self._detect_cloud(cloud)

    def detect_batch(self, clouds) -> list[list[Detection]]:
        """Detect over several clouds, one per-cloud pipeline run each.

        The serving engine's dispatch call: results equal
        :meth:`detect_all` on each cloud, in order.
        """
        return [self._detect_cloud(cloud) for cloud in clouds]

    def _detect_cloud(self, cloud: PointCloud) -> list[Detection]:
        """The per-cloud pipeline behind :meth:`detect_all` and
        :meth:`detect_batch`."""
        if len(cloud) == 0:
            # A blackout frame (repro.faults) or out-of-range cloud: no
            # active voxels means no proposals; skip the network entirely.
            return []
        tensors = self.forward_features(cloud, inference=True)
        if tensors["grid"].num_voxels == 0:
            return []
        if self.config.use_learned_heads:
            cls_logits, reg = self._rpn_heads(tensors["bev"])
            with PROFILER.stage("spod.decode"):
                raw = self._decode_learned(cls_logits, reg)
        else:
            cls_logits = self.rpn_apply(tensors["bev"])
            pre = tensors["pre"]
            with PROFILER.stage("spod.decode"):
                raw = self._decode_analytic(
                    cls_logits, pre.obstacles.xyz, pre.full.xyz, pre.ground_z
                )
        with PROFILER.stage("spod.nms"):
            return rotated_nms(raw, NMS_IOU)

    # -- decoding paths -------------------------------------------------------
    def _candidate_cells(self, cls_logits: np.ndarray) -> np.ndarray:
        """One representative BEV cell per objectness plateau.

        Local maxima on a saturated sigmoid form plateaus; labelling the
        maxima mask and keeping one centroid per connected component keeps
        the proposal count proportional to the number of objects rather
        than the number of above-threshold cells.
        """
        prob = 1.0 / (1.0 + np.exp(-np.clip(cls_logits[0], -60, 60)))
        heat = prob.max(axis=0)
        local_max = heat == ndimage.maximum_filter(heat, size=3)
        mask = local_max & (heat > self.config.candidate_threshold)
        labeled, count = ndimage.label(mask)
        if count == 0:
            return np.zeros((0, 2), dtype=int)
        # Plateau centroids via label-indexed sums over the whole grid —
        # the coordinate sums are exact integer arithmetic, so this matches
        # what ndimage.center_of_mass produced at a fraction of the cost.
        labels = labeled.ravel()
        rows, cols = _cell_coordinates(labeled.shape)
        sizes = np.bincount(labels, minlength=count + 1)[1:]
        row_c = np.bincount(labels, weights=rows, minlength=count + 1)[1:] / sizes
        col_c = np.bincount(labels, weights=cols, minlength=count + 1)[1:] / sizes
        return np.round(np.column_stack([row_c, col_c])).astype(int)

    def _decode_analytic(
        self,
        cls_logits: np.ndarray,
        obstacle_xyz: np.ndarray,
        full_xyz: np.ndarray,
        ground_z: float,
    ) -> list[Detection]:
        """Refine and score one RPN output against its point evidence.

        ``obstacle_xyz`` feeds the box refiner and confidence calibrator;
        ``full_xyz`` (obstacles plus ground returns) supplies the x and y
        columns of the ground band for the refiner's ground-shadow test.
        """
        with PROFILER.stage("spod.decode.cells"):
            cells = self._candidate_cells(cls_logits)
        if len(cells) == 0:
            return []
        with PROFILER.stage("spod.decode.index"):
            # Strict ground band: low returns on object *faces* must not count
            # as ground or they would defeat the ground-shadow test.
            ground_mask = full_xyz[:, 2] <= ground_z + 0.08
            # One column at a time: gathering the (N, 2) rows costs more.
            ground_xy = (
                np.compress(ground_mask, full_xyz[:, 0]),
                np.compress(ground_mask, full_xyz[:, 1]),
            )
            refiner = BoxRefiner(obstacle_xyz, ground_z, ground_xy=ground_xy)
            calibrator = ConfidenceCalibrator(obstacle_xyz, ground_z)
        centers = self.anchors.cell_centers()
        with PROFILER.stage("spod.decode.refine"):
            fits = refiner.refine_batch([centers[ix, iy] for ix, iy in cells])
        with PROFILER.stage("spod.decode.calibrate"):
            # Nearby proposals frequently mean-shift onto the same density
            # mode and share one fit; score each distinct fit once, all in
            # one calibrator pass.
            distinct = list({id(fit): fit for fit in fits if fit is not None}.values())
            scores = calibrator.score_batch(
                [fit.box for fit in distinct], [fit.object_class for fit in distinct]
            )
            score_of = dict(zip(map(id, distinct), scores.tolist()))
            detections = [
                Detection(fit.box, score_of[id(fit)], label=fit.object_class.name)
                for fit in fits
                if fit is not None and score_of[id(fit)] >= 0.05
            ]
        with PROFILER.stage("spod.decode.suppress"):
            return _suppress_contained(detections)

    def _decode_learned(
        self, cls_logits: np.ndarray, reg: np.ndarray
    ) -> list[Detection]:
        cls_logits = cls_logits[0]  # (A, H, W)
        reg = reg[0]  # (7A, H, W)
        prob = 1.0 / (1.0 + np.exp(-np.clip(cls_logits, -60, 60)))
        anchors = self.anchors
        centers = anchors.cell_centers()
        l, w, h = anchors.anchor_size
        detections: list[Detection] = []
        keep = np.argwhere(prob > self.config.candidate_threshold)
        for a, ix, iy in keep:
            anchor_row = np.array(
                [
                    centers[ix, iy, 0],
                    centers[ix, iy, 1],
                    anchors.anchor_z,
                    l,
                    w,
                    h,
                    anchors.yaws[a],
                ]
            )
            residual = reg[a * 7 : (a + 1) * 7, ix, iy]
            decoded = decode_boxes(residual[None, :], anchor_row[None, :])[0]
            try:
                box = Box3D.from_vector(decoded)
            except ValueError:
                continue  # degenerate size from an untrained head
            detections.append(Detection(box, float(prob[a, ix, iy])))
        return detections
