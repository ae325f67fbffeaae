"""Cooper's cooperative-perception core (paper Sections II and III).

The data plane: a transmitting vehicle packs its (ROI-cropped, compressed)
LiDAR cloud together with its GPS and IMU readings into an
:class:`ExchangePackage`; the receiver aligns the package's points into its
own frame using the Eq. (1)-(3) transform and merges them with its native
cloud; SPOD then runs once on the merged cloud.

Baselines the paper argues against are also implemented: single-shot
(no cooperation), object-level (late) fusion — which "will only work when
both vehicles share a reference object" and can never recover objects
neither vehicle detected — and feature-level fusion of BEV feature maps.
"""

from repro.fusion.package import ExchangePackage
from repro.fusion.align import alignment_transform, align_package, merge_packages
from repro.fusion.cooper import Cooper, CooperResult
from repro.fusion.baselines import (
    single_shot_baseline,
    object_level_fusion,
    feature_level_fusion,
)
from repro.fusion.temporal import merge_timeline
from repro.fusion.feature import (
    ConfidenceRequest,
    FeaturePackage,
    FeatureTap,
    FusedFeatures,
    build_feature_package,
    build_request,
    fuse_feature_packages,
    perceive_features,
    perceive_tap,
    rpn_confidence,
)
from repro.fusion.agent import (
    FUSION_MODES,
    AgentStep,
    CooperAgent,
    CooperSession,
)
from repro.fusion.diagnostics import AlignmentReport, alignment_residual, validate_package

__all__ = [
    "ExchangePackage",
    "ConfidenceRequest",
    "FeaturePackage",
    "FeatureTap",
    "FusedFeatures",
    "build_feature_package",
    "build_request",
    "fuse_feature_packages",
    "perceive_features",
    "perceive_tap",
    "rpn_confidence",
    "FUSION_MODES",
    "alignment_transform",
    "align_package",
    "merge_packages",
    "Cooper",
    "CooperResult",
    "single_shot_baseline",
    "object_level_fusion",
    "feature_level_fusion",
    "merge_timeline",
    "AgentStep",
    "CooperAgent",
    "CooperSession",
    "AlignmentReport",
    "alignment_residual",
    "validate_package",
]
