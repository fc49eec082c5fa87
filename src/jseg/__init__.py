"""Youden's-J-regularized segmentation toolkit.

Losses with analytic gradients (cross entropy, pairwise J surrogate, their
JC sum, BWM and DSC baselines), the four-class instance-to-semantic
ground-truth transform, panoptic instance post-processing, imbalance
robustness simulations, and the evaluation metrics that go with them.
"""

from types import ModuleType as _ModuleType

from .grids import (
    InstanceLabelMap,
    LogitField,
    ProbabilityField,
    SemanticLabelMap,
    one_hot,
    probs_to_logits,
    softmax,
)
from .gridio import (
    DimMismatchError,
    GridIOError,
    InvalidValuesError,
    MalformedHeaderError,
    TruncatedPayloadError,
    read_grid,
    write_grid,
)
from .losses import (
    LOSS_IDS,
    LossValue,
    PairWeights,
    evaluate_loss,
    finite_difference_gradient,
    gradient_check,
)
from .metrics import (
    ConfusionCounts,
    InstanceMatching,
    MetricReport,
    binary_measures,
    confusion_measures,
    match_instances,
    panoptic,
    pearson,
)
from .postprocess import (
    PostprocessConfig,
    instances_from_probs,
    resolve_gaps,
    to_instances,
)
from .scenes import SceneSpec, generate_scene
from .simulate import (
    CorrelationResult,
    ImbalanceSimConfig,
    ImbalanceTable,
    LandscapeResult,
    ShrinkwrapConfig,
    ShrinkwrapTrace,
    landscape_scan,
    mcc_j_correlation,
    run_imbalance_sim,
    run_shrinkwrap,
)
from .train import TrainConfig, TrainDiverged, TrainTrace, train
from .transform import (
    BACKGROUND,
    CELL,
    GAP,
    TOUCHING,
    TransformConfig,
    ball_footprint,
    bottom_hat,
    to_semantic,
)

__version__ = "0.1.0"

# The names imported above, without the submodules that importing binds.
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
