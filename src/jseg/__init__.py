"""Youden's-J-regularized segmentation toolkit.

Losses with analytic gradients (cross entropy, pairwise J surrogate, their
JC sum, BWM and DSC baselines), the four-class instance-to-semantic
ground-truth transform, panoptic instance post-processing, imbalance
robustness simulations, and the evaluation metrics that go with them.

Each module's ``__all__`` declares its public names; the package exports
the union of them.
"""

from types import ModuleType as _ModuleType

from .grids import *
from .gridio import *
from .losses import *
from .metrics import *
from .postprocess import *
from .scenes import *
from .simulate import *
from .train import *
from .transform import *

__version__ = "0.1.0"

# The names imported above, without the submodules that importing binds.
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
