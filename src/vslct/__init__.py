"""Loss-conditional training over the vector-scaling (VS) loss family.

Tools for binary classification under severe class imbalance: the VS
loss and its landscape geometry, linear distributions for sampling loss
hyperparameters, FiLM-conditioned MLPs trained so one model covers a
whole family of losses, ROC/AUC metrics, and sweep orchestration with
variance statistics.

The package root re-exports what one conditioned run needs; everything
else is imported from its module (vslct.losses, vslct.analysis, ...).
"""

from vslct.data import synth_gaussian
from vslct.lindist import make_linear
from vslct.losses import VsHyperParams
from vslct.metrics import roc_curve
from vslct.training import LctConfig, TrainConfig, evaluate, train_lct

__version__ = "0.1.0"
