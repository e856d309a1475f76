"""pseudograd: semi-supervised learning with pseudo-labels as trainable logits.

Unlabeled examples get a trainable pseudo-logit row that is optimized by
gradient descent jointly with the network weights, under a loss combining a
prediction/pseudo-label divergence with entropy regularization. A periodic
reprediction-and-decay schedule counteracts pseudo-label flattening. The
``theory`` module verifies the method's convergence properties empirically.
"""

__version__ = "0.1.0"

from .config import LossConfig, TrainConfig
from .trainer import run_pipeline

__all__ = ["LossConfig", "TrainConfig", "run_pipeline", "__version__"]
