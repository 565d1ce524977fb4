"""Consensus-attention cloze reading comprehension at desk scale.

README.md's layout table names each module and its job.
"""

from .datagen import ClozeSample, TaggedDocument
from .errors import CasReaderError
from .reader import ModelParams
from .tensor import Tensor, grad_check
from .train import TrainConfig
from .vocab import Vocabulary

__all__ = [
    "CasReaderError",
    "ClozeSample",
    "ModelParams",
    "TaggedDocument",
    "Tensor",
    "TrainConfig",
    "Vocabulary",
    "grad_check",
]

__version__ = "0.1.0"
