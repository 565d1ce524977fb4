"""Consensus-attention cloze reading comprehension at desk scale.

Modules: `tensor` (autodiff engine), `nn` (GRU encoder blocks), `reader`
(attention head), `datagen` (triple generation), `vocab` (shortlist
vocabulary), `train` (optimization and checkpoints), `data` (JSONL I/O),
`synthetic` (verification corpus), `evaluate` (accuracy), `cli`
(command-line surface).
"""

from .datagen import ClozeSample, TaggedDocument
from .errors import CasReaderError
from .reader import ModelParams, ReaderConfig
from .tensor import Tensor, grad_check
from .train import TrainConfig
from .vocab import Vocabulary

__all__ = [
    "CasReaderError",
    "ClozeSample",
    "ModelParams",
    "ReaderConfig",
    "TaggedDocument",
    "Tensor",
    "TrainConfig",
    "Vocabulary",
    "grad_check",
]

__version__ = "0.1.0"
