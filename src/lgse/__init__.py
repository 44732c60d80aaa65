"""Transformer speech enhancement with pluggable positional encodings,
built small enough to train, verify, and study length generalization on a CPU.
"""

from .dsp import Utterance, Waveform, mix_at_snr, stft, istft, synth_corpus
from .evaluate import (
    ExperimentConfig,
    MetricReport,
    TestSuiteConfig,
    enhance_chunked,
    enhance_full,
    run_lengen_experiment,
    seg_snr,
    si_sdr,
)
from .model import EnhancementModel, ModelConfig
from .numerics import Tensor, backward
from .objectives import TargetKind
from .posenc import PeKind
from .training import TrainConfig, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "backward",
    "Waveform",
    "Utterance",
    "stft",
    "istft",
    "mix_at_snr",
    "synth_corpus",
    "TargetKind",
    "PeKind",
    "ModelConfig",
    "EnhancementModel",
    "TrainConfig",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "si_sdr",
    "seg_snr",
    "enhance_full",
    "enhance_chunked",
    "TestSuiteConfig",
    "ExperimentConfig",
    "MetricReport",
    "run_lengen_experiment",
    "__version__",
]
