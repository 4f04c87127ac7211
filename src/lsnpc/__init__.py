"""Latent-shift correction of multilabel predictions trained on noisy labels.

The package covers the full loop: synthetic multilabel data, label-noise
injection (symmetric and pairflip transition matrices), a plain MLP baseline,
the variational post-processor with Student-t latent proposals, prediction
correction, F1 evaluation, and numerical verification of the model's KL
bounds.  Everything runs on numpy with a small reverse-mode autodiff engine;
runs are byte-reproducible from (config, seed).
"""

from .autodiff import ComputeGraph, Tensor
from .baseclf import BaseClassifier, BaseTrainConfig, train_base
from .config import ConfigError, ExperimentConfig, load_config
from .correction import CorrectionConfig, CorrectionResult, correct, knn_correct
from .datagen import FeatureDataset, GeneratorConfig, generate_synthetic
from .evaluation import Report, macro_f1, micro_f1
from .experiment import run_ablation, run_experiment, sweep_sensitivity, verify_all
from .model import LsnpcModel, LsnpcTrainConfig, ModelConfig, train_semi_supervised
from .noise import SplitSpec, TransitionMatrix, build_transition_matrix, corrupt_labels
from .theory import QuadratureGrid, verify_theorem1

__version__ = "0.1.0"

__all__ = [
    "BaseClassifier",
    "BaseTrainConfig",
    "ComputeGraph",
    "ConfigError",
    "CorrectionConfig",
    "CorrectionResult",
    "ExperimentConfig",
    "FeatureDataset",
    "GeneratorConfig",
    "LsnpcModel",
    "LsnpcTrainConfig",
    "ModelConfig",
    "QuadratureGrid",
    "Report",
    "SplitSpec",
    "Tensor",
    "TransitionMatrix",
    "build_transition_matrix",
    "correct",
    "corrupt_labels",
    "generate_synthetic",
    "knn_correct",
    "load_config",
    "macro_f1",
    "micro_f1",
    "run_ablation",
    "run_experiment",
    "sweep_sensitivity",
    "train_base",
    "train_semi_supervised",
    "verify_all",
    "verify_theorem1",
]
