"""Framewise F0 synthesis and modification toolkit for speaker anonymization.

The package regresses a fundamental-frequency trajectory (plus a
voiced/unvoiced decision) per frame from linguistic features and a
speaker embedding, trains that network from scratch on numpy, evaluates
it with standard pitch metrics, and replaces speaker identity through
pseudo-speaker selection with either network synthesis or a
shift-and-scale comparator.  A deterministic synthetic-corpus generator
with closed-form ground truth makes every piece testable end to end.

Modules
-------
featureio   binary feature files, manifests, datasets, normalization
synthgen    deterministic synthetic world with exact ground truth
model       the from-scratch MLP: forward, backward, predict, checkpoints
training    composite loss, NAdam, plateau scheduler, the training loop
metrics     GPE/FPE, voicing confusion, accurately-processed, correlation
anonymize   speaker pools, pseudo-speaker selection, shift-and-scale
cli         synthgen/train/eval/anonymize commands over a flat config
"""

from .anonymize import (
    ContrastiveMode,
    F0Stats,
    PoolEntry,
    PseudoSpeaker,
    SpeakerPool,
    load_pool,
    pool_from_dataset,
    select_pseudo_speaker,
    shift_scale_f0,
    speaker_f0_stats,
    write_pool,
)
from .featureio import (
    Dataset,
    FormatError,
    FrameTable,
    Gender,
    NormStats,
    Utterance,
    assemble_features,
    build_frame_table,
    compute_norm_stats,
    load_manifest,
    read_feature_file,
    write_dataset,
    write_feature_file,
)
from .metrics import (
    FrameCounts,
    MetricsReport,
    evaluate_utterances,
    pitch_correlation,
    pitch_error_counts,
)
from .model import (
    ModelConfig,
    ModelParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    predict_f0,
    save_checkpoint,
)
from .synthgen import GroundTruthMapping, SynthSpec, generate_synthetic_dataset
from .training import (
    SchedulerState,
    TrainConfig,
    TrainHistory,
    composite_loss,
    nadam_step,
    scheduler_update,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ContrastiveMode",
    "Dataset",
    "F0Stats",
    "FormatError",
    "FrameCounts",
    "FrameTable",
    "Gender",
    "GroundTruthMapping",
    "MetricsReport",
    "ModelConfig",
    "ModelParams",
    "NormStats",
    "PoolEntry",
    "PseudoSpeaker",
    "SchedulerState",
    "SpeakerPool",
    "SynthSpec",
    "TrainConfig",
    "TrainHistory",
    "Utterance",
    "assemble_features",
    "backward",
    "build_frame_table",
    "composite_loss",
    "compute_norm_stats",
    "evaluate_utterances",
    "forward",
    "generate_synthetic_dataset",
    "init_params",
    "load_checkpoint",
    "load_manifest",
    "load_pool",
    "nadam_step",
    "pitch_correlation",
    "pitch_error_counts",
    "pool_from_dataset",
    "predict_f0",
    "read_feature_file",
    "save_checkpoint",
    "scheduler_update",
    "select_pseudo_speaker",
    "shift_scale_f0",
    "speaker_f0_stats",
    "train",
    "write_dataset",
    "write_feature_file",
    "write_pool",
]
