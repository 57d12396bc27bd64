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
    cosine_distance,
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
    read_utterance,
    write_dataset,
    write_feature_file,
    write_utterance,
)
from .metrics import (
    ConfusionCounts,
    MetricsReport,
    PitchErrorCounts,
    accurately_processed,
    evaluate_utterances,
    fpe,
    gpe,
    pitch_correlation,
    pitch_error_counts,
    vuv_confusion,
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
    "ConfusionCounts",
    "ContrastiveMode",
    "Dataset",
    "F0Stats",
    "FormatError",
    "FrameTable",
    "Gender",
    "GroundTruthMapping",
    "MetricsReport",
    "ModelConfig",
    "ModelParams",
    "NormStats",
    "PitchErrorCounts",
    "PoolEntry",
    "PseudoSpeaker",
    "SchedulerState",
    "SpeakerPool",
    "SynthSpec",
    "TrainConfig",
    "TrainHistory",
    "Utterance",
    "accurately_processed",
    "assemble_features",
    "backward",
    "build_frame_table",
    "composite_loss",
    "compute_norm_stats",
    "cosine_distance",
    "evaluate_utterances",
    "forward",
    "fpe",
    "generate_synthetic_dataset",
    "gpe",
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
    "read_utterance",
    "save_checkpoint",
    "scheduler_update",
    "select_pseudo_speaker",
    "shift_scale_f0",
    "speaker_f0_stats",
    "train",
    "vuv_confusion",
    "write_dataset",
    "write_feature_file",
    "write_pool",
    "write_utterance",
]
