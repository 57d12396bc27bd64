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

__version__ = "0.1.0"
