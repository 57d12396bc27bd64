"""Fully connected F0 synthesis network, hand-rolled on numpy.

The network regresses two per-frame outputs from a feature row: a
normalized log-F0 value and a voiced/unvoiced logit.  Hidden layers are
ReLU, the output layer is linear (the loss consumes raw logits), and all
math runs in float64.  The backward pass is exact analytic
backpropagation; no autodiff framework is involved.

Checkpoint format (bit-exact, little-endian):

    magic    4 bytes  b"F0MD"
    version  u32      1
    n_layers u32      number of weight layers (hidden count + 1)
    input_dim u32
    out_dims u32 * n_layers   (hidden sizes, then 2)
    dropout  f64
    norm     f64 * input_dim  input mean
             f64 * input_dim  input std
             f64              log-F0 mean
             f64              log-F0 std
    layers   per layer: W row-major f64 (out*in), then b f64 (out)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .featureio import (FormatError, NormStats, at_row, pack_header, require_bytes,
                        unpack_header)

CHECKPOINT_MAGIC = b"F0MD"
CHECKPOINT_VERSION = 1
OUTPUT_UNITS = 2  # normalized log-F0, voicing logit


def _default_hidden() -> list[int]:
    return [512, 256, 128, 64]


@dataclass(frozen=True)
class ModelConfig:
    """Network shape: input width, hidden widths, dropout probability."""

    input_dim: int
    hidden_sizes: list[int] = field(default_factory=_default_hidden)
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.input_dim <= 0:
            raise ValueError("input_dim must be positive")
        if not self.hidden_sizes or any(h <= 0 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be a non-empty list of positive ints")
        if not 0.0 <= self.dropout <= 0.5:
            raise ValueError("dropout must be in [0, 0.5]")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(out, in) shape of every weight matrix, input to output."""
        widths = [self.input_dim, *self.hidden_sizes, OUTPUT_UNITS]
        return [(widths[i + 1], widths[i]) for i in range(len(widths) - 1)]


@dataclass
class ModelParams:
    """Weight matrices (out x in), bias vectors, and normalization stats."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    norm: NormStats

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up")
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: inconsistent weight/bias shapes")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(f"layer {i}: input width breaks the layer chain")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: non-finite parameter")
        if self.weights[-1].shape[0] != OUTPUT_UNITS:
            raise ValueError(f"output layer has {self.weights[-1].shape[0]} units, "
                             f"must have {OUTPUT_UNITS}")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "ModelParams":
        return ModelParams([w.copy() for w in self.weights],
                           [b.copy() for b in self.biases],
                           self.norm)


@dataclass
class Gradients:
    """Loss gradients shaped like ModelParams' weights and biases."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class ForwardCache:
    """One forward pass's intermediates, kept for the backward pass.

    ``inputs`` is the batch; ``post_acts[i]`` is layer i's activation after
    ReLU (and dropout, when on), and the output layer's affine output.
    ``dropout_masks[i]`` holds the inverted-scaled mask or None.
    """

    inputs: np.ndarray
    post_acts: list[np.ndarray]
    dropout_masks: list[np.ndarray | None]


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Uniform fan-balanced init: W ~ U[-s, s], s = sqrt(6/(fan_in+fan_out)).

    Biases start at zero; normalization stats start as the identity and
    are set from training data before real use.
    """
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for out_dim, in_dim in config.layer_dims:
        s = np.sqrt(6.0 / (in_dim + out_dim))
        weights.append(rng.uniform(-s, s, size=(out_dim, in_dim)))
        biases.append(np.zeros(out_dim))
    return ModelParams(weights, biases, NormStats.identity(config.input_dim))


def forward(
    params: ModelParams,
    batch: np.ndarray,
    train_mode: bool = False,
    dropout: float = 0.0,
    dropout_seed=None,
) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Run the network on a normalized batch (B x input_dim).

    Returns (f0hat_norm, voicing logits, cache).  Dropout applies to
    hidden activations only, inverted-scaled by 1/(1-dropout), and only
    when ``train_mode`` and ``dropout > 0``; inference never drops.

    Each layer writes one fresh array: the product, then the bias, ReLU
    and dropout in place.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.input_dim:
        raise ValueError(
            f"batch must be B x {params.input_dim}, got {batch.shape}")
    if not np.isfinite(batch).all():
        raise ValueError("non-finite value in batch")
    drop = train_mode and dropout > 0.0
    rng = np.random.default_rng(dropout_seed) if drop else None
    cache = ForwardCache(batch, [], [])
    a = batch
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ w.T
        a += b
        mask = None
        if i < params.n_layers - 1:
            np.maximum(a, 0.0, out=a)
            if drop:
                mask = (rng.random(a.shape) >= dropout) / (1.0 - dropout)
                a *= mask
        cache.post_acts.append(a)
        cache.dropout_masks.append(mask)
    return a[:, 0], a[:, 1], cache


def backward(
    params: ModelParams,
    cache: ForwardCache,
    dL_df0hat: np.ndarray,
    dL_dg: np.ndarray,
) -> Gradients:
    """Exact backprop from per-row output gradients to every parameter.

    The upstream vectors must already carry the loss's averaging factors;
    this pass only sums over rows.  ReLU's subgradient at 0 is 0: a
    hidden unit passes gradient where its activation is > 0, which after
    ReLU is exactly where its pre-activation was.
    """
    if [a.shape[1] for a in cache.post_acts] != [w.shape[0] for w in params.weights]:
        raise ValueError("cache does not match params (layer widths)")
    b_rows = cache.inputs.shape[0]
    dL_df0hat = np.asarray(dL_df0hat, dtype=np.float64)
    dL_dg = np.asarray(dL_dg, dtype=np.float64)
    if dL_df0hat.shape != (b_rows,) or dL_dg.shape != (b_rows,):
        raise ValueError("output gradients must be length-B vectors")
    d_z = np.empty((b_rows, OUTPUT_UNITS))
    d_z[:, 0] = dL_df0hat
    d_z[:, 1] = dL_dg
    d_weights: list[np.ndarray] = [None] * params.n_layers
    d_biases: list[np.ndarray] = [None] * params.n_layers
    for i in range(params.n_layers - 1, -1, -1):
        a_prev = cache.inputs if i == 0 else cache.post_acts[i - 1]
        d_weights[i] = d_z.T @ a_prev
        d_biases[i] = np.einsum("ij->j", d_z)  # sum(axis=0)'s order, in one pass
        if i == 0:
            break
        # d_a is fresh, so the in-place products leave the cache intact.
        # Multiplying (not assigning zeros) keeps the sign of zero products;
        # where dropout zeroed a unit, d_a is already a signed zero.
        d_a = d_z @ params.weights[i]
        mask = cache.dropout_masks[i - 1]
        if mask is not None:
            np.multiply(d_a, mask, out=d_a)
        d_z = np.multiply(d_a, cache.post_acts[i - 1] > 0.0, out=d_a)
    return Gradients(d_weights, d_biases)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, open interval (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    ex = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) elsewhere: never overflows
    denom = 1.0 + ex
    return np.where(x >= 0, 1.0 / denom, ex / denom)


def infer_f0(params: ModelParams, normed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inference on normalized rows: (f0_hz, voicing logits).

    A frame is voiced iff its logit is >= 0 (the mask reads the logit
    sign, so the boundary logit 0 is voiced); voiced frames get exp of the
    denormalized log-F0 prediction, unvoiced frames are exactly 0 Hz.
    """
    f0hat_norm, g, _ = forward(params, normed)
    hz = np.exp(params.norm.denormalize_logf0(f0hat_norm))
    return np.where(g >= 0.0, hz, 0.0), g


def predict_f0(params: ModelParams, features_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masked inference on raw (unnormalized) feature rows.

    Returns (f0_hz, p_voiced); see ``infer_f0`` for the voicing mask.  A
    voiced frame whose F0 overflows float64 raises ``ValueError``, with no
    numpy warning; an unvoiced frame's overflow is masked to 0 Hz.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        f0, g = infer_f0(params, params.norm.normalize_inputs(features_raw))
    if not np.isfinite(f0).all():
        raise ValueError(f"predicted F0 overflows float64 (log-F0 mean "
                         f"{params.norm.logf0_mean:g}, std {params.norm.logf0_std:g})")
    return f0, sigmoid(g)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path: str | Path, params: ModelParams, dropout: float = 0.0) -> None:
    """Serialize params (and the dropout setting) to the binary format above."""
    blob = bytearray(pack_header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, params.n_layers,
                                 params.input_dim, *(w.shape[0] for w in params.weights)))
    blob += struct.pack("<d", dropout)
    norm = params.norm
    blob += np.ascontiguousarray(norm.input_mean, dtype="<f8").tobytes()
    blob += np.ascontiguousarray(norm.input_std, dtype="<f8").tobytes()
    blob += struct.pack("<dd", norm.logf0_mean, norm.logf0_std)
    for w, b in zip(params.weights, params.biases):
        blob += np.ascontiguousarray(w, dtype="<f8").tobytes(order="C")
        blob += np.ascontiguousarray(b, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def load_checkpoint(path: str | Path) -> tuple[ModelParams, ModelConfig]:
    """Read a checkpoint back; inverse of save_checkpoint, bit-exact."""
    path = Path(path)
    data = path.read_bytes()
    n_layers, input_dim = unpack_header(path, data, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                        2, "model checkpoint")
    if n_layers < 1 or input_dim < 1:
        raise FormatError(f"{path}: corrupt header")
    off = 16
    require_bytes(path, data, off + 4 * n_layers + 8, "header")
    dims = list(struct.unpack_from(f"<{n_layers}I", data, off))
    off += 4 * n_layers
    (dropout,) = struct.unpack_from("<d", data, off)
    off += 8

    def take(count: int) -> np.ndarray:
        nonlocal off
        end = off + 8 * count
        require_bytes(path, data, end, "payload")
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=off).copy()
        off = end
        return arr

    input_mean = take(input_dim)
    input_std = take(input_dim)
    logf0_mean, logf0_std = take(2)
    weights, biases = [], []
    in_dim = input_dim
    for out_dim in dims:
        weights.append(take(out_dim * in_dim).reshape(out_dim, in_dim))
        biases.append(take(out_dim))
        in_dim = out_dim
    if off != len(data):
        raise FormatError(f"{path}: trailing bytes after payload")
    with at_row(path):
        norm = NormStats(input_mean, input_std, float(logf0_mean), float(logf0_std))
        return (ModelParams(weights, biases, norm),
                ModelConfig(input_dim=input_dim, hidden_sizes=dims[:-1], dropout=dropout))
